//! Property-based tests (on the in-tree `soteria_rt::prop` harness) over
//! the core data structures and invariants: codecs round-trip under
//! correctable faults, counters never repeat, the layout partitions the
//! address space, the secure controller is a faithful memory under
//! arbitrary operation sequences, and the parsers that face the network
//! turn malformed input into errors, never panics.
//!
//! Failing cases are shrunk and their seeds recorded in
//! `tests/properties.regressions`; recorded entries replay before any
//! novel case on every run.

use soteria_suite::soteria::clone::CloningPolicy;
use soteria_suite::soteria::counter::CounterBlock;
use soteria_suite::soteria::layout::{MemoryLayout, MetaId, Region};
use soteria_suite::soteria::shadow::{decode_entry, encode_entry, ShadowMode, ShadowRecord};
use soteria_suite::soteria::toc::TocNode;
use soteria_suite::soteria::{DataAddr, SecureMemoryConfig, SecureMemoryController};
use soteria_suite::soteria_crypto::ctr::CounterModeCipher;
use soteria_suite::soteria_crypto::EncryptionKey;
use soteria_suite::soteria_ecc::chipkill::{ChipkillCodec, LineCodec};
use soteria_suite::soteria_ecc::gf256::Gf256;
use soteria_suite::soteria_ecc::hamming::SecDed72;
use soteria_suite::soteria_ecc::rs::ReedSolomon;
use soteria_suite::soteria_ecc::CorrectionOutcome;
use soteria_suite::soteria_nvm::LineAddr;

use soteria_suite::soteria_rt::json::Json;
use soteria_suite::soteria_rt::prop::{any, array, btree_set, check, vec, Config, Strategy};
use soteria_suite::soteria_rt::rng::StdRng;
use soteria_suite::soteria_rt::{prop_assert, prop_assert_eq};

/// Shared config: `cases` novel cases plus replay of the corpus.
fn cfg(cases: u32) -> Config {
    Config::with_cases(cases).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/properties.regressions"
    ))
}

#[test]
fn aes_ctr_roundtrips() {
    check(
        "aes_ctr_roundtrips",
        &cfg(64),
        &(
            array::<_, 16>(any::<u8>()),
            array::<_, 32>(any::<u8>()),
            any::<u64>(),
            any::<u64>(),
        ),
        |&(key, line, addr, counter)| {
            let cipher = CounterModeCipher::new(EncryptionKey::from_bytes(key));
            let mut full = [0u8; 64];
            full[..32].copy_from_slice(&line);
            full[32..].copy_from_slice(&line);
            let ct = cipher.encrypt_line(&full, addr, counter);
            prop_assert_eq!(cipher.decrypt_line(&ct, addr, counter), full);
            Ok(())
        },
    );
}

#[test]
fn rs_corrects_any_t_errors() {
    check(
        "rs_corrects_any_t_errors",
        &cfg(64),
        &(
            vec(any::<u8>(), 16usize),
            btree_set(0usize..20, 1..=2usize),
            vec(1u8..=255, 2usize),
        ),
        |(data, positions, magnitudes)| {
            let rs = ReedSolomon::new(20, 16).unwrap();
            let cw = rs.encode(data).unwrap();
            let mut bad = cw.clone();
            for (i, &pos) in positions.iter().enumerate() {
                bad[pos] ^= magnitudes[i % magnitudes.len()];
            }
            let (decoded, outcome) = rs.decode(&bad).unwrap();
            prop_assert_eq!(&decoded, data);
            let corrected = matches!(outcome, CorrectionOutcome::Corrected { .. });
            prop_assert!(corrected);
            Ok(())
        },
    );
}

#[test]
fn chipkill_survives_one_chip_any_pattern() {
    check(
        "chipkill_survives_one_chip_any_pattern",
        &cfg(64),
        &(array::<_, 32>(any::<u8>()), 0usize..18, 1u8..=255),
        |&(line, chip, pattern)| {
            let codec = ChipkillCodec::table4();
            let mut full = [0u8; 64];
            full[..32].copy_from_slice(&line);
            full[32..].copy_from_slice(&line);
            let mut stored = codec.encode_line(&full);
            for (i, b) in stored.iter_mut().enumerate() {
                if i % 18 == chip {
                    *b ^= pattern;
                }
            }
            let (decoded, outcome) = codec.decode_line(&stored);
            prop_assert_eq!(decoded, full);
            prop_assert!(outcome.is_usable());
            Ok(())
        },
    );
}

#[test]
fn rs_erasures_recover_any_two_marked_positions() {
    check(
        "rs_erasures_recover_any_two_marked_positions",
        &cfg(64),
        &(
            vec(any::<u8>(), 16usize),
            btree_set(0usize..18, 1..=2usize),
            vec(any::<u8>(), 2usize),
        ),
        |(data, positions, magnitudes)| {
            // RS(18,16): e <= 2t = 2 known erasures always recover, for any
            // corruption pattern (including "no corruption at all").
            let rs = ReedSolomon::new(18, 16).unwrap();
            let cw = rs.encode(data).unwrap();
            let mut bad = cw.clone();
            let marked: Vec<usize> = positions.iter().copied().collect();
            for (i, &pos) in marked.iter().enumerate() {
                bad[pos] ^= magnitudes[i % magnitudes.len()];
            }
            let (decoded, outcome) = rs.decode_with_erasures(&bad, &marked).unwrap();
            prop_assert_eq!(&decoded, data);
            prop_assert!(outcome.is_usable());
            Ok(())
        },
    );
}

#[test]
fn devices_agree_on_random_fault_sets() {
    check(
        "devices_agree_on_random_fault_sets",
        &cfg(64),
        &(
            btree_set(0u32..18, 0..4usize),
            0u32..4,
            0u32..8,
            vec(0u64..256, 8usize),
        ),
        |(chips, bank, row, probe_lines)| {
            // Functional (real RS decode) and symbolic (chip-count rule)
            // devices must classify every probed line identically under any
            // combination of single-chip row faults.
            use soteria_suite::soteria_nvm::device::NvmDimm;
            use soteria_suite::soteria_nvm::fault::{FaultFootprint, FaultKind, FaultRecord};
            use soteria_suite::soteria_nvm::geometry::DimmGeometry;
            let (bank, row) = (*bank, *row);
            let g = DimmGeometry::tiny();
            let mut functional = NvmDimm::chipkill(g);
            let mut symbolic = NvmDimm::symbolic(g, 1);
            for d in [&mut functional, &mut symbolic] {
                for line in 0..g.total_lines() {
                    d.write_line(LineAddr::new(line), &[line as u8; 64]);
                }
                for &chip in chips {
                    d.inject_fault(FaultRecord::on_chip(
                        &g,
                        chip,
                        FaultFootprint::SingleRow { bank, row },
                        FaultKind::Permanent,
                    ));
                }
            }
            for &line in probe_lines {
                let fo = functional.read_line(LineAddr::new(line)).1;
                let so = symbolic.read_line(LineAddr::new(line)).1;
                let class = |o: soteria_suite::soteria_ecc::CorrectionOutcome| match o {
                    soteria_suite::soteria_ecc::CorrectionOutcome::Clean => 0,
                    soteria_suite::soteria_ecc::CorrectionOutcome::Corrected { .. } => 1,
                    soteria_suite::soteria_ecc::CorrectionOutcome::Uncorrectable => 2,
                };
                prop_assert_eq!(class(fo), class(so), "line {}", line);
            }
            Ok(())
        },
    );
}

#[test]
fn gcm_seal_open_roundtrips() {
    check(
        "gcm_seal_open_roundtrips",
        &cfg(64),
        &(
            array::<_, 16>(any::<u8>()),
            array::<_, 12>(any::<u8>()),
            vec(any::<u8>(), 0..40usize),
            vec(any::<u8>(), 0..100usize),
        ),
        |(key, nonce, aad, plaintext)| {
            use soteria_suite::soteria_crypto::gcm::AesGcm;
            let gcm = AesGcm::new(*key);
            let (ct, tag) = gcm.seal(nonce, aad, plaintext);
            prop_assert_eq!(ct.len(), plaintext.len());
            let back = gcm.open(nonce, aad, &ct, &tag);
            prop_assert_eq!(back, Some(plaintext.clone()));
            // Any tag flip must be rejected.
            let mut bad_tag = tag;
            bad_tag[0] ^= 1;
            prop_assert!(gcm.open(nonce, aad, &ct, &bad_tag).is_none());
            Ok(())
        },
    );
}

#[test]
fn sha256_dispatch_matches_portable() {
    // The SHA-NI fast path must be bit-identical to the portable
    // compression across arbitrary content and every length class
    // (empty, sub-block, block-straddling, multi-block) — the same
    // guard the PR 2 AES dispatch carries.
    check(
        "sha256_dispatch_matches_portable",
        &cfg(64),
        &vec(any::<u8>(), 0..200usize),
        |data| {
            use soteria_suite::soteria_crypto::sha256::Sha256;
            prop_assert_eq!(Sha256::digest(data), Sha256::digest_portable(data));
            Ok(())
        },
    );
}

#[test]
fn ghash_clmul_matches_table_reference() {
    // The PCLMUL GHASH multiply (and the aggregated 4-block path inside
    // `seal`) must agree with the shifted-table reference built from
    // `mul_alpha`, for arbitrary keys and field elements.
    check(
        "ghash_clmul_matches_table_reference",
        &cfg(64),
        &(
            array::<_, 16>(any::<u8>()),
            (any::<u64>(), any::<u64>()),
            array::<_, 12>(any::<u8>()),
            vec(any::<u8>(), 0..100usize),
        ),
        |(key, (hi, lo), nonce, plaintext)| {
            use soteria_suite::soteria_crypto::gcm::AesGcm;
            let x = (u128::from(*hi) << 64) | u128::from(*lo);
            let gcm = AesGcm::new(*key);
            let sw = AesGcm::new(*key).force_software();
            prop_assert_eq!(gcm.mul_h(x), gcm.mul_h_table(x));
            prop_assert_eq!(sw.mul_h(x), gcm.mul_h_table(x));
            prop_assert_eq!(
                gcm.seal(nonce, b"aad", plaintext),
                sw.seal(nonce, b"aad", plaintext)
            );
            Ok(())
        },
    );
}

#[test]
fn morphable_counters_never_repeat() {
    check(
        "morphable_counters_never_repeat",
        &cfg(64),
        &vec(0usize..128, 1..400usize),
        |lines| {
            use soteria_suite::soteria::morphable::MorphableBlock;
            let mut block = MorphableBlock::new();
            let mut seen: Vec<std::collections::HashSet<u64>> =
                vec![std::collections::HashSet::new(); 128];
            for (slot, set) in seen.iter_mut().enumerate() {
                set.insert(block.counter(slot));
            }
            for &line in lines {
                let c = block.bump(line).counter();
                prop_assert!(
                    seen[line].insert(c),
                    "counter {} reused for line {}",
                    c,
                    line
                );
            }
            Ok(())
        },
    );
}

#[test]
fn secded_corrects_any_single_bit() {
    check(
        "secded_corrects_any_single_bit",
        &cfg(64),
        &(any::<u64>(), 0usize..72),
        |&(word, bit)| {
            let mut cw = SecDed72::encode(word);
            cw.flip_bit(bit);
            let (decoded, outcome) = cw.decode();
            prop_assert_eq!(decoded, word);
            prop_assert_eq!(outcome, CorrectionOutcome::Corrected { symbols: 1 });
            Ok(())
        },
    );
}

/// The counter-block roundtrip property, shared by the generated cases,
/// the corpus replays, and the ported legacy regression below.
fn counter_block_roundtrip_case(major: u64, minors: &[u8]) -> Result<(), String> {
    let mut block = CounterBlock::new();
    let mut raw = block.to_bytes();
    raw[..8].copy_from_slice(&major.to_le_bytes());
    block = CounterBlock::from_bytes(&raw);
    // Drive each minor to its target via bump (public API only).
    for (slot, &target) in minors.iter().enumerate() {
        for _ in 0..target {
            block.bump(slot);
        }
    }
    let restored = CounterBlock::from_bytes(&block.to_bytes());
    prop_assert_eq!(&restored, &block);
    for (slot, &target) in minors.iter().enumerate() {
        prop_assert_eq!(restored.minor(slot), target);
    }
    Ok(())
}

#[test]
fn counter_block_roundtrips() {
    check(
        "counter_block_roundtrips",
        &cfg(64),
        &(any::<u64>(), vec(0u8..128, 64usize)),
        |(major, minors)| counter_block_roundtrip_case(*major, minors),
    );
}

#[test]
fn counter_block_legacy_proptest_regression() {
    // Ported verbatim from the retired proptest corpus
    // (`cc cf4e1910…` in the old tests/properties.proptest-regressions):
    // a major counter with only bit 57 set plus a sparse minor pattern
    // once broke the from_bytes/to_bytes roundtrip. The old entry encoded
    // a proptest-internal RNG state that no longer replays, so the shrunk
    // value itself is pinned here.
    let major = 144115188075855872u64; // 1 << 57
    let mut minors = [0u8; 64];
    let tail: [u8; 33] = [
        48, 43, 21, 98, 63, 17, 126, 113, 48, 31, 112, 108, 29, 23, 34, 46, 39, 41, 19, 123, 61,
        105, 9, 61, 47, 94, 94, 80, 90, 2, 102, 31, 4,
    ];
    minors[31..].copy_from_slice(&tail);
    counter_block_roundtrip_case(major, &minors).expect("legacy regression case must pass");
}

#[test]
fn toc_node_roundtrips() {
    check(
        "toc_node_roundtrips",
        &cfg(64),
        &(vec(0u64..(1 << 56), 8usize), any::<u64>()),
        |(counters, mac)| {
            let mut node = TocNode::new();
            for (i, &c) in counters.iter().enumerate() {
                node.set_counter(i, c);
            }
            node.set_mac(*mac);
            prop_assert_eq!(TocNode::from_bytes(&node.to_bytes()), node);
            Ok(())
        },
    );
}

#[test]
fn shadow_entries_roundtrip() {
    check(
        "shadow_entries_roundtrip",
        &cfg(64),
        &(
            1u8..=12,
            0u64..(1 << 48),
            array::<_, 8>(any::<u16>()),
            any::<u64>(),
        ),
        |&(level, index, lsbs, mac)| {
            let record = ShadowRecord {
                meta: MetaId::new(level, index),
                lsbs,
                mac,
            };
            for mode in [ShadowMode::Plain, ShadowMode::Duplicated] {
                let decoded = decode_entry(&encode_entry(&record, mode), mode);
                prop_assert!(decoded.contains(&record));
            }
            Ok(())
        },
    );
}

#[test]
fn layout_meta_addresses_classify_back() {
    check(
        "layout_meta_addresses_classify_back",
        &cfg(64),
        &(1u64..64, any::<u64>(), any::<u64>()),
        |&(data_kilo_lines, level_pick, index_pick)| {
            let data_lines = data_kilo_lines * 1024;
            let layout = MemoryLayout::new(data_lines, 64, 2);
            let level = 1 + (level_pick % layout.levels() as u64) as u8;
            let index = index_pick % layout.level_count(level);
            let meta = MetaId::new(level, index);
            prop_assert_eq!(layout.classify(layout.meta_addr(meta)), Region::Meta(meta));
            for c in 1..=2u8 {
                prop_assert_eq!(
                    layout.classify(layout.clone_addr(meta, c)),
                    Region::Clone { meta, clone_no: c }
                );
            }
            Ok(())
        },
    );
}

#[test]
fn coverage_total_equals_data_per_level() {
    check(
        "coverage_total_equals_data_per_level",
        &cfg(64),
        &(1u64..32),
        |&data_kilo_lines| {
            let data_lines = data_kilo_lines * 1024;
            let layout = MemoryLayout::new(data_lines, 64, 0);
            for level in 1..=layout.levels() {
                let total: u64 = (0..layout.level_count(level))
                    .map(|i| layout.covered_data_lines(MetaId::new(level, i)))
                    .sum();
                prop_assert_eq!(total, data_lines, "level {}", level);
            }
            Ok(())
        },
    );
}

// The controller properties run fewer, heavier cases.

#[test]
fn controller_behaves_like_memory() {
    check(
        "controller_behaves_like_memory",
        &cfg(12),
        &vec((0u64..256, any::<u8>(), any::<bool>()), 1..200usize),
        |ops| {
            let config = SecureMemoryConfig::builder()
                .capacity_bytes(1 << 20)
                .metadata_cache(8 * 1024, 4)
                .cloning(CloningPolicy::Relaxed)
                .build()
                .unwrap();
            let mut memory = SecureMemoryController::new(config);
            let mut reference = std::collections::HashMap::new();
            for &(line, fill, is_write) in ops {
                if is_write {
                    let data = [fill; 64];
                    memory.write(DataAddr::new(line), &data).unwrap();
                    reference.insert(line, data);
                } else {
                    let expected = reference.get(&line).copied().unwrap_or([0u8; 64]);
                    prop_assert_eq!(memory.read(DataAddr::new(line)).unwrap(), expected);
                }
            }
            // Clean shutdown leaves the NVM image consistent with the model.
            memory.persist_all().unwrap();
            for (line, data) in &reference {
                prop_assert_eq!(memory.read(DataAddr::new(*line)).unwrap(), *data);
            }
            Ok(())
        },
    );
}

#[test]
fn crash_recovery_preserves_all_writes() {
    check(
        "crash_recovery_preserves_all_writes",
        &cfg(12),
        &vec((0u64..128, any::<u8>()), 1..80usize),
        |ops| {
            let config = SecureMemoryConfig::builder()
                .capacity_bytes(1 << 20)
                .metadata_cache(8 * 1024, 4)
                .cloning(CloningPolicy::None)
                .build()
                .unwrap();
            let mut memory = SecureMemoryController::new(config);
            let mut reference = std::collections::HashMap::new();
            for &(line, fill) in ops {
                let data = [fill; 64];
                memory.write(DataAddr::new(line), &data).unwrap();
                reference.insert(line, data);
            }
            let (mut memory, report) = soteria_suite::soteria::recover(memory.crash());
            prop_assert!(report.is_complete());
            for (line, data) in &reference {
                prop_assert_eq!(memory.read(DataAddr::new(*line)).unwrap(), *data);
            }
            Ok(())
        },
    );
}

#[test]
fn gf256_table_mul_div_match_bitwise_reference() {
    // The production Gf256 multiply/divide are fused exp/log table
    // lookups; check them against a branch-per-bit carryless multiply in
    // the same field (x^8 + x^4 + x^3 + x^2 + 1).
    fn slow_mul(mut a: u16, mut b: u16) -> u8 {
        let mut p: u16 = 0;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= 0x11d;
            }
            b >>= 1;
        }
        p as u8
    }
    check(
        "gf256_table_mul_div_match_bitwise_reference",
        &cfg(512),
        &(any::<u8>(), any::<u8>()),
        |&(a, b)| {
            let prod = Gf256::new(a) * Gf256::new(b);
            prop_assert_eq!(prod.value(), slow_mul(a as u16, b as u16));
            if b != 0 {
                // Division is the exact inverse of the table multiply.
                prop_assert_eq!(prod / Gf256::new(b), Gf256::new(a));
                let q = Gf256::new(a) / Gf256::new(b);
                prop_assert_eq!(
                    q.value(),
                    slow_mul(a as u16, Gf256::new(b).inverse().value() as u16)
                );
            }
            Ok(())
        },
    );
}

#[test]
fn start_gap_full_rotation_is_a_full_permutation() {
    // Start-gap wear leveling (Qureshi et al., MICRO 2009): over one full
    // rotation period — `lines * (lines + 1)` gap movements — every
    // logical line's data must visit every physical slot (including the
    // spare) exactly once and return to where it started. This is the
    // whole point of the scheme: a hot logical line spreads its writes
    // uniformly over all physical lines.
    use soteria_suite::soteria_nvm::wear::StartGapLeveler;
    check(
        "start_gap_full_rotation_is_a_full_permutation",
        &cfg(24),
        &(2u64..=16, 1u64..=3),
        |&(lines, interval)| {
            let mut lv = StartGapLeveler::new(lines, interval);
            // positions[l]: the sequence of distinct physical slots line
            // l's data occupies, starting from the identity mapping.
            let mut positions: Vec<Vec<u64>> = (0..lines).map(|l| vec![lv.translate(l)]).collect();
            let rotation_moves = lines * (lines + 1);
            while lv.total_moves() < rotation_moves {
                if lv.record_write().is_some() {
                    for (l, visited) in positions.iter_mut().enumerate() {
                        let p = lv.translate(l as u64);
                        if *visited.last().unwrap() != p {
                            visited.push(p);
                        }
                    }
                }
            }
            for (l, visited) in positions.iter().enumerate() {
                // Back to the identity mapping ...
                prop_assert_eq!(
                    *visited.last().unwrap(),
                    l as u64,
                    "line {} did not return home after a full rotation",
                    l
                );
                // ... having entered each of the `lines + 1` physical
                // slots exactly once (the home slot is re-entered at the
                // end, closing the cycle).
                prop_assert_eq!(
                    visited.len() as u64,
                    lines + 2,
                    "line {} made {} slot visits, want {}",
                    l,
                    visited.len(),
                    lines + 2
                );
                let distinct: std::collections::BTreeSet<u64> = visited.iter().copied().collect();
                prop_assert_eq!(
                    distinct,
                    (0..=lines).collect::<std::collections::BTreeSet<u64>>(),
                    "line {} missed a physical slot",
                    l
                );
            }
            Ok(())
        },
    );
}

/// Fuzz-style generator for arbitrary JSON documents: depth-bounded
/// nesting, finite numbers drawn from the full `f64` bit space, and
/// strings biased toward everything the escaper must handle (quotes,
/// backslashes, control bytes, astral-plane scalars).
struct JsonStrategy {
    depth: u32,
}

impl JsonStrategy {
    /// Characters the writer must escape or pass through verbatim.
    const CHAR_POOL: &'static [char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '/',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{08}',
        '\u{0c}',
        '\u{00}',
        '\u{1f}',
        'é',
        'λ',
        '漢',
        '\u{2028}',
        '😀',
        '\u{10fffd}',
    ];

    fn gen_string(rng: &mut StdRng) -> String {
        let len = rng.bounded_u64(8) as usize;
        (0..len)
            .map(|_| {
                if rng.bounded_u64(4) == 0 {
                    // Any scalar value (from_u32 rejects surrogates).
                    char::from_u32(rng.bounded_u64(0x110000) as u32).unwrap_or('\u{fffd}')
                } else {
                    Self::CHAR_POOL[rng.bounded_u64(Self::CHAR_POOL.len() as u64) as usize]
                }
            })
            .collect()
    }

    fn gen_number(rng: &mut StdRng) -> f64 {
        match rng.bounded_u64(4) {
            0 => rng.bounded_u64(2_001) as f64 - 1_000.0,
            1 => (rng.next_u64() >> 11) as f64, // 53-bit integers
            2 => rng.uniform_f64() * 2e15 - 1e15,
            _ => {
                // Arbitrary bit patterns; JSON has no Inf/NaN, so keep
                // resampling the exponent until the value is finite.
                let mut v = f64::from_bits(rng.next_u64());
                while !v.is_finite() {
                    v = f64::from_bits(rng.next_u64());
                }
                v
            }
        }
    }

    fn gen_value(&self, rng: &mut StdRng, depth: u32) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.bounded_u64(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.bounded_u64(2) == 1),
            2 => Json::Num(Self::gen_number(rng)),
            3 => Json::Str(Self::gen_string(rng)),
            4 => {
                let len = rng.bounded_u64(4) as usize;
                Json::Arr((0..len).map(|_| self.gen_value(rng, depth - 1)).collect())
            }
            _ => {
                let len = rng.bounded_u64(4) as usize;
                Json::Obj(
                    (0..len)
                        .map(|_| (Self::gen_string(rng), self.gen_value(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }
}

impl Strategy for JsonStrategy {
    type Value = Json;

    fn generate(&self, rng: &mut StdRng) -> Json {
        self.gen_value(rng, self.depth)
    }

    fn shrink(&self, value: &Json) -> Vec<Json> {
        let mut out = Vec::new();
        if *value != Json::Null {
            out.push(Json::Null);
        }
        match value {
            Json::Bool(true) => out.push(Json::Bool(false)),
            Json::Num(n) if *n != 0.0 => {
                out.push(Json::Num(0.0));
                if n.trunc() != *n {
                    out.push(Json::Num(n.trunc()));
                }
            }
            Json::Str(s) if !s.is_empty() => {
                out.push(Json::Str(String::new()));
                // Drop one character at a time, from the end.
                let shorter: String = s.chars().take(s.chars().count() - 1).collect();
                out.push(Json::Str(shorter));
            }
            Json::Arr(items) if !items.is_empty() => {
                out.push(Json::Arr(Vec::new()));
                for i in 0..items.len() {
                    let mut fewer = items.clone();
                    fewer.remove(i);
                    out.push(Json::Arr(fewer));
                }
                for (i, item) in items.iter().enumerate() {
                    for candidate in self.shrink(item) {
                        let mut next = items.clone();
                        next[i] = candidate;
                        out.push(Json::Arr(next));
                    }
                }
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push(Json::Obj(Vec::new()));
                for i in 0..entries.len() {
                    let mut fewer = entries.clone();
                    fewer.remove(i);
                    out.push(Json::Obj(fewer));
                }
                for (i, (key, item)) in entries.iter().enumerate() {
                    if !key.is_empty() {
                        let mut next = entries.clone();
                        next[i].0 = String::new();
                        out.push(Json::Obj(next));
                    }
                    for candidate in self.shrink(item) {
                        let mut next = entries.clone();
                        next[i].1 = candidate;
                        out.push(Json::Obj(next));
                    }
                }
            }
            _ => {}
        }
        out
    }
}

#[test]
fn json_documents_roundtrip_through_both_serializers() {
    // rt::json is the interchange format for every committed artifact
    // (campaign reports, baselines, service bodies): any document the
    // writer emits must reparse to the identical value via both the
    // compact and pretty forms, and rewriting the reparse must be
    // byte-stable.
    check(
        "json_documents_roundtrip_through_both_serializers",
        &cfg(256),
        &JsonStrategy { depth: 3 },
        |doc| {
            let compact = doc.to_string();
            let back = Json::parse(&compact)
                .map_err(|e| format!("compact form failed to reparse: {e}\n{compact}"))?;
            prop_assert_eq!(&back, doc);
            let pretty = doc.to_pretty_string();
            let back = Json::parse(&pretty)
                .map_err(|e| format!("pretty form failed to reparse: {e}\n{pretty}"))?;
            prop_assert_eq!(&back, doc);
            prop_assert_eq!(back.to_pretty_string(), pretty);
            Ok(())
        },
    );
}

#[test]
fn crashck_scripts_observe_a_prefix_of_committed_transactions() {
    // End-to-end crash-consistency property on the rt::crashck oracle:
    // for a random script seed and matrix cell, *every* WPQ-event crash
    // point must recover to a prefix of committed transactions — never a
    // torn transaction. The pinned corpus entries replay the script
    // shapes that exposed torn-write hazards while the atomic-commit
    // path was built (multi-write transactions sharing a data-MAC line,
    // repeated bumps of one counter slot, crashes between a commit group
    // and its eager tree propagation).
    use soteria_suite::soteria_faultsim::crashck::sweep_cell;
    const CELLS: [(&str, &str); 3] = [("lazy", "anubis"), ("eager", "anubis"), ("lazy", "osiris")];
    check(
        "crashck_scripts_observe_a_prefix_of_committed_transactions",
        &cfg(3),
        &(any::<u64>(), any::<u8>()),
        |&(seed, cell_pick)| {
            let (tree, recovery) = CELLS[cell_pick as usize % CELLS.len()];
            let (points, divergence) =
                sweep_cell(tree, &CloningPolicy::Relaxed, recovery, seed, 3, 2);
            prop_assert!(points > 1, "sweep enumerated no crash points");
            match divergence {
                None => Ok(()),
                Some(d) => Err(format!(
                    "cell {} point {}: {}\nscript: {}\nlast events:\n{}",
                    d.cell, d.point, d.reason, d.script, d.trace_tail
                )),
            }
        },
    );
}

#[test]
fn every_scheme_recovers_exactly_the_committed_prefix() {
    // The Strict oracle invariant, swept across the whole protection
    // scheme registry on identical workloads: after a random run of
    // atomic transactions and a power cut, each scheme's own recovery
    // hook must restore *exactly* the committed lines — every
    // acknowledged write readable with its last committed value, and
    // never a phantom line recovered that was not committed (no
    // over-recovery). One seed drives all schemes, so a divergence pins
    // both the workload shape and the scheme that mishandled it.
    use soteria_suite::soteria::standard_schemes;
    check(
        "every_scheme_recovers_exactly_the_committed_prefix",
        &cfg(4),
        &any::<u64>(),
        |&seed| {
            for scheme in standard_schemes() {
                let config = scheme
                    .build_config(1 << 18, 8 * 1024, 4, 16)
                    .map_err(|e| format!("{}: {e}", scheme.name()))?;
                let mut memory = SecureMemoryController::new(config);
                let mut rng = StdRng::seed_from_u64(seed);
                let txns = 1 + rng.bounded_u64(6);
                let crash_after = rng.bounded_u64(txns + 1);
                // Hot set of 64 lines so transactions collide on counter
                // blocks and data-MAC lines; model = last committed fill.
                let mut model = std::collections::BTreeMap::new();
                for _ in 0..crash_after {
                    let mut tx = memory.transaction();
                    let mut staged = Vec::new();
                    for _ in 0..1 + rng.bounded_u64(3) {
                        let line = rng.bounded_u64(64);
                        let fill = (rng.next_u64() & 0xfe) as u8 + 1; // never 0
                        tx.write(DataAddr::new(line), &[fill; 64]);
                        staged.push((line, fill));
                    }
                    let receipt = tx
                        .commit()
                        .map_err(|e| format!("{}: commit failed: {e}", scheme.name()))?;
                    prop_assert!(receipt.accepted, "fault-free commit must be accepted");
                    model.extend(staged);
                }
                let (mut memory, report) = scheme.recover(memory.crash());
                prop_assert_eq!(
                    report.unverifiable_lines(),
                    0u64,
                    "{}: fault-free crash recovery left unverifiable lines",
                    scheme.name()
                );
                let mut recovered = 0u64;
                for line in 0..80u64 {
                    let got = memory.read(DataAddr::new(line)).map_err(|e| {
                        format!("{}: post-recovery read {line}: {e}", scheme.name())
                    })?;
                    match model.get(&line) {
                        Some(&fill) => {
                            prop_assert_eq!(
                                got,
                                [fill; 64],
                                "{}: committed line {} lost or altered",
                                scheme.name(),
                                line
                            );
                            recovered += 1;
                        }
                        None => prop_assert_eq!(
                            got,
                            [0u8; 64],
                            "{}: line {} was never committed but recovered non-zero",
                            scheme.name(),
                            line
                        ),
                    }
                }
                prop_assert!(
                    recovered <= model.len() as u64,
                    "{}: more lines recovered than committed",
                    scheme.name()
                );
            }
            Ok(())
        },
    );
}

#[test]
fn line_addr_sanity() {
    // Anchor for the property file: plain unit check that the shared
    // newtypes interoperate.
    assert_eq!(LineAddr::from_byte_addr(128).index(), 2);
    assert_eq!(DataAddr::from_byte_addr(128).index(), 2);
}

/// Drives one randomized fleet schedule over a small campaign and
/// returns `(merged, single_node, died, stole)`: random worker count,
/// random lease sizes, workers holding leases across steps so steals
/// genuinely hedge a slow peer, random deaths both while idle and while
/// holding a lease (their blocks re-pend), and every partial carried
/// through the pretty-printed JSON wire exactly as the coordinator
/// receives it.
type Artifacts = (String, String);

fn simulate_fleet_schedule(draw: u64) -> Result<(Artifacts, Artifacts, bool, bool), String> {
    use soteria_suite::soteria_faultsim::{
        merge_partials, run_block_range, run_spec, total_blocks, CampaignConfig, JobSpec,
    };
    use soteria_suite::soteria_svc::BlockScheduler;
    let mut rng = StdRng::seed_from_u64(draw);
    let blocks = 2 + rng.bounded_u64(4);
    let mut config = CampaignConfig::table4(1500.0);
    config.iterations = blocks * 64;
    config.capacity_bytes = 64 << 20;
    config.threads = 1;
    config.trace = true;
    config.seed = rng.next_u64();
    let spec = JobSpec::Campaign(config);
    let total = total_blocks(&spec);
    let expected = run_spec(&spec);

    let workers = 2 + rng.bounded_u64(3) as usize;
    let mut sched = BlockScheduler::new(total);
    let mut alive = vec![true; workers];
    let mut held: Vec<Option<(u64, u64)>> = vec![None; workers];
    let mut partials = Vec::new();
    let (mut died, mut stole) = (false, false);
    let mut guard = 0u32;
    while !sched.is_complete() {
        guard += 1;
        if guard > 10_000 {
            return Err("fleet schedule failed to converge".into());
        }
        let w = rng.bounded_u64(workers as u64) as usize;
        if !alive[w] {
            continue;
        }
        let survivors = alive.iter().filter(|&&a| a).count();
        let roll = rng.bounded_u64(100);
        match held[w] {
            Some((lo, hi)) => {
                if roll < 15 && survivors > 1 {
                    // Dies holding the lease: its blocks re-pend unless
                    // a thief's duplicate still covers them.
                    alive[w] = false;
                    held[w] = None;
                    sched.fail_worker(w);
                    died = true;
                } else {
                    let doc = run_block_range(&spec, lo, hi);
                    let partial = Json::parse(&doc.to_pretty_string())
                        .map_err(|e| format!("wire parse: {e}"))?;
                    partials.push(partial);
                    sched.complete(w, lo, hi);
                    held[w] = None;
                }
            }
            None => {
                if roll < 8 && survivors > 1 {
                    alive[w] = false;
                    sched.fail_worker(w);
                    died = true;
                    continue;
                }
                let chunk = 1 + rng.bounded_u64(3);
                held[w] = sched.lease(w, chunk).or_else(|| {
                    let stolen = sched.steal(w);
                    stole |= stolen.is_some();
                    stolen
                });
            }
        }
    }
    let merged = merge_partials(&spec, &partials)?;
    Ok((merged, expected, died, stole))
}

#[test]
fn any_fleet_schedule_merges_to_single_node_bytes() {
    // The fleet determinism contract: however a campaign's accumulation
    // blocks are split over however many workers — including workers
    // dying mid-run and slow leases being duplicated by steals — the
    // coordinator's merge must reproduce the single-node artifact pair
    // byte-for-byte. The pinned corpus entries replay schedules that
    // exercise both failure paths (a death re-pending blocks and a
    // steal duplicating a lease) before any novel case.
    check(
        "any_fleet_schedule_merges_to_single_node_bytes",
        &cfg(4),
        &any::<u64>(),
        |&draw| {
            let (merged, expected, _died, _stole) = simulate_fleet_schedule(draw)?;
            prop_assert_eq!(
                &merged.0,
                &expected.0,
                "merged result JSON diverged from the single-node run"
            );
            prop_assert_eq!(
                &merged.1,
                &expected.1,
                "merged NDJSON trace diverged from the single-node run"
            );
            Ok(())
        },
    );
}

/// One input for a parser that faces the network: raw request bytes for
/// `http::parse_request`, a kind name and config body for the job-kind
/// table, or, for `merge_partials`, each job kind's block partials with
/// some mutated.
#[derive(Clone, Debug)]
enum WireInput {
    Request(Vec<u8>),
    Kind(String, Json),
    Partials(Vec<Vec<Json>>),
}

/// Generates [`WireInput`]s: mutated well-formed requests or random
/// bytes, arbitrary or field-shaped config bodies, and the partials of
/// `run_block_range` with one to three structural mutations per kind.
struct WireInputs<'a> {
    /// Per job kind: the spec and its pristine, full-coverage partials.
    jobs: &'a [(soteria_suite::soteria_faultsim::JobSpec, Vec<Json>)],
}

impl WireInputs<'_> {
    const REQUESTS: [&'static str; 4] = [
        "GET /healthz HTTP/1.1\r\n\r\n",
        "POST /v1/fleet/register HTTP/1.1\r\nContent-Length: 26\r\n\r\n{\"addr\": \"127.0.0.1:9001\"}",
        "POST /v1/blocks HTTP/1.0\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
        "PUT /v1/jobs/7/trace HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ];
    /// Every config and shard field the kind table's parsers accept.
    const FIELDS: [&'static str; 16] = [
        "fit",
        "iterations",
        "ecc",
        "tree",
        "scrub_hours",
        "seed",
        "threads",
        "capacity_bytes",
        "trace_ops",
        "scripts_per_cell",
        "max_txns",
        "max_writes",
        "kind",
        "lo",
        "hi",
        "config",
    ];

    /// FITs at and around the bound, and far past it.
    const FITS: [f64; 6] = [10_000.0, 10_000.5, 1e6, 1e300, -1.0, 0.0];

    fn request(rng: &mut StdRng) -> Vec<u8> {
        if rng.bounded_u64(4) == 0 {
            return (0..rng.bounded_u64(300))
                .map(|_| rng.next_u64() as u8)
                .collect();
        }
        let mut bytes = Self::REQUESTS[rng.bounded_u64(4) as usize]
            .as_bytes()
            .to_vec();
        for _ in 0..1 + rng.bounded_u64(4) {
            let at = rng.bounded_u64(bytes.len() as u64 + 1) as usize;
            match rng.bounded_u64(4) {
                0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
                1 => bytes.insert(at, b"\r\n: 0x9"[rng.bounded_u64(7) as usize]),
                2 => bytes.truncate(at),
                _ => {
                    let tail = bytes[at..].to_vec();
                    bytes.extend_from_slice(&tail);
                }
            }
        }
        bytes
    }

    fn body(rng: &mut StdRng) -> Json {
        let values = JsonStrategy { depth: 2 };
        if rng.bounded_u64(2) == 0 {
            return values.generate(rng);
        }
        Json::Obj(
            (0..rng.bounded_u64(5))
                .map(|_| {
                    let field = Self::FIELDS[rng.bounded_u64(16) as usize];
                    // Half the `fit` values sit at or past the bound.
                    let value = if field == "fit" && rng.bounded_u64(2) == 0 {
                        Json::Num(Self::FITS[rng.bounded_u64(6) as usize])
                    } else {
                        values.generate(rng)
                    };
                    (field.to_string(), value)
                })
                .collect(),
        )
    }

    /// The `n`-th node of `node`, in pre-order, among those that `fits`.
    fn nth_node<'j>(
        node: &'j mut Json,
        fits: fn(&Json) -> bool,
        n: &mut u64,
    ) -> Option<&'j mut Json> {
        if fits(node) {
            if *n == 0 {
                return Some(node);
            }
            *n -= 1;
        }
        match node {
            Json::Arr(items) => items
                .iter_mut()
                .find_map(|item| Self::nth_node(item, fits, n)),
            Json::Obj(entries) => entries
                .iter_mut()
                .find_map(|(_, v)| Self::nth_node(v, fits, n)),
            _ => None,
        }
    }

    fn count_nodes(node: &Json, fits: fn(&Json) -> bool) -> u64 {
        u64::from(fits(node))
            + match node {
                Json::Arr(items) => items.iter().map(|item| Self::count_nodes(item, fits)).sum(),
                Json::Obj(entries) => entries
                    .iter()
                    .map(|(_, v)| Self::count_nodes(v, fits))
                    .sum(),
                _ => 0,
            }
    }

    /// One structural mutation, at a random node it applies to: replace
    /// the node, truncate or extend an array, resize every array of an
    /// object to one length (a peer with a different roster), drop an
    /// object entry, or cut a string short.
    fn mutate(doc: &mut Json, rng: &mut StdRng) {
        const FITS: [fn(&Json) -> bool; 6] = [
            |_| true,
            |j| matches!(j, Json::Arr(items) if !items.is_empty()),
            |j| matches!(j, Json::Arr(_)),
            |j| matches!(j, Json::Obj(e) if e.iter().any(|(_, v)| matches!(v, Json::Arr(_)))),
            |j| matches!(j, Json::Obj(e) if !e.is_empty()),
            |j| matches!(j, Json::Str(s) if !s.is_empty()),
        ];
        let op = rng.bounded_u64(FITS.len() as u64) as usize;
        let count = Self::count_nodes(doc, FITS[op]);
        if count == 0 {
            return;
        }
        let mut n = rng.bounded_u64(count);
        let node = Self::nth_node(doc, FITS[op], &mut n).expect("node index is in range");
        let resize = |items: &mut Vec<Json>, len: usize| {
            let copy = items.first().cloned().unwrap_or(Json::Null);
            items.resize(len, copy);
        };
        match node {
            node if op == 0 => *node = JsonStrategy { depth: 1 }.generate(rng),
            Json::Arr(items) if op == 1 => {
                items.truncate(rng.bounded_u64(items.len() as u64) as usize)
            }
            Json::Arr(items) => resize(items, items.len() + 1 + rng.bounded_u64(10) as usize),
            Json::Obj(entries) if op == 3 => {
                let len = rng.bounded_u64(12) as usize;
                for (_, value) in entries.iter_mut() {
                    if let Json::Arr(items) = value {
                        resize(items, len);
                    }
                }
            }
            Json::Obj(entries) => {
                entries.remove(rng.bounded_u64(entries.len() as u64) as usize);
            }
            Json::Str(s) => {
                let keep = rng.bounded_u64(s.chars().count() as u64) as usize;
                *s = s.chars().take(keep).collect();
            }
            _ => unreachable!("every mutation's node fits it"),
        }
    }
}

impl Strategy for WireInputs<'_> {
    type Value = WireInput;

    fn generate(&self, rng: &mut StdRng) -> WireInput {
        match rng.bounded_u64(3) {
            0 => WireInput::Request(Self::request(rng)),
            1 => {
                let name =
                    ["campaign", "compare", "crashck", "blocks", ""][rng.bounded_u64(5) as usize];
                WireInput::Kind(name.to_string(), Self::body(rng))
            }
            _ => WireInput::Partials(
                self.jobs
                    .iter()
                    .map(|(_, pristine)| {
                        let mut docs = pristine.clone();
                        for _ in 0..1 + rng.bounded_u64(3) {
                            let at = rng.bounded_u64(docs.len() as u64) as usize;
                            Self::mutate(&mut docs[at], rng);
                        }
                        docs
                    })
                    .collect(),
            ),
        }
    }
}

#[test]
fn network_parsers_fail_with_errors_not_panics() {
    // Every parser a peer's bytes reach: the HTTP framing both planes
    // share, the job-kind table behind every submit and shard body, and
    // the coordinator's merge of worker partials. Malformed input must
    // come back as a typed error; a panic would take down the reactor or
    // the coordinator (`check` fails, shrinks and pins a panicking case
    // like any other). The pinned corpus entry replays the seed that once
    // found a roster-skewed compare partial indexing past its arrays.
    use soteria_suite::soteria_faultsim::{
        blocks_spec_from_json, checked_fit, merge_partials, run_block_range, total_blocks,
        CampaignConfig, CompareConfig, CrashckConfig, JobSpec,
    };
    use soteria_suite::soteria_svc::http::{drain_budget, parse_request, ReadLimits};
    let mut campaign = CampaignConfig::table4(1500.0);
    campaign.iterations = 128;
    campaign.capacity_bytes = 64 << 20;
    campaign.threads = 1;
    campaign.trace = true;
    let jobs: Vec<(JobSpec, Vec<Json>)> = [
        JobSpec::Campaign(campaign),
        JobSpec::Compare(CompareConfig {
            iterations: 128,
            trace_ops: 64,
            ..CompareConfig::default()
        }),
        JobSpec::Crashck(CrashckConfig {
            seed: 0x50f3,
            scripts_per_cell: 1,
            max_txns: 2,
            max_writes: 2,
            threads: 1,
        }),
    ]
    .into_iter()
    .map(|spec| {
        let total = total_blocks(&spec);
        let docs = [(0, total / 2), (total / 2, total)]
            .iter()
            .map(|&(lo, hi)| Json::parse(&run_block_range(&spec, lo, hi).to_pretty_string()))
            .collect::<Result<_, _>>()
            .expect("partials serialize to valid JSON");
        (spec, docs)
    })
    .collect();
    check(
        "network_parsers_fail_with_errors_not_panics",
        &cfg(96),
        &WireInputs { jobs: &jobs },
        |input| match input {
            WireInput::Request(bytes) => {
                let small = ReadLimits {
                    max_head_bytes: 64,
                    max_body_bytes: 16,
                };
                for limits in [ReadLimits::default(), small] {
                    if let Ok(Some((_, consumed))) = parse_request(bytes, &limits) {
                        prop_assert!(
                            consumed <= bytes.len(),
                            "consumed {consumed} of {}",
                            bytes.len()
                        );
                    }
                }
                drain_budget(bytes);
                Ok(())
            }
            WireInput::Kind(name, body) => {
                let parsed = JobSpec::from_kind(name, body);
                // A campaign or compare body with an out-of-range `fit`
                // never parses, so no job runs on it.
                let fits = match body {
                    Json::Obj(fields) => fields
                        .iter()
                        .filter(|(k, _)| k == "fit")
                        .filter_map(|(_, v)| v.as_f64())
                        .collect(),
                    _ => Vec::new(),
                };
                if (name == "campaign" || name == "compare")
                    && fits.iter().any(|&f| checked_fit(f).is_err())
                {
                    prop_assert!(parsed.is_err(), "{name} accepted fit {fits:?}");
                }
                let shard = Json::Obj(vec![
                    ("kind".into(), Json::Str(name.clone())),
                    ("lo".into(), Json::Num(0.0)),
                    ("hi".into(), Json::Num(1.0)),
                    ("config".into(), body.clone()),
                ]);
                let _ = blocks_spec_from_json(&shard);
                let _ = blocks_spec_from_json(body);
                Ok(())
            }
            WireInput::Partials(per_job) => {
                for ((spec, _), docs) in jobs.iter().zip(per_job) {
                    let _ = merge_partials(spec, docs);
                }
                Ok(())
            }
        },
    );
}
