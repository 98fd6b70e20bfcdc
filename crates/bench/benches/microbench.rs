//! Micro-benchmarks for the building blocks: the crypto engine,
//! Reed–Solomon/Chipkill codecs, the metadata cache and counter-block
//! codec, the secure controller datapath, a Table 3 LLC miss, a symbolic
//! device write, one batch of the Table 3 timing system, one FaultSim
//! iteration, and one loss assessment. These
//! quantify simulator throughput (they are not paper figures — the
//! `fig*` binaries regenerate those).
//!
//! Runs on the in-tree wall-clock harness ([`soteria_rt::bench`]):
//! calibrated batches, warmup, median/p95 per-iteration times. Tune with
//! `SOTERIA_BENCH_SAMPLES` / `SOTERIA_BENCH_WARMUP_MS` /
//! `SOTERIA_BENCH_MIN_BATCH_US`.
//!
//! Hot kernels are benchmarked in **pairs**: `<name>` is the optimized
//! path and `<name>_ref` the bit-identical reference implementation it
//! replaced (equivalence is proven by tests in the owning crates). After
//! the run, every result — plus the `median(ref) / median(optimized)`
//! speedup for each pair — is written as JSON to `$SOTERIA_BENCH_JSON`
//! (default `BENCH_kernels.json` in the working directory) so CI can diff
//! against the committed baseline with the `bench_check` binary.

use soteria_rt::bench::{black_box, Harness, Stats};
use soteria_rt::json::Json;

use soteria::analysis::ResilienceModel;
use soteria::clone::CloningPolicy;
use soteria::counter::CounterBlock;
use soteria::mdcache::{CachedBlock, MetadataCache};
use soteria::{DataAddr, Fidelity, MetaId, SecureMemoryConfig, SecureMemoryController};
use soteria_crypto::aes::Aes128;
use soteria_crypto::ctr::CounterModeCipher;
use soteria_crypto::mac::MacEngine;
use soteria_crypto::sha256::Sha256;
use soteria_crypto::{EncryptionKey, MacKey};
use soteria_ecc::chipkill::{ChipkillCodec, LineCodec};
use soteria_ecc::rs::ReedSolomon;
use soteria_faultsim::{run_campaign, CampaignConfig, STANDARD_POLICIES};
use soteria_nvm::device::NvmDimm;
use soteria_nvm::fault::{FaultFootprint, FaultKind, FaultRecord};
use soteria_nvm::geometry::DimmGeometry;
use soteria_nvm::LineAddr;
use soteria_simcpu::cache::{Cache, CacheConfig};
use soteria_simcpu::{System, SystemConfig};
use soteria_workloads::{Lbm, Mcf, Pmemkv, Workload, Ycsb};

fn bench_crypto(c: &mut Harness) {
    let aes = Aes128::new([4; 16]);
    let block = [0x6cu8; 16];
    c.bench_function("aes128_encrypt_block", |b| {
        b.iter(|| aes.encrypt_block(black_box(&block)))
    });
    c.bench_function("aes128_encrypt_block_ref", |b| {
        b.iter(|| aes.encrypt_block_reference(black_box(&block)))
    });
    let cipher = CounterModeCipher::new(EncryptionKey::from_bytes([1; 16]));
    let mac = MacEngine::new(MacKey::from_bytes([2; 32]));
    let line = [0xabu8; 64];
    c.bench_function("aes_ctr_encrypt_line", |b| {
        b.iter(|| cipher.encrypt_line(black_box(&line), black_box(0x40), black_box(7)))
    });
    c.bench_function("aes_ctr_encrypt_line_ref", |b| {
        b.iter(|| cipher.encrypt_line_reference(black_box(&line), black_box(0x40), black_box(7)))
    });
    c.bench_function("sha256_64B", |b| {
        b.iter(|| Sha256::digest(black_box(&line)))
    });
    c.bench_function("sha256_64B_ref", |b| {
        b.iter(|| Sha256::digest_portable(black_box(&line)))
    });
    c.bench_function("data_mac_64bit", |b| {
        b.iter(|| mac.data_mac(black_box(0x40), black_box(&line), black_box(7)))
    });
}

fn bench_gcm(c: &mut Harness) {
    use soteria_crypto::gcm::AesGcm;
    let gcm = AesGcm::new([3; 16]);
    let line = [0x42u8; 64];
    c.bench_function("aes_gcm_line_tag", |b| {
        b.iter(|| gcm.line_tag(black_box(0x40), black_box(&line), black_box(9)))
    });
    let nonce = [1u8; 12];
    c.bench_function("aes_gcm_seal_64B", |b| {
        b.iter(|| gcm.seal(black_box(&nonce), b"aad", black_box(&line)))
    });
    // The GHASH field multiply itself, dispatch vs. the shifted-table
    // reference — tracks the PCLMUL path the same way
    // `aes128_encrypt_block` / `_ref` tracks AES-NI. Chained so each
    // iteration depends on the last (latency, like Horner's rule).
    let mut acc: u128 = 0x0123_4567_89ab_cdef_u128 << 64 | 0xfedc_ba98_7654_3210;
    c.bench_function("ghash", |b| {
        b.iter(|| {
            acc = gcm.mul_h(black_box(acc) ^ 1);
            acc
        })
    });
    c.bench_function("ghash_ref", |b| {
        b.iter(|| {
            acc = gcm.mul_h_table(black_box(acc) ^ 1);
            acc
        })
    });
}

fn bench_chipkill(c: &mut Harness) {
    let codec = ChipkillCodec::table4();
    let line = [0x5au8; 64];
    let clean = codec.encode_line(&line);
    let mut faulty = clean.clone();
    for (i, b) in faulty.iter_mut().enumerate() {
        if i % 18 == 3 {
            *b ^= 0x77;
        }
    }
    c.bench_function("chipkill_encode_line", |b| {
        b.iter(|| codec.encode_line(black_box(&line)))
    });
    c.bench_function("chipkill_decode_clean", |b| {
        b.iter(|| codec.decode_line(black_box(&clean)))
    });
    c.bench_function("chipkill_decode_chip_kill", |b| {
        b.iter(|| codec.decode_line(black_box(&faulty)))
    });
    let mut two_dead = clean.clone();
    for (i, b) in two_dead.iter_mut().enumerate() {
        let chip = i % 18;
        if chip == 3 || chip == 11 {
            *b ^= 0x77;
        }
    }
    c.bench_function("chipkill_decode_two_marked_erasures", |b| {
        b.iter(|| codec.decode_line_marked(black_box(&two_dead), &[3, 11]))
    });
}

fn bench_rs(c: &mut Harness) {
    // The Table 4 beat code: RS(18, 16) over one 18-chip beat.
    let rs = ReedSolomon::new(18, 16).expect("valid geometry");
    let data: Vec<u8> = (0..16u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
    let mut cw = rs.encode(&data).expect("encode");
    cw[3] ^= 0x77; // non-zero syndromes exercise the full Horner pass
    c.bench_function("rs_syndromes", |b| b.iter(|| rs.syndromes(black_box(&cw))));
    c.bench_function("rs_syndromes_ref", |b| {
        b.iter(|| rs.syndromes_reference(black_box(&cw)))
    });
    let mut out = vec![0u8; 18];
    c.bench_function("rs_encode_into", |b| {
        b.iter(|| rs.encode_into(black_box(&data), black_box(&mut out)))
    });
}

fn bench_mdcache(c: &mut Harness) {
    let block = |level: u8| CachedBlock::clean(MetaId::new(level, 0), [7u8; 64]);
    // Table 3 geometry: 256 KiB, 8-way ⇒ 512 sets.
    let mut cache = MetadataCache::new(256 * 1024, 8);
    let slots = cache.slots();
    for i in 0..slots {
        cache.insert(LineAddr::new(i), block(1), &[]);
    }
    let mut i = 0u64;
    c.bench_function("mdcache_lookup_hit", |b| {
        b.iter(|| {
            i = (i + 1) % slots;
            cache.lookup(black_box(LineAddr::new(i))).is_some()
        })
    });
    let mut j = 0u64;
    c.bench_function("mdcache_lookup_miss", |b| {
        b.iter(|| {
            j = (j + 1) % slots;
            cache.lookup(black_box(LineAddr::new(slots + j))).is_some()
        })
    });
    let mut k = 0u64;
    c.bench_function("mdcache_insert_evict", |b| {
        b.iter(|| {
            k += slots; // every insert maps to a full set and evicts
            cache.insert(black_box(LineAddr::new(k)), block(1), &[])
        })
    });
    let mut dirty_cache = MetadataCache::new(256 * 1024, 8);
    for i in 0..slots {
        let blk = if i % 16 == 0 {
            CachedBlock::modified(MetaId::new(1, 0), [7u8; 64])
        } else {
            block(1)
        };
        dirty_cache.insert(LineAddr::new(i), blk, &[]);
    }
    c.bench_function("mdcache_dirty_addrs_scan", |b| {
        b.iter(|| dirty_cache.dirty_addrs().count())
    });
}

fn bench_counter_codec(c: &mut Harness) {
    // An irregular byte pattern, so the minors vary from slot to slot.
    let mut raw = [0u8; 64];
    for (i, byte) in raw.iter_mut().enumerate() {
        *byte = (i as u8).wrapping_mul(37);
    }
    let block = CounterBlock::from_bytes(&raw);
    c.bench_function("counter_block_codec", |b| {
        b.iter(|| CounterBlock::from_bytes(&black_box(&block).to_bytes()))
    });
}

fn bench_simcpu_llc(c: &mut Harness) {
    // The Table 3 LLC with every set full and half its lines dirty. Each
    // access is to a line never seen, so it scans a full 64-way set,
    // misses and evicts the set's least recently used line.
    let config = CacheConfig::table3_llc();
    let mut llc = Cache::new(config);
    let lines = config.bytes / 64;
    for line in 0..lines {
        llc.access(line, line.is_multiple_of(2));
    }
    let mut next = lines;
    c.bench_function("simcpu_llc_access_miss", |b| {
        b.iter(|| {
            next += 1;
            llc.access(black_box(next), next.is_multiple_of(2))
        })
    });
}

fn bench_nvm_write(c: &mut Harness) {
    // A symbolic device of about the 64 MiB Timing system's 1.3 M lines,
    // every line written once (so no timed write allocates), then written
    // with a large odd stride, so consecutive writes land on far-apart
    // per-line records.
    let geometry = DimmGeometry::new(18, 9, 2, 16, 80, 1024);
    let mut dimm = NvmDimm::symbolic(geometry, 1);
    let lines = geometry.total_lines();
    for line in 0..lines {
        dimm.write_line(LineAddr::new(line), &[0u8; 64]);
    }
    let mut i = 0u64;
    c.bench_function("nvm_symbolic_write_line", |b| {
        b.iter(|| {
            i = (i + 7919) % lines;
            dimm.write_line(LineAddr::new(i), black_box(&[0u8; 64]))
        })
    });
}

fn bench_timing_system(c: &mut Harness) {
    // bench-e2e's timingsim: the Table 3 SAC system at 64 MiB running its
    // four generators in turn, warmed until the LLC and the metadata
    // cache are full. One iteration is one 1 000-operation `System::run`
    // of the next generator.
    const BYTES: u64 = 64 << 20;
    let mut system = System::new(SystemConfig::table3(CloningPolicy::Aggressive, BYTES));
    let mut gens: Vec<Box<dyn Workload>> = vec![
        Box::new(Pmemkv::new(BYTES, 0x11)),
        Box::new(Mcf::new(BYTES, 0x22)),
        Box::new(Ycsb::new(BYTES, 0x33)),
        Box::new(Lbm::new(BYTES, 0x44)),
    ];
    for g in &mut gens {
        system.run(g.as_mut(), 50_000);
    }
    let mut next = 0;
    c.bench_function("timing_system_run_1000_ops", |b| {
        b.iter(|| {
            next = (next + 1) % gens.len();
            system.run(gens[next].as_mut(), 1_000).cycles
        })
    });
}

fn controller(fidelity: Fidelity, policy: CloningPolicy) -> SecureMemoryController {
    let config = SecureMemoryConfig::builder()
        .capacity_bytes(1 << 24)
        .metadata_cache(64 * 1024, 8)
        .cloning(policy)
        .fidelity(fidelity)
        .build()
        .expect("valid config");
    SecureMemoryController::new(config)
}

fn bench_controller(c: &mut Harness) {
    for (name, fidelity) in [
        ("functional", Fidelity::Functional),
        ("timing", Fidelity::Timing),
    ] {
        let mut ctrl = controller(fidelity, CloningPolicy::Aggressive);
        let mut i = 0u64;
        c.bench_function(&format!("controller_write_{name}"), |b| {
            b.iter(|| {
                i = (i + 64) % ctrl.layout().data_lines();
                ctrl.write(DataAddr::new(i), black_box(&[9u8; 64]))
                    .expect("write")
            })
        });
        let mut ctrl = controller(fidelity, CloningPolicy::Aggressive);
        for j in 0..1024u64 {
            ctrl.write(DataAddr::new(j), &[1u8; 64])
                .expect("warm-up write");
        }
        let mut j = 0u64;
        c.bench_function(&format!("controller_read_{name}"), |b| {
            b.iter(|| {
                j = (j + 1) % 1024;
                ctrl.read(DataAddr::new(j)).expect("read")
            })
        });
    }
}

fn bench_write_stages(c: &mut Harness) {
    // Per-stage breakdown of the §3.2.1 write chain, at the exact
    // shapes `commit_writes` pays per line: one CTR keystream + XOR
    // (cipher), one data MAC (mac), one metadata-block MAC as paid per
    // touched tree level (tree), and one shadow-entry encode + on-chip
    // tree fold (shadow). A regression in `controller_write_functional`
    // localizes to whichever of these moved.
    use soteria::shadow::{encode_entry, ShadowMode, ShadowRecord, ShadowTree};
    let cipher = CounterModeCipher::new(EncryptionKey::from_bytes([1; 16]));
    let mac = MacEngine::new(MacKey::from_bytes([2; 32]));
    let line = [0x9au8; 64];
    let mut ctr = 0u64;
    c.bench_function("controller_write_cipher", |b| {
        b.iter(|| {
            ctr += 1;
            cipher.encrypt_line(black_box(&line), black_box(0x40 * 64), black_box(ctr))
        })
    });
    let ct = cipher.encrypt_line(&line, 0x40 * 64, 7);
    c.bench_function("controller_write_mac", |b| {
        b.iter(|| {
            ctr += 1;
            mac.data_mac(black_box(0x40 * 64), black_box(&ct), black_box(ctr))
        })
    });
    c.bench_function("controller_write_tree", |b| {
        b.iter(|| {
            ctr += 1;
            mac.counter_block_mac(black_box(0x80 * 64), black_box(&line), black_box(ctr))
        })
    });
    let record = ShadowRecord {
        meta: MetaId::new(1, 3),
        lsbs: [5u16; 8],
        mac: 0x1234_5678,
    };
    let mut tree = ShadowTree::new(1024);
    let mut slot = 0u64;
    c.bench_function("controller_write_shadow", |b| {
        b.iter(|| {
            slot = (slot + 1) % 1024;
            let entry = encode_entry(black_box(&record), ShadowMode::Duplicated);
            tree.update(slot, &entry);
            tree.root()[0]
        })
    });
}

fn bench_obs(c: &mut Harness) {
    use soteria_rt::obs::{Metrics, TraceBuffer};
    use soteria_rt::obs_fields;
    // The contract the instrumented hot paths rely on: a disabled buffer
    // costs one predictable branch, field construction included — the
    // closure must not run.
    let mut off = TraceBuffer::disabled();
    let mut x = 0u64;
    c.bench_function("obs_emit_disabled", |b| {
        b.iter(|| {
            x = x.wrapping_add(1);
            off.emit_with("ctl", "bench", || obs_fields![("x", x), ("y", 2u64)]);
            black_box(off.len())
        })
    });
    // Steady-state enabled cost (ring at capacity: one pop + one push).
    let mut on = TraceBuffer::with_capacity(1024);
    c.bench_function("obs_emit_enabled", |b| {
        b.iter(|| {
            x = x.wrapping_add(1);
            on.emit_with("ctl", "bench", || obs_fields![("x", x), ("y", 2u64)]);
            black_box(on.len())
        })
    });
    let mut metrics = Metrics::enabled();
    metrics.inc("bench.counter", 1);
    metrics.observe("bench.histogram", 1);
    c.bench_function("obs_counter_inc", |b| {
        b.iter(|| metrics.inc(black_box("bench.counter"), 1))
    });
    c.bench_function("obs_histogram_observe", |b| {
        b.iter(|| {
            x = x.wrapping_add(0x9e37);
            metrics.observe(black_box("bench.histogram"), x & 0xffff)
        })
    });
    // The end-to-end overhead question the ISSUE's gate asks: the
    // controller write path with tracing compiled in and *enabled*
    // (disabled cost is already covered by controller_write_* above).
    let mut ctrl = controller(Fidelity::Functional, CloningPolicy::Aggressive);
    ctrl.enable_obs();
    let mut i = 0u64;
    c.bench_function("controller_write_functional_traced", |b| {
        b.iter(|| {
            i = (i + 64) % ctrl.layout().data_lines();
            ctrl.write(DataAddr::new(i), black_box(&[9u8; 64]))
                .expect("write")
        })
    });
}

fn bench_faultsim(c: &mut Harness) {
    let mut config = CampaignConfig::table4(80.0);
    config.iterations = 200;
    config.threads = 1;
    config.capacity_bytes = 1 << 30;
    c.bench_function("faultsim_200_iterations_fit80", |b| {
        b.iter(|| run_campaign(black_box(&config), &[CloningPolicy::Relaxed]))
    });
    // The heaviest fault set of the bench-e2e campaign set-up (seed 59,
    // call 12, iteration 27): bank-wide UE regions in banks 1-2 plus a
    // one-line region, assessed on the Table 4 16 GiB layout.
    let config = CampaignConfig::table4(1500.0);
    let layout = config.build_layout();
    let geometry = config.build_geometry(&layout);
    let model = ResilienceModel::new(&layout, &geometry);
    let on = |chip: u32, footprint| {
        FaultRecord::on_chip(&geometry, chip, footprint, FaultKind::Permanent)
    };
    let mixed = [
        on(12, FaultFootprint::MultiBank { bank_mask: 8230 }),
        on(
            9,
            FaultFootprint::SingleBit {
                bank: 1,
                row: 9601,
                col: 954,
                beat: 1,
                bit: 7,
            },
        ),
        on(12, FaultFootprint::SingleBank { bank: 1 }),
        on(13, FaultFootprint::MultiBank { bank_mask: 14 }),
    ];
    let policies: Vec<&CloningPolicy> = STANDARD_POLICIES.iter().collect();
    c.bench_function("analysis_assess_mixed_16gib", |b| {
        b.iter(|| model.assess_many(black_box(&mixed), &policies))
    });
}

/// Serializes the results as the `soteria-bench-kernels/v1` document:
/// every kernel's median/p95/batch, a per-kernel `speedup` field
/// (`median(<name>_ref) / median(<name>)` when the run contains the
/// kernel's `_ref` twin, JSON `null` otherwise), plus the aggregate
/// `speedups` object older tooling reads.
fn results_to_json(stats: &[Stats]) -> Json {
    let kernels = Json::Obj(
        stats
            .iter()
            .map(|s| {
                let speedup = stats
                    .iter()
                    .find(|r| r.name == format!("{}_ref", s.name))
                    .map_or(Json::Null, |r| Json::Num(r.median_ns / s.median_ns));
                (
                    s.name.clone(),
                    Json::Obj(vec![
                        ("median_ns".to_string(), Json::Num(s.median_ns)),
                        ("p95_ns".to_string(), Json::Num(s.p95_ns)),
                        ("batch".to_string(), Json::Num(s.batch as f64)),
                        ("speedup".to_string(), speedup),
                    ]),
                )
            })
            .collect(),
    );
    let speedups = Json::Obj(
        stats
            .iter()
            .filter_map(|s| {
                let reference = stats.iter().find(|r| r.name == format!("{}_ref", s.name))?;
                Some((s.name.clone(), Json::Num(reference.median_ns / s.median_ns)))
            })
            .collect(),
    );
    Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("soteria-bench-kernels/v1".to_string()),
        ),
        ("kernels".to_string(), kernels),
        ("speedups".to_string(), speedups),
    ])
}

fn main() {
    let mut harness = Harness::new();
    bench_crypto(&mut harness);
    bench_gcm(&mut harness);
    bench_chipkill(&mut harness);
    bench_rs(&mut harness);
    bench_mdcache(&mut harness);
    bench_counter_codec(&mut harness);
    bench_controller(&mut harness);
    bench_simcpu_llc(&mut harness);
    bench_nvm_write(&mut harness);
    bench_timing_system(&mut harness);
    bench_write_stages(&mut harness);
    bench_obs(&mut harness);
    bench_faultsim(&mut harness);
    let stats = harness.finish();
    let path = std::env::var("SOTERIA_BENCH_JSON").unwrap_or_else(|_| "BENCH_kernels.json".into());
    std::fs::write(&path, results_to_json(&stats).to_pretty_string())
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}
