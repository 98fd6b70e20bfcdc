//! Block-sharded job execution for the campaign fleet: the
//! kind-independent envelope around each kind's blocks.
//!
//! Every job kind folds fixed distribution blocks in block order, so its
//! artifacts are byte-identical at any thread count. This module extends
//! that contract across *machines*: a coordinator splits a job's block
//! range over workers, each worker computes its blocks with
//! [`run_block_range`], and [`merge_partials`] folds them back through
//! the **same** reduction the single-node runner uses — so the merged
//! artifact is byte-identical to `soteria campaign --json` (or
//! `compare`, or `crashck`) at the same seed, regardless of shard count
//! or worker failures.
//!
//! A partial (`soteria-blocks/v2`) is this envelope — schema, kind, block
//! range — around the blocks in the kind's own wire form, which each kind
//! writes and reads beside its config through the kind's `Job` (e.g. the
//! Monte Carlo block of campaign and compare in [`crate::campaign`], the
//! crashck unit in [`crate::crashck`]). Two wire rules keep
//! the contract exact, and every kind's form follows them:
//!
//! * **`f64` travels as bits.** Partial sums and UDRs are serialized as
//!   the hex of [`f64::to_bits`], never as decimal text, so no
//!   parse/print round-trip can perturb the non-associative block fold.
//! * **Shapes are checked.** A malformed block, or one of the wrong
//!   shape for its kind, is a merge error, never an index past the end;
//!   so is a block range that is not covered exactly.

use std::ops::Range;

use soteria_rt::json::Json;

use crate::job::{kind_names, JobSpec};

/// The partial-artifact schema version.
pub const BLOCKS_SCHEMA: &str = "soteria-blocks/v2";

/// How many distribution blocks `spec` comprises, in its kind's own
/// grain (the coordinator shards the range `0..total_blocks` over its
/// workers).
pub fn total_blocks(spec: &JobSpec) -> u64 {
    spec.job().total_blocks()
}

/// Computes blocks `lo..hi` of `spec` and serializes them as a
/// `soteria-blocks/v2` document. The partial bytes depend only on
/// `(spec, lo, hi)` — never on which worker ran them.
///
/// An out-of-range or empty range yields a document with an empty
/// `blocks` array (the merge will then report the missing coverage).
pub fn run_block_range(spec: &JobSpec, lo: u64, hi: u64) -> Json {
    let job = spec.job();
    let hi = hi.min(job.total_blocks());
    let ids: Vec<u64> = (lo..hi).collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str(BLOCKS_SCHEMA.into())),
        ("kind".into(), Json::Str(spec.kind().into())),
        ("lo".into(), u64_wire(lo)),
        ("hi".into(), u64_wire(hi)),
        ("blocks".into(), Json::Arr(job.run_blocks(&ids))),
    ])
}

/// Folds partial documents back into the final `(result_json, ndjson)`
/// artifact pair — byte-identical to [`crate::job::run_spec`] on the
/// same spec.
///
/// Blocks may arrive in any order and may be duplicated (a reassigned
/// block computed by two workers): duplicates are interchangeable by
/// construction, so the first copy wins. The range `0..total_blocks`
/// must be fully covered.
///
/// # Errors
///
/// Returns a one-line message on a malformed partial, a kind mismatch,
/// or incomplete block coverage.
pub fn merge_partials(spec: &JobSpec, partials: &[Json]) -> Result<(String, String), String> {
    let kind = spec.kind();
    let mut raw: Vec<&Json> = Vec::new();
    for doc in partials {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != BLOCKS_SCHEMA {
            return Err(format!("partial has schema '{schema}', expected '{BLOCKS_SCHEMA}'"));
        }
        let got = doc.get("kind").and_then(Json::as_str).unwrap_or("");
        if got != kind {
            return Err(format!("partial has kind '{got}', expected '{kind}'"));
        }
        let blocks = doc
            .get("blocks")
            .and_then(Json::as_array)
            .ok_or("partial is missing its 'blocks' array")?;
        raw.extend(blocks.iter());
    }
    spec.job().merge_blocks(&raw)
}

/// Sorts tagged blocks, drops duplicate indices (first copy wins —
/// duplicates are bit-identical by the partial contract), and verifies
/// the surviving indices are exactly `0..total`. Each kind's merge calls
/// this once it has parsed its blocks.
pub(crate) fn dedup_covered<T>(
    mut blocks: Vec<T>,
    index: impl Fn(&T) -> u64,
    total: u64,
) -> Result<Vec<T>, String> {
    blocks.sort_by_key(&index);
    blocks.dedup_by_key(|b| index(b));
    for expect in 0..total {
        match blocks.get(expect as usize) {
            Some(b) if index(b) == expect => {}
            _ => return Err(format!("merge is missing block {expect} of {total}")),
        }
    }
    if blocks.len() as u64 > total {
        return Err(format!(
            "merge holds a block past the job's {total} blocks"
        ));
    }
    Ok(blocks)
}

// ---------------------------------------------------------------------
// Scalar wire forms: u64 as hex text, f64 as the hex of its bits.
// ---------------------------------------------------------------------

pub(crate) fn u64_wire(v: u64) -> Json {
    Json::Str(format!("{v:#x}"))
}

pub(crate) fn u64_unwire(v: Option<&Json>, what: &str) -> Result<u64, String> {
    let s = v
        .and_then(Json::as_str)
        .ok_or_else(|| format!("partial field '{what}' must be a hex string"))?;
    let hex = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(hex, 16).map_err(|_| format!("partial field '{what}' has bad hex '{s}'"))
}

/// `f64` partial sums cross the wire as the hex of their bit pattern:
/// the block fold is a fixed-order sum of exactly these values, so a
/// decimal round-trip (even a "shortest round-trip" printer) must never
/// sit between a worker and the merge.
pub(crate) fn f64_wire(v: f64) -> Json {
    Json::Str(format!("{:016x}", v.to_bits()))
}

pub(crate) fn f64_unwire(v: Option<&Json>, what: &str) -> Result<f64, String> {
    Ok(f64::from_bits(u64_unwire(v, what)?))
}

pub(crate) fn str_unwire<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a str, String> {
    v.and_then(Json::as_str)
        .ok_or_else(|| format!("partial field '{what}' must be a string"))
}

pub(crate) fn arr_unwire<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a [Json], String> {
    v.and_then(Json::as_array)
        .ok_or_else(|| format!("partial field '{what}' must be an array"))
}

/// Parses a `POST /v1/blocks` request body into the job it shards and
/// the block range to compute: `{"kind": K, "lo": N, "hi": M, "config":
/// {…}}`, where `K` names a row of [`crate::job::KINDS`] and `config`
/// takes the same fields as that kind's own submission endpoint.
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn blocks_spec_from_json(body: &Json) -> Result<(JobSpec, Range<u64>), String> {
    let kind = body
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("field 'kind' must be one of {}", kind_names()))?;
    let range_int = |field: &str| -> Result<u64, String> {
        let v = body
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("field '{field}' must be a number"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("field '{field}' must be a non-negative integer"));
        }
        Ok(v as u64)
    };
    let lo = range_int("lo")?;
    let hi = range_int("hi")?;
    if lo >= hi {
        return Err("field 'hi' must be greater than 'lo'".into());
    }
    let default = Json::Obj(Vec::new());
    let spec = JobSpec::from_kind(kind, body.get("config").unwrap_or(&default))?;
    let total = total_blocks(&spec);
    if hi > total {
        return Err(format!("field 'hi' exceeds the job's {total} blocks"));
    }
    Ok((spec, lo..hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Accumulator, Block, CampaignConfig, IterRecord};
    use crate::compare::CompareConfig;
    use crate::crashck::CrashckConfig;
    use crate::job::{run_spec, STANDARD_POLICIES};

    fn campaign_spec() -> JobSpec {
        let mut config = CampaignConfig::table4(1500.0);
        config.capacity_bytes = 1 << 26;
        config.iterations = 192;
        config.trace = true;
        JobSpec::Campaign(config)
    }

    fn compare_spec() -> JobSpec {
        JobSpec::Compare(CompareConfig {
            iterations: 192,
            trace_ops: 256,
            ..CompareConfig::default()
        })
    }

    fn crashck_spec() -> JobSpec {
        JobSpec::Crashck(CrashckConfig {
            seed: 0x50f3,
            scripts_per_cell: 1,
            max_txns: 2,
            max_writes: 2,
            threads: 1,
        })
    }

    /// Round-trips partials through their serialized wire bytes — the
    /// exact path fleet partials take between worker and coordinator.
    fn through_wire(spec: &JobSpec, ranges: &[(u64, u64)]) -> (String, String) {
        let partials: Vec<Json> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let doc = run_block_range(spec, lo, hi).to_pretty_string();
                Json::parse(&doc).expect("partial must serialize to valid JSON")
            })
            .collect();
        merge_partials(spec, &partials).expect("merge must succeed")
    }

    #[test]
    fn campaign_merge_is_byte_identical_across_splits() {
        let spec = campaign_spec();
        let single = run_spec(&spec);
        let total = total_blocks(&spec);
        assert_eq!(total, 3);
        // Uneven split, reversed order, and an overlapping (reassigned)
        // block must all merge to the single-node bytes.
        for ranges in [
            vec![(0, total)],
            vec![(0, 1), (1, total)],
            vec![(2, 3), (0, 2)],
            vec![(0, 2), (1, total), (2, 3)],
        ] {
            assert_eq!(through_wire(&spec, &ranges), single, "{ranges:?}");
        }
    }

    #[test]
    fn compare_merge_is_byte_identical_across_splits() {
        let spec = compare_spec();
        let single = run_spec(&spec);
        let total = total_blocks(&spec);
        assert_eq!(total, 3);
        for ranges in [vec![(0, total)], vec![(1, total), (0, 1), (1, 2)]] {
            assert_eq!(through_wire(&spec, &ranges), single, "{ranges:?}");
        }
    }

    #[test]
    fn crashck_merge_is_byte_identical_across_splits() {
        let spec = crashck_spec();
        let single = run_spec(&spec);
        let total = total_blocks(&spec);
        assert_eq!(total, 18);
        let halves = vec![(9, total), (0, 9)];
        assert_eq!(through_wire(&spec, &halves), single);
    }

    /// A partial document of `kind` holding `blocks`.
    fn partial_of(kind: &str, blocks: &[Block]) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(BLOCKS_SCHEMA.into())),
            ("kind".into(), Json::Str(kind.into())),
            (
                "blocks".into(),
                Json::Arr(blocks.iter().map(Block::to_wire).collect()),
            ),
        ])
    }

    #[test]
    fn merge_rejects_missing_blocks_and_stray_records() {
        let spec = campaign_spec();
        let partial = Json::parse(&run_block_range(&spec, 0, 2).to_pretty_string()).unwrap();
        let err = merge_partials(&spec, &[partial]).unwrap_err();
        assert!(err.contains("missing block 2"), "{err}");

        // Iteration 64 is block 1's first; block 0 holds 0..64, and the
        // last block of this 192-iteration job ends at 192.
        let record = |iter| IterRecord {
            iter,
            faults: 1,
            ue: false,
            udr: vec![0.0; STANDARD_POLICIES.len()],
        };
        for (block, iters) in [
            (0, vec![64]),
            (2, vec![192]),
            (1, vec![70, 65]),
            (1, vec![66, 66]),
        ] {
            let mut acc = Accumulator::new(STANDARD_POLICIES.len());
            acc.records = iters.iter().map(|&i| record(i)).collect();
            let err = merge_partials(&spec, &[partial_of("campaign", &[Block { block, acc }])])
                .unwrap_err();
            assert!(
                err.contains("out of order or outside the block"),
                "{iters:?}: {err}"
            );
        }
    }

    #[test]
    fn merge_rejects_compare_blocks_with_a_different_roster() {
        // Workers' partials arrive from the network: per-scheme arrays or
        // per-iteration UDR lists shorter or longer than the kind's
        // roster must be an error, never an index past the end in the
        // merge — for both Monte Carlo kinds.
        let compare = JobSpec::Compare(CompareConfig {
            iterations: 64,
            ..CompareConfig::default()
        });
        for (spec, kind, roster) in [(campaign_spec(), "campaign", 3), (compare, "compare", 9)] {
            for schemes in [0, roster - 1, roster + 1] {
                let block = Block {
                    block: 0,
                    acc: Accumulator::new(schemes),
                };
                let err = merge_partials(&spec, &[partial_of(kind, &[block])]).unwrap_err();
                assert_eq!(
                    err,
                    format!("{kind} block must carry {roster} per-scheme sums"),
                    "{schemes} schemes"
                );

                let mut acc = Accumulator::new(roster);
                acc.records.push(IterRecord {
                    iter: 5,
                    faults: 2,
                    ue: true,
                    udr: vec![0.5; schemes],
                });
                let err = merge_partials(&spec, &[partial_of(kind, &[Block { block: 0, acc }])])
                    .unwrap_err();
                assert_eq!(
                    err,
                    format!("{kind} iteration 5 must carry {roster} per-scheme UDRs"),
                    "{schemes} UDRs"
                );
            }
        }
    }

    #[test]
    fn blocks_spec_parser_validates() {
        let parse = |s: &str| blocks_spec_from_json(&Json::parse(s).unwrap());
        let (spec, range) =
            parse(r#"{"kind": "campaign", "lo": 0, "hi": 2, "config": {"iterations": 192}}"#)
                .unwrap();
        assert!(matches!(spec, JobSpec::Campaign(_)));
        assert_eq!(range, 0..2);
        for (body, needle) in [
            (r#"{"lo": 0, "hi": 1}"#, "'kind'"),
            (r#"{"kind": "blocks", "lo": 0, "hi": 1}"#, "unknown kind"),
            (r#"{"kind": "campaign", "lo": 3, "hi": 3}"#, "'hi'"),
            (
                r#"{"kind": "campaign", "lo": 0, "hi": 99, "config": {"iterations": 64}}"#,
                "exceeds",
            ),
            (
                r#"{"kind": "campaign", "lo": 0, "hi": 1, "config": {"bogus": 1}}"#,
                "unknown field",
            ),
        ] {
            let err = parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn f64_wire_is_bit_exact() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -7.25] {
            let wire = f64_wire(v);
            let back = f64_unwire(Some(&wire), "t").unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
