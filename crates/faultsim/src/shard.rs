//! Block-sharded job execution for the campaign fleet.
//!
//! Every campaign-shaped job in this crate already folds fixed
//! accumulation blocks in block order, so its artifacts are
//! byte-identical at any thread count. This module extends that
//! contract across *machines*: a coordinator splits a job's block range
//! over workers, each worker computes its blocks' partial sums with
//! [`run_block_range`], and [`merge_partials`] folds the partials back
//! through the **same** reduction the single-node runner uses — so the
//! merged artifact is byte-identical to `soteria campaign --json` (or
//! `compare`, or `crashck`) at the same seed, regardless of shard count
//! or worker failures.
//!
//! Two wire rules keep the contract exact:
//!
//! * **`f64` travels as bits.** Partial sums are serialized as the hex
//!   of [`f64::to_bits`], never as decimal text, so no parse/print
//!   round-trip can perturb the non-associative block fold.
//! * **Trace vocabulary is interned.** [`soteria_rt::obs::TraceEvent`]
//!   holds `&'static str` names; events parsed off the wire re-intern
//!   every string against the fixed campaign vocabulary, rejecting
//!   anything a current worker could not have emitted.

use soteria::policy::standard_schemes;
use soteria_rt::json::Json;
use soteria_rt::obs::{Field, TraceEvent};

use crate::campaign::{
    merge_campaign_blocks, run_campaign_blocks, Accumulator, CampaignBlock, ITERATION_BLOCK,
};
use crate::compare::{merge_compare_blocks, run_compare_blocks, BlockAcc, CompareBlock};
use crate::crashck::{
    intern_unit_names, merge_crashck_units, run_crashck_units, total_units, UnitResult,
};
use crate::job::{kind_names, report_json, JobSpec, STANDARD_POLICIES};

/// The partial-artifact schema version.
pub const BLOCKS_SCHEMA: &str = "soteria-blocks/v1";

/// How many distribution blocks `spec` comprises (the coordinator
/// shards the range `0..total_blocks` over its workers).
///
/// Campaign and compare jobs shard on [`ITERATION_BLOCK`]-sized
/// accumulation blocks; crashck jobs shard on matrix units. A `Blocks`
/// spec delegates to its inner job.
pub fn total_blocks(spec: &JobSpec) -> u64 {
    match spec {
        JobSpec::Campaign(c) => c.iterations.div_ceil(ITERATION_BLOCK),
        JobSpec::Compare(c) => c.iterations.div_ceil(ITERATION_BLOCK),
        JobSpec::Crashck(c) => total_units(c),
        JobSpec::Blocks { spec, .. } => total_blocks(spec),
    }
}

/// Computes the partial sums of blocks `lo..hi` of `spec` and
/// serializes them as a `soteria-blocks/v1` document. The partial bytes
/// depend only on `(spec, lo, hi)` — never on which worker ran them.
///
/// An out-of-range or empty range yields a document with an empty
/// `blocks` array (the merge will then report the missing coverage).
pub fn run_block_range(spec: &JobSpec, lo: u64, hi: u64) -> Json {
    let hi = hi.min(total_blocks(spec));
    let ids: Vec<u64> = (lo..hi).collect();
    let blocks = match spec {
        JobSpec::Campaign(config) => run_campaign_blocks(config, &STANDARD_POLICIES, &ids)
            .into_iter()
            .map(|b| campaign_block_wire(&b))
            .collect(),
        JobSpec::Compare(config) => run_compare_blocks(config, &ids)
            .into_iter()
            .map(|b| compare_block_wire(&b))
            .collect(),
        JobSpec::Crashck(config) => run_crashck_units(config, &ids)
            .into_iter()
            .map(|(i, r)| crashck_unit_wire(i, &r))
            .collect(),
        JobSpec::Blocks { spec, .. } => return run_block_range(spec, lo, hi),
    };
    Json::Obj(vec![
        ("schema".into(), Json::Str(BLOCKS_SCHEMA.into())),
        ("kind".into(), Json::Str(spec.kind().into())),
        ("lo".into(), u64_wire(lo)),
        ("hi".into(), u64_wire(hi)),
        ("blocks".into(), Json::Arr(blocks)),
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
    if let JobSpec::Blocks { spec, .. } = spec {
        return merge_partials(spec, partials);
    }
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

    let total = total_blocks(spec);
    match spec {
        JobSpec::Campaign(config) => {
            let mut blocks = Vec::with_capacity(raw.len());
            for obj in raw {
                blocks.push(campaign_block_unwire(obj)?);
            }
            let blocks = dedup_covered(blocks, |b: &CampaignBlock| b.block, total)?;
            let (results, trace) = merge_campaign_blocks(config, &STANDARD_POLICIES, blocks);
            Ok((
                report_json(config, &results, &trace).to_pretty_string(),
                trace.export_ndjson(),
            ))
        }
        JobSpec::Compare(config) => {
            let mut blocks = Vec::with_capacity(raw.len());
            for obj in raw {
                blocks.push(compare_block_unwire(obj)?);
            }
            let blocks = dedup_covered(blocks, |b: &CompareBlock| b.block, total)?;
            let output = merge_compare_blocks(config, blocks);
            Ok((output.result_json, output.ndjson))
        }
        JobSpec::Crashck(config) => {
            let mut units = Vec::with_capacity(raw.len());
            for obj in raw {
                units.push(crashck_unit_unwire(obj)?);
            }
            let units = dedup_covered(units, |u: &(u64, UnitResult)| u.0, total)?;
            let output = merge_crashck_units(config, units);
            Ok((output.result_json, output.ndjson))
        }
        JobSpec::Blocks { .. } => unreachable!("delegated above"),
    }
}

/// Sorts tagged blocks, drops duplicate indices (first copy wins —
/// duplicates are bit-identical by the partial contract), and verifies
/// the surviving indices are exactly `0..total`.
fn dedup_covered<T>(
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

fn u64_wire(v: u64) -> Json {
    Json::Str(format!("{v:#x}"))
}

fn u64_unwire(v: Option<&Json>, what: &str) -> Result<u64, String> {
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
fn f64_wire(v: f64) -> Json {
    Json::Str(format!("{:016x}", v.to_bits()))
}

fn f64_unwire(v: Option<&Json>, what: &str) -> Result<f64, String> {
    Ok(f64::from_bits(u64_unwire(v, what)?))
}

fn usize_unwire(v: Option<&Json>, what: &str) -> Result<usize, String> {
    Ok(u64_unwire(v, what)? as usize)
}

fn str_unwire<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a str, String> {
    v.and_then(Json::as_str)
        .ok_or_else(|| format!("partial field '{what}' must be a string"))
}

fn f64_vec_wire(vs: &[f64]) -> Json {
    Json::Arr(vs.iter().map(|&v| f64_wire(v)).collect())
}

fn u64_vec_wire(vs: &[u64]) -> Json {
    Json::Arr(vs.iter().map(|&v| u64_wire(v)).collect())
}

fn arr_unwire<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a [Json], String> {
    v.and_then(Json::as_array)
        .ok_or_else(|| format!("partial field '{what}' must be an array"))
}

// ---------------------------------------------------------------------
// Trace-event wire form and the fixed campaign vocabulary.
// ---------------------------------------------------------------------

/// Every `&'static str` a campaign block's trace events may carry:
/// domains, event names, field keys, and policy labels. Parsing
/// re-interns wire strings against this table — an unknown word is a
/// protocol error, not a leaked allocation.
const VOCABULARY: [&str; 13] = [
    "campaign",
    "iteration",
    "policy_udr",
    "iter",
    "seed",
    "faults",
    "ue",
    "policy",
    "udr",
    "baseline",
    "src",
    "sac",
    "custom",
];

fn intern(s: &str) -> Result<&'static str, String> {
    VOCABULARY
        .iter()
        .find(|v| **v == s)
        .copied()
        .ok_or_else(|| format!("unknown trace vocabulary word '{s}'"))
}

/// One typed field value as a single-entry object, tagged by type:
/// `{"u": "0x…"}`, `{"i": "-3"}`, `{"f": "<bits>"}`, `{"h": "0x…"}`,
/// `{"s": "baseline"}`, `{"b": true}`.
fn field_wire(field: &Field) -> Json {
    let (tag, value) = match field {
        Field::U64(v) => ("u", u64_wire(*v)),
        Field::I64(v) => ("i", Json::Str(v.to_string())),
        Field::F64(v) => ("f", f64_wire(*v)),
        Field::Hex(v) => ("h", u64_wire(*v)),
        Field::Str(v) => ("s", Json::Str((*v).to_string())),
        Field::Bool(v) => ("b", Json::Bool(*v)),
    };
    Json::Obj(vec![(tag.to_string(), value)])
}

fn field_unwire(obj: &Json) -> Result<Field, String> {
    let entries = obj
        .entries()
        .ok_or("trace field value must be a tagged object")?;
    let [(tag, value)] = entries else {
        return Err("trace field value must hold exactly one tag".into());
    };
    match tag.as_str() {
        "u" => Ok(Field::U64(u64_unwire(Some(value), "u")?)),
        "i" => {
            let s = str_unwire(Some(value), "i")?;
            s.parse::<i64>()
                .map(Field::I64)
                .map_err(|_| format!("trace field 'i' has bad integer '{s}'"))
        }
        "f" => Ok(Field::F64(f64_unwire(Some(value), "f")?)),
        "h" => Ok(Field::Hex(u64_unwire(Some(value), "h")?)),
        "s" => Ok(Field::Str(intern(str_unwire(Some(value), "s")?)?)),
        "b" => match value {
            Json::Bool(b) => Ok(Field::Bool(*b)),
            _ => Err("trace field 'b' must be a boolean".into()),
        },
        other => Err(format!("unknown trace field tag '{other}'")),
    }
}

fn event_wire(event: &TraceEvent) -> Json {
    Json::Obj(vec![
        ("d".into(), Json::Str(event.domain.into())),
        ("n".into(), Json::Str(event.name.into())),
        (
            "f".into(),
            Json::Arr(
                event
                    .fields
                    .iter()
                    .map(|(k, v)| {
                        Json::Arr(vec![Json::Str((*k).to_string()), field_wire(v)])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn event_unwire(obj: &Json) -> Result<TraceEvent, String> {
    let domain = intern(str_unwire(obj.get("d"), "d")?)?;
    let name = intern(str_unwire(obj.get("n"), "n")?)?;
    let mut fields = Vec::new();
    for pair in arr_unwire(obj.get("f"), "f")? {
        let items = pair
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or("trace field must be a [key, value] pair")?;
        let key = intern(
            items[0]
                .as_str()
                .ok_or("trace field key must be a string")?,
        )?;
        fields.push((key, field_unwire(&items[1])?));
    }
    Ok(TraceEvent::new(domain, name, fields))
}

// ---------------------------------------------------------------------
// Per-kind block wire forms.
// ---------------------------------------------------------------------

fn campaign_block_wire(b: &CampaignBlock) -> Json {
    Json::Obj(vec![
        ("block".into(), u64_wire(b.block)),
        ("faults".into(), u64_wire(b.acc.iterations_with_faults)),
        ("ue".into(), u64_wire(b.acc.iterations_with_ue)),
        ("err".into(), f64_wire(b.acc.error_ratio_sum)),
        ("udr_sum".into(), f64_vec_wire(&b.acc.per_policy_udr_sum)),
        ("udr_hits".into(), u64_vec_wire(&b.acc.per_policy_udr_hits)),
        (
            "events".into(),
            Json::Arr(b.events.iter().map(event_wire).collect()),
        ),
    ])
}

fn campaign_block_unwire(obj: &Json) -> Result<CampaignBlock, String> {
    let mut acc = Accumulator::new(STANDARD_POLICIES.len());
    acc.iterations_with_faults = u64_unwire(obj.get("faults"), "faults")?;
    acc.iterations_with_ue = u64_unwire(obj.get("ue"), "ue")?;
    acc.error_ratio_sum = f64_unwire(obj.get("err"), "err")?;
    let sums = arr_unwire(obj.get("udr_sum"), "udr_sum")?;
    let hits = arr_unwire(obj.get("udr_hits"), "udr_hits")?;
    if sums.len() != STANDARD_POLICIES.len() || hits.len() != STANDARD_POLICIES.len() {
        return Err(format!(
            "campaign block must carry {} per-policy sums",
            STANDARD_POLICIES.len()
        ));
    }
    for (i, v) in sums.iter().enumerate() {
        acc.per_policy_udr_sum[i] = f64_unwire(Some(v), "udr_sum")?;
    }
    for (i, v) in hits.iter().enumerate() {
        acc.per_policy_udr_hits[i] = u64_unwire(Some(v), "udr_hits")?;
    }
    let mut events = Vec::new();
    for e in arr_unwire(obj.get("events"), "events")? {
        events.push(event_unwire(e)?);
    }
    Ok(CampaignBlock {
        block: u64_unwire(obj.get("block"), "block")?,
        acc,
        events,
    })
}

fn compare_block_wire(b: &CompareBlock) -> Json {
    Json::Obj(vec![
        ("block".into(), u64_wire(b.block)),
        ("faults".into(), u64_wire(b.acc.iterations_with_faults)),
        ("ue".into(), u64_wire(b.acc.iterations_with_ue)),
        ("err".into(), f64_wire(b.acc.error_ratio_sum)),
        ("udr_sum".into(), f64_vec_wire(&b.acc.udr_sum)),
        ("udr_hits".into(), u64_vec_wire(&b.acc.udr_hits)),
        (
            "events".into(),
            // Compare events are fully-rendered NDJSON lines already;
            // they pass through as opaque strings.
            Json::Arr(b.acc.events.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
    ])
}

fn compare_block_unwire(obj: &Json) -> Result<CompareBlock, String> {
    let sums = arr_unwire(obj.get("udr_sum"), "udr_sum")?;
    let hits = arr_unwire(obj.get("udr_hits"), "udr_hits")?;
    let schemes = standard_schemes().len();
    if sums.len() != schemes || hits.len() != schemes {
        return Err(format!(
            "compare block must carry {schemes} per-scheme sums"
        ));
    }
    let mut acc = BlockAcc::new(schemes);
    acc.iterations_with_faults = u64_unwire(obj.get("faults"), "faults")?;
    acc.iterations_with_ue = u64_unwire(obj.get("ue"), "ue")?;
    acc.error_ratio_sum = f64_unwire(obj.get("err"), "err")?;
    for (i, v) in sums.iter().enumerate() {
        acc.udr_sum[i] = f64_unwire(Some(v), "udr_sum")?;
    }
    for (i, v) in hits.iter().enumerate() {
        acc.udr_hits[i] = u64_unwire(Some(v), "udr_hits")?;
    }
    for e in arr_unwire(obj.get("events"), "events")? {
        acc.events
            .push(e.as_str().ok_or("compare event must be a string")?.to_string());
    }
    Ok(CompareBlock {
        block: u64_unwire(obj.get("block"), "block")?,
        acc,
    })
}

fn crashck_unit_wire(index: u64, r: &UnitResult) -> Json {
    let mut obj = vec![
        ("block".into(), u64_wire(index)),
        ("cell".into(), Json::Str(r.cell.clone())),
        ("tree".into(), Json::Str(r.tree.into())),
        ("policy".into(), Json::Str(r.policy.into())),
        ("recovery".into(), Json::Str(r.recovery.into())),
        ("seed".into(), u64_wire(r.seed)),
        ("script".into(), Json::Str(r.script.clone())),
        ("txns".into(), u64_wire(r.txns as u64)),
        ("points".into(), u64_wire(r.points)),
        ("committed".into(), u64_wire(r.committed_total as u64)),
    ];
    if let Some(d) = &r.divergence {
        obj.push((
            "divergence".into(),
            Json::Obj(vec![
                ("point".into(), u64_wire(d.point)),
                ("reason".into(), Json::Str(d.reason.clone())),
                ("trace_tail".into(), Json::Str(d.trace_tail.clone())),
            ]),
        ));
    }
    Json::Obj(obj)
}

fn crashck_unit_unwire(obj: &Json) -> Result<(u64, UnitResult), String> {
    let (tree, policy, recovery, mode) = intern_unit_names(
        str_unwire(obj.get("tree"), "tree")?,
        str_unwire(obj.get("policy"), "policy")?,
        str_unwire(obj.get("recovery"), "recovery")?,
    )?;
    let divergence = match obj.get("divergence") {
        None => None,
        Some(d) => Some(soteria_rt::crashck::Divergence {
            point: u64_unwire(d.get("point"), "divergence.point")?,
            reason: str_unwire(d.get("reason"), "divergence.reason")?.to_string(),
            trace_tail: str_unwire(d.get("trace_tail"), "divergence.trace_tail")?.to_string(),
        }),
    };
    Ok((
        u64_unwire(obj.get("block"), "block")?,
        UnitResult {
            cell: str_unwire(obj.get("cell"), "cell")?.to_string(),
            tree,
            policy,
            recovery,
            mode,
            seed: u64_unwire(obj.get("seed"), "seed")?,
            script: str_unwire(obj.get("script"), "script")?.to_string(),
            txns: usize_unwire(obj.get("txns"), "txns")?,
            points: u64_unwire(obj.get("points"), "points")?,
            committed_total: usize_unwire(obj.get("committed"), "committed")?,
            divergence,
        },
    ))
}

/// Parses a `POST /v1/blocks` request body into a [`JobSpec::Blocks`]:
/// `{"kind": "campaign"|"compare"|"crashck", "lo": N, "hi": M,
/// "config": {…}}`, where `config` takes the same fields as the kind's
/// own submission endpoint. A nested `"blocks"` kind is rejected.
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn blocks_spec_from_json(body: &Json) -> Result<JobSpec, String> {
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
    let inner = JobSpec::from_kind(kind, body.get("config").unwrap_or(&default))?;
    if hi > total_blocks(&inner) {
        return Err(format!(
            "field 'hi' exceeds the job's {} blocks",
            total_blocks(&inner)
        ));
    }
    Ok(JobSpec::Blocks {
        spec: Box::new(inner),
        lo,
        hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::compare::CompareConfig;
    use crate::crashck::CrashckConfig;
    use crate::job::run_spec;

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

    #[test]
    fn merge_rejects_missing_blocks_and_bad_vocabulary() {
        let spec = campaign_spec();
        let partial = Json::parse(&run_block_range(&spec, 0, 2).to_pretty_string()).unwrap();
        let err = merge_partials(&spec, &[partial]).unwrap_err();
        assert!(err.contains("missing block 2"), "{err}");

        assert!(intern("campaign").is_ok());
        let err = intern("stdout").unwrap_err();
        assert!(err.contains("stdout"), "{err}");
    }

    #[test]
    fn merge_rejects_compare_blocks_with_a_different_roster() {
        // Workers' partials arrive from the network: a block whose
        // per-scheme arrays are shorter or longer than the registry must
        // be an error, never an index past the end in the merge.
        let spec = JobSpec::Compare(CompareConfig {
            iterations: 64,
            ..CompareConfig::default()
        });
        for schemes in [0, 8, 10] {
            let block = CompareBlock {
                block: 0,
                acc: BlockAcc::new(schemes),
            };
            let partial = Json::Obj(vec![
                ("schema".into(), Json::Str(BLOCKS_SCHEMA.into())),
                ("kind".into(), Json::Str("compare".into())),
                ("blocks".into(), Json::Arr(vec![compare_block_wire(&block)])),
            ]);
            let err = merge_partials(&spec, &[partial]).unwrap_err();
            assert_eq!(
                err, "compare block must carry 9 per-scheme sums",
                "{schemes} schemes"
            );
        }
    }

    #[test]
    fn blocks_spec_parser_validates() {
        let parse = |s: &str| blocks_spec_from_json(&Json::parse(s).unwrap());
        let spec = parse(r#"{"kind": "campaign", "lo": 0, "hi": 2, "config": {"iterations": 192}}"#)
            .unwrap();
        let JobSpec::Blocks { spec, lo, hi } = spec else {
            panic!("expected a Blocks spec");
        };
        assert!(matches!(*spec, JobSpec::Campaign(_)));
        assert_eq!((lo, hi), (0, 2));
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
