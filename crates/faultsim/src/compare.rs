//! Cross-scheme shootout campaign (`soteria compare`).
//!
//! Every scheme registered in [`soteria::policy::standard_schemes`] is
//! swept over **identical** workloads, in two halves:
//!
//! * **Resilience** — the Monte Carlo fault campaign, re-using the exact
//!   per-iteration seed streams of the main campaign
//!   (`stream_seed(seed, i)`) and the fixed [`ITERATION_BLOCK`]
//!   accumulation blocks, but assessing every scheme's
//!   [`soteria::LossProfile`] through
//!   [`ResilienceModel::assess_schemes`]. Paired comparison: one fault
//!   history per iteration, all schemes judged against it.
//! * **Slowdown** — one deterministic write/read trace per scheme (the
//!   same seeded operation stream for all of them) through a real
//!   controller built from the scheme's trait config, costed with the
//!   serialized-PCM model the recovery estimate uses
//!   ([`NvmTiming::serialized_ns`] at the Table 3 latencies) and
//!   normalized to the first (baseline) scheme; plus a crash at the end
//!   of the trace, recovered through the scheme's own recovery hook to
//!   estimate recovery time.
//!
//! Both halves fold results in fixed order (blocks, then roster order),
//! so the `soteria-compare/v1` JSON and NDJSON artifacts are
//! **byte-identical for any `threads` value** — the same contract the
//! campaign and crashck artifacts carry, and what the CI compare-smoke
//! job checks with `cmp`.

use soteria::analysis::{ResilienceModel, SchemeLoss};
use soteria::clone::CloningPolicy;
use soteria::config::TreeUpdate;
use soteria::policy::{standard_schemes, ProtectionPolicy, RecoveryStrategy};
use soteria::DataAddr;
use soteria_nvm::timing::NvmTiming;
use soteria_rt::json::Json;
use soteria_rt::rng::{stream_seed, StdRng};
use soteria_rt::thread::{fan_out, parallel_map};

use crate::campaign::{sample_fault_history_into, CampaignConfig, ITERATION_BLOCK};
use crate::FIVE_YEARS_HOURS;

/// The seed stream index the slowdown trace draws from — far outside the
/// `0..iterations` range the resilience half uses, so the two halves
/// never share an RNG stream.
const TRACE_STREAM: u64 = 0x7472_6163_6500;

/// Configuration of one compare campaign. Defaults are sized for a
/// CI-smoke run (64 MiB device, a few hundred iterations) — the compare
/// matrix is about *ordering* schemes, not about absolute 16 GiB rates.
#[derive(Clone, Debug)]
pub struct CompareConfig {
    /// Protected data capacity for the resilience half.
    pub capacity_bytes: u64,
    /// Total FIT per chip.
    pub fit_per_chip: f64,
    /// Simulated service time in hours.
    pub hours: f64,
    /// Monte Carlo iterations.
    pub iterations: u64,
    /// RNG seed (iteration `i` draws from `stream_seed(seed, i)`).
    pub seed: u64,
    /// Worker threads (artifacts are identical for any value).
    pub threads: usize,
    /// Operations in the deterministic slowdown trace.
    pub trace_ops: u64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 1 << 26, // 64 MiB
            fit_per_chip: 1500.0,
            hours: FIVE_YEARS_HOURS,
            iterations: 512,
            seed: 0xc0a4_7a5e,
            threads: 1,
            trace_ops: 2048,
        }
    }
}

impl CompareConfig {
    /// The campaign config the resilience half borrows its geometry and
    /// layout helpers from (same DIMM shape, same fault mix).
    fn campaign(&self) -> CampaignConfig {
        let mut c = CampaignConfig::table4(self.fit_per_chip);
        c.capacity_bytes = self.capacity_bytes;
        c.hours = self.hours;
        c.iterations = self.iterations;
        c.seed = self.seed;
        c.threads = self.threads;
        c
    }
}

/// One row of the compare matrix.
#[derive(Clone, Debug)]
pub struct SchemeRow {
    /// Stable scheme name (`baseline`, `src`, `triad1`, …).
    pub scheme: &'static str,
    /// Cloning policy display name.
    pub cloning: String,
    /// Tree-update strategy label.
    pub tree_update: String,
    /// Recovery hook label (`anubis` / `osiris`).
    pub recovery: &'static str,
    /// Iterations with non-zero unverifiable data.
    pub iterations_with_udr: u64,
    /// Mean Unverifiable Data Ratio.
    pub mean_udr: f64,
    /// Mean direct-error ratio (scheme-independent; echoed per row).
    pub mean_error_ratio: f64,
    /// NVM line reads issued by the slowdown trace.
    pub nvm_reads: u64,
    /// NVM line writes issued by the slowdown trace.
    pub nvm_writes: u64,
    /// NVM line writes per data write.
    pub write_amplification: f64,
    /// Modeled trace cost ([`NvmTiming::serialized_ns`] at the Table 3
    /// latencies).
    pub cost_ns: u64,
    /// Trace cost normalized to the first (baseline) scheme.
    pub slowdown: f64,
    /// Estimated crash-recovery duration under the scheme's hook.
    pub recovery_est_ns: u64,
    /// Whether that recovery reported zero unverifiable lines.
    pub recovery_complete: bool,
}

/// Everything a compare campaign produced.
#[derive(Clone, Debug)]
pub struct CompareOutput {
    /// One row per registered scheme, in roster order.
    pub rows: Vec<SchemeRow>,
    /// The aggregate report (`soteria-compare/v1`), pretty-printed.
    pub result_json: String,
    /// NDJSON: config, per-iteration UDR events, per-scheme results.
    pub ndjson: String,
    /// Iterations in which at least one fault arrived.
    pub iterations_with_faults: u64,
    /// Iterations in which the ECC was defeated somewhere.
    pub iterations_with_ue: u64,
}

/// Artifact label for a tree-update strategy.
fn tree_label(update: TreeUpdate) -> String {
    match update {
        TreeUpdate::Lazy => "lazy".into(),
        TreeUpdate::Eager => "eager".into(),
        TreeUpdate::Triad { persist_levels } => format!("triad{persist_levels}"),
        TreeUpdate::Phoenix => "phoenix".into(),
        TreeUpdate::Coalesced { period } => format!("coalesced{period}"),
    }
}

/// Artifact label for a recovery hook.
fn recovery_label(strategy: RecoveryStrategy) -> &'static str {
    match strategy {
        RecoveryStrategy::AnubisShadow => "anubis",
        RecoveryStrategy::OsirisScan => "osiris",
    }
}

/// Per-block accumulator of the resilience half (the compare analogue of
/// the campaign's fixed-block f64 accumulation).
pub(crate) struct BlockAcc {
    pub(crate) iterations_with_faults: u64,
    pub(crate) iterations_with_ue: u64,
    pub(crate) error_ratio_sum: f64,
    pub(crate) udr_sum: Vec<f64>,
    pub(crate) udr_hits: Vec<u64>,
    /// NDJSON event lines drawn inside this block, in iteration order.
    pub(crate) events: Vec<String>,
}

impl BlockAcc {
    pub(crate) fn new(schemes: usize) -> Self {
        Self {
            iterations_with_faults: 0,
            iterations_with_ue: 0,
            error_ratio_sum: 0.0,
            udr_sum: vec![0.0; schemes],
            udr_hits: vec![0u64; schemes],
            events: Vec::new(),
        }
    }
}

/// What the slowdown trace measured for one scheme.
struct TraceCost {
    nvm_reads: u64,
    nvm_writes: u64,
    write_amplification: f64,
    cost_ns: u64,
    recovery_est_ns: u64,
    recovery_complete: bool,
}

/// Drives the shared deterministic operation trace through one scheme's
/// controller and costs it. Every scheme replays the *same* seeded
/// stream (same addresses, same fills, same read points).
fn run_trace(scheme: &dyn ProtectionPolicy, config: &CompareConfig) -> TraceCost {
    // 1 MiB / 16 KiB 8-way cache / 16-entry WPQ: big enough for a
    // 3-level ToC, small enough that the trace forces evictions (where
    // the schemes' write amplification actually differs).
    let mem_config = scheme
        .build_config(1 << 20, 16 * 1024, 8, 16)
        // lint:allow(P1, registry schemes are validated buildable by unit test)
        .expect("registered scheme must build");
    let data_lines = mem_config.data_lines();
    let mut memory = soteria::SecureMemoryController::new(mem_config);
    let mut rng = StdRng::seed_from_u64(stream_seed(config.seed, TRACE_STREAM));
    // Concentrate on a quarter of the device so hot counter blocks see
    // repeated bumps (Osiris budget pressure) while still spanning many
    // cache sets.
    let span = (data_lines / 4).max(1);
    for op in 0..config.trace_ops {
        let line = rng.bounded_u64(span);
        if op % 4 == 3 {
            // Reads of never-written lines are defined to read zeroes.
            let _ = memory.read(DataAddr::new(line));
        } else {
            let fill = (rng.next_u64() & 0xff) as u8;
            memory
                .write(DataAddr::new(line), &[fill; 64])
                // lint:allow(P1, fault-free harness device cannot fail a write)
                .expect("fault-free trace write");
        }
    }
    let stats = memory.stats();
    let (nvm_reads, nvm_writes) = (stats.nvm_reads, stats.nvm_writes);
    let data_writes = stats.data_writes.max(1);
    let (_, report) = scheme.recover(memory.crash());
    TraceCost {
        nvm_reads,
        nvm_writes,
        write_amplification: nvm_writes as f64 / data_writes as f64,
        cost_ns: NvmTiming::table3_pcm().serialized_ns(nvm_reads, nvm_writes),
        recovery_est_ns: report.estimated_duration_ns(),
        recovery_complete: report.is_complete(),
    }
}

/// Runs the full compare campaign over the registered scheme roster.
///
/// For a fixed `config.seed` the artifacts are byte-identical at any
/// `config.threads` value.
pub fn run_compare(config: &CompareConfig) -> CompareOutput {
    let blocks = config.iterations.div_ceil(ITERATION_BLOCK);
    let all: Vec<u64> = (0..blocks).collect();
    let tagged = run_compare_blocks(config, &all);
    merge_compare_blocks(config, tagged)
}

/// One block's partial sums of the resilience half — the unit of work
/// distribution, both across local threads and across fleet workers.
pub(crate) struct CompareBlock {
    /// Block index (`block * ITERATION_BLOCK` is its first iteration).
    pub(crate) block: u64,
    pub(crate) acc: BlockAcc,
}

/// Computes the resilience-half partials of the given accumulation
/// blocks. A block's partials depend only on `(config, block)`, so any
/// partition over threads or fleet workers yields bit-identical
/// partials. Returned sorted by block index.
pub(crate) fn run_compare_blocks(config: &CompareConfig, block_ids: &[u64]) -> Vec<CompareBlock> {
    let schemes = standard_schemes();
    let campaign = config.campaign();
    let layout = campaign.build_layout();
    let geometry = campaign.build_geometry(&layout);
    let rates = campaign.rates.scaled_to(campaign.fit_per_chip);
    let correctable_chips = campaign.correctable_chips;
    let clonings: Vec<CloningPolicy> = schemes.iter().map(|s| s.cloning()).collect();
    let profiles: Vec<SchemeLoss<'_>> = clonings
        .iter()
        .zip(schemes.iter())
        .map(|(cloning, scheme)| SchemeLoss {
            cloning,
            profile: scheme.loss_profile(),
        })
        .collect();

    let workers = config.threads.max(1).min(block_ids.len().max(1));
    let data_lines = layout.data_lines();
    let per_worker: Vec<Vec<CompareBlock>> = fan_out(workers, |t| {
        let model = ResilienceModel::new(&layout, &geometry);
        let mut history = Vec::new();
        let mut live = Vec::new();
        let mut chips: Vec<u32> = Vec::new();
        let mut out = Vec::new();
        let mut i = t;
        while i < block_ids.len() {
            let block = block_ids[i];
            let lo = block * ITERATION_BLOCK;
            let hi = (lo + ITERATION_BLOCK).min(config.iterations);
            let mut acc = BlockAcc::new(schemes.len());
            for iter in lo..hi {
                let mut rng = StdRng::seed_from_u64(stream_seed(config.seed, iter));
                sample_fault_history_into(&mut rng, &geometry, &rates, config.hours, &mut history);
                if history.is_empty() {
                    continue;
                }
                acc.iterations_with_faults += 1;
                live.clear();
                live.extend(history.iter().map(|t| t.record.clone()));
                chips.clear();
                for f in &live {
                    for &c in &f.chips {
                        if !chips.contains(&c) {
                            chips.push(c);
                        }
                    }
                }
                if chips.len() <= correctable_chips {
                    continue; // Chipkill corrects any single chip.
                }
                let assessments = model.assess_schemes(&live, &profiles);
                let mut any_ue = false;
                for (i, a) in assessments.iter().enumerate() {
                    if a.error_data_lines > 0 || a.unverifiable_data_lines > 0 {
                        any_ue = true;
                    }
                    if i == 0 {
                        acc.error_ratio_sum += a.error_ratio(data_lines);
                    }
                    let udr = a.udr(data_lines);
                    if udr > 0.0 {
                        acc.udr_sum[i] += udr;
                        acc.udr_hits[i] += 1;
                        acc.events.push(
                            Json::Obj(vec![
                                ("event".into(), Json::Str("scheme_udr".into())),
                                ("iter".into(), Json::Num(iter as f64)),
                                (
                                    "seed".into(),
                                    Json::Str(format!(
                                        "{:#018x}",
                                        stream_seed(config.seed, iter)
                                    )),
                                ),
                                ("scheme".into(), Json::Str(schemes[i].name().into())),
                                ("udr".into(), Json::Num(udr)),
                            ])
                            .to_string(),
                        );
                    }
                }
                if any_ue {
                    acc.iterations_with_ue += 1;
                }
            }
            out.push(CompareBlock { block, acc });
            i += workers;
        }
        out
    });

    let mut tagged: Vec<CompareBlock> = per_worker.into_iter().flatten().collect();
    tagged.sort_by_key(|b| b.block);
    tagged
}

/// Folds block partials (in block order) into the full compare output:
/// the deterministic slowdown half runs here, then both halves are
/// serialized. The single reduction behind both the local runner and the
/// fleet coordinator's merge, so their bytes cannot diverge.
pub(crate) fn merge_compare_blocks(
    config: &CompareConfig,
    mut tagged: Vec<CompareBlock>,
) -> CompareOutput {
    let schemes = standard_schemes();
    tagged.sort_by_key(|b| b.block);
    let mut iterations_with_faults = 0u64;
    let mut iterations_with_ue = 0u64;
    let mut error_ratio_sum = 0.0f64;
    let mut udr_sum = vec![0.0f64; schemes.len()];
    let mut udr_hits = vec![0u64; schemes.len()];
    let mut udr_events: Vec<String> = Vec::new();
    for CompareBlock { acc, .. } in tagged {
        iterations_with_faults += acc.iterations_with_faults;
        iterations_with_ue += acc.iterations_with_ue;
        error_ratio_sum += acc.error_ratio_sum;
        for i in 0..schemes.len() {
            udr_sum[i] += acc.udr_sum[i];
            udr_hits[i] += acc.udr_hits[i];
        }
        udr_events.extend(acc.events);
    }
    let mean_error_ratio = error_ratio_sum / config.iterations as f64;

    // Slowdown half: one deterministic trace per scheme, in parallel,
    // collected in roster order.
    let costs: Vec<TraceCost> = parallel_map(
        schemes.to_vec(),
        config.threads.max(1),
        |scheme| run_trace(scheme, config),
    );
    let baseline_cost = costs.first().map_or(1, |c| c.cost_ns).max(1);

    let rows: Vec<SchemeRow> = schemes
        .iter()
        .zip(costs)
        .enumerate()
        .map(|(i, (scheme, cost))| SchemeRow {
            scheme: scheme.name(),
            cloning: scheme.cloning().to_string(),
            tree_update: tree_label(scheme.tree_update()),
            recovery: recovery_label(scheme.recovery()),
            iterations_with_udr: udr_hits[i],
            mean_udr: udr_sum[i] / config.iterations as f64,
            mean_error_ratio,
            nvm_reads: cost.nvm_reads,
            nvm_writes: cost.nvm_writes,
            write_amplification: cost.write_amplification,
            cost_ns: cost.cost_ns,
            slowdown: cost.cost_ns as f64 / baseline_cost as f64,
            recovery_est_ns: cost.recovery_est_ns,
            recovery_complete: cost.recovery_complete,
        })
        .collect();

    let config_obj = Json::Obj(vec![
        ("seed".into(), Json::Str(format!("{:#018x}", config.seed))),
        ("iterations".into(), Json::Num(config.iterations as f64)),
        ("fit_per_chip".into(), Json::Num(config.fit_per_chip)),
        (
            "capacity_bytes".into(),
            Json::Num(config.capacity_bytes as f64),
        ),
        ("trace_ops".into(), Json::Num(config.trace_ops as f64)),
    ]);
    let scheme_objs: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("scheme".into(), Json::Str(r.scheme.into())),
                ("cloning".into(), Json::Str(r.cloning.clone())),
                ("tree_update".into(), Json::Str(r.tree_update.clone())),
                ("recovery".into(), Json::Str(r.recovery.into())),
                (
                    "iterations_with_udr".into(),
                    Json::Num(r.iterations_with_udr as f64),
                ),
                ("mean_udr".into(), Json::Num(r.mean_udr)),
                ("mean_error_ratio".into(), Json::Num(r.mean_error_ratio)),
                ("nvm_reads".into(), Json::Num(r.nvm_reads as f64)),
                ("nvm_writes".into(), Json::Num(r.nvm_writes as f64)),
                (
                    "write_amplification".into(),
                    Json::Num(r.write_amplification),
                ),
                ("cost_ns".into(), Json::Num(r.cost_ns as f64)),
                ("slowdown".into(), Json::Num(r.slowdown)),
                ("recovery_est_ns".into(), Json::Num(r.recovery_est_ns as f64)),
                ("recovery_complete".into(), Json::Bool(r.recovery_complete)),
            ])
        })
        .collect();
    let result = Json::Obj(vec![
        ("schema".into(), Json::Str("soteria-compare/v1".into())),
        ("config".into(), config_obj.clone()),
        ("schemes".into(), Json::Arr(scheme_objs.clone())),
        (
            "summary".into(),
            Json::Obj(vec![
                ("schemes".into(), Json::Num(schemes.len() as f64)),
                (
                    "iterations_with_faults".into(),
                    Json::Num(iterations_with_faults as f64),
                ),
                (
                    "iterations_with_ue".into(),
                    Json::Num(iterations_with_ue as f64),
                ),
                (
                    "baseline_cost_ns".into(),
                    Json::Num(baseline_cost as f64),
                ),
            ]),
        ),
    ]);

    let mut ndjson = String::new();
    let mut header = vec![
        ("event".into(), Json::Str("config".into())),
        ("schema".into(), Json::Str("soteria-compare/v1".into())),
    ];
    if let Json::Obj(entries) = config_obj {
        header.extend(entries);
    }
    header.push(("schemes".into(), Json::Num(schemes.len() as f64)));
    ndjson.push_str(&Json::Obj(header).to_string());
    ndjson.push('\n');
    for line in &udr_events {
        ndjson.push_str(line);
        ndjson.push('\n');
    }
    for (row, obj) in rows.iter().zip(scheme_objs) {
        let _ = row;
        let mut entries = vec![("event".into(), Json::Str("scheme_result".into()))];
        if let Json::Obj(fields) = obj {
            entries.extend(fields);
        }
        ndjson.push_str(&Json::Obj(entries).to_string());
        ndjson.push('\n');
    }

    CompareOutput {
        rows,
        result_json: result.to_pretty_string(),
        ndjson,
        iterations_with_faults,
        iterations_with_ue,
    }
}

/// Builds a [`CompareConfig`] from a JSON request body — the single
/// parser behind `soteria compare` submissions over HTTP.
///
/// Recognized fields (all optional; anything else is rejected):
/// `fit`, `iterations` (≤ 10^6), `seed` (number or `"0x…"` string),
/// `threads`, `capacity_bytes` (1 MiB–1 GiB), `trace_ops` (≤ 10^6).
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn compare_config_from_json(body: &Json) -> Result<CompareConfig, String> {
    let entries = body
        .entries()
        .ok_or("compare config must be a JSON object")?;
    let num = |v: &Json, field: &str| {
        v.as_f64()
            .ok_or_else(|| format!("field '{field}' must be a number"))
    };
    let positive_int = |v: &Json, field: &str| -> Result<u64, String> {
        let n = num(v, field)?;
        if n < 1.0 || n.fract() != 0.0 {
            return Err(format!("field '{field}' must be a positive integer"));
        }
        Ok(n as u64)
    };
    let mut config = CompareConfig::default();
    for (key, value) in entries {
        match key.as_str() {
            "fit" => {
                let fit = num(value, "fit")?;
                if !(fit > 0.0 && fit.is_finite()) {
                    return Err("field 'fit' must be a positive number".into());
                }
                config.fit_per_chip = fit;
            }
            "iterations" => {
                let iters = positive_int(value, "iterations")?;
                if iters > 1_000_000 {
                    return Err("field 'iterations' must be at most 1000000".into());
                }
                config.iterations = iters;
            }
            "seed" => {
                config.seed = match value {
                    Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => *n as u64,
                    Json::Str(s) => {
                        let hex = s.strip_prefix("0x").unwrap_or(s);
                        u64::from_str_radix(hex, 16)
                            .map_err(|_| format!("field 'seed' has invalid hex value '{s}'"))?
                    }
                    _ => return Err("field 'seed' must be an integer or hex string".into()),
                };
            }
            "threads" => {
                config.threads = positive_int(value, "threads")? as usize;
            }
            "capacity_bytes" => {
                let bytes = positive_int(value, "capacity_bytes")?;
                if !(1 << 20..=1u64 << 30).contains(&bytes) {
                    return Err("field 'capacity_bytes' must be between 1 MiB and 1 GiB".into());
                }
                config.capacity_bytes = bytes;
            }
            "trace_ops" => {
                let ops = positive_int(value, "trace_ops")?;
                if ops > 1_000_000 {
                    return Err("field 'trace_ops' must be at most 1000000".into());
                }
                config.trace_ops = ops;
            }
            other => {
                return Err(format!(
                    "unknown field '{other}' (fit, iterations, seed, threads, capacity_bytes, \
                     trace_ops)"
                ))
            }
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CompareConfig {
        CompareConfig {
            iterations: 192,
            trace_ops: 512,
            threads: 1,
            ..CompareConfig::default()
        }
    }

    #[test]
    fn smoke_matrix_is_thread_invariant_and_ordered() {
        let one = run_compare(&small_config());
        assert!(one.rows.len() >= 6, "compare must cover six+ schemes");
        let four = run_compare(&CompareConfig {
            threads: 4,
            ..small_config()
        });
        assert_eq!(one.result_json, four.result_json);
        assert_eq!(one.ndjson, four.ndjson);

        let udr = |name: &str| {
            one.rows
                .iter()
                .find(|r| r.scheme == name)
                .map(|r| r.mean_udr)
                // lint:allow(P1, roster names are pinned by the registry test)
                .expect("registered scheme")
        };
        // The Fig. 11 cloning ordering and the Triad tier ordering both
        // hold on the paired fault streams.
        assert!(udr("baseline") >= udr("src"));
        assert!(udr("src") >= udr("sac"));
        assert!(udr("triad0") >= udr("triad1"));
        assert!(udr("triad1") >= udr("triad2"));
        assert!(udr("baseline") >= udr("osiris"));
    }

    #[test]
    fn slowdown_is_normalized_to_baseline_and_positive() {
        let out = run_compare(&CompareConfig {
            iterations: 64,
            trace_ops: 256,
            ..CompareConfig::default()
        });
        assert_eq!(out.rows[0].scheme, "baseline");
        assert!((out.rows[0].slowdown - 1.0).abs() < 1e-12);
        for r in &out.rows {
            assert!(r.cost_ns > 0, "{} must pay NVM traffic", r.scheme);
            assert!(r.slowdown > 0.0);
            assert!(r.write_amplification >= 1.0, "{}", r.scheme);
        }
        // Eager-style write-through (triad1+, phoenix) must cost more
        // NVM writes than the lazy baseline on the identical trace.
        let writes = |name: &str| {
            out.rows
                .iter()
                .find(|r| r.scheme == name)
                .map(|r| r.nvm_writes)
                // lint:allow(P1, roster names are pinned by the registry test)
                .expect("registered scheme")
        };
        assert!(writes("triad1") > writes("baseline"));
        assert!(writes("phoenix") > writes("baseline"));
    }

    #[test]
    fn config_parser_applies_and_rejects() {
        let parse = |s: &str| {
            compare_config_from_json(&Json::parse(s).expect("valid test JSON"))
        };
        let c = parse(
            r#"{"fit": 900, "iterations": 100, "seed": "0xbeef", "threads": 2,
                "capacity_bytes": 67108864, "trace_ops": 400}"#,
        )
        .unwrap();
        assert_eq!(c.fit_per_chip, 900.0);
        assert_eq!(c.iterations, 100);
        assert_eq!(c.seed, 0xbeef);
        assert_eq!(c.threads, 2);
        assert_eq!(c.capacity_bytes, 64 << 20);
        assert_eq!(c.trace_ops, 400);
        for (body, needle) in [
            (r#"[]"#, "JSON object"),
            (r#"{"fit": 0}"#, "'fit'"),
            (r#"{"iterations": 2000000}"#, "'iterations'"),
            (r#"{"seed": "0xzz"}"#, "'seed'"),
            (r#"{"capacity_bytes": 64}"#, "'capacity_bytes'"),
            (r#"{"trace_ops": 0}"#, "'trace_ops'"),
            (r#"{"ops": 5}"#, "unknown field 'ops'"),
        ] {
            let err = parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }
}
