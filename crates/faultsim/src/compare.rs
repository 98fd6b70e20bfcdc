//! Cross-scheme shootout campaign (`soteria compare`).
//!
//! Every scheme registered in [`soteria::policy::standard_schemes`] is
//! swept over **identical** workloads, in two halves:
//!
//! * **Resilience** — the campaign's own Monte Carlo loop (its
//!   per-iteration seed streams, its fixed accumulation blocks and its
//!   fold) with scrubbing off, judging every scheme's
//!   [`soteria::LossProfile`] through the exact
//!   [`soteria::analysis::ResilienceModel::assess_schemes`]. Paired
//!   comparison: one fault history per iteration, all schemes judged
//!   against it.
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

use soteria::analysis::SchemeLoss;
use soteria::clone::CloningPolicy;
use soteria::config::TreeUpdate;
use soteria::policy::{standard_schemes, ProtectionPolicy, RecoveryStrategy};
use soteria::DataAddr;
use soteria_nvm::timing::NvmTiming;
use soteria_rt::json::Json;
use soteria_rt::rng::{stream_seed, StdRng};
use soteria_rt::thread::parallel_map;

use crate::campaign::{fold_blocks, run_blocks, Assess, Block, CampaignConfig, ITERATION_BLOCK};
use crate::job::{field, Job};
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
    /// The campaign the resilience half runs: the Table 4 DIMM shape,
    /// fault mix and Chipkill at this capacity and seed, scrubbing off,
    /// and per-iteration records kept for the NDJSON.
    fn campaign(&self) -> CampaignConfig {
        let mut c = CampaignConfig::table4(self.fit_per_chip);
        c.capacity_bytes = self.capacity_bytes;
        c.hours = self.hours;
        c.iterations = self.iterations;
        c.seed = self.seed;
        c.threads = self.threads;
        c.trace = true;
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
    let all: Vec<u64> = (0..config.total_blocks()).collect();
    let blocks = run_compare_blocks(config, &all);
    merge_compare_blocks(config, blocks)
}

/// The compare kind: [`run_compare`] for the whole job, and the campaign's
/// Monte Carlo block form over the registry's rows for its shards (the
/// slowdown half runs once, at merge).
impl Job for CompareConfig {
    fn run(&self) -> (String, String) {
        let output = run_compare(self);
        (output.result_json, output.ndjson)
    }

    fn total_blocks(&self) -> u64 {
        self.iterations.div_ceil(ITERATION_BLOCK)
    }

    fn run_blocks(&self, ids: &[u64]) -> Vec<Json> {
        let blocks = run_compare_blocks(self, ids);
        blocks.iter().map(Block::to_wire).collect()
    }

    fn merge_blocks(&self, blocks: &[&Json]) -> Result<(String, String), String> {
        let rows = standard_schemes().len();
        let blocks = Block::unwire_all(blocks, "compare", rows, self.iterations)?;
        let output = merge_compare_blocks(self, blocks);
        Ok((output.result_json, output.ndjson))
    }
}

/// The resilience half's blocks: the campaign loop over the registry's
/// rows with the exact assessment.
fn run_compare_blocks(config: &CompareConfig, block_ids: &[u64]) -> Vec<Block> {
    let schemes = standard_schemes();
    let clonings: Vec<CloningPolicy> = schemes.iter().map(|s| s.cloning()).collect();
    let rows: Vec<SchemeLoss<'_>> = clonings
        .iter()
        .zip(schemes.iter())
        .map(|(cloning, scheme)| SchemeLoss {
            cloning,
            profile: scheme.loss_profile(),
        })
        .collect();
    run_blocks(&config.campaign(), &rows, Assess::Exact, block_ids)
}

/// Folds resilience blocks into the full compare output: the
/// deterministic slowdown half runs here, then both halves are
/// serialized, the per-iteration UDR events rendered from the blocks'
/// records.
fn merge_compare_blocks(config: &CompareConfig, blocks: Vec<Block>) -> CompareOutput {
    let schemes = standard_schemes();
    let total = fold_blocks(blocks, schemes.len());
    let mean_error_ratio = total.error_ratio_sum / config.iterations as f64;

    // Slowdown half: one deterministic trace per scheme, in parallel,
    // collected in roster order.
    let costs: Vec<TraceCost> = parallel_map(schemes.to_vec(), config.threads.max(1), |scheme| {
        run_trace(scheme, config)
    });
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
            iterations_with_udr: total.udr_hits[i],
            mean_udr: total.udr_sum[i] / config.iterations as f64,
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
                (
                    "recovery_est_ns".into(),
                    Json::Num(r.recovery_est_ns as f64),
                ),
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
                    Json::Num(total.iterations_with_faults as f64),
                ),
                (
                    "iterations_with_ue".into(),
                    Json::Num(total.iterations_with_ue as f64),
                ),
                ("baseline_cost_ns".into(), Json::Num(baseline_cost as f64)),
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
    for r in &total.records {
        let seed = format!("{:#018x}", stream_seed(config.seed, r.iter));
        for (scheme, &udr) in schemes.iter().zip(&r.udr) {
            if udr > 0.0 {
                let event = Json::Obj(vec![
                    ("event".into(), Json::Str("scheme_udr".into())),
                    ("iter".into(), Json::Num(r.iter as f64)),
                    ("seed".into(), Json::Str(seed.clone())),
                    ("scheme".into(), Json::Str(scheme.name().into())),
                    ("udr".into(), Json::Num(udr)),
                ]);
                ndjson.push_str(&event.to_string());
                ndjson.push('\n');
            }
        }
    }
    for obj in scheme_objs {
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
        iterations_with_faults: total.iterations_with_faults,
        iterations_with_ue: total.iterations_with_ue,
    }
}

/// Builds a [`CompareConfig`] from a JSON request body — the single
/// parser behind `soteria compare` submissions over HTTP.
///
/// Recognized fields (all optional; anything else is rejected):
/// `fit`, `iterations` (≤ 10^6), `seed` (number or `"0x…"` string),
/// `threads` (≤ 256), `capacity_bytes` (1 MiB–1 GiB), `trace_ops` (≤ 10^6).
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn compare_config_from_json(body: &Json) -> Result<CompareConfig, String> {
    let mut config = CompareConfig::default();
    for (key, value) in field::entries(body, "compare")? {
        match key.as_str() {
            "fit" => config.fit_per_chip = field::fit(value)?,
            "iterations" => config.iterations = field::int_at_most(value, "iterations", 1_000_000)?,
            "seed" => config.seed = field::seed(value)?,
            "threads" => config.threads = field::threads(value)?,
            "capacity_bytes" => {
                let bytes = field::positive_int(value, "capacity_bytes")?;
                if !(1 << 20..=1u64 << 30).contains(&bytes) {
                    return Err("field 'capacity_bytes' must be between 1 MiB and 1 GiB".into());
                }
                config.capacity_bytes = bytes;
            }
            "trace_ops" => config.trace_ops = field::int_at_most(value, "trace_ops", 1_000_000)?,
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
        let parse = |s: &str| compare_config_from_json(&Json::parse(s).expect("valid test JSON"));
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
