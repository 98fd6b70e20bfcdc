//! Crash-consistency campaign: drives the `soteria_rt::crashck` oracle
//! across the full `TreeUpdate × CloningPolicy` matrix, under both
//! recovery paths (Anubis shadow recovery and the Osiris exhaustive
//! scan).
//!
//! For every cell of the matrix and every seeded transaction script, the
//! campaign runs in two phases:
//!
//! 1. **Census** — one instrumented dry run with the WPQ journal on. It
//!    yields the event-clock total, the accept event of each committed
//!    transaction, and a journal that must replay cleanly against the
//!    pure queue model ([`soteria_rt::crashck::replay_journal`]).
//! 2. **Sweep** — [`soteria_rt::crashck::check_script`] enumerates every
//!    crash point `0..=total_events`, arming the WPQ crash fuse at each,
//!    recovering the image, reading back every script line, and judging
//!    the observed state against the committed-prefix reference model.
//!
//! Scripts are seeded via [`soteria_rt::rng::stream_seed`] so cells are
//! independent; units fan out over worker threads with deterministic
//! chunking, and each unit's sweep runs single-threaded inside, so the
//! JSON/NDJSON report is **byte-identical for any `--threads` value**.

use soteria::clone::CloningPolicy;
use soteria::config::TreeUpdate;
use soteria::recovery::{recover, recover_exhaustive};
use soteria::{CrashImage, DataAddr, SecureMemoryConfig, SecureMemoryController};
use soteria_rt::crashck::{
    check_script, gen_script, replay_journal, script_lines, Census, CrashRun, Divergence,
    OracleMode, Tx,
};
use soteria_rt::json::Json;
use soteria_rt::rng::stream_seed;
use soteria_rt::thread::parallel_map;

use crate::job::{field, Job};
use crate::shard::{dedup_covered, str_unwire, u64_unwire, u64_wire};

/// Tree-update modes of the matrix, in report order.
const TREE_UPDATES: [(TreeUpdate, &str); 3] = [
    (TreeUpdate::Lazy, "lazy"),
    (TreeUpdate::Eager, "eager"),
    (TreeUpdate::Triad { persist_levels: 1 }, "triad1"),
];

/// Cloning policies of the matrix, in report order.
const POLICIES: [CloningPolicy; 3] = [
    CloningPolicy::None,
    CloningPolicy::Relaxed,
    CloningPolicy::Aggressive,
];

/// Recovery paths of the matrix: Anubis shadow recovery is judged
/// strictly; the Osiris exhaustive scan cannot rebuild unshadowed tree
/// nodes and is judged in weak mode (no silent corruption, ever).
const RECOVERIES: [(&str, OracleMode); 2] =
    [("anubis", OracleMode::Strict), ("osiris", OracleMode::Weak)];

/// Campaign bounds. The defaults are the PR-smoke scale; the nightly
/// exhaustive job raises them with `soteria crashck --scripts`, `--txns`
/// and `--writes`.
#[derive(Clone, Debug)]
pub struct CrashckConfig {
    /// Base seed; scripts draw from per-unit `stream_seed` streams.
    pub seed: u64,
    /// Transaction scripts per matrix cell.
    pub scripts_per_cell: usize,
    /// Maximum transactions per script.
    pub max_txns: usize,
    /// Maximum writes per transaction.
    pub max_writes: usize,
    /// Worker threads (the artifacts are identical for any value).
    pub threads: usize,
}

impl Default for CrashckConfig {
    fn default() -> Self {
        Self {
            seed: 0xc7a5_4c1c,
            scripts_per_cell: 2,
            max_txns: 6,
            max_writes: 3,
            threads: 1,
        }
    }
}

/// One divergence, with enough context to replay and localise it.
#[derive(Clone, Debug)]
pub struct CellDivergence {
    /// Matrix cell, as `tree/policy/recovery`.
    pub cell: String,
    /// The script's seed.
    pub seed: u64,
    /// The script, one `line:fill,…` group per transaction.
    pub script: String,
    /// The divergent crash point (WPQ event).
    pub point: u64,
    /// What contradicted the committed-prefix model.
    pub reason: String,
    /// The last trace events before that crash (NDJSON lines).
    pub trace_tail: String,
}

/// Everything a crashck campaign produced.
#[derive(Clone, Debug)]
pub struct CrashckOutput {
    /// The aggregate report (`soteria-crashck/v1`), pretty-printed.
    pub result_json: String,
    /// One NDJSON record per (cell, script) sweep.
    pub ndjson: String,
    /// Every divergence found, in deterministic cell/script order.
    pub divergences: Vec<CellDivergence>,
    /// Matrix cells swept.
    pub cells: usize,
    /// Scripts swept (cells × scripts-per-cell).
    pub scripts: usize,
    /// Total crash points enumerated.
    pub points: u64,
}

fn build_controller(update: TreeUpdate, policy: &CloningPolicy) -> SecureMemoryController {
    // 256 KiB → a 3-level ToC over 4096 data lines; a 4-way cache small
    // enough that set-conflict evictions (and thus clone-group rewrites)
    // occur inside short scripts; a 16-entry WPQ so multi-write commit
    // groups and clone groups both fit with room to stall.
    let config = SecureMemoryConfig::builder()
        .capacity_bytes(1 << 18)
        .metadata_cache(8 * 1024, 4)
        .wpq_entries(16)
        .cloning(policy.clone())
        .tree_update(update)
        .build()
        // lint:allow(P1, fixed harness configuration is valid by construction)
        .expect("valid crashck harness config");
    SecureMemoryController::new(config)
}

/// Lines addressable by generated scripts (kept below the harness's
/// 4096-line capacity; the generator's hot-set bias does the rest).
const SCRIPT_LINES: u64 = 4096;

/// Runs `script` against a fresh controller, stopping once the crash
/// fuse fires. Returns the per-transaction accept events and an error
/// seen while still alive (if any).
fn run_script(memory: &mut SecureMemoryController, script: &[Tx]) -> (Vec<u64>, Option<String>) {
    let mut accepts = Vec::new();
    for tx in script {
        let mut staged = memory.transaction();
        for &(line, fill) in &tx.writes {
            staged.write(DataAddr::new(line), &[fill; 64]);
        }
        match staged.commit() {
            Ok(receipt) => {
                if receipt.accepted {
                    accepts.push(receipt.accept_event);
                }
            }
            Err(e) => {
                if !memory.wpq_is_dead() {
                    return (accepts, Some(e.to_string()));
                }
            }
        }
        if memory.wpq_is_dead() {
            break;
        }
    }
    (accepts, None)
}

/// The `drains_at_crash` clock parsed from the trace's `crash` event.
fn crash_drain_clock(memory: &SecureMemoryController) -> u64 {
    memory
        .obs()
        .trace
        .events()
        .filter(|e| e.name == "crash")
        .last()
        .and_then(|e| e.to_json().get("drains_at_crash").and_then(Json::as_f64))
        .map_or(0, |f| f as u64)
}

/// The last `n` trace events, one NDJSON line each.
fn trace_tail(memory: &SecureMemoryController, n: usize) -> String {
    let events: Vec<_> = memory.obs().trace.events().collect();
    let start = events.len().saturating_sub(n);
    events[start..]
        .iter()
        .map(|e| e.ndjson_line())
        .collect::<Vec<_>>()
        .join("")
}

fn recover_image(image: CrashImage, recovery: &str) -> (SecureMemoryController, bool) {
    if recovery == "anubis" {
        let (memory, report) = recover(image);
        (memory, report.is_complete())
    } else {
        let (memory, report) = recover_exhaustive(image);
        (memory, report.is_complete())
    }
}

/// One armed execution: run-to-crash-point, recover, read back.
fn crash_run(
    update: TreeUpdate,
    policy: &CloningPolicy,
    recovery: &str,
    script: &[Tx],
    point: u64,
) -> CrashRun {
    let mut memory = build_controller(update, policy);
    memory.enable_obs();
    memory.arm_crash_at_event(point);
    let (_, exec_error) = run_script(&mut memory, script);
    let image = memory.crash();
    let (mut memory, recovery_complete) = recover_image(image, recovery);
    let drain_clock = crash_drain_clock(&memory);
    let tail = trace_tail(&memory, 12);
    let reads = script_lines(script)
        .into_iter()
        .map(|line| (line, memory.read(DataAddr::new(line)).ok()))
        .collect();
    CrashRun {
        reads,
        recovery_complete,
        drain_clock,
        trace_tail: tail,
        exec_error,
    }
}

/// The verdict of one (cell, script) sweep.
struct UnitResult {
    cell: String,
    tree: &'static str,
    policy: &'static str,
    recovery: &'static str,
    mode: OracleMode,
    seed: u64,
    script: String,
    txns: usize,
    points: u64,
    committed_total: usize,
    divergence: Option<Divergence>,
}

fn run_unit(
    update: TreeUpdate,
    tree_name: &'static str,
    policy: &CloningPolicy,
    recovery: &'static str,
    mode: OracleMode,
    seed: u64,
    config: &CrashckConfig,
) -> UnitResult {
    let script = gen_script(seed, config.max_txns, config.max_writes, SCRIPT_LINES);
    let cell = format!("{tree_name}/{}/{recovery}", policy.name());

    // Phase 1: census. Journal on, no fuse — the full script commits.
    let mut memory = build_controller(update, policy);
    memory.enable_wpq_journal();
    let (commit_events, exec_error) = run_script(&mut memory, &script);
    let total_events = memory.wpq_events();
    let census = Census {
        total_events,
        commit_events,
    };
    let mut census_fault = exec_error;
    if census_fault.is_none() {
        if let Err(e) = census.validate() {
            census_fault = Some(format!("census inconsistent: {e}"));
        }
    }
    if census_fault.is_none() && census.commit_events.len() != script.len() {
        census_fault = Some(format!(
            "only {} of {} transactions committed in the dry run",
            census.commit_events.len(),
            script.len()
        ));
    }
    if census_fault.is_none() {
        let image = memory.crash();
        if let Err(e) = replay_journal(image.wpq_journal(), 16) {
            census_fault = Some(format!("WPQ journal violates the queue discipline: {e}"));
        }
    }
    let (points, divergence) = match census_fault {
        Some(reason) => (
            0,
            Some(Divergence {
                point: 0,
                reason,
                trace_tail: String::new(),
            }),
        ),
        // Phase 2: exhaustive crash-point sweep (single-threaded inside
        // the unit; units themselves are the parallel grain).
        None => {
            let verdict = check_script(&script, &census, mode, 1, |point| {
                crash_run(update, policy, recovery, &script, point)
            });
            (verdict.points_checked, verdict.divergence)
        }
    };
    UnitResult {
        cell,
        tree: tree_name,
        policy: policy.name(),
        recovery,
        mode,
        seed,
        script: describe_script(&script),
        txns: script.len(),
        points,
        committed_total: census.commit_events.len(),
        divergence,
    }
}

fn describe_script(script: &[Tx]) -> String {
    let groups: Vec<String> = script.iter().map(Tx::describe).collect();
    groups.join(";")
}

/// Sweeps unit `index` of the flat unit list: cells × scripts, tree
/// update outermost and script innermost. Unit `i` always denotes the
/// same `(cell, script seed)` pair for a given config, which is what
/// makes units distributable across fleet workers.
fn run_indexed_unit(config: &CrashckConfig, index: u64) -> UnitResult {
    let scripts = config.scripts_per_cell.max(1) as u64;
    let cell = (index / scripts) as usize;
    let (recovery, mode) = RECOVERIES[cell % RECOVERIES.len()];
    let policy = &POLICIES[cell / RECOVERIES.len() % POLICIES.len()];
    let (update, tree_name) = TREE_UPDATES[cell / (RECOVERIES.len() * POLICIES.len())];
    let seed = stream_seed(config.seed, index);
    run_unit(update, tree_name, policy, recovery, mode, seed, config)
}

/// Sweeps the units whose indices appear in `unit_ids` (each below the
/// job's total), returning each verdict tagged with its unit index
/// (sorted by index). A unit's verdict depends only on `(config, unit
/// index)`, so any partition over threads or fleet workers yields
/// identical verdicts.
fn run_crashck_units(config: &CrashckConfig, unit_ids: &[u64]) -> Vec<(u64, UnitResult)> {
    let mut results = parallel_map(unit_ids.to_vec(), config.threads.max(1), |i| {
        (i, run_indexed_unit(config, i))
    });
    results.sort_by_key(|&(i, _)| i);
    results
}

/// Folds unit verdicts (in unit order) into the final artifacts — the
/// single reduction behind both the local runner and the fleet
/// coordinator's merge, so their bytes cannot diverge.
fn merge_crashck_units(
    config: &CrashckConfig,
    mut tagged: Vec<(u64, UnitResult)>,
) -> CrashckOutput {
    tagged.sort_by_key(|&(i, _)| i);
    let results: Vec<UnitResult> = tagged.into_iter().map(|(_, r)| r).collect();
    let cells = TREE_UPDATES.len() * POLICIES.len() * RECOVERIES.len();

    // Artifacts, folded in unit order (deterministic at any -j).
    let mut ndjson = String::new();
    let mut divergences = Vec::new();
    let mut points = 0u64;
    let mut cell_rows: Vec<(String, Json)> = Vec::new();
    for r in &results {
        points += r.points;
        let diverged = r.divergence.is_some();
        let mut line = vec![
            ("cell".to_string(), Json::Str(r.cell.clone())),
            ("seed".to_string(), Json::Str(format!("{:#018x}", r.seed))),
            ("mode".to_string(), Json::Str(r.mode.name().to_string())),
            ("txns".to_string(), Json::Num(r.txns as f64)),
            ("committed".to_string(), Json::Num(r.committed_total as f64)),
            ("points".to_string(), Json::Num(r.points as f64)),
            ("divergent".to_string(), Json::Bool(diverged)),
        ];
        if let Some(d) = &r.divergence {
            line.push(("point".to_string(), Json::Num(d.point as f64)));
            line.push(("reason".to_string(), Json::Str(d.reason.clone())));
            divergences.push(CellDivergence {
                cell: r.cell.clone(),
                seed: r.seed,
                script: r.script.clone(),
                point: d.point,
                reason: d.reason.clone(),
                trace_tail: d.trace_tail.clone(),
            });
        }
        ndjson.push_str(&Json::Obj(line).to_string());
        ndjson.push('\n');
        let mut row = vec![
            ("tree_update".to_string(), Json::Str(r.tree.to_string())),
            ("cloning".to_string(), Json::Str(r.policy.to_string())),
            ("recovery".to_string(), Json::Str(r.recovery.to_string())),
            ("seed".to_string(), Json::Str(format!("{:#018x}", r.seed))),
            ("script".to_string(), Json::Str(r.script.clone())),
            ("points".to_string(), Json::Num(r.points as f64)),
            ("divergent".to_string(), Json::Bool(diverged)),
        ];
        if let Some(d) = &r.divergence {
            row.push(("divergence_point".to_string(), Json::Num(d.point as f64)));
            row.push(("divergence_reason".to_string(), Json::Str(d.reason.clone())));
        }
        cell_rows.push((String::new(), Json::Obj(row)));
    }
    let result = Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("soteria-crashck/v1".to_string()),
        ),
        (
            "config".to_string(),
            Json::Obj(vec![
                (
                    "seed".to_string(),
                    Json::Str(format!("{:#018x}", config.seed)),
                ),
                (
                    "scripts_per_cell".to_string(),
                    Json::Num(config.scripts_per_cell.max(1) as f64),
                ),
                ("max_txns".to_string(), Json::Num(config.max_txns as f64)),
                (
                    "max_writes".to_string(),
                    Json::Num(config.max_writes as f64),
                ),
            ]),
        ),
        (
            "sweeps".to_string(),
            Json::Arr(cell_rows.into_iter().map(|(_, v)| v).collect()),
        ),
        (
            "summary".to_string(),
            Json::Obj(vec![
                ("cells".to_string(), Json::Num(cells as f64)),
                ("scripts".to_string(), Json::Num(results.len() as f64)),
                ("points".to_string(), Json::Num(points as f64)),
                (
                    "divergences".to_string(),
                    Json::Num(divergences.len() as f64),
                ),
            ]),
        ),
    ]);
    CrashckOutput {
        result_json: result.to_pretty_string(),
        ndjson,
        divergences,
        cells,
        scripts: results.len(),
        points,
    }
}

/// Runs the full crash-consistency campaign described by `config`.
pub fn run_crashck(config: &CrashckConfig) -> CrashckOutput {
    let all: Vec<u64> = (0..config.total_blocks()).collect();
    let tagged = run_crashck_units(config, &all);
    merge_crashck_units(config, tagged)
}

/// The crashck kind: [`run_crashck`] for the whole job, and one matrix
/// unit (cell × script) per distribution block for its shards.
impl Job for CrashckConfig {
    fn run(&self) -> (String, String) {
        let output = run_crashck(self);
        (output.result_json, output.ndjson)
    }

    fn total_blocks(&self) -> u64 {
        let cells = TREE_UPDATES.len() * POLICIES.len() * RECOVERIES.len();
        (cells * self.scripts_per_cell.max(1)) as u64
    }

    fn run_blocks(&self, ids: &[u64]) -> Vec<Json> {
        let units = run_crashck_units(self, ids);
        units.iter().map(|(i, r)| unit_wire(*i, r)).collect()
    }

    fn merge_blocks(&self, blocks: &[&Json]) -> Result<(String, String), String> {
        let units = blocks
            .iter()
            .map(|obj| unit_unwire(obj))
            .collect::<Result<Vec<_>, _>>()?;
        let units = dedup_covered(units, |u| u.0, self.total_blocks())?;
        let output = merge_crashck_units(self, units);
        Ok((output.result_json, output.ndjson))
    }
}

/// The wire form of unit `index`'s verdict.
fn unit_wire(index: u64, r: &UnitResult) -> Json {
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

/// Parses a unit verdict off the wire, re-interning its names into the
/// fixed matrix vocabulary (`&'static str` labels plus the oracle mode
/// implied by the recovery path).
fn unit_unwire(obj: &Json) -> Result<(u64, UnitResult), String> {
    let tree = str_unwire(obj.get("tree"), "tree")?;
    let policy = str_unwire(obj.get("policy"), "policy")?;
    let recovery = str_unwire(obj.get("recovery"), "recovery")?;
    let (_, tree) = TREE_UPDATES
        .into_iter()
        .find(|(_, n)| *n == tree)
        .ok_or_else(|| format!("unknown tree name '{tree}'"))?;
    let policy = POLICIES
        .iter()
        .map(CloningPolicy::name)
        .find(|n| *n == policy)
        .ok_or_else(|| format!("unknown policy name '{policy}'"))?;
    let (recovery, mode) = RECOVERIES
        .into_iter()
        .find(|(n, _)| *n == recovery)
        .ok_or_else(|| format!("unknown recovery name '{recovery}'"))?;
    let divergence = match obj.get("divergence") {
        None => None,
        Some(d) => Some(Divergence {
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
            txns: u64_unwire(obj.get("txns"), "txns")? as usize,
            points: u64_unwire(obj.get("points"), "points")?,
            committed_total: u64_unwire(obj.get("committed"), "committed")? as usize,
            divergence,
        },
    ))
}

/// Builds a [`CrashckConfig`] from a JSON request body — the single
/// parser behind `soteria crashck` submissions over HTTP.
///
/// Recognized fields (all optional; anything else is rejected):
/// `seed` (number or `"0x…"` string), `scripts_per_cell` (≤ 64),
/// `max_txns` (≤ 16), `max_writes` (≤ 8), `threads` (≤ 256).
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn crashck_config_from_json(body: &Json) -> Result<CrashckConfig, String> {
    let mut config = CrashckConfig::default();
    for (key, value) in field::entries(body, "crashck")? {
        match key.as_str() {
            "seed" => config.seed = field::seed(value)?,
            "scripts_per_cell" => {
                config.scripts_per_cell =
                    field::int_at_most(value, "scripts_per_cell", 64)? as usize;
            }
            "max_txns" => config.max_txns = field::int_at_most(value, "max_txns", 16)? as usize,
            "max_writes" => {
                config.max_writes = field::int_at_most(value, "max_writes", 8)? as usize
            }
            "threads" => config.threads = field::threads(value)?,
            other => {
                return Err(format!(
                    "unknown field '{other}' (seed, scripts_per_cell, max_txns, max_writes, \
                     threads)"
                ))
            }
        }
    }
    Ok(config)
}

/// Sweeps one named cell with one script — the building block the test
/// suite uses to cover the matrix cell-by-cell (each test stays small).
///
/// `tree` is `lazy`/`eager`/`triad1`; `recovery` is `anubis`/`osiris`.
/// Returns the points checked and the first divergence, if any.
///
/// # Panics
///
/// Panics on an unknown `tree` or `recovery` name (the matrix is fixed).
pub fn sweep_cell(
    tree: &str,
    policy: &CloningPolicy,
    recovery: &str,
    seed: u64,
    max_txns: usize,
    max_writes: usize,
) -> (u64, Option<CellDivergence>) {
    let (update, tree_name) = TREE_UPDATES
        .iter()
        .find(|(_, name)| *name == tree)
        .copied()
        // lint:allow(P1, test harness entry point with a fixed name set)
        .expect("known tree-update name");
    let (recovery, mode) = RECOVERIES
        .iter()
        .find(|(name, _)| *name == recovery)
        .copied()
        // lint:allow(P1, test harness entry point with a fixed name set)
        .expect("known recovery name");
    let config = CrashckConfig {
        seed,
        scripts_per_cell: 1,
        max_txns,
        max_writes,
        threads: 1,
    };
    let unit = run_unit(update, tree_name, policy, recovery, mode, seed, &config);
    let divergence = unit.divergence.map(|d| CellDivergence {
        cell: unit.cell,
        seed,
        script: unit.script,
        point: d.point,
        reason: d.reason,
        trace_tail: d.trace_tail,
    });
    (unit.points, divergence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_clean_and_thread_invariant() {
        let config = CrashckConfig {
            seed: 0x50f3,
            scripts_per_cell: 1,
            max_txns: 2,
            max_writes: 2,
            threads: 1,
        };
        let one = run_crashck(&config);
        assert_eq!(one.cells, 18);
        assert_eq!(one.scripts, 18);
        assert!(
            one.divergences.is_empty(),
            "committed-prefix divergence: {:?}",
            one.divergences
                .first()
                .map(|d| (&d.cell, d.point, &d.reason))
        );
        let four = run_crashck(&CrashckConfig {
            threads: 4,
            ..config
        });
        assert_eq!(one.result_json, four.result_json);
        assert_eq!(one.ndjson, four.ndjson);
    }
}
