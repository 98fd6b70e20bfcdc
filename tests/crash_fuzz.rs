//! Crash-consistency contract tests for the WPQ/ADR path.
//!
//! Two layers, one invariant — *any crash observes a prefix of committed
//! transactions, and never a torn transaction* (§2.6):
//!
//! * **Random crash points** (`soteria_rt::prop` harness): random
//!   single-write streams with a random crash point, under every
//!   tree-update mode and cloning policy. Failing cases are recorded in
//!   `tests/crash_fuzz.regressions` and replay first.
//! * **Exhaustive crash-point sweeps** (`soteria_rt::crashck` oracle via
//!   `soteria_faultsim::crashck::sweep_cell`): seeded multi-write
//!   transaction scripts where *every* WPQ event — transaction accepts
//!   and stall-drain steps alike — is a crash point. Each sweep runs the
//!   census + fuse-armed recovery machinery and judges post-recovery
//!   state against the committed-prefix reference model; drain-clock
//!   monotonicity across the sweep is a checker-internal invariant. The
//!   full `TreeUpdate × CloningPolicy` matrix is covered under Anubis
//!   (strict) recovery, plus Osiris exhaustive-scan (weak) spot checks.

use soteria_suite::soteria::clone::CloningPolicy;
use soteria_suite::soteria::config::TreeUpdate;
use soteria_suite::soteria::recovery::recover;
use soteria_suite::soteria::{DataAddr, SecureMemoryConfig, SecureMemoryController};

use soteria_suite::soteria_faultsim::crashck::{run_crashck, sweep_cell, CrashckConfig};
use soteria_suite::soteria_rt::prop::{any, check, vec, Config};
use soteria_suite::soteria_rt::rng::stream_seed;
use soteria_suite::soteria_rt::{prop_assert, prop_assert_eq};

fn build(update: TreeUpdate, policy: CloningPolicy) -> SecureMemoryController {
    let config = SecureMemoryConfig::builder()
        .capacity_bytes(1 << 20)
        .metadata_cache(8 * 1024, 4)
        .cloning(policy)
        .tree_update(update)
        .build()
        .unwrap();
    SecureMemoryController::new(config)
}

fn cfg() -> Config {
    Config::with_cases(10).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/crash_fuzz.regressions"
    ))
}

fn run_crash_fuzz(
    update: TreeUpdate,
    policy: CloningPolicy,
    ops: &[(u64, u8)],
    crash_at: usize,
) -> Result<(), String> {
    let mut memory = build(update, policy);
    let mut reference = std::collections::HashMap::new();
    let crash_at = crash_at % (ops.len() + 1);
    for (i, &(line, fill)) in ops.iter().enumerate() {
        if i == crash_at {
            break;
        }
        let line = line % 2048;
        memory.write(DataAddr::new(line), &[fill; 64]).unwrap();
        reference.insert(line, [fill; 64]);
    }
    let (mut memory, report) = recover(memory.crash());
    prop_assert!(
        report.is_complete(),
        "unverifiable: {:?}",
        report.unverifiable
    );
    for (&line, data) in &reference {
        let got = memory
            .read(DataAddr::new(line))
            .map_err(|e| format!("line {line}: {e}"))?;
        prop_assert_eq!(got, *data, "line {} after crash at op {}", line, crash_at);
    }
    Ok(())
}

#[test]
fn lazy_baseline_survives_any_crash_point() {
    check(
        "lazy_baseline_survives_any_crash_point",
        &cfg(),
        &(
            vec((any::<u64>(), any::<u8>()), 1..150usize),
            any::<usize>(),
        ),
        |(ops, crash_at)| run_crash_fuzz(TreeUpdate::Lazy, CloningPolicy::None, ops, *crash_at),
    );
}

#[test]
fn lazy_src_survives_any_crash_point() {
    check(
        "lazy_src_survives_any_crash_point",
        &cfg(),
        &(
            vec((any::<u64>(), any::<u8>()), 1..150usize),
            any::<usize>(),
        ),
        |(ops, crash_at)| run_crash_fuzz(TreeUpdate::Lazy, CloningPolicy::Relaxed, ops, *crash_at),
    );
}

#[test]
fn triad_survives_any_crash_point() {
    check(
        "triad_survives_any_crash_point",
        &cfg(),
        &(
            vec((any::<u64>(), any::<u8>()), 1..120usize),
            any::<usize>(),
        ),
        |(ops, crash_at)| {
            run_crash_fuzz(
                TreeUpdate::Triad { persist_levels: 1 },
                CloningPolicy::Relaxed,
                ops,
                *crash_at,
            )
        },
    );
}

#[test]
fn eager_survives_any_crash_point() {
    check(
        "eager_survives_any_crash_point",
        &cfg(),
        &(
            vec((any::<u64>(), any::<u8>()), 1..100usize),
            any::<usize>(),
        ),
        |(ops, crash_at)| {
            run_crash_fuzz(TreeUpdate::Eager, CloningPolicy::Aggressive, ops, *crash_at)
        },
    );
}

// ---------------------------------------------------------------------------
// Exhaustive crash-point sweeps over the full TreeUpdate × CloningPolicy
// matrix, driven by the soteria_rt::crashck oracle. Each cell gets its
// own script stream (stream_seed keeps cells independent); the checker
// enumerates every WPQ event as a crash point, recovers, reads back
// every script line, and reports the first divergent point with a trace
// tail (which the panic message carries verbatim).
// ---------------------------------------------------------------------------

/// Base seed of the sweep script streams (kept from the retired manual
/// sweep so the corpus lineage is traceable).
const SWEEP_SEED: u64 = 0x50c4_e61a_0b5e_ed01;

/// Sweeps one matrix cell and panics with the divergence context if any
/// crash point contradicts the committed-prefix model.
fn sweep(tree: &str, policy: CloningPolicy, recovery: &str, stream: u64) {
    let seed = stream_seed(SWEEP_SEED, stream);
    let (points, divergence) = sweep_cell(tree, &policy, recovery, seed, 4, 3);
    if let Some(d) = divergence {
        panic!(
            "cell {} seed {:#018x} diverged at crash point {}: {}\nscript: {}\nlast events:\n{}",
            d.cell, d.seed, d.point, d.reason, d.script, d.trace_tail
        );
    }
    assert!(points > 1, "the sweep must enumerate real crash points");
}

#[test]
fn sweep_lazy_baseline_every_wpq_event() {
    sweep("lazy", CloningPolicy::None, "anubis", 0);
}

#[test]
fn sweep_lazy_src_every_wpq_event() {
    sweep("lazy", CloningPolicy::Relaxed, "anubis", 1);
}

#[test]
fn sweep_lazy_sac_every_wpq_event() {
    sweep("lazy", CloningPolicy::Aggressive, "anubis", 2);
}

#[test]
fn sweep_eager_baseline_every_wpq_event() {
    sweep("eager", CloningPolicy::None, "anubis", 3);
}

#[test]
fn sweep_eager_src_every_wpq_event() {
    sweep("eager", CloningPolicy::Relaxed, "anubis", 4);
}

#[test]
fn sweep_eager_sac_every_wpq_event() {
    sweep("eager", CloningPolicy::Aggressive, "anubis", 5);
}

#[test]
fn sweep_triad_baseline_every_wpq_event() {
    sweep("triad1", CloningPolicy::None, "anubis", 6);
}

#[test]
fn sweep_triad_src_every_wpq_event() {
    sweep("triad1", CloningPolicy::Relaxed, "anubis", 7);
}

#[test]
fn sweep_triad_sac_every_wpq_event() {
    sweep("triad1", CloningPolicy::Aggressive, "anubis", 8);
}

#[test]
fn sweep_lazy_src_osiris_scan_never_corrupts_silently() {
    sweep("lazy", CloningPolicy::Relaxed, "osiris", 9);
}

#[test]
fn sweep_eager_sac_osiris_scan_never_corrupts_silently() {
    sweep("eager", CloningPolicy::Aggressive, "osiris", 10);
}

/// The campaign's JSON and NDJSON artifacts are byte-identical at any
/// worker-thread count (the CI gate `cmp`s real CLI artifacts; this is
/// the in-tree version of the same contract).
#[test]
fn crashck_report_is_thread_invariant() {
    let config = CrashckConfig {
        seed: SWEEP_SEED,
        scripts_per_cell: 1,
        max_txns: 2,
        max_writes: 2,
        threads: 1,
    };
    let one = run_crashck(&config);
    let four = run_crashck(&CrashckConfig {
        threads: 4,
        ..config
    });
    assert_eq!(one.result_json, four.result_json);
    assert_eq!(one.ndjson, four.ndjson);
    assert!(one.divergences.is_empty(), "{:?}", one.divergences.first());
}
