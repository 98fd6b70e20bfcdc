//! Crash-consistency checking: a pure reference model and exhaustive
//! crash-point oracle for atomic-commit storage stacks.
//!
//! # The contract being checked
//!
//! A storage stack with a write-pending queue (WPQ) inside the ADR
//! (asynchronous DRAM refresh) power-fail domain promises an
//! *atomic-and-committing* interface, in the spirit of the PSA storage
//! resilience contract: once a transaction's write group is **accepted**
//! into the WPQ it is durable (ADR drains the queue on power loss), and
//! until it is accepted none of it is. The observable invariant is
//! therefore:
//!
//! > **Any crash observes a prefix of committed transactions, and never
//! > a torn transaction.**
//!
//! This module knows nothing about the memory controller it checks — it
//! works on three deliberately narrow abstractions so that any stack
//! (and any future integrity scheme) can be put under the same oracle:
//!
//! * a **transaction script** ([`Tx`]): the workload, as `(line, fill)`
//!   write sets;
//! * a **census** ([`Census`]): one instrumented dry run that maps each
//!   transaction to the WPQ *event* at which it committed;
//! * a **crash run** ([`CrashRun`]): the system under test executed with
//!   a crash fuse armed at one event, recovered, and read back.
//!
//! The event clock counts every durability-relevant WPQ step — each
//! group accept and each stall-induced drain. Crash point `k` means "the
//! machine dies the instant event `k` completes"; point `0` means it was
//! dead from the start. [`check_script`] enumerates **every** point
//! `0..=total_events` and compares each recovered state against the pure
//! model [`expected_state`]. ADR flush steps at power-off are validated
//! separately by [`replay_journal`], a pure model of the queue itself
//! (FIFO order, bounded occupancy, group contiguity, empty after flush).
//!
//! # Determinism
//!
//! Crash points are fanned out with [`crate::thread::parallel_map`]
//! (static contiguous chunks, item-order results) and divergences are
//! folded in point order, so the verdict — including which divergent
//! point is reported first — is byte-identical at any thread count.

use std::collections::BTreeMap;

use crate::rng::StdRng;
use crate::thread::parallel_map;

// ---------------------------------------------------------------------------
// Transaction scripts and the pure reference model
// ---------------------------------------------------------------------------

/// One transaction: a set of line writes that must commit atomically.
///
/// Lines are abstract `u64` identifiers (the adapter maps them to device
/// addresses); each write fills its whole line with a single byte so the
/// reference model stays a `line → fill` map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tx {
    /// The `(line, fill)` writes of this transaction, in program order.
    /// Later writes to the same line win.
    pub writes: Vec<(u64, u8)>,
}

impl Tx {
    /// Renders the transaction as a compact `line:fill` list for
    /// regression corpora and divergence reports.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .writes
            .iter()
            .map(|&(line, fill)| format!("{line}:{fill:02x}"))
            .collect();
        parts.join(",")
    }
}

/// Generates a deterministic transaction script from a seed.
///
/// The script has `1..=max_txns` transactions of `1..=max_writes` writes
/// each, over `lines` distinct lines. Line choice is biased toward a
/// small hot set (line 0..8) half of the time so scripts revisit lines,
/// exercise counter bumps past the Osiris threshold, and collide inside
/// one metadata cache set. Same seed ⇒ same script, forever.
pub fn gen_script(seed: u64, max_txns: usize, max_writes: usize, lines: u64) -> Vec<Tx> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_txns = max_txns.max(1);
    let max_writes = max_writes.max(1);
    let lines = lines.max(1);
    let txns = 1 + rng.bounded_u64(max_txns as u64) as usize;
    (0..txns)
        .map(|_| {
            let writes = 1 + rng.bounded_u64(max_writes as u64) as usize;
            Tx {
                writes: (0..writes)
                    .map(|_| {
                        let line = if rng.bounded_u64(2) == 0 {
                            rng.bounded_u64(8.min(lines))
                        } else {
                            rng.bounded_u64(lines)
                        };
                        (line, rng.next_u64() as u8)
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Every line any transaction of `script` touches, sorted and deduped —
/// the read-back set a crash run must report.
pub fn script_lines(script: &[Tx]) -> Vec<u64> {
    let mut lines: Vec<u64> = script
        .iter()
        .flat_map(|tx| tx.writes.iter().map(|&(line, _)| line))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// The pure reference model: the state after the first `committed`
/// transactions of `script` have been applied, as a `line → fill` map.
/// Lines never written are absent (they must read as all-zeroes).
pub fn expected_state(script: &[Tx], committed: usize) -> BTreeMap<u64, u8> {
    let mut state = BTreeMap::new();
    for tx in script.iter().take(committed.min(script.len())) {
        for &(line, fill) in &tx.writes {
            state.insert(line, fill);
        }
    }
    state
}

// ---------------------------------------------------------------------------
// Census: mapping crash points to committed prefixes
// ---------------------------------------------------------------------------

/// The instrumented dry run's answer to "which prefix is committed at
/// event `k`?" — the total event count of the full script plus the
/// accept event of each transaction, in script order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Census {
    /// WPQ event-clock value after the full script ran (accepts plus
    /// stall drains; ADR flush steps do not tick the clock).
    pub total_events: u64,
    /// For each transaction, the event at which its commit group was
    /// accepted. Strictly increasing: commits are ordered.
    pub commit_events: Vec<u64>,
}

impl Census {
    /// How many transactions are committed when the machine dies right
    /// after event `point` completes.
    pub fn committed_at(&self, point: u64) -> usize {
        self.commit_events
            .iter()
            .take_while(|&&e| e <= point)
            .count()
    }

    /// Internal consistency: commit events must be strictly increasing
    /// and bounded by the total. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = 0u64;
        for (i, &e) in self.commit_events.iter().enumerate() {
            if e <= prev {
                return Err(format!(
                    "commit event {e} of transaction {i} does not follow {prev}"
                ));
            }
            if e > self.total_events {
                return Err(format!(
                    "commit event {e} of transaction {i} exceeds total {}",
                    self.total_events
                ));
            }
            prev = e;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Crash runs and the oracle
// ---------------------------------------------------------------------------

/// What one crash-recover-readback execution observed.
#[derive(Clone, Debug)]
pub struct CrashRun {
    /// Post-recovery contents of every script line, in ascending line
    /// order: `Some(bytes)` on a successful read, `None` when the read
    /// failed (integrity violation, unverifiable metadata, …).
    pub reads: Vec<(u64, Option<[u8; 64]>)>,
    /// Whether recovery reported itself complete (nothing unverifiable).
    pub recovery_complete: bool,
    /// The WPQ drain clock recorded at the crash — checked to be
    /// monotone in the crash point across the sweep.
    pub drain_clock: u64,
    /// The last few trace events before the crash, one NDJSON line each;
    /// shown verbatim when this point diverges.
    pub trace_tail: String,
    /// An error the workload hit *before* the crash fuse fired (a live
    /// system must execute its script cleanly). `None` when clean.
    pub exec_error: Option<String>,
}

/// How strictly recovered state is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleMode {
    /// Recovery must be complete and every script line must read back
    /// exactly per the reference model (Anubis-style shadow recovery).
    Strict,
    /// Reads that succeed must match the model — *no silent corruption,
    /// ever* — but a read may fail if and only if recovery already
    /// declared itself incomplete (Osiris-style scan recovery, which
    /// cannot always rebuild unshadowed metadata).
    Weak,
}

impl OracleMode {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OracleMode::Strict => "strict",
            OracleMode::Weak => "weak",
        }
    }
}

/// A crash point whose recovered state contradicts the reference model.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The WPQ event the fuse was armed at.
    pub point: u64,
    /// What contradicted the model.
    pub reason: String,
    /// The last trace events before that crash (NDJSON lines).
    pub trace_tail: String,
}

/// The oracle's verdict for one script on one configuration.
#[derive(Clone, Debug)]
pub struct ScriptVerdict {
    /// How many crash points were enumerated (`total_events + 1`).
    pub points_checked: u64,
    /// The first divergent crash point, if any.
    pub divergence: Option<Divergence>,
}

/// Judges a single crash run against the reference model. Returns the
/// reason the run diverges, or `None` when it honours the contract.
pub fn check_point(
    script: &[Tx],
    census: &Census,
    mode: OracleMode,
    point: u64,
    run: &CrashRun,
) -> Option<String> {
    if let Some(err) = &run.exec_error {
        return Some(format!("script execution failed before the crash: {err}"));
    }
    let committed = census.committed_at(point);
    let model = expected_state(script, committed);
    if mode == OracleMode::Strict && !run.recovery_complete {
        return Some(format!(
            "recovery incomplete with {committed} transactions committed"
        ));
    }
    for &(line, got) in &run.reads {
        let want = model.get(&line).copied();
        match (got, want) {
            (Some(bytes), Some(fill)) => {
                if bytes != [fill; 64] {
                    return Some(format!(
                        "line {line}: read fill {:#04x} where the model (prefix of {committed}) has {fill:#04x}",
                        bytes[0]
                    ));
                }
            }
            (Some(bytes), None) => {
                if bytes != [0u8; 64] {
                    return Some(format!(
                        "line {line}: read fill {:#04x} where the model has never written it",
                        bytes[0]
                    ));
                }
            }
            (None, _) => {
                if mode == OracleMode::Strict || run.recovery_complete {
                    return Some(format!(
                        "line {line}: read failed although recovery claimed completeness"
                    ));
                }
            }
        }
    }
    None
}

/// Enumerates **every** crash point of a script and judges each one.
///
/// `run` executes the system under test with the crash fuse armed at the
/// given event and returns what it observed; it is called once per point
/// in `0..=census.total_events`, fanned out over `threads` workers with
/// deterministic chunking. Beyond the per-point model check, the sweep
/// asserts the drain clock recorded at the crash never moves backwards
/// as the crash point advances (the PR 3 invariant, now checker-owned).
pub fn check_script<F>(
    script: &[Tx],
    census: &Census,
    mode: OracleMode,
    threads: usize,
    run: F,
) -> ScriptVerdict
where
    F: Fn(u64) -> CrashRun + Sync,
{
    let points: Vec<u64> = (0..=census.total_events).collect();
    let points_checked = points.len() as u64;
    let runs = parallel_map(points, threads, |point| (point, run(point)));
    let mut divergence = None;
    let mut prev_clock = 0u64;
    for (point, run) in &runs {
        let mut reason = check_point(script, census, mode, *point, run);
        if reason.is_none() && run.drain_clock < prev_clock {
            reason = Some(format!(
                "drain clock went backwards: {} < {prev_clock}",
                run.drain_clock
            ));
        }
        prev_clock = prev_clock.max(run.drain_clock);
        if let Some(reason) = reason {
            divergence = Some(Divergence {
                point: *point,
                reason,
                trace_tail: run.trace_tail.clone(),
            });
            break;
        }
    }
    ScriptVerdict {
        points_checked,
        divergence,
    }
}

// ---------------------------------------------------------------------------
// WPQ journal: a pure model of the queue itself
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a fingerprint — how journal records identify a line's
/// payload without storing all 64 bytes.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One durability-relevant WPQ event, as journaled by the queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WpqEventRecord {
    /// A write group was accepted whole (event-clock tick).
    Accept {
        /// The event-clock value of this accept.
        event: u64,
        /// The accepted `(line address, payload fingerprint)` pairs, in
        /// queue order.
        writes: Vec<(u64, u64)>,
    },
    /// A full queue drained its oldest entry to media to make room
    /// (event-clock tick).
    StallDrain {
        /// The event-clock value of this drain.
        event: u64,
        /// Line address drained.
        addr: u64,
        /// Payload fingerprint drained.
        fp: u64,
    },
    /// ADR flushed one entry at power-off (no event-clock tick: the
    /// flush is not a crash point, it is what makes accepts durable).
    FlushDrain {
        /// Line address flushed.
        addr: u64,
        /// Payload fingerprint flushed.
        fp: u64,
    },
}

/// Summary statistics of a validated journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Number of group accepts.
    pub accepts: u64,
    /// Total writes accepted across all groups.
    pub writes_accepted: u64,
    /// Stall-induced drains.
    pub stall_drains: u64,
    /// ADR flush drains.
    pub flush_drains: u64,
    /// Peak queue occupancy observed.
    pub max_occupancy: usize,
}

/// Replays a WPQ journal against a pure FIFO-queue model and checks the
/// queue discipline the ADR contract rests on:
///
/// * the event clock ticks by exactly one per accept / stall drain;
/// * every drain (stall or flush) pops exactly the oldest entry;
/// * occupancy never exceeds `capacity`;
/// * after the final record the queue is empty (everything accepted
///   reached media) — ADR drained the whole queue.
///
/// Returns summary statistics, or the first discipline violation.
pub fn replay_journal(
    records: &[WpqEventRecord],
    capacity: usize,
) -> Result<JournalSummary, String> {
    let mut queue: std::collections::VecDeque<(u64, u64)> = std::collections::VecDeque::new();
    let mut clock = 0u64;
    let mut summary = JournalSummary::default();
    for (i, rec) in records.iter().enumerate() {
        match rec {
            WpqEventRecord::Accept { event, writes } => {
                clock += 1;
                if *event != clock {
                    return Err(format!("record {i}: accept event {event}, clock {clock}"));
                }
                if writes.is_empty() {
                    return Err(format!("record {i}: empty accept group"));
                }
                if queue.len() + writes.len() > capacity {
                    return Err(format!(
                        "record {i}: accept of {} overflows queue of {} (capacity {capacity})",
                        writes.len(),
                        queue.len()
                    ));
                }
                queue.extend(writes.iter().copied());
                summary.accepts += 1;
                summary.writes_accepted += writes.len() as u64;
            }
            WpqEventRecord::StallDrain { event, addr, fp } => {
                clock += 1;
                if *event != clock {
                    return Err(format!("record {i}: drain event {event}, clock {clock}"));
                }
                summary.stall_drains += 1;
                match queue.pop_front() {
                    Some(head) if head == (*addr, *fp) => {}
                    Some(head) => {
                        return Err(format!(
                            "record {i}: stall drain of {addr:#x} is not the queue head {:#x}",
                            head.0
                        ))
                    }
                    None => return Err(format!("record {i}: stall drain from an empty queue")),
                }
            }
            WpqEventRecord::FlushDrain { addr, fp } => {
                summary.flush_drains += 1;
                match queue.pop_front() {
                    Some(head) if head == (*addr, *fp) => {}
                    Some(head) => {
                        return Err(format!(
                            "record {i}: flush drain of {addr:#x} is not the queue head {:#x}",
                            head.0
                        ))
                    }
                    None => return Err(format!("record {i}: flush drain from an empty queue")),
                }
            }
        }
        summary.max_occupancy = summary.max_occupancy.max(queue.len());
    }
    if !queue.is_empty() {
        return Err(format!(
            "{} accepted writes never reached media (ADR must flush the whole queue)",
            queue.len()
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy atomic store: groups land on media wholly at their accept
    /// event if the event precedes the crash point, else not at all.
    fn toy_run(script: &[Tx], census: &Census, point: u64, torn: bool) -> CrashRun {
        let committed = census.committed_at(point);
        let mut model = expected_state(script, committed);
        if torn && committed < script.len() {
            // Simulate a torn transaction: half of the next
            // (uncommitted) transaction leaks to media.
            if let Some(&(line, fill)) = script[committed].writes.first() {
                model.insert(line, fill);
            }
        }
        let reads = script_lines(script)
            .into_iter()
            .map(|line| (line, Some(model.get(&line).map_or([0u8; 64], |&f| [f; 64]))))
            .collect();
        CrashRun {
            reads,
            recovery_complete: true,
            drain_clock: point,
            trace_tail: String::new(),
            exec_error: None,
        }
    }

    fn toy_census(script: &[Tx]) -> Census {
        // One accept event per transaction, no stalls.
        Census {
            total_events: script.len() as u64,
            commit_events: (1..=script.len() as u64).collect(),
        }
    }

    #[test]
    fn scripts_are_deterministic_and_bounded() {
        let a = gen_script(42, 8, 3, 64);
        let b = gen_script(42, 8, 3, 64);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 8);
        for tx in &a {
            assert!(!tx.writes.is_empty() && tx.writes.len() <= 3);
            assert!(tx.writes.iter().all(|&(line, _)| line < 64));
        }
        assert_ne!(gen_script(43, 8, 3, 64), a);
    }

    #[test]
    fn reference_model_applies_prefixes_in_order() {
        let script = vec![
            Tx {
                writes: vec![(1, 0xaa), (2, 0xbb)],
            },
            Tx {
                writes: vec![(1, 0xcc)],
            },
        ];
        assert!(expected_state(&script, 0).is_empty());
        assert_eq!(expected_state(&script, 1).get(&1), Some(&0xaa));
        assert_eq!(expected_state(&script, 2).get(&1), Some(&0xcc));
        assert_eq!(expected_state(&script, 9).get(&2), Some(&0xbb));
        assert_eq!(script_lines(&script), vec![1, 2]);
    }

    #[test]
    fn census_maps_points_to_prefixes() {
        let census = Census {
            total_events: 7,
            commit_events: vec![2, 5],
        };
        assert_eq!(census.committed_at(0), 0);
        assert_eq!(census.committed_at(2), 1);
        assert_eq!(census.committed_at(4), 1);
        assert_eq!(census.committed_at(5), 2);
        assert!(census.validate().is_ok());
        let bad = Census {
            total_events: 3,
            commit_events: vec![2, 2],
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn honest_atomic_store_passes_every_point() {
        let script = gen_script(7, 6, 3, 16);
        let census = toy_census(&script);
        let verdict = check_script(&script, &census, OracleMode::Strict, 2, |p| {
            toy_run(&script, &census, p, false)
        });
        assert_eq!(verdict.points_checked, census.total_events + 1);
        assert!(verdict.divergence.is_none());
    }

    #[test]
    fn torn_transaction_is_caught_at_the_first_bad_point() {
        let script = vec![
            Tx {
                writes: vec![(3, 0x11)],
            },
            Tx {
                writes: vec![(4, 0x22), (3, 0x33)],
            },
        ];
        let census = toy_census(&script);
        let verdict = check_script(&script, &census, OracleMode::Strict, 1, |p| {
            toy_run(&script, &census, p, true)
        });
        let d = verdict.divergence.expect("torn write must diverge");
        assert_eq!(d.point, 0, "first bad point reported first");
        assert!(
            d.reason.contains("line"),
            "reason names the line: {}",
            d.reason
        );
    }

    #[test]
    fn verdicts_are_thread_count_invariant() {
        let script = gen_script(11, 8, 3, 32);
        let census = toy_census(&script);
        let run = |p| toy_run(&script, &census, p, p % 5 == 4);
        let v1 = check_script(&script, &census, OracleMode::Strict, 1, run);
        let v4 = check_script(&script, &census, OracleMode::Strict, 4, run);
        assert_eq!(v1.points_checked, v4.points_checked);
        match (&v1.divergence, &v4.divergence) {
            (Some(a), Some(b)) => {
                assert_eq!(a.point, b.point);
                assert_eq!(a.reason, b.reason);
            }
            (None, None) => {}
            other => panic!("thread count changed the verdict: {other:?}"),
        }
    }

    #[test]
    fn weak_mode_tolerates_failed_reads_only_when_incomplete() {
        let script = vec![Tx {
            writes: vec![(1, 0x55)],
        }];
        let census = toy_census(&script);
        let mut run = toy_run(&script, &census, 1, false);
        run.reads[0].1 = None;
        run.recovery_complete = false;
        assert!(check_point(&script, &census, OracleMode::Weak, 1, &run).is_none());
        assert!(check_point(&script, &census, OracleMode::Strict, 1, &run).is_some());
        run.recovery_complete = true;
        assert!(
            check_point(&script, &census, OracleMode::Weak, 1, &run).is_some(),
            "a complete recovery may not lose reads even in weak mode"
        );
    }

    #[test]
    fn exec_errors_always_diverge() {
        let script = vec![Tx {
            writes: vec![(1, 0x55)],
        }];
        let census = toy_census(&script);
        let mut run = toy_run(&script, &census, 1, false);
        run.exec_error = Some("write failed".into());
        assert!(check_point(&script, &census, OracleMode::Weak, 1, &run).is_some());
    }

    #[test]
    fn journal_replay_accepts_a_clean_history() {
        let records = vec![
            WpqEventRecord::Accept {
                event: 1,
                writes: vec![(10, 1), (11, 2)],
            },
            WpqEventRecord::Accept {
                event: 2,
                writes: vec![(12, 3)],
            },
            WpqEventRecord::StallDrain {
                event: 3,
                addr: 10,
                fp: 1,
            },
            WpqEventRecord::FlushDrain { addr: 11, fp: 2 },
            WpqEventRecord::FlushDrain { addr: 12, fp: 3 },
        ];
        let s = replay_journal(&records, 4).expect("clean history replays");
        assert_eq!(s.accepts, 2);
        assert_eq!(s.writes_accepted, 3);
        assert_eq!(s.stall_drains, 1);
        assert_eq!(s.flush_drains, 2);
        assert_eq!(s.max_occupancy, 3);
    }

    #[test]
    fn journal_replay_rejects_discipline_violations() {
        // Out-of-order drain.
        let records = vec![
            WpqEventRecord::Accept {
                event: 1,
                writes: vec![(10, 1), (11, 2)],
            },
            WpqEventRecord::FlushDrain { addr: 11, fp: 2 },
        ];
        assert!(replay_journal(&records, 4).is_err());
        // Overflow.
        let records = vec![WpqEventRecord::Accept {
            event: 1,
            writes: vec![(1, 1), (2, 2), (3, 3)],
        }];
        assert!(replay_journal(&records, 2).is_err());
        // Un-flushed residue.
        let records = vec![WpqEventRecord::Accept {
            event: 1,
            writes: vec![(1, 1)],
        }];
        assert!(replay_journal(&records, 4).is_err());
        // Clock skew.
        let records = vec![WpqEventRecord::Accept {
            event: 2,
            writes: vec![(1, 1)],
        }];
        assert!(replay_journal(&records, 4).is_err());
    }

    #[test]
    fn fingerprints_distinguish_payloads() {
        assert_ne!(fingerprint64(&[0u8; 64]), fingerprint64(&[1u8; 64]));
        assert_eq!(fingerprint64(b"abc"), fingerprint64(b"abc"));
    }

    #[test]
    fn tx_describe_is_compact() {
        let tx = Tx {
            writes: vec![(3, 0xab), (17, 0x01)],
        };
        assert_eq!(tx.describe(), "3:ab,17:01");
    }
}
