//! Monte Carlo fault-injection campaigns over a Chipkill DIMM.
//!
//! Each iteration draws a five-year fault history for one DIMM (Poisson
//! arrivals per chip per fault-mode bucket), then asks the layout-aware
//! [`ResilienceModel`] how much data each cloning policy loses. All
//! policies are evaluated on the **same** fault sets (paired comparison,
//! as FaultSim does), which slashes the variance of the UDR ratios the
//! paper reports.
//!
//! Iterations run in parallel on scoped threads, and campaigns are
//! **thread-count invariant**: iteration `i` always draws from the RNG
//! stream `stream_seed(config.seed, i)`, and partial results are merged
//! in fixed blocks of [`ITERATION_BLOCK`] iterations regardless of which
//! worker produced them — so the same seed yields bit-identical
//! [`PolicyResult`]s whether the campaign ran on one thread or sixteen.
//!
//! The loop is the one Monte Carlo engine of this crate: `compare` runs
//! its resilience half on it too, with its own scheme rows and the exact
//! assessment (see `run_blocks`).

use soteria_rt::json::Json;
use soteria_rt::obs::{Field, TraceBuffer};
use soteria_rt::obs_fields;
use soteria_rt::rng::{stream_seed, StdRng};
use soteria_rt::thread::fan_out;

use soteria::analysis::{ResilienceModel, SchemeLoss, TreeKind};
use soteria::clone::CloningPolicy;
use soteria::layout::MemoryLayout;
use soteria_nvm::fault::{FaultFootprint, FaultKind, FaultRecord};
use soteria_nvm::geometry::DimmGeometry;

use crate::rates::{FaultMode, FitRates};
use crate::shard::{arr_unwire, dedup_covered, f64_unwire, f64_wire, u64_unwire, u64_wire};
use crate::FIVE_YEARS_HOURS;

/// Configuration of one campaign (Table 4 defaults).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Protected data capacity (16 GiB matches the Table 4 DIMM).
    pub capacity_bytes: u64,
    /// Total FIT per chip (the Fig. 11 sweep variable, 1–80).
    pub fit_per_chip: f64,
    /// Fault-mode mix.
    pub rates: FitRates,
    /// Simulated service time in hours.
    pub hours: f64,
    /// Monte Carlo iterations (the paper uses 10^6).
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Chips the underlying ECC corrects per codeword (0 = SEC-DED-class,
    /// 1 = Chipkill, 2 = double-Chipkill) — the ECC-strength ablation.
    pub correctable_chips: usize,
    /// Integrity-tree structure (ToC vs BMT ablation).
    pub tree: TreeKind,
    /// Patrol-scrub interval in hours. With scrubbing, a *transient*
    /// fault is repaired within one interval, so it only contributes to an
    /// uncorrectable error if a second fault arrives while it is still
    /// live. `None` disables scrubbing (faults accumulate for the whole
    /// campaign — the conservative default).
    pub scrub_interval_hours: Option<f64>,
    /// Record per-iteration trace events (`"campaign"` domain). Events
    /// are merged in block order, so the trace is byte-identical for a
    /// seed at any thread count — exactly like the numeric results.
    pub trace: bool,
}

impl CampaignConfig {
    /// The Table 4 configuration at a given total FIT per chip: 16 GiB
    /// DIMM, 18 chips (9/rank × 2), 16 banks, Chipkill, 5 years, Hopper
    /// mode mix.
    pub fn table4(fit_per_chip: f64) -> Self {
        Self {
            capacity_bytes: 16u64 << 30,
            fit_per_chip,
            rates: FitRates::hopper(),
            hours: FIVE_YEARS_HOURS,
            iterations: 10_000,
            seed: 0x5072_1a5e,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            correctable_chips: 1,
            tree: TreeKind::Toc,
            scrub_interval_hours: None,
            trace: false,
        }
    }

    /// The DIMM geometry sized for this capacity's layout.
    pub fn build_geometry(&self, layout: &MemoryLayout) -> DimmGeometry {
        let banks = 16u32;
        let cols = 1024u32;
        let rows = layout
            .total_lines()
            .div_ceil(banks as u64 * cols as u64)
            .max(1) as u32;
        DimmGeometry::new(18, 9, 2, banks, rows, cols)
    }

    /// The layout shared by every policy (sized for the deepest one, so
    /// clone addresses are identical across policies).
    pub fn build_layout(&self) -> MemoryLayout {
        MemoryLayout::new(self.capacity_bytes / 64, 8192, 4)
    }
}

/// Aggregate outcome for one cloning policy.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyResult {
    /// The policy evaluated.
    pub policy: CloningPolicy,
    /// Iterations simulated.
    pub iterations: u64,
    /// Iterations in which at least one fault arrived.
    pub iterations_with_faults: u64,
    /// Iterations in which Chipkill was defeated somewhere.
    pub iterations_with_ue: u64,
    /// Iterations with non-zero unverifiable data (metadata loss).
    pub iterations_with_udr: u64,
    /// Mean fraction of data directly lost to errors (`L_error`).
    pub mean_error_ratio: f64,
    /// Mean Unverifiable Data Ratio (`L_unverifiable / capacity`).
    pub mean_udr: f64,
}

impl PolicyResult {
    /// Mean total loss ratio (`L_total / capacity`, Fig. 12).
    pub fn mean_total_ratio(&self) -> f64 {
        self.mean_error_ratio + self.mean_udr
    }
}

fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    rng.poisson(lambda)
}

fn sample_fault(
    rng: &mut StdRng,
    geometry: &DimmGeometry,
    chip: u32,
    mode: FaultMode,
    permanent: bool,
) -> FaultRecord {
    let kind = if permanent {
        FaultKind::Permanent
    } else {
        FaultKind::Transient
    };
    let bank = rng.random_range(0..geometry.banks());
    let row = rng.random_range(0..geometry.rows());
    let col = rng.random_range(0..geometry.cols_per_row());
    let beat = rng.random_range(0..4u8);
    let footprint = match mode {
        FaultMode::SingleBit => FaultFootprint::SingleBit {
            bank,
            row,
            col,
            beat,
            bit: rng.random_range(0..8u8),
        },
        FaultMode::SingleWord => FaultFootprint::SingleWord {
            bank,
            row,
            col,
            beat,
        },
        FaultMode::SingleColumn => FaultFootprint::SingleColumn { bank, col },
        FaultMode::SingleRow => FaultFootprint::SingleRow { bank, row },
        FaultMode::SingleBank => FaultFootprint::SingleBank { bank },
        FaultMode::MultiBank => {
            // 2-4 distinct banks.
            let mut mask = 1u32 << bank;
            let extra = rng.random_range(1..4u32);
            for _ in 0..extra {
                mask |= 1 << rng.random_range(0..geometry.banks());
            }
            FaultFootprint::MultiBank { bank_mask: mask }
        }
        FaultMode::MultiRank => FaultFootprint::SingleBank { bank },
    };
    let mut record = if mode == FaultMode::MultiRank {
        // A rank-level fault strikes shared circuitry: the same bank goes
        // bad in the affected chip position of *both* ranks (two symbols
        // of every codeword in that bank — beyond Chipkill, like real
        // lockstep x8 Chipkill under rank faults). It is not whole-DIMM
        // annihilation: other banks stay healthy.
        let position = chip % geometry.chips_per_rank();
        let chips: Vec<u32> = (0..geometry.ranks())
            .map(|r| r * geometry.chips_per_rank() + position)
            .collect();
        FaultRecord {
            chips,
            footprint,
            kind,
            onset_epoch: 0,
            seed: 0,
        }
    } else {
        FaultRecord::on_chip(geometry, chip, footprint, kind)
    };
    record.seed = rng.random();
    record
}

/// A fault plus its arrival time within the campaign horizon.
#[derive(Clone, Debug)]
pub struct TimedFault {
    /// The fault.
    pub record: FaultRecord,
    /// Arrival time in hours since the campaign start.
    pub start_hours: f64,
}

impl TimedFault {
    /// Is this fault still uncorrected at `t` (hours), given a scrub
    /// interval? Permanent faults persist; transient faults are cleansed
    /// one scrub interval after arrival.
    pub fn live_at(&self, t: f64, scrub_interval_hours: Option<f64>) -> bool {
        if t < self.start_hours {
            return false;
        }
        match (self.record.kind, scrub_interval_hours) {
            (FaultKind::Permanent, _) | (_, None) => true,
            (FaultKind::Transient, Some(s)) => t < self.start_hours + s,
        }
    }
}

/// Draws one DIMM's fault history with arrival times.
pub fn sample_fault_history(
    rng: &mut StdRng,
    geometry: &DimmGeometry,
    rates: &FitRates,
    hours: f64,
) -> Vec<TimedFault> {
    let mut out = Vec::new();
    sample_fault_history_into(rng, geometry, rates, hours, &mut out);
    out
}

/// Draws one DIMM's fault history into a reused buffer (cleared first).
/// The Monte Carlo loop calls this once per iteration, so reusing the
/// vector's capacity removes the dominant per-iteration allocation.
pub fn sample_fault_history_into(
    rng: &mut StdRng,
    geometry: &DimmGeometry,
    rates: &FitRates,
    hours: f64,
    out: &mut Vec<TimedFault>,
) {
    out.clear();
    let mut push = |rng: &mut StdRng, record: FaultRecord| {
        let start_hours = rng.random::<f64>() * hours;
        out.push(TimedFault {
            record,
            start_hours,
        });
    };
    for (mode, permanent, fit) in rates.buckets() {
        let lambda = fit * hours / 1e9;
        if mode == FaultMode::MultiRank {
            for position in 0..geometry.chips_per_rank() {
                for _ in 0..poisson(rng, lambda) {
                    let f = sample_fault(rng, geometry, position, mode, permanent);
                    push(rng, f);
                }
            }
        } else {
            for chip in 0..geometry.chips() {
                for _ in 0..poisson(rng, lambda) {
                    let f = sample_fault(rng, geometry, chip, mode, permanent);
                    push(rng, f);
                }
            }
        }
    }
    out.sort_by(|a, b| a.start_hours.total_cmp(&b.start_hours));
}

/// Draws a fault set with **exactly** `large_count` bank-scale-or-larger
/// faults (each bucket weighted by its rate) plus the usual Poisson
/// background of smaller faults — the conditioned draw behind
/// [`crate::rare::estimate_clone_udr`].
pub fn sample_fault_set_filtered(
    rng: &mut StdRng,
    geometry: &DimmGeometry,
    rates: &FitRates,
    hours: f64,
    large_count: u64,
) -> Vec<FaultRecord> {
    let mut faults = Vec::new();
    // Background of small faults.
    for (mode, permanent, fit) in rates.buckets() {
        if crate::rare::is_large_mode(mode) {
            continue;
        }
        let lambda = fit * hours / 1e9;
        for chip in 0..geometry.chips() {
            for _ in 0..poisson(rng, lambda) {
                faults.push(sample_fault(rng, geometry, chip, mode, permanent));
            }
        }
    }
    // Exactly `large_count` large faults, bucket drawn by rate weight.
    let large: Vec<(FaultMode, bool, f64)> = rates
        .buckets()
        .into_iter()
        .filter(|&(mode, _, _)| crate::rare::is_large_mode(mode))
        .collect();
    let total_weight: f64 = large
        .iter()
        .map(|&(mode, _, fit)| {
            let population = if mode == FaultMode::MultiRank {
                geometry.chips_per_rank() as f64
            } else {
                geometry.chips() as f64
            };
            fit * population
        })
        .sum();
    for _ in 0..large_count {
        let mut pick = rng.random::<f64>() * total_weight;
        let mut chosen = large[0];
        for &(mode, permanent, fit) in &large {
            let population = if mode == FaultMode::MultiRank {
                geometry.chips_per_rank() as f64
            } else {
                geometry.chips() as f64
            };
            pick -= fit * population;
            chosen = (mode, permanent, fit);
            if pick <= 0.0 {
                break;
            }
        }
        let (mode, permanent, _) = chosen;
        let chip = if mode == FaultMode::MultiRank {
            rng.random_range(0..geometry.chips_per_rank())
        } else {
            rng.random_range(0..geometry.chips())
        };
        faults.push(sample_fault(rng, geometry, chip, mode, permanent));
    }
    faults
}

/// Draws one DIMM's fault history.
pub fn sample_fault_set(
    rng: &mut StdRng,
    geometry: &DimmGeometry,
    rates: &FitRates,
    hours: f64,
) -> Vec<FaultRecord> {
    let mut faults = Vec::new();
    for (mode, permanent, fit) in rates.buckets() {
        let lambda = fit * hours / 1e9;
        if mode == FaultMode::MultiRank {
            // Rank-level events are per shared component (one per chip
            // position pair), not per chip.
            for position in 0..geometry.chips_per_rank() {
                for _ in 0..poisson(rng, lambda) {
                    faults.push(sample_fault(rng, geometry, position, mode, permanent));
                }
            }
        } else {
            for chip in 0..geometry.chips() {
                for _ in 0..poisson(rng, lambda) {
                    faults.push(sample_fault(rng, geometry, chip, mode, permanent));
                }
            }
        }
    }
    faults
}

/// Iterations per scheduling block. Blocks — not threads — are the unit
/// of work distribution **and** floating-point accumulation: a block's
/// partial sums are computed in iteration order by whichever worker picks
/// it up, and blocks are reduced in block order afterwards. Since f64
/// addition is not associative, this fixed grouping is what makes
/// same-seed campaigns bit-identical across thread counts.
pub const ITERATION_BLOCK: u64 = 64;

/// The iterations `lo..hi` of block `block` in a run of `iterations`.
pub(crate) fn block_iterations(block: u64, iterations: u64) -> (u64, u64) {
    let lo = block.saturating_mul(ITERATION_BLOCK);
    (lo, lo.saturating_add(ITERATION_BLOCK).min(iterations))
}

/// How a Monte Carlo kind judges each fault set against its schemes.
#[derive(Clone, Copy)]
pub(crate) enum Assess {
    /// [`ResilienceModel::assess_many`] under the config's tree: a
    /// purely bank-wide set of a ToC tree takes the closed form.
    ClosedForm,
    /// [`ResilienceModel::assess_schemes`]: the exact run engine for
    /// every set, each scheme under its own loss profile.
    Exact,
}

/// One iteration that drew at least one fault: what the kinds render
/// their per-iteration NDJSON from.
pub(crate) struct IterRecord {
    /// The iteration (its RNG stream is `stream_seed(seed, iter)`).
    pub(crate) iter: u64,
    /// Faults drawn over the campaign horizon.
    pub(crate) faults: u64,
    /// Whether the ECC was defeated somewhere.
    pub(crate) ue: bool,
    /// Worst UDR per scheme, in row order.
    pub(crate) udr: Vec<f64>,
}

/// Partial sums over a run of iterations, plus one record per faulted
/// iteration when the config keeps a trace. The same type holds one
/// block's partials and, after [`fold_blocks`], a whole campaign's.
pub(crate) struct Accumulator {
    pub(crate) iterations_with_faults: u64,
    pub(crate) iterations_with_ue: u64,
    pub(crate) error_ratio_sum: f64,
    pub(crate) udr_sum: Vec<f64>,
    pub(crate) udr_hits: Vec<u64>,
    /// In iteration order; empty when `config.trace` is off.
    pub(crate) records: Vec<IterRecord>,
}

impl Accumulator {
    pub(crate) fn new(schemes: usize) -> Self {
        Self {
            iterations_with_faults: 0,
            iterations_with_ue: 0,
            error_ratio_sum: 0.0,
            udr_sum: vec![0.0; schemes],
            udr_hits: vec![0; schemes],
            records: Vec::new(),
        }
    }
}

/// One block's partials — the unit of work distribution, both across
/// local threads and across fleet workers.
pub(crate) struct Block {
    /// Block index (see [`block_iterations`]).
    pub(crate) block: u64,
    pub(crate) acc: Accumulator,
}

/// The Monte Carlo block wire form, shared by campaign and compare: the
/// block's sums plus one record per faulted iteration, every `f64` as the
/// hex of its bits (see [`crate::shard`]).
impl Block {
    pub(crate) fn to_wire(&self) -> Json {
        let f64s = |vs: &[f64]| Json::Arr(vs.iter().map(|&v| f64_wire(v)).collect());
        let acc = &self.acc;
        let records = acc.records.iter().map(|r| {
            Json::Obj(vec![
                ("iter".into(), u64_wire(r.iter)),
                ("faults".into(), u64_wire(r.faults)),
                ("ue".into(), Json::Bool(r.ue)),
                ("udr".into(), f64s(&r.udr)),
            ])
        });
        Json::Obj(vec![
            ("block".into(), u64_wire(self.block)),
            ("faults".into(), u64_wire(acc.iterations_with_faults)),
            ("ue".into(), u64_wire(acc.iterations_with_ue)),
            ("err".into(), f64_wire(acc.error_ratio_sum)),
            ("udr_sum".into(), f64s(&acc.udr_sum)),
            (
                "udr_hits".into(),
                Json::Arr(acc.udr_hits.iter().map(|&v| u64_wire(v)).collect()),
            ),
            ("records".into(), Json::Arr(records.collect())),
        ])
    }

    /// Parses one block of a `kind` job whose roster has `schemes` rows
    /// and which runs `iterations` iterations. The per-scheme arrays and
    /// every record's UDR list must match the roster, and a record's
    /// iteration must lie in its block, in increasing order.
    fn from_wire(obj: &Json, kind: &str, schemes: usize, iterations: u64) -> Result<Block, String> {
        let block = u64_unwire(obj.get("block"), "block")?;
        let sums = arr_unwire(obj.get("udr_sum"), "udr_sum")?;
        let hits = arr_unwire(obj.get("udr_hits"), "udr_hits")?;
        if sums.len() != schemes || hits.len() != schemes {
            return Err(format!("{kind} block must carry {schemes} per-scheme sums"));
        }
        let mut acc = Accumulator::new(schemes);
        for (i, (sum, hit)) in sums.iter().zip(hits).enumerate() {
            acc.udr_sum[i] = f64_unwire(Some(sum), "udr_sum")?;
            acc.udr_hits[i] = u64_unwire(Some(hit), "udr_hits")?;
        }
        acc.iterations_with_faults = u64_unwire(obj.get("faults"), "faults")?;
        acc.iterations_with_ue = u64_unwire(obj.get("ue"), "ue")?;
        acc.error_ratio_sum = f64_unwire(obj.get("err"), "err")?;
        let (lo, hi) = block_iterations(block, iterations);
        let mut next = lo;
        for r in arr_unwire(obj.get("records"), "records")? {
            let iter = u64_unwire(r.get("iter"), "records.iter")?;
            if !(next..hi).contains(&iter) {
                return Err(format!(
                    "block {block} holds iteration {iter} out of order or outside the block"
                ));
            }
            next = iter + 1;
            let Some(&Json::Bool(ue)) = r.get("ue") else {
                return Err("partial field 'records.ue' must be a boolean".into());
            };
            let udr = arr_unwire(r.get("udr"), "records.udr")?;
            if udr.len() != schemes {
                return Err(format!(
                    "{kind} iteration {iter} must carry {schemes} per-scheme UDRs"
                ));
            }
            acc.records.push(IterRecord {
                iter,
                faults: u64_unwire(r.get("faults"), "records.faults")?,
                ue,
                udr: udr
                    .iter()
                    .map(|v| f64_unwire(Some(v), "records.udr"))
                    .collect::<Result<_, _>>()?,
            });
        }
        Ok(Block { block, acc })
    }

    /// Parses every block of a `kind` job (see [`Block::from_wire`]) and
    /// checks that they cover the job's blocks (see [`dedup_covered`]).
    pub(crate) fn unwire_all(
        raw: &[&Json],
        kind: &str,
        schemes: usize,
        iterations: u64,
    ) -> Result<Vec<Block>, String> {
        let blocks = raw
            .iter()
            .map(|obj| Block::from_wire(obj, kind, schemes, iterations))
            .collect::<Result<Vec<_>, _>>()?;
        dedup_covered(blocks, |b| b.block, iterations.div_ceil(ITERATION_BLOCK))
    }
}

/// Per-worker scratch buffers reused across Monte Carlo iterations, so
/// the hot loop allocates no scratch per iteration in steady state.
struct IterScratch {
    history: Vec<TimedFault>,
    live: Vec<FaultRecord>,
    chips: Vec<u32>,
    worst_udr: Vec<f64>,
}

/// Everything an iteration reads but never writes — shared by all of a
/// worker's iterations.
struct WorkerCtx<'a> {
    config: &'a CampaignConfig,
    layout: &'a MemoryLayout,
    geometry: &'a DimmGeometry,
    rates: &'a FitRates,
    model: &'a ResilienceModel<'a>,
    rows: &'a [SchemeLoss<'a>],
    clonings: &'a [&'a CloningPolicy],
    assess: Assess,
}

/// Simulates one Monte Carlo iteration into `acc`.
fn simulate_iteration(
    rng: &mut StdRng,
    ctx: &WorkerCtx<'_>,
    scratch: &mut IterScratch,
    acc: &mut Accumulator,
    iter: u64,
) {
    let WorkerCtx {
        config,
        layout,
        geometry,
        rates,
        model,
        ..
    } = *ctx;
    sample_fault_history_into(rng, geometry, rates, config.hours, &mut scratch.history);
    if scratch.history.is_empty() {
        return;
    }
    acc.iterations_with_faults += 1;
    let mut worst_error = 0.0f64;
    scratch.worst_udr.fill(0.0);
    let mut any_ue = false;
    // Without scrubbing every fault stays live to the end; with
    // scrubbing, evaluate the co-active set at each arrival instant and
    // keep the worst outcome (UE corruption is latched into the cells
    // until repaired, so the worst co-active set bounds the loss). Each
    // co-active set streams through the reused `live` buffer in arrival
    // order, so every max/sum below sees identical operands in identical
    // order and results stay bit-identical across thread counts.
    let set_count = match config.scrub_interval_hours {
        None => 1,
        Some(_) => scratch.history.len(),
    };
    for set_idx in 0..set_count {
        scratch.live.clear();
        match config.scrub_interval_hours {
            None => scratch
                .live
                .extend(scratch.history.iter().map(|t| t.record.clone())),
            Some(_) => {
                let event_time = scratch.history[set_idx].start_hours;
                scratch.live.extend(
                    scratch
                        .history
                        .iter()
                        .filter(|t| t.live_at(event_time, config.scrub_interval_hours))
                        .map(|t| t.record.clone()),
                );
            }
        }
        // Cheap pre-check: defeating an ECC that corrects k chips needs
        // more than k distinct faulty chips.
        scratch.chips.clear();
        for f in &scratch.live {
            for &c in &f.chips {
                if !scratch.chips.contains(&c) {
                    scratch.chips.push(c);
                }
            }
        }
        if scratch.chips.len() <= config.correctable_chips {
            continue;
        }
        let assessments = match ctx.assess {
            Assess::ClosedForm => model.assess_many(&scratch.live, ctx.clonings),
            Assess::Exact => model.assess_schemes(&scratch.live, ctx.rows),
        };
        for (i, a) in assessments.iter().enumerate() {
            if a.error_data_lines > 0 || a.unverifiable_data_lines > 0 {
                any_ue = true;
            }
            if i == 0 {
                worst_error = worst_error.max(a.error_ratio(layout.data_lines()));
            }
            scratch.worst_udr[i] = scratch.worst_udr[i].max(a.udr(layout.data_lines()));
        }
    }
    acc.error_ratio_sum += worst_error;
    for (i, &udr) in scratch.worst_udr.iter().enumerate() {
        if udr > 0.0 {
            acc.udr_sum[i] += udr;
            acc.udr_hits[i] += 1;
        }
    }
    if any_ue {
        acc.iterations_with_ue += 1;
    }
    if config.trace {
        acc.records.push(IterRecord {
            iter,
            faults: scratch.history.len() as u64,
            ue: any_ue,
            udr: scratch.worst_udr.clone(),
        });
    }
}

/// The one Monte Carlo loop behind campaign and compare: computes the
/// partials of the given blocks, judging every fault set against all
/// `rows` (a paired comparison) with `assess`.
///
/// A block's partials depend only on `(config, rows, assess, block)` —
/// never on which worker or node computed it — so any partition of the
/// block list over threads (here) or fleet workers (`svc::fleet`) yields
/// bit-identical partials. Returned sorted by block index.
pub(crate) fn run_blocks(
    config: &CampaignConfig,
    rows: &[SchemeLoss<'_>],
    assess: Assess,
    block_ids: &[u64],
) -> Vec<Block> {
    let layout = config.build_layout();
    let geometry = config.build_geometry(&layout);
    let rates = config.rates.scaled_to(config.fit_per_chip);
    let clonings: Vec<&CloningPolicy> = rows.iter().map(|row| row.cloning).collect();
    let workers = config.threads.max(1).min(block_ids.len().max(1));

    // Each worker claims blocks workers-strided (worker t gets list
    // entries t, t+workers, …); the sort below restores block order.
    let per_worker: Vec<Vec<Block>> = fan_out(workers, |t| {
        let model = ResilienceModel::new(&layout, &geometry)
            .with_correctable_chips(config.correctable_chips)
            .with_tree(config.tree);
        let ctx = WorkerCtx {
            config,
            layout: &layout,
            geometry: &geometry,
            rates: &rates,
            model: &model,
            rows,
            clonings: &clonings,
            assess,
        };
        let mut scratch = IterScratch {
            history: Vec::new(),
            live: Vec::new(),
            chips: Vec::new(),
            worst_udr: vec![0.0; rows.len()],
        };
        let mut out = Vec::new();
        for &block in block_ids.iter().skip(t).step_by(workers) {
            let mut acc = Accumulator::new(rows.len());
            let (lo, hi) = block_iterations(block, config.iterations);
            for iter in lo..hi {
                let mut rng = StdRng::seed_from_u64(stream_seed(config.seed, iter));
                simulate_iteration(&mut rng, &ctx, &mut scratch, &mut acc, iter);
            }
            out.push(Block { block, acc });
        }
        out
    });

    let mut blocks: Vec<Block> = per_worker.into_iter().flatten().collect();
    blocks.sort_by_key(|b| b.block);
    blocks
}

/// Folds block partials in block order — the single reduction behind the
/// local runners and the fleet coordinator's merge of both kinds, so
/// their bytes cannot diverge.
pub(crate) fn fold_blocks(mut blocks: Vec<Block>, schemes: usize) -> Accumulator {
    blocks.sort_by_key(|b| b.block);
    let mut total = Accumulator::new(schemes);
    for Block { acc, .. } in blocks {
        total.iterations_with_faults += acc.iterations_with_faults;
        total.iterations_with_ue += acc.iterations_with_ue;
        total.error_ratio_sum += acc.error_ratio_sum;
        for i in 0..schemes {
            total.udr_sum[i] += acc.udr_sum[i];
            total.udr_hits[i] += acc.udr_hits[i];
        }
        total.records.extend(acc.records);
    }
    total
}

/// The campaign kind's rows: each policy under the config's tree.
fn campaign_rows<'a>(
    config: &CampaignConfig,
    policies: &'a [CloningPolicy],
) -> Vec<SchemeLoss<'a>> {
    let profile = config.tree.loss_profile();
    policies
        .iter()
        .map(|cloning| SchemeLoss { cloning, profile })
        .collect()
}

/// Short label for a cloning policy in trace events.
fn policy_label(policy: &CloningPolicy) -> &'static str {
    match policy {
        CloningPolicy::None => "baseline",
        CloningPolicy::Relaxed => "src",
        CloningPolicy::Aggressive => "sac",
        CloningPolicy::Custom(_) => "custom",
    }
}

/// Runs a campaign, evaluating every policy against identical fault sets.
///
/// Returns one [`PolicyResult`] per input policy, in order. For a fixed
/// `config.seed` the results are bit-identical for **any**
/// `config.threads` value.
pub fn run_campaign(config: &CampaignConfig, policies: &[CloningPolicy]) -> Vec<PolicyResult> {
    run_campaign_traced(config, policies).0
}

/// Runs a campaign like [`run_campaign`], additionally returning the
/// trace stream when `config.trace` is set (a disabled, empty buffer
/// otherwise).
///
/// Blocks keep per-iteration records, and the trace is rendered from
/// them after the block-order fold — the trace analogue of the
/// fixed-block floating-point merge. Same seed ⇒ byte-identical NDJSON
/// at any `config.threads`.
pub fn run_campaign_traced(
    config: &CampaignConfig,
    policies: &[CloningPolicy],
) -> (Vec<PolicyResult>, TraceBuffer) {
    let all: Vec<u64> = (0..config.iterations.div_ceil(ITERATION_BLOCK)).collect();
    let blocks = run_campaign_blocks(config, policies, &all);
    merge_campaign_blocks(config, policies, blocks)
}

/// The campaign kind's blocks: [`run_blocks`] over its rows with the
/// closed-form assessment.
pub(crate) fn run_campaign_blocks(
    config: &CampaignConfig,
    policies: &[CloningPolicy],
    block_ids: &[u64],
) -> Vec<Block> {
    let rows = campaign_rows(config, policies);
    run_blocks(config, &rows, Assess::ClosedForm, block_ids)
}

/// Folds campaign blocks into the per-policy results and renders the
/// trace from their records.
pub(crate) fn merge_campaign_blocks(
    config: &CampaignConfig,
    policies: &[CloningPolicy],
    blocks: Vec<Block>,
) -> (Vec<PolicyResult>, TraceBuffer) {
    let total = fold_blocks(blocks, policies.len());
    let mut trace = if config.trace {
        TraceBuffer::with_capacity(CAMPAIGN_TRACE_CAPACITY)
    } else {
        TraceBuffer::disabled()
    };
    trace.emit_with("campaign", "config", || {
        obs_fields![
            ("seed", Field::Hex(config.seed)),
            ("iterations", config.iterations),
            ("fit_per_chip", config.fit_per_chip),
            ("capacity_bytes", config.capacity_bytes),
            ("policies", policies.len()),
        ]
    });
    for r in &total.records {
        // Seed provenance: the exact RNG stream this iteration drew from,
        // so any single iteration can be replayed in isolation.
        trace.emit_with("campaign", "iteration", || {
            obs_fields![
                ("iter", r.iter),
                ("seed", Field::Hex(stream_seed(config.seed, r.iter))),
                ("faults", r.faults),
                ("ue", r.ue),
            ]
        });
        for (policy, &udr) in policies.iter().zip(&r.udr) {
            if udr > 0.0 {
                trace.emit_with("campaign", "policy_udr", || {
                    obs_fields![
                        ("iter", r.iter),
                        ("policy", policy_label(policy)),
                        ("udr", udr),
                    ]
                });
            }
        }
    }
    let results: Vec<PolicyResult> = policies
        .iter()
        .enumerate()
        .map(|(i, policy)| PolicyResult {
            policy: policy.clone(),
            iterations: config.iterations,
            iterations_with_faults: total.iterations_with_faults,
            iterations_with_ue: total.iterations_with_ue,
            iterations_with_udr: total.udr_hits[i],
            mean_error_ratio: total.error_ratio_sum / config.iterations as f64,
            mean_udr: total.udr_sum[i] / config.iterations as f64,
        })
        .collect();
    for r in &results {
        let label = policy_label(&r.policy);
        trace.emit_with("campaign", "result", || {
            obs_fields![
                ("policy", label),
                ("iterations_with_faults", r.iterations_with_faults),
                ("iterations_with_ue", r.iterations_with_ue),
                ("iterations_with_udr", r.iterations_with_udr),
                ("mean_error_ratio", r.mean_error_ratio),
                ("mean_udr", r.mean_udr),
            ]
        });
    }
    (results, trace)
}

/// Ring capacity for campaign traces: a 10^6-iteration Table 4 campaign
/// at FIT 80 sees far fewer fault iterations than this, so no real run
/// drops events; pathological configs degrade to keeping the newest.
const CAMPAIGN_TRACE_CAPACITY: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(fit: f64) -> CampaignConfig {
        let mut c = CampaignConfig::table4(fit);
        c.capacity_bytes = 1 << 26; // 64 MiB keeps per-iteration work small
        c.iterations = 500;
        c.threads = 2;
        c
    }

    /// Pinned outcome of one fixed campaign (seed, geometry, FIT all
    /// frozen). Guards the whole sampling + assessment + merge pipeline
    /// against silent behavioural drift: any change to the RNG stream,
    /// fault sampling order, or accumulation order shows up here as a
    /// hard failure. Integer fields are exact; f64 means allow a tiny
    /// relative tolerance so a platform libm difference in the Poisson
    /// sampler does not trip the pin.
    #[test]
    fn golden_seed_campaign_result_is_pinned() {
        fn close(actual: f64, expected: f64) -> bool {
            if expected == 0.0 {
                return actual == 0.0;
            }
            ((actual - expected) / expected).abs() <= 1e-12
        }
        let mut c = small_config(1500.0);
        c.iterations = 256;
        c.threads = 3;
        let r = run_campaign(&c, &[CloningPolicy::None, CloningPolicy::Aggressive]);
        assert_eq!(r.len(), 2);

        assert_eq!(r[0].policy, CloningPolicy::None);
        assert_eq!(r[0].iterations, 256);
        assert_eq!(r[0].iterations_with_faults, 157);
        assert_eq!(r[0].iterations_with_ue, 4);
        assert_eq!(r[0].iterations_with_udr, 4);
        assert!(close(r[0].mean_error_ratio, 0.000_976_562_5), "{}", r[0].mean_error_ratio);
        assert!(close(r[0].mean_udr, 0.000_976_562_5), "{}", r[0].mean_udr);

        assert_eq!(r[1].policy, CloningPolicy::Aggressive);
        assert_eq!(r[1].iterations, 256);
        assert_eq!(r[1].iterations_with_faults, 157);
        assert_eq!(r[1].iterations_with_ue, 4);
        assert_eq!(r[1].iterations_with_udr, 0);
        assert!(close(r[1].mean_error_ratio, 0.000_976_562_5), "{}", r[1].mean_error_ratio);
        assert_eq!(r[1].mean_udr, 0.0);
    }

    #[test]
    fn zero_like_fit_produces_no_loss() {
        let c = small_config(0.001);
        let r = run_campaign(&c, &[CloningPolicy::None]);
        assert_eq!(r[0].mean_udr, 0.0);
        assert_eq!(r[0].iterations_with_ue, 0);
    }

    #[test]
    fn fault_count_scales_with_fit() {
        let lo = run_campaign(&small_config(5.0), &[CloningPolicy::None]);
        let hi = run_campaign(&small_config(200.0), &[CloningPolicy::None]);
        assert!(hi[0].iterations_with_faults > lo[0].iterations_with_faults);
    }

    #[test]
    fn cloning_monotonically_reduces_udr() {
        // Very high FIT so UE events are common in 500 iterations.
        let c = small_config(3000.0);
        let r = run_campaign(
            &c,
            &[
                CloningPolicy::None,
                CloningPolicy::Relaxed,
                CloningPolicy::Aggressive,
            ],
        );
        assert!(r[0].mean_udr > 0.0, "baseline must see UDR at extreme FIT");
        assert!(r[0].mean_udr >= r[1].mean_udr, "SRC <= baseline");
        assert!(r[1].mean_udr >= r[2].mean_udr, "SAC <= SRC");
        assert!(
            r[2].mean_udr < r[0].mean_udr,
            "SAC strictly better than baseline"
        );
    }

    #[test]
    fn error_ratio_independent_of_policy() {
        let c = small_config(3000.0);
        let r = run_campaign(&c, &[CloningPolicy::None, CloningPolicy::Aggressive]);
        assert!((r[0].mean_error_ratio - r[1].mean_error_ratio).abs() < 1e-15);
        assert!(r[0].mean_error_ratio > 0.0);
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let c = small_config(1000.0);
        let a = run_campaign(&c, &[CloningPolicy::None]);
        let b = run_campaign(&c, &[CloningPolicy::None]);
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_is_bit_identical_across_thread_counts() {
        // The determinism contract: same seed ⇒ identical PolicyResults
        // (f64 fields included, via PartialEq) for any worker count —
        // including thread counts that do not divide the block count.
        let mut base = small_config(2000.0);
        base.iterations = 300; // not a multiple of ITERATION_BLOCK
        let policies = [
            CloningPolicy::None,
            CloningPolicy::Relaxed,
            CloningPolicy::Aggressive,
        ];
        base.threads = 1;
        let single = run_campaign(&base, &policies);
        for threads in [2, 3, 5, 8] {
            let mut c = base.clone();
            c.threads = threads;
            assert_eq!(
                run_campaign(&c, &policies),
                single,
                "thread count {threads} diverged from single-threaded run"
            );
        }
    }

    #[test]
    fn campaign_trace_is_byte_identical_across_thread_counts() {
        // The tentpole determinism contract extended to observability:
        // same seed ⇒ byte-identical NDJSON for any worker count.
        let mut base = small_config(2000.0);
        base.iterations = 300; // not a multiple of ITERATION_BLOCK
        base.trace = true;
        let policies = [CloningPolicy::None, CloningPolicy::Aggressive];
        base.threads = 1;
        let (_, trace1) = run_campaign_traced(&base, &policies);
        let ndjson1 = trace1.export_ndjson();
        assert!(
            trace1.len() > 10,
            "high-FIT campaign must record events, got {}",
            trace1.len()
        );
        soteria_rt::obs::parse_ndjson(&ndjson1).expect("trace must validate");
        for threads in [2, 4, 7] {
            let mut c = base.clone();
            c.threads = threads;
            let (_, trace_n) = run_campaign_traced(&c, &policies);
            assert_eq!(
                trace_n.export_ndjson(),
                ndjson1,
                "thread count {threads} changed the trace bytes"
            );
        }
    }

    #[test]
    fn untraced_campaign_returns_empty_disabled_buffer() {
        let c = small_config(2000.0);
        let (results, trace) = run_campaign_traced(&c, &[CloningPolicy::None]);
        assert!(trace.is_empty() && !trace.enabled());
        assert_eq!(results, run_campaign(&c, &[CloningPolicy::None]));
    }

    #[test]
    fn campaign_results_change_with_the_seed() {
        let a = small_config(2000.0);
        let mut b = a.clone();
        b.seed ^= 1;
        assert_ne!(
            run_campaign(&a, &[CloningPolicy::None]),
            run_campaign(&b, &[CloningPolicy::None]),
            "different seeds must explore different fault histories"
        );
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = StdRng::seed_from_u64(7);
        let lambda = 2.5;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn scrubbing_reduces_udr() {
        let mut base = small_config(3000.0);
        base.iterations = 800;
        let mut scrubbed = base.clone();
        scrubbed.scrub_interval_hours = Some(24.0);
        let r_none = run_campaign(&base, &[CloningPolicy::None]);
        let r_scrub = run_campaign(&scrubbed, &[CloningPolicy::None]);
        assert!(
            r_scrub[0].mean_udr <= r_none[0].mean_udr,
            "scrubbing cannot hurt: {} vs {}",
            r_scrub[0].mean_udr,
            r_none[0].mean_udr
        );
        assert!(
            r_scrub[0].mean_error_ratio < r_none[0].mean_error_ratio,
            "frequent scrubbing must cut transient-fault coincidences: {} vs {}",
            r_scrub[0].mean_error_ratio,
            r_none[0].mean_error_ratio
        );
    }

    #[test]
    fn timed_fault_liveness() {
        let g = DimmGeometry::table4();
        let mk = |kind| TimedFault {
            record: FaultRecord::on_chip(&g, 0, FaultFootprint::SingleBank { bank: 0 }, kind),
            start_hours: 100.0,
        };
        let t = mk(FaultKind::Transient);
        assert!(!t.live_at(50.0, Some(24.0)));
        assert!(t.live_at(110.0, Some(24.0)));
        assert!(!t.live_at(125.0, Some(24.0)));
        assert!(t.live_at(125.0, None), "no scrubbing: transient persists");
        let p = mk(FaultKind::Permanent);
        assert!(p.live_at(10_000.0, Some(24.0)));
    }

    #[test]
    fn history_is_sorted_by_arrival() {
        let layout = MemoryLayout::new((1u64 << 26) / 64, 128, 4);
        let c = small_config(100.0);
        let geometry = c.build_geometry(&layout);
        let mut rng = StdRng::seed_from_u64(5);
        let rates = FitRates::hopper().scaled_to(100_000.0);
        let h = sample_fault_history(&mut rng, &geometry, &rates, c.hours);
        assert!(h.len() > 2);
        for pair in h.windows(2) {
            assert!(pair[0].start_hours <= pair[1].start_hours);
        }
        for t in &h {
            assert!((0.0..=c.hours).contains(&t.start_hours));
        }
    }

    #[test]
    fn sampled_faults_are_in_bounds() {
        let layout = MemoryLayout::new((1u64 << 26) / 64, 128, 4);
        let c = small_config(100.0);
        let geometry = c.build_geometry(&layout);
        let mut rng = StdRng::seed_from_u64(3);
        let rates = FitRates::hopper().scaled_to(50_000.0);
        let faults = sample_fault_set(&mut rng, &geometry, &rates, c.hours);
        assert!(!faults.is_empty());
        for f in &faults {
            for &chip in &f.chips {
                assert!(chip < geometry.chips());
            }
        }
    }
}
