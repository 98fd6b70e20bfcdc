//! `timingsim`: the Table 3 system (SAC, Timing fidelity) running a mix
//! of persistent and SPEC-like generators in fixed `System::run` batches.
//!
//! A round runs one batch of each generator in turn on one system whose
//! caches stay warm across batches. The generators are seeded from the
//! workload seed; Timing fidelity computes no cryptography, so no
//! operation can fail.

use soteria::CloningPolicy;
use soteria_rt::json::Json;
use soteria_simcpu::{RunResult, System, SystemConfig};
use soteria_workloads::{Lbm, Mcf, MemOp, Pmemkv, Workload, Ycsb};

use crate::securemem::check_write_accounting;
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{Metric, Outcome, Phase, Unit};

/// Protected capacity and generator footprint (Fig. 10's 64 MiB): the
/// footprint is eight times the 8 MB LLC and its 16 384 counter blocks
/// twice the metadata cache's lines.
pub const CAPACITY_BYTES: u64 = 64 << 20;
/// Memory operations per `System::run` call.
pub const BATCH_OPS: u64 = 10_000;
/// Untimed operations per generator before the first timed call. The LLC
/// (131 072 lines) and metadata cache fill within the first 50 000, but
/// host time per operation keeps falling for about a million operations
/// in all; warming that long makes the timed phase steady from its
/// first batch.
pub const WARMUP_OPS: u64 = 250_000;
/// Rounds in a traced unit.
pub const TRACE_ROUNDS: u64 = 10;
/// Operations per generator in the secure-versus-insecure check.
pub const CHECK_OPS: u64 = 20_000;

/// The generator mix: two persistent (PMEMKV, YCSB) and two SPEC-like
/// (mcf, lbm) workloads, seeded from the workload seed.
pub fn generators(seed: u64) -> Vec<Box<dyn Workload>> {
    let f = CAPACITY_BYTES;
    vec![
        Box::new(Pmemkv::new(f, seed ^ 0x11)),
        Box::new(Mcf::new(f, seed ^ 0x22)),
        Box::new(Ycsb::new(f, seed ^ 0x33)),
        Box::new(Lbm::new(f, seed ^ 0x44)),
    ]
}

fn config() -> SystemConfig {
    SystemConfig::table3(CloningPolicy::Aggressive, CAPACITY_BYTES)
}

/// A generator wrapper that times every `next_op` call.
struct TimedGen<'a> {
    inner: &'a mut dyn Workload,
    ns: u64,
    calls: u64,
}

impl Workload for TimedGen<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_persistent(&self) -> bool {
        self.inner.is_persistent()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }

    fn next_op(&mut self) -> MemOp {
        let t0 = stats::now();
        let op = self.inner.next_op();
        self.ns += stats::ns_since(t0);
        self.calls += 1;
        op
    }
}

/// Counter deltas over a span of batches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Memory operations simulated.
    pub ops: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// NVM reads the controller issued.
    pub nvm_reads: u64,
    /// NVM writes the controller issued.
    pub nvm_writes: u64,
    /// Data lines written through the controller.
    pub data_writes: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Metadata-cache hits.
    pub cache_hits: u64,
    /// Metadata-cache misses.
    pub cache_misses: u64,
    /// Dirty metadata-cache evictions.
    pub dirty_evictions: u64,
}

impl Counters {
    fn snapshot(system: &System, result: Option<&RunResult>) -> Self {
        let ctl = system.controller();
        let s = ctl.stats();
        let cs = ctl.cache_stats();
        Self {
            ops: 0,
            cycles: system.now_cycles(),
            nvm_reads: s.nvm_reads,
            nvm_writes: s.nvm_writes,
            data_writes: s.data_writes,
            llc_hits: result.map_or(0, |r| r.llc.hits),
            llc_misses: result.map_or(0, |r| r.llc.misses),
            cache_hits: cs.hits,
            cache_misses: cs.misses,
            dirty_evictions: cs.dirty_evictions,
        }
    }

    fn minus(&self, base: &Self) -> Self {
        Self {
            ops: self.ops - base.ops,
            cycles: self.cycles - base.cycles,
            nvm_reads: self.nvm_reads - base.nvm_reads,
            nvm_writes: self.nvm_writes - base.nvm_writes,
            data_writes: self.data_writes - base.data_writes,
            llc_hits: self.llc_hits - base.llc_hits,
            llc_misses: self.llc_misses - base.llc_misses,
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            dirty_evictions: self.dirty_evictions - base.dirty_evictions,
        }
    }

    fn summary(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("ops".into(), num(self.ops)),
            ("sim_cycles".into(), num(self.cycles)),
            ("nvm_reads".into(), num(self.nvm_reads)),
            ("nvm_writes".into(), num(self.nvm_writes)),
            ("data_writes".into(), num(self.data_writes)),
            ("llc_hits".into(), num(self.llc_hits)),
            ("llc_misses".into(), num(self.llc_misses)),
            ("mdcache_hits".into(), num(self.cache_hits)),
            ("mdcache_misses".into(), num(self.cache_misses)),
            ("mdcache_dirty_evictions".into(), num(self.dirty_evictions)),
        ])
    }
}

/// A system with its generators, warmed up.
pub struct Sim {
    system: System,
    gens: Vec<Box<dyn Workload>>,
    ops: u64,
    last: Option<RunResult>,
}

impl Sim {
    /// Builds the system (secure unless `insecure`) and warms it up.
    pub fn new(seed: u64, insecure: bool) -> Self {
        let system = if insecure {
            System::insecure(config())
        } else {
            System::new(config())
        };
        let mut sim = Self {
            system,
            gens: generators(seed),
            ops: 0,
            last: None,
        };
        for g in 0..sim.gens.len() {
            let r = sim.system.run(sim.gens[g].as_mut(), WARMUP_OPS);
            sim.ops += WARMUP_OPS;
            sim.last = Some(r);
        }
        sim
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::snapshot(&self.system, self.last.as_ref());
        c.ops = self.ops;
        c
    }

    /// One batch of generator `g`; checks what a batch must satisfy.
    /// With `gen_time`, every `next_op` is timed into it.
    fn batch(&mut self, g: usize, gen_time: Option<&mut (u64, u64)>) -> Result<(), String> {
        let cycles_before = self.system.now_cycles();
        let result = match gen_time {
            None => self.system.run(self.gens[g].as_mut(), BATCH_OPS),
            Some(acc) => {
                let mut timed = TimedGen {
                    inner: self.gens[g].as_mut(),
                    ns: 0,
                    calls: 0,
                };
                let r = self.system.run(&mut timed, BATCH_OPS);
                acc.0 += timed.ns;
                acc.1 += timed.calls;
                r
            }
        };
        self.ops += BATCH_OPS;
        if result.ops != BATCH_OPS || result.cycles <= cycles_before {
            return Err(format!(
                "batch of {} reported {} ops and cycles {} -> {}",
                result.workload, result.ops, cycles_before, result.cycles
            ));
        }
        self.last = Some(result);
        Ok(())
    }

    /// Checks the controller's write-accounting identities (one data
    /// line per write, so cipher writes equal data-MAC writes).
    fn check_accounting(&self) -> Result<(), String> {
        check_write_accounting(self.system.controller(), 1, false)
    }
}

/// Checks that the secure system takes more simulated cycles than the
/// insecure one on the same operation stream, per generator.
fn check_secure_costs_more(seed: u64) -> Result<(), String> {
    let mut secure = generators(seed);
    let mut plain = generators(seed);
    for (s, p) in secure.iter_mut().zip(plain.iter_mut()) {
        let a = System::new(config()).run(s.as_mut(), CHECK_OPS);
        let b = System::insecure(config()).run(p.as_mut(), CHECK_OPS);
        if a.cycles <= b.cycles {
            return Err(format!(
                "{}: secure run took {} cycles, insecure {}",
                a.workload, a.cycles, b.cycles
            ));
        }
    }
    Ok(())
}

/// The untraced measurement.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let (mut sim, setup_s) = match crate::timed_setups(|| Ok(Sim::new(seed, false))) {
        Ok(v) => v,
        Err(e) => return Outcome::wrong(e, tally),
    };
    let mut phase = Phase::start();
    while phase.elapsed_s() < seconds {
        for g in 0..sim.gens.len() {
            let t0 = stats::now();
            let r = sim.batch(g, None);
            phase.calls.push(stats::ns_since(t0) as f64);
            tally.record(r.is_ok());
            if let Err(e) = r {
                return Outcome::wrong(e, tally);
            }
            phase.work += BATCH_OPS;
        }
    }
    let metrics = phase.end_to_end(setup_s);
    if let Err(e) = sim
        .check_accounting()
        .and_then(|()| check_secure_costs_more(seed))
    {
        return Outcome::wrong(e, tally);
    }
    Outcome::ok(tally, metrics)
}

/// Runs [`TRACE_ROUNDS`] rounds; returns host nanoseconds spent in
/// `System::run` and the counter deltas. With `gen_time`, every
/// `next_op` is timed into it as (nanoseconds, calls).
fn rounds(
    sim: &mut Sim,
    tracer: &mut Tracer,
    span: &'static str,
    mut gen_time: Option<&mut (u64, u64)>,
    tally: &mut Tally,
) -> Result<(u64, Counters), String> {
    let base = sim.counters();
    let mut ns = 0;
    for round in 0..TRACE_ROUNDS {
        for g in 0..sim.gens.len() {
            let t0 = stats::now();
            let open = tracer.enter(span, round * 4 + g as u64);
            let r = sim.batch(g, gen_time.as_deref_mut());
            tracer.exit(open);
            ns += stats::ns_since(t0);
            tally.record(r.is_ok());
            r?;
        }
    }
    Ok((ns, sim.counters().minus(&base)))
}

/// The traced unit: the same rounds untraced, traced (with every
/// `next_op` timed), and replayed on `System::insecure`.
pub fn traced(seed: u64, tracer: &mut Tracer) -> Unit {
    let mut tally = Tally::default();
    let mut run = || -> Result<Unit, String> {
        let mut off = Tracer::new(false);
        let mut plain = Sim::new(seed, false);
        let (untraced_ns, _) = rounds(&mut plain, &mut off, "simcpu.system.run", None, &mut tally)?;
        drop(plain);
        let mut sim = Sim::new(seed, false);
        let mut gen = (0u64, 0u64);
        let (traced_ns, c) = rounds(
            &mut sim,
            tracer,
            "simcpu.system.run",
            Some(&mut gen),
            &mut tally,
        )?;
        sim.check_accounting()?;
        drop(sim);
        let mut insecure = Sim::new(seed, true);
        let (insecure_ns, ic) = rounds(
            &mut insecure,
            tracer,
            "simcpu.insecure.run",
            None,
            &mut Tally::default(),
        )?;
        if c.cycles <= ic.cycles {
            return Err(format!(
                "secure rounds took {} cycles, insecure {}",
                c.cycles, ic.cycles
            ));
        }
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        let ops = c.ops;
        let metrics = vec![
            Metric::new("simcpu.insecure_ns_per_op", per(insecure_ns, ops), "ns"),
            Metric::new(
                "core.controller.timing_ns_per_op",
                (untraced_ns as f64 - insecure_ns as f64) / ops as f64,
                "ns",
            ),
            Metric::new("workloads.next_op_ns", per(gen.0, gen.1), "ns"),
            Metric::new(
                "nvm.accesses_per_op",
                per(c.nvm_reads + c.nvm_writes, ops),
                "count",
            ),
            Metric::new(
                "simcpu.llc_miss_ratio",
                per(c.llc_misses, c.llc_hits + c.llc_misses),
                "ratio",
            ),
            Metric::new("simcpu.sim_cycles_per_op", per(c.cycles, ops), "cycles"),
            Metric::new(
                "nvm.writes_per_put_line",
                per(c.nvm_writes, c.data_writes),
                "count",
            ),
            Metric::new(
                "core.mdcache.hit_ratio",
                per(c.cache_hits, c.cache_hits + c.cache_misses),
                "ratio",
            ),
            Metric::new(
                "core.mdcache.dirty_evictions_per_request",
                per(c.dirty_evictions, ops),
                "count",
            ),
        ];
        let mut counters = c.summary();
        if let Json::Obj(fields) = &mut counters {
            fields.push(("insecure".into(), ic.summary()));
            fields.push(("next_op_calls".into(), Json::Num(gen.1 as f64)));
        }
        Ok(Unit {
            check: Ok(()),
            tally,
            metrics,
            counters,
            overhead: traced_ns as f64 / untraced_ns as f64 - 1.0,
        })
    };
    match run() {
        Ok(unit) => unit,
        Err(e) => Unit::wrong(e, tally),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_pass_the_accounting_and_cost_checks() {
        let mut sim = Sim::new(5, false);
        for g in 0..sim.gens.len() {
            sim.batch(g, None).expect("batch checks pass");
        }
        sim.check_accounting().expect("identities hold");
        // A seeded wrong expectation: two cipher lines per MAC write.
        assert!(check_write_accounting(sim.system.controller(), 2, false).is_err());
        check_secure_costs_more(5).expect("security costs cycles");
    }
}
