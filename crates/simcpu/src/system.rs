//! The simulated system: core → L1/L2/LLC → secure memory controller →
//! NVM banks (Table 3).
//!
//! A trace-driven timing model in the spirit of the paper's gem5 setup:
//! the workload generator supplies memory operations with think time;
//! caches filter them; LLC misses go through the
//! [`SecureMemoryController`] in **Timing fidelity**, which produces the
//! exact NVM access trace (data, MACs, metadata fetches, shadow writes,
//! evictions, clones); a per-bank NVM timing model turns that trace into
//! latency. Reads stall the core; writes are posted and show up as bank
//! contention — which is precisely how Soteria's extra clone writes cost
//! performance.

use soteria::clone::CloningPolicy;
use soteria::{DataAddr, Fidelity, SecureMemoryConfig, SecureMemoryController};
use soteria_nvm::timing::{AccessKind, BankTimingModel, NvmTiming};
use soteria_workloads::{OpKind, Workload};

use crate::cache::{Cache, CacheConfig, LevelStats};

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// CPU frequency in GHz (Table 3: 2.67).
    pub cpu_ghz: f64,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 cache.
    pub l2: CacheConfig,
    /// Shared LLC.
    pub llc: CacheConfig,
    /// Secure-memory configuration (fidelity is forced to Timing).
    pub memory: SecureMemoryConfig,
    /// NVM array latencies.
    pub nvm: NvmTiming,
    /// Cycles a persist (clwb + fence reaching the ADR domain) stalls the
    /// core beyond cache access.
    pub persist_cost_cycles: u64,
    /// Fixed pipeline cost of decryption/verification appended to a
    /// memory read (MAC compare; OTP generation overlaps the data fetch).
    pub crypto_pipe_cycles: u64,
    /// Memory-level parallelism of the core: an out-of-order window
    /// overlaps independent misses, so a miss issued in the shadow of a
    /// previous one only pays the *additional* latency. 1.0 models a
    /// blocking in-order core; Table 3's OoO cores sit around 4.
    pub mlp: f64,
}

impl SystemConfig {
    /// The Table 3 system with a given cloning policy and protected
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is invalid for [`SecureMemoryConfig`].
    pub fn table3(cloning: CloningPolicy, capacity_bytes: u64) -> Self {
        let memory = SecureMemoryConfig::builder()
            .capacity_bytes(capacity_bytes)
            .metadata_cache(512 * 1024, 8)
            .cloning(cloning)
            .fidelity(Fidelity::Timing)
            .build()
            .expect("table 3 configuration is valid");
        Self {
            cpu_ghz: 2.67,
            l1: CacheConfig::table3_l1(),
            l2: CacheConfig::table3_l2(),
            llc: CacheConfig::table3_llc(),
            memory,
            nvm: NvmTiming::table3_pcm(),
            persist_cost_cycles: 30,
            crypto_pipe_cycles: 40,
            mlp: 4.0,
        }
    }

    fn ns_to_cycles(&self, ns: u64) -> u64 {
        (ns as f64 * self.cpu_ghz).ceil() as u64
    }
}

/// Outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Cloning scheme name (Baseline / SRC / SAC).
    pub scheme: String,
    /// Memory operations executed.
    pub ops: u64,
    /// Total execution time in CPU cycles.
    pub cycles: u64,
    /// NVM writes issued by the controller.
    pub nvm_writes: u64,
    /// NVM reads issued by the controller.
    pub nvm_reads: u64,
    /// Dirty metadata evictions per tree level (index 0 = L1 leaves).
    pub evictions_by_level: Vec<u64>,
    /// Metadata-cache miss ratio.
    pub metadata_miss_ratio: f64,
    /// LLC statistics.
    pub llc: LevelStats,
}

impl RunResult {
    /// Total dirty metadata evictions.
    pub fn total_evictions(&self) -> u64 {
        self.evictions_by_level.iter().sum()
    }

    /// Evictions per memory operation (Fig. 10c).
    pub fn evictions_per_op(&self) -> f64 {
        self.total_evictions() as f64 / self.ops as f64
    }

    /// Per-level eviction fractions (Fig. 4).
    pub fn eviction_fractions(&self) -> Vec<f64> {
        let total = self.total_evictions().max(1) as f64;
        self.evictions_by_level
            .iter()
            .map(|&e| e as f64 / total)
            .collect()
    }
}

struct Core {
    l1: Cache,
    l2: Cache,
    now_cycles: u64,
    // Program time: think + cache-hit cycles only (memory stalls
    // excluded). Misses whose *program* distance is shorter than one
    // memory latency would coexist in the OoO window and overlap (MLP);
    // using program time keeps the classification independent of how
    // stalls were charged (no bistability).
    program_cycles: u64,
    last_miss_program: u64,
}

/// The simulated machine (one or more cores sharing the LLC, the secure
/// memory controller and the NVM banks — Table 3 uses four).
pub struct System {
    config: SystemConfig,
    cores: Vec<Core>,
    llc: Cache,
    controller: SecureMemoryController,
    banks: BankTimingModel,
    data_lines: u64,
    /// When false, memory accesses bypass the security machinery
    /// entirely (plain NVM): the "non-secure" reference point.
    secure: bool,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now_cycles", &self.now_cycles())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a single-core system.
    pub fn new(config: SystemConfig) -> Self {
        Self::with_cores(config, 1)
    }

    /// Builds a system with `cores` cores, each with private L1/L2,
    /// sharing the LLC, controller and banks.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn with_cores(config: SystemConfig, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        let controller = SecureMemoryController::new(config.memory.clone());
        let geometry = *controller.device().geometry();
        let banks = BankTimingModel::new(&geometry, config.nvm);
        let data_lines = controller.layout().data_lines();
        Self {
            cores: (0..cores)
                .map(|_| Core {
                    l1: Cache::new(config.l1),
                    l2: Cache::new(config.l2),
                    now_cycles: 0,
                    program_cycles: 0,
                    last_miss_program: u64::MAX,
                })
                .collect(),
            llc: Cache::new(config.llc),
            controller,
            banks,
            config,
            data_lines,
            secure: true,
        }
    }

    /// Builds a system whose memory is *not* security-protected: no
    /// encryption, no integrity tree, no metadata traffic — one NVM
    /// access per LLC miss/writeback. This is the "Non-Secure Memory"
    /// reference of Fig. 12 and the classical secure-memory-overhead
    /// baseline.
    pub fn insecure(config: SystemConfig) -> Self {
        let mut s = Self::with_cores(config, 1);
        s.secure = false;
        s
    }

    /// Builds an insecure system with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn insecure_with_cores(config: SystemConfig, cores: usize) -> Self {
        let mut s = Self::with_cores(config, cores);
        s.secure = false;
        s
    }

    /// The secure memory controller (for stats inspection).
    pub fn controller(&self) -> &SecureMemoryController {
        &self.controller
    }

    /// Mutable access to the controller (e.g. to enable observability
    /// before a run).
    pub fn controller_mut(&mut self) -> &mut SecureMemoryController {
        &mut self.controller
    }

    /// Current simulated time in cycles (max over cores).
    pub fn now_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.now_cycles).max().unwrap_or(0)
    }

    fn ns_of(&self, cycles: u64) -> u64 {
        (cycles as f64 / self.config.cpu_ghz) as u64
    }

    /// Schedules the controller's last access trace on the NVM banks.
    /// Returns the cycle at which the final *read* completes (writes are
    /// posted). Reads before the first write model the fetch path.
    fn schedule_trace(&mut self, now_cycles: u64) -> u64 {
        let now_ns = self.ns_of(now_cycles);
        let mut read_done_ns = now_ns;
        let geometry = *self.controller.device().geometry();
        for &(addr, kind) in self.controller.last_trace() {
            let done = self.banks.schedule(&geometry, addr, kind, now_ns);
            if kind == AccessKind::Read {
                read_done_ns = read_done_ns.max(done);
            }
        }
        self.config.ns_to_cycles(read_done_ns - now_ns)
    }

    /// Issues one memory read (LLC-miss path); returns its latency in
    /// cycles. Secure systems run the full controller datapath; insecure
    /// ones pay a single array read.
    fn memory_read(&mut self, line: u64, now_cycles: u64) -> u64 {
        if !self.secure {
            let geometry = *self.controller.device().geometry();
            let now_ns = self.ns_of(now_cycles);
            let done = self.banks.schedule(
                &geometry,
                soteria_nvm::LineAddr::new(line),
                AccessKind::Read,
                now_ns,
            );
            return self.config.ns_to_cycles(done - now_ns);
        }
        self.controller
            .read(DataAddr::new(line))
            .expect("timing-fidelity reads cannot fail");
        self.schedule_trace(now_cycles) + self.config.crypto_pipe_cycles
    }

    /// Issues one posted memory write (LLC writeback or persist).
    fn memory_write(&mut self, line: u64, now_cycles: u64) {
        if !self.secure {
            let geometry = *self.controller.device().geometry();
            let now_ns = self.ns_of(now_cycles);
            let _ = self.banks.schedule(
                &geometry,
                soteria_nvm::LineAddr::new(line),
                AccessKind::Write,
                now_ns,
            );
            return;
        }
        self.controller
            .write(DataAddr::new(line), &[0u8; 64])
            .expect("timing-fidelity writes cannot fail");
        let _ = self.schedule_trace(now_cycles);
    }

    /// Executes one operation on core `core_idx`.
    fn step(&mut self, core_idx: usize, op: soteria_workloads::MemOp) {
        let mut now = self.cores[core_idx].now_cycles + op.think as u64;
        let mut program = self.cores[core_idx].program_cycles + op.think as u64;
        let line = (op.addr / 64) % self.data_lines;
        let is_write = op.kind == OpKind::Write;

        if is_write && op.persistent {
            // clwb + fence: update the hierarchy, then push the line
            // through the controller into the ADR domain.
            let r1 = self.cores[core_idx].l1.access(line, true);
            now += self.config.l1.latency_cycles;
            program += self.config.l1.latency_cycles;
            if let Some(wb) = r1.writeback {
                self.victim_to_l2(core_idx, wb, now);
            }
            self.memory_write(line, now);
            now += self.config.persist_cost_cycles;
            self.cores[core_idx].now_cycles = now;
            self.cores[core_idx].program_cycles = program;
            return;
        }

        // Normal cached access.
        let r1 = self.cores[core_idx].l1.access(line, is_write);
        now += self.config.l1.latency_cycles;
        program += self.config.l1.latency_cycles;
        if let Some(wb) = r1.writeback {
            self.victim_to_l2(core_idx, wb, now);
        }
        if !r1.hit {
            let r2 = self.cores[core_idx].l2.access(line, false);
            now += self.config.l2.latency_cycles;
            program += self.config.l2.latency_cycles;
            if let Some(wb) = r2.writeback {
                self.victim_to_llc(wb, now);
            }
            if !r2.hit {
                let r3 = self.llc.access(line, false);
                now += self.config.llc.latency_cycles;
                program += self.config.llc.latency_cycles;
                if let Some(wb) = r3.writeback {
                    self.memory_write(wb, now);
                }
                if !r3.hit {
                    // LLC miss: fetch (and decrypt + verify) from NVM.
                    // Misses whose PROGRAM distance is below one memory
                    // latency would coexist in the OoO window: they
                    // overlap (MLP) and pay 1/mlp of the latency as
                    // visible stall; isolated misses stall fully.
                    let latency = self.memory_read(line, now);
                    let gap = program.saturating_sub(self.cores[core_idx].last_miss_program);
                    let dense = self.cores[core_idx].last_miss_program != u64::MAX && gap < latency;
                    let charged = if dense {
                        (latency as f64 / self.config.mlp).ceil() as u64
                    } else {
                        latency
                    };
                    self.cores[core_idx].last_miss_program = program;
                    now += charged;
                }
            }
        }
        self.cores[core_idx].now_cycles = now;
        self.cores[core_idx].program_cycles = program;
    }

    /// Runs `ops` operations of `workload` on core 0; returns timing +
    /// controller statistics.
    pub fn run(&mut self, workload: &mut dyn Workload, ops: u64) -> RunResult {
        let mut workloads = vec![workload];
        self.run_multi(&mut workloads, ops)
    }

    /// Runs `ops_per_core` operations of each workload, one per core, the
    /// cores interleaved in simulated-time order (the multiprogrammed
    /// Table 3 setup). The number of workloads must not exceed the number
    /// of cores.
    ///
    /// # Panics
    ///
    /// Panics when more workloads than cores are supplied.
    pub fn run_multi(
        &mut self,
        workloads: &mut [&mut dyn Workload],
        ops_per_core: u64,
    ) -> RunResult {
        assert!(
            workloads.len() <= self.cores.len(),
            "{} workloads but only {} cores",
            workloads.len(),
            self.cores.len()
        );
        let n = workloads.len();
        let mut remaining: Vec<u64> = vec![ops_per_core; n];
        // Advance the core with the smallest local clock (event order).
        while let Some(core_idx) = (0..n)
            .filter(|&i| remaining[i] > 0)
            .min_by_key(|&i| self.cores[i].now_cycles)
        {
            let op = workloads[core_idx].next_op();
            self.step(core_idx, op);
            remaining[core_idx] -= 1;
        }
        let stats = self.controller.stats();
        let name = workloads
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join("+");
        RunResult {
            workload: name,
            scheme: self.config.memory.cloning().name().to_string(),
            ops: ops_per_core * n as u64,
            cycles: self.now_cycles(),
            nvm_writes: stats.nvm_writes,
            nvm_reads: stats.nvm_reads,
            evictions_by_level: stats.evictions_by_level.clone(),
            metadata_miss_ratio: self.controller.cache_stats().miss_ratio(),
            llc: self.llc.stats(),
        }
    }

    fn victim_to_l2(&mut self, core_idx: usize, line: u64, now: u64) {
        if let Some(wb) = self.cores[core_idx].l2.insert_dirty(line) {
            self.victim_to_llc(wb, now);
        }
    }

    fn victim_to_llc(&mut self, line: u64, now: u64) {
        if let Some(wb) = self.llc.insert_dirty(line) {
            self.memory_write(wb, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_workloads::UBench;

    fn small_system(policy: CloningPolicy) -> System {
        let mut config = SystemConfig::table3(policy, 1 << 24); // 16 MiB
                                                                // Shrink caches so short runs produce memory traffic.
        config.l1 = CacheConfig {
            bytes: 4 * 1024,
            ways: 2,
            latency_cycles: 2,
        };
        config.l2 = CacheConfig {
            bytes: 16 * 1024,
            ways: 4,
            latency_cycles: 20,
        };
        config.llc = CacheConfig {
            bytes: 64 * 1024,
            ways: 8,
            latency_cycles: 32,
        };
        config.memory = SecureMemoryConfig::builder()
            .capacity_bytes(1 << 24)
            .metadata_cache(16 * 1024, 8)
            .cloning(config.memory.cloning().clone())
            .fidelity(Fidelity::Timing)
            .build()
            .unwrap();
        System::new(config)
    }

    #[test]
    fn time_advances_and_traffic_flows() {
        let mut sys = small_system(CloningPolicy::None);
        let mut w = UBench::new(256, 1 << 22);
        let r = sys.run(&mut w, 20_000);
        assert!(r.cycles > 0);
        assert!(r.nvm_reads > 0, "strided sweep must miss the LLC");
        assert!(r.nvm_writes > 0);
        assert!(r.total_evictions() > 0, "metadata cache must churn");
    }

    #[test]
    fn src_writes_more_than_baseline_small_slowdown() {
        let ops = 30_000;
        let mut base = small_system(CloningPolicy::None);
        let mut src = small_system(CloningPolicy::Relaxed);
        let rb = base.run(&mut UBench::new(256, 1 << 22), ops);
        let rs = src.run(&mut UBench::new(256, 1 << 22), ops);
        assert!(rs.nvm_writes > rb.nvm_writes, "SRC adds clone writes");
        let slowdown = rs.cycles as f64 / rb.cycles as f64;
        assert!(
            slowdown >= 1.0,
            "cloning cannot speed things up: {slowdown}"
        );
        assert!(slowdown < 1.2, "clone overhead must stay small: {slowdown}");
    }

    #[test]
    fn cache_friendly_workload_produces_little_traffic() {
        let mut sys = small_system(CloningPolicy::None);
        // Non-persistent workload whose footprint fits in the (shrunken)
        // LLC: the hierarchy absorbs almost everything. (Persistent
        // workloads bypass the caches by design — clwb + fence.)
        let mut w = soteria_workloads::Libquantum::new(16 * 1024, 0);
        let r = sys.run(&mut w, 20_000);
        assert!(
            (r.nvm_reads as f64) < 0.05 * r.ops as f64,
            "reads {} for {} ops",
            r.nvm_reads,
            r.ops
        );
    }

    #[test]
    fn eviction_fractions_are_bottom_heavy() {
        let mut sys = small_system(CloningPolicy::None);
        let mut w = UBench::new(256, 1 << 22);
        let r = sys.run(&mut w, 50_000);
        let f = r.eviction_fractions();
        assert!(!f.is_empty());
        assert!(f[0] > 0.5, "leaf level dominates evictions (Fig. 4): {f:?}");
    }

    #[test]
    fn mlp_speeds_up_miss_trains_without_reordering_schemes() {
        // A pointer-chasing read stream: higher MLP must reduce cycles,
        // and the SRC-vs-baseline ordering must be insensitive to it.
        let run = |mlp: f64, policy: CloningPolicy| {
            let mut config = SystemConfig::table3(policy, 1 << 24);
            config.l1 = CacheConfig {
                bytes: 4 * 1024,
                ways: 2,
                latency_cycles: 2,
            };
            config.l2 = CacheConfig {
                bytes: 16 * 1024,
                ways: 4,
                latency_cycles: 20,
            };
            config.llc = CacheConfig {
                bytes: 64 * 1024,
                ways: 8,
                latency_cycles: 32,
            };
            config.memory = SecureMemoryConfig::builder()
                .capacity_bytes(1 << 24)
                .metadata_cache(16 * 1024, 8)
                .cloning(config.memory.cloning().clone())
                .fidelity(Fidelity::Timing)
                .build()
                .unwrap();
            config.mlp = mlp;
            let mut sys = System::new(config);
            let mut w = soteria_workloads::Mcf::new(1 << 22, 3);
            sys.run(&mut w, 30_000).cycles
        };
        let in_order = run(1.0, CloningPolicy::None);
        let ooo = run(4.0, CloningPolicy::None);
        assert!(ooo < in_order, "MLP must help: {ooo} vs {in_order}");
        let ooo_src = run(4.0, CloningPolicy::Relaxed);
        assert!(ooo_src >= ooo, "cloning cannot speed things up");
    }

    #[test]
    fn insecure_memory_is_faster_than_secure() {
        let build = |secure: bool| {
            let mut config = SystemConfig::table3(CloningPolicy::None, 1 << 24);
            config.l1 = CacheConfig {
                bytes: 4 * 1024,
                ways: 2,
                latency_cycles: 2,
            };
            config.l2 = CacheConfig {
                bytes: 16 * 1024,
                ways: 4,
                latency_cycles: 20,
            };
            config.llc = CacheConfig {
                bytes: 64 * 1024,
                ways: 8,
                latency_cycles: 32,
            };
            // Table-3-sized metadata cache (fair comparison).
            config.memory = SecureMemoryConfig::builder()
                .capacity_bytes(1 << 24)
                .fidelity(Fidelity::Timing)
                .build()
                .unwrap();
            if secure {
                System::new(config)
            } else {
                System::insecure(config)
            }
        };
        let run = |mut sys: System, persistent: bool| {
            if persistent {
                let mut w = soteria_workloads::Sps::new(1 << 22, 11);
                sys.run(&mut w, 30_000).cycles
            } else {
                let mut w = soteria_workloads::Mcf::new(1 << 22, 11);
                sys.run(&mut w, 30_000).cycles
            }
        };
        // Flush-heavy persistent traffic: every store pays the secure
        // write path (cipher + MAC + shadow, persist fence) vs one posted
        // write — the expensive end of the spectrum.
        let secure_p = run(build(true), true);
        let insecure_p = run(build(false), true);
        assert!(insecure_p < secure_p, "{insecure_p} vs {secure_p}");
        // Read-dominated volatile traffic: caches filter, metadata is
        // cached — the cheap end.
        let secure_r = run(build(true), false);
        let insecure_r = run(build(false), false);
        assert!(insecure_r < secure_r, "{insecure_r} vs {secure_r}");
        let ratio_r = secure_r as f64 / insecure_r as f64;
        assert!(
            ratio_r < 3.0,
            "read-side security overhead must stay moderate: {ratio_r:.2}x"
        );
    }

    #[test]
    fn run_result_metrics() {
        let mut sys = small_system(CloningPolicy::None);
        let mut w = UBench::new(128, 1 << 20);
        let r = sys.run(&mut w, 10_000);
        assert_eq!(r.ops, 10_000);
        assert!((r.evictions_per_op() - r.total_evictions() as f64 / 10_000.0).abs() < 1e-12);
        let s: f64 = r.eviction_fractions().iter().sum();
        assert!(s == 0.0 || (s - 1.0).abs() < 1e-9);
    }
}
