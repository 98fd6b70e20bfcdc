//! PCM timing model: Table 3 latencies plus a per-bank busy model.
//!
//! The performance simulator asks this model when a request to a given
//! line could complete, given the 150 ns read / 300 ns write PCM array
//! latencies and the fact that a bank can only serve one access at a time
//! (reads and writes to distinct banks overlap).

use crate::geometry::DimmGeometry;
use crate::LineAddr;

/// Nanosecond timestamps within the simulation.
pub type Ns = u64;

/// Array access latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmTiming {
    /// Read latency in nanoseconds.
    pub read_ns: Ns,
    /// Write latency in nanoseconds.
    pub write_ns: Ns,
}

impl NvmTiming {
    /// Table 3 PCM latencies: 150 ns read, 300 ns write.
    pub fn table3_pcm() -> Self {
        Self {
            read_ns: 150,
            write_ns: 300,
        }
    }

    /// Time for `reads` reads and `writes` writes issued one after
    /// another, with no bank overlap: the serialized-PCM cost model that
    /// key rotation, recovery and the compare slowdown report.
    pub fn serialized_ns(&self, reads: u64, writes: u64) -> Ns {
        reads * self.read_ns + writes * self.write_ns
    }

    /// DRAM-like latencies for sanity comparisons.
    pub fn dram_like() -> Self {
        Self {
            read_ns: 50,
            write_ns: 50,
        }
    }
}

impl Default for NvmTiming {
    fn default() -> Self {
        Self::table3_pcm()
    }
}

/// Kind of a memory access for timing purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read of one line.
    Read,
    /// A write of one line.
    Write,
}

/// Tracks when each bank becomes free and schedules accesses.
#[derive(Clone, Debug)]
pub struct BankTimingModel {
    timing: NvmTiming,
    banks: usize,
    bank_free_at: Vec<Ns>,
    busy_ns: u64,
    accesses: u64,
}

impl BankTimingModel {
    /// Creates a model for the given geometry and latencies.
    pub fn new(geometry: &DimmGeometry, timing: NvmTiming) -> Self {
        let banks = geometry.banks() as usize;
        Self {
            timing,
            banks,
            bank_free_at: vec![0; banks],
            busy_ns: 0,
            accesses: 0,
        }
    }

    /// Latency parameters in use.
    pub fn timing(&self) -> NvmTiming {
        self.timing
    }

    /// Schedules an access to `addr` issued at time `now`; returns its
    /// completion time. The access occupies its bank until completion.
    pub fn schedule(
        &mut self,
        geometry: &DimmGeometry,
        addr: LineAddr,
        kind: AccessKind,
        now: Ns,
    ) -> Ns {
        let bank = geometry.locate(addr).bank as usize % self.banks;
        let start = now.max(self.bank_free_at[bank]);
        let latency = match kind {
            AccessKind::Read => self.timing.read_ns,
            AccessKind::Write => self.timing.write_ns,
        };
        let done = start + latency;
        self.bank_free_at[bank] = done;
        self.busy_ns += latency;
        self.accesses += 1;
        done
    }

    /// Total accesses scheduled.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Aggregate bank-busy nanoseconds (for utilization accounting).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// The time at which all banks are idle.
    pub fn all_idle_at(&self) -> Ns {
        self.bank_free_at.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> DimmGeometry {
        DimmGeometry::table4()
    }

    #[test]
    fn serialized_cost_adds_table3_latencies() {
        let pcm = NvmTiming::table3_pcm();
        assert_eq!(pcm.serialized_ns(4, 3), 4 * 150 + 3 * 300);
        assert_eq!(NvmTiming::dram_like().serialized_ns(4, 3), 7 * 50);
    }

    #[test]
    fn read_write_latencies() {
        let g = geom();
        let mut m = BankTimingModel::new(&g, NvmTiming::table3_pcm());
        assert_eq!(m.schedule(&g, LineAddr::new(0), AccessKind::Read, 0), 150);
        // Same bank: serialized behind the read.
        assert_eq!(m.schedule(&g, LineAddr::new(1), AccessKind::Write, 0), 450);
    }

    #[test]
    fn different_banks_overlap() {
        let g = geom();
        let mut m = BankTimingModel::new(&g, NvmTiming::table3_pcm());
        // Lines 0 and cols_per_row land in different banks.
        let other_bank = LineAddr::new(g.cols_per_row() as u64);
        assert_eq!(m.schedule(&g, LineAddr::new(0), AccessKind::Read, 0), 150);
        assert_eq!(m.schedule(&g, other_bank, AccessKind::Read, 0), 150);
    }

    #[test]
    fn issue_after_busy_window() {
        let g = geom();
        let mut m = BankTimingModel::new(&g, NvmTiming::table3_pcm());
        m.schedule(&g, LineAddr::new(0), AccessKind::Read, 0);
        // Issued at t=1000, long after the bank freed at t=150.
        assert_eq!(
            m.schedule(&g, LineAddr::new(0), AccessKind::Read, 1000),
            1150
        );
    }

    #[test]
    fn stats_accumulate() {
        let g = geom();
        let mut m = BankTimingModel::new(&g, NvmTiming::table3_pcm());
        m.schedule(&g, LineAddr::new(0), AccessKind::Read, 0);
        m.schedule(&g, LineAddr::new(0), AccessKind::Write, 0);
        assert_eq!(m.accesses(), 2);
        assert_eq!(m.busy_ns(), 450);
        assert_eq!(m.all_idle_at(), 450);
    }
}
