//! Write-endurance tracking and start-gap wear leveling.
//!
//! PCM cells endure ~10^8 writes (§1); controllers therefore both track
//! write counts and remap hot lines. [`StartGapLeveler`] implements the
//! start-gap scheme of Qureshi et al. (MICRO 2009): one spare line plus
//! two registers (`start`, `gap`); every `gap_write_interval` writes the
//! gap moves one slot, slowly rotating the logical-to-physical mapping so
//! no physical line stays under a hot logical address.

use crate::paged::LineTable;
use crate::LineAddr;

/// Tracks per-line write counts.
///
/// Stored in a sparse paged table indexed by line (zero = never
/// written): the per-write increment on the controller's hot path is two
/// array indexes, and memory grows with the pages written, not with the
/// highest line. Report-time scans (`hottest`, `imbalance`) stay
/// deterministic by walking in index order.
#[derive(Clone, Debug, Default)]
pub struct WearTracker {
    writes: LineTable,
    written_lines: u64,
    total: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one write to `addr`.
    pub fn record_write(&mut self, addr: LineAddr) {
        let count = self.writes.get_mut(addr.index());
        *count += 1;
        if *count == 1 {
            self.written_lines += 1;
        }
        self.total += 1;
    }

    /// Write count of one line.
    pub fn writes_to(&self, addr: LineAddr) -> u64 {
        self.writes.get(addr.index())
    }

    /// Total writes across the device.
    pub fn total_writes(&self) -> u64 {
        self.total
    }

    /// The most-written line and its count, if any writes happened.
    pub fn hottest(&self) -> Option<(LineAddr, u64)> {
        // Index-order scan with strict `>`: among equally-hot lines the
        // lowest address wins.
        let mut best: Option<(u64, u64)> = None;
        for (addr, count) in self.writes.nonzero() {
            if best.is_none_or(|(_, c)| count > c) {
                best = Some((addr, count));
            }
        }
        best.map(|(a, c)| (LineAddr::new(a), c))
    }

    /// Pages of counts allocated so far.
    #[cfg(test)]
    pub(crate) fn allocated_pages(&self) -> usize {
        self.writes.allocated_pages()
    }

    /// Ratio of the hottest line's writes to the mean over written lines —
    /// 1.0 is perfectly level.
    pub fn imbalance(&self) -> f64 {
        if self.written_lines == 0 {
            return 1.0;
        }
        let max = self.writes.nonzero().map(|(_, c)| c).max().unwrap_or(0) as f64;
        let mean = self.total as f64 / self.written_lines as f64;
        max / mean
    }
}

/// Start-gap wear leveling over a region of `lines` logical lines
/// (physical region has one extra spare line).
#[derive(Clone, Debug)]
pub struct StartGapLeveler {
    lines: u64,
    start: u64,
    gap: u64,
    writes_since_move: u64,
    gap_write_interval: u64,
    total_moves: u64,
}

impl StartGapLeveler {
    /// Creates a leveler for `lines` logical lines, moving the gap every
    /// `gap_write_interval` writes (the paper's source suggests 100).
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0` or `gap_write_interval == 0`.
    pub fn new(lines: u64, gap_write_interval: u64) -> Self {
        assert!(lines > 0, "region must have at least one line");
        assert!(gap_write_interval > 0, "gap interval must be positive");
        Self {
            lines,
            start: 0,
            gap: lines, // gap initially after the last line
            writes_since_move: 0,
            gap_write_interval,
            total_moves: 0,
        }
    }

    /// Number of logical lines managed.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// How many gap movements have occurred.
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Translates a logical line index to its current physical index
    /// within the region (0..=lines, one extra for the gap).
    ///
    /// # Panics
    ///
    /// Panics if `logical >= self.lines()`.
    pub fn translate(&self, logical: u64) -> u64 {
        assert!(logical < self.lines, "logical line {logical} out of range");
        // Rotate within the N logical slots, then skip over the gap: the
        // result lives in the N+1 physical slots (0..=lines).
        let rotated = (logical + self.start) % self.lines;
        if rotated >= self.gap {
            rotated + 1
        } else {
            rotated
        }
    }

    /// Records a write; returns `Some((from, to))` when the gap moved,
    /// meaning the device must copy physical line `from` to `to`.
    pub fn record_write(&mut self) -> Option<(u64, u64)> {
        self.writes_since_move += 1;
        if self.writes_since_move < self.gap_write_interval {
            return None;
        }
        self.writes_since_move = 0;
        self.total_moves += 1;
        let (from, to);
        if self.gap == 0 {
            // Gap wraps to the top and the start register advances. The
            // line that lived in the top physical slot now maps to slot 0
            // (the old gap), so its data must move there.
            self.gap = self.lines;
            self.start = (self.start + 1) % self.lines;
            from = self.lines;
            to = 0;
        } else {
            from = self.gap - 1;
            to = self.gap;
            self.gap -= 1;
        }
        Some((from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts() {
        let mut w = WearTracker::new();
        w.record_write(LineAddr::new(3));
        w.record_write(LineAddr::new(3));
        w.record_write(LineAddr::new(5));
        assert_eq!(w.writes_to(LineAddr::new(3)), 2);
        assert_eq!(w.writes_to(LineAddr::new(5)), 1);
        assert_eq!(w.writes_to(LineAddr::new(9)), 0);
        assert_eq!(w.total_writes(), 3);
        assert_eq!(w.hottest(), Some((LineAddr::new(3), 2)));
    }

    #[test]
    fn tracker_matches_an_ordered_map_model() {
        // Lines drawn from a few far-apart pages (and page edges), so the
        // scans cross allocated and unallocated pages; many repeats make
        // ties for the hottest line common.
        use soteria_rt::prop::{check, vec, Config};
        use std::collections::BTreeMap;
        check(
            "wear_tracker_matches_an_ordered_map_model",
            &Config::with_cases(64),
            &vec((0u64..6, 0u64..8), 0..300usize),
            |writes| {
                let bases = [0u64, 4088, 4096, 1 << 20, 300_000_000, 1 << 29];
                let mut tracker = WearTracker::new();
                let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                for &(base, off) in writes {
                    let line = bases[base as usize] + off;
                    tracker.record_write(LineAddr::new(line));
                    *model.entry(line).or_default() += 1;
                }
                for base in bases {
                    for line in base..base + 8 {
                        let want = model.get(&line).copied().unwrap_or(0);
                        soteria_rt::prop_assert_eq!(tracker.writes_to(LineAddr::new(line)), want);
                    }
                }
                let max = model.values().copied().max();
                let hottest = model.iter().find(|&(_, &n)| Some(n) == max);
                soteria_rt::prop_assert_eq!(
                    tracker.hottest(),
                    hottest.map(|(&a, &n)| (LineAddr::new(a), n))
                );
                let total: u64 = model.values().sum();
                soteria_rt::prop_assert_eq!(tracker.total_writes(), total);
                let imbalance = match max {
                    None => 1.0,
                    Some(max) => max as f64 / (total as f64 / model.len() as f64),
                };
                soteria_rt::prop_assert_eq!(tracker.imbalance().to_bits(), imbalance.to_bits());
                Ok(())
            },
        );
    }

    #[test]
    fn imbalance_of_even_writes_is_one() {
        let mut w = WearTracker::new();
        for i in 0..10 {
            w.record_write(LineAddr::new(i));
        }
        assert!((w.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn translation_is_a_permutation() {
        let mut lv = StartGapLeveler::new(16, 1);
        for _ in 0..100 {
            let mut seen = std::collections::HashSet::new();
            for l in 0..16 {
                let p = lv.translate(l);
                assert!(p <= 16, "physical {p} beyond the spare slot");
                assert_ne!(p, lv.gap, "mapped a line onto the gap");
                assert!(seen.insert(p), "collision after moves");
            }
            lv.record_write();
        }
    }

    #[test]
    fn mapping_eventually_rotates() {
        // After enough gap movements every logical line must have visited
        // more than one physical slot.
        let mut lv = StartGapLeveler::new(8, 1);
        let initial: Vec<u64> = (0..8).map(|l| lv.translate(l)).collect();
        let mut moved = vec![false; 8];
        for _ in 0..200 {
            lv.record_write();
            for l in 0..8 {
                if lv.translate(l) != initial[l as usize] {
                    moved[l as usize] = true;
                }
            }
        }
        assert!(
            moved.iter().all(|&m| m),
            "all lines should migrate: {moved:?}"
        );
    }

    #[test]
    fn gap_move_reports_copy() {
        let mut lv = StartGapLeveler::new(4, 2);
        assert_eq!(lv.record_write(), None);
        // Second write triggers a move: gap was at 4, line 3 copies to 4.
        assert_eq!(lv.record_write(), Some((3, 4)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn translate_bounds_checked() {
        StartGapLeveler::new(4, 1).translate(4);
    }

    #[test]
    fn start_gap_remap_round_trip_preserves_data() {
        // Model the physical array (N logical lines + 1 spare). Every
        // write goes through `translate`, and every gap move applies the
        // reported (from, to) copy. Reading each logical line back through
        // the current mapping must always return the last value written to
        // it — across several full rotations of start and gap.
        use soteria_rt::rng::StdRng;
        let lines = 16u64;
        let mut lv = StartGapLeveler::new(lines, 1); // move on every write
        let mut physical = vec![u64::MAX; lines as usize + 1];
        let mut expected = vec![u64::MAX; lines as usize];
        let mut rng = StdRng::seed_from_u64(0x5047);
        for (l, slot) in expected.iter_mut().enumerate() {
            physical[lv.translate(l as u64) as usize] = 1000 + l as u64;
            *slot = 1000 + l as u64;
        }
        for value in 0..600u64 {
            let logical = rng.random_range(0..lines);
            physical[lv.translate(logical) as usize] = value;
            expected[logical as usize] = value;
            if let Some((from, to)) = lv.record_write() {
                physical[to as usize] = physical[from as usize];
            }
            for l in 0..lines {
                assert_eq!(
                    physical[lv.translate(l) as usize],
                    expected[l as usize],
                    "logical line {l} lost data after {} gap moves",
                    lv.total_moves()
                );
            }
        }
        // 600 moves over 17 slots: the mapping rotated several times.
        assert!(lv.total_moves() >= 600);
    }
}
