//! The NVM DIMM device: storage, ECC decode and fault application.
//!
//! Two storage fidelities are offered:
//!
//! * **Functional** — every line is stored as its real ECC codeword;
//!   reads overlay live fault corruption onto the codeword bytes and run
//!   the actual [`LineCodec`] decoder. Used by the functional/security
//!   tests.
//! * **Symbolic** — payloads are not stored; a read determines its
//!   [`CorrectionOutcome`] by counting how many *distinct chips* have live
//!   faults covering the same beat (the exact condition under which
//!   Chipkill fails). Used by the performance simulator and the Monte
//!   Carlo fault campaigns, where content is irrelevant but outcome and
//!   write counts matter. A property test in `tests/` checks the two modes
//!   agree.

use std::collections::BTreeMap;

use soteria_ecc::chipkill::{ChipkillCodec, LineCodec, SecDedCodec};
use soteria_ecc::ecp::EcpBlock;
use soteria_ecc::CorrectionOutcome;
use soteria_rt::obs::{Field, Obs};
use soteria_rt::obs_fields;

use crate::fault::{FaultKind, FaultRecord};
use crate::geometry::DimmGeometry;
use crate::paged::LineTable;
use crate::wear::{StartGapLeveler, WearTracker};
use crate::LineAddr;

/// Counters describing device activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Total line reads.
    pub reads: u64,
    /// Total line writes.
    pub writes: u64,
    /// Reads that needed (and got) correction.
    pub corrected_reads: u64,
    /// Reads that hit a detected uncorrectable error.
    pub uncorrectable_reads: u64,
}

struct FunctionalStore {
    codec: Box<dyn LineCodec + Send + Sync>,
    // Flat line table indexed by physical line index, grown lazily toward
    // the geometry's total (plus the start-gap spare); an empty codeword
    // Vec marks a never-written line. Physical indices are dense and
    // bounded, so direct indexing replaces an ordered-map lookup on every
    // read and write of the controller's hot path.
    lines: Vec<(Vec<u8>, u64)>, // codeword, write epoch
}

impl FunctionalStore {
    fn get(&self, idx: u64) -> Option<&(Vec<u8>, u64)> {
        self.lines
            .get(idx as usize)
            .filter(|(cw, _)| !cw.is_empty())
    }

    fn slot_mut(lines: &mut Vec<(Vec<u8>, u64)>, idx: u64) -> &mut (Vec<u8>, u64) {
        let idx = idx as usize;
        if idx >= lines.len() {
            lines.resize_with(idx + 1, Default::default);
        }
        &mut lines[idx]
    }
}

struct SymbolicStore {
    correctable_chips: usize,
    beats: u8,
    // Write epoch per physical line (zero = never written), paged so a
    // device whose metadata regions sit far above its data lines stays
    // sparse.
    epochs: LineTable,
}

enum Storage {
    Functional(FunctionalStore),
    Symbolic(SymbolicStore),
}

/// A non-volatile DIMM.
pub struct NvmDimm {
    geometry: DimmGeometry,
    storage: Storage,
    faults: Vec<FaultRecord>,
    write_epoch: u64,
    stats: DeviceStats,
    wear: WearTracker,
    leveler: Option<StartGapLeveler>,
    // ECP-6 per line, lazily allocated on write-verify (None = disabled).
    ecp: Option<BTreeMap<u64, EcpBlock<6>>>,
    ecp_repaired_bits: u64,
    // Chips marked dead (chip marking / sparing): decoded as erasures.
    marked_chips: Vec<u32>,
    // Observability (disabled by default: one branch per event site).
    obs: Obs,
}

impl std::fmt::Debug for NvmDimm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmDimm")
            .field("geometry", &self.geometry)
            .field("faults", &self.faults.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl NvmDimm {
    /// Creates a functional device with Chipkill-Correct ECC (Table 4).
    pub fn chipkill(geometry: DimmGeometry) -> Self {
        Self::with_codec(geometry, Box::new(ChipkillCodec::table4()))
    }

    /// Creates a functional device with SEC-DED ECC (the weaker-ECC
    /// ablation).
    pub fn secded(geometry: DimmGeometry) -> Self {
        Self::with_codec(geometry, Box::new(SecDedCodec::new()))
    }

    /// Creates a functional device with an arbitrary codec.
    ///
    /// # Panics
    ///
    /// Panics if the codec's chip count differs from the geometry's.
    pub fn with_codec(geometry: DimmGeometry, codec: Box<dyn LineCodec + Send + Sync>) -> Self {
        assert_eq!(
            codec.total_chips() as u32,
            geometry.chips(),
            "codec chip striping must match DIMM geometry"
        );
        Self {
            geometry,
            storage: Storage::Functional(FunctionalStore {
                codec,
                lines: Vec::new(),
            }),
            faults: Vec::new(),
            write_epoch: 0,
            stats: DeviceStats::default(),
            wear: WearTracker::new(),
            leveler: None,
            ecp: None,
            ecp_repaired_bits: 0,
            marked_chips: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Creates a symbolic device that corrects up to `correctable_chips`
    /// simultaneously-faulty chips per beat (1 = Chipkill-Correct).
    pub fn symbolic(geometry: DimmGeometry, correctable_chips: usize) -> Self {
        Self {
            geometry,
            storage: Storage::Symbolic(SymbolicStore {
                correctable_chips,
                beats: 4,
                epochs: LineTable::default(),
            }),
            faults: Vec::new(),
            write_epoch: 0,
            stats: DeviceStats::default(),
            wear: WearTracker::new(),
            leveler: None,
            ecp: None,
            ecp_repaired_bits: 0,
            marked_chips: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Marks a chip as dead (chip marking): its symbols are decoded as
    /// erasures, so the remaining ECC budget covers fresh faults on other
    /// chips. An erasure consumes half the budget an unknown error does
    /// (`e + 2v <= 2t`); the RAS controller marks a chip after repeated
    /// corrections attribute to it.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is outside the geometry.
    pub fn mark_chip(&mut self, chip: u32) {
        assert!(chip < self.geometry.chips(), "chip {chip} out of range");
        if !self.marked_chips.contains(&chip) {
            self.marked_chips.push(chip);
        }
    }

    /// Currently marked chips.
    pub fn marked_chips(&self) -> &[u32] {
        &self.marked_chips
    }

    /// Enables Error-Correcting Pointers (ECP-6, Schechter et al.): on
    /// every write, write-verify detects permanent single-bit faults in
    /// the line's cells and records repair pointers, so those cells no
    /// longer consume the ECC budget on reads. Functional storage only.
    ///
    /// # Panics
    ///
    /// Panics on a symbolic-storage device.
    pub fn enable_ecp(&mut self) {
        assert!(
            matches!(self.storage, Storage::Functional(_)),
            "ECP requires functional storage"
        );
        self.ecp = Some(BTreeMap::new());
    }

    /// Total stuck bits ECP has neutralized on reads so far.
    pub fn ecp_repaired_bits(&self) -> u64 {
        self.ecp_repaired_bits
    }

    /// Enables start-gap wear leveling [Qureshi et al., MICRO 2009]: the
    /// logical-to-physical mapping rotates by one line every
    /// `gap_write_interval` writes, so no physical line stays under a hot
    /// logical address. Must be called before any write.
    ///
    /// # Panics
    ///
    /// Panics if the device has already been written.
    pub fn enable_wear_leveling(&mut self, gap_write_interval: u64) {
        assert_eq!(
            self.write_epoch, 0,
            "enable wear leveling before first write"
        );
        self.leveler = Some(StartGapLeveler::new(
            self.geometry.total_lines(),
            gap_write_interval,
        ));
    }

    /// The wear-leveling state, if enabled.
    pub fn leveler(&self) -> Option<&StartGapLeveler> {
        self.leveler.as_ref()
    }

    fn translate(&self, addr: LineAddr) -> LineAddr {
        match &self.leveler {
            Some(l) => LineAddr::new(l.translate(addr.index())),
            None => addr,
        }
    }

    /// Physical location, tolerating the start-gap spare line one past
    /// the last geometric line.
    fn locate_physical(&self, addr: LineAddr) -> crate::geometry::LineLocation {
        if addr.index() == self.geometry.total_lines() {
            // The spare line borrows bank 0, column 0 of a virtual row.
            crate::geometry::LineLocation {
                bank: 0,
                row: self.geometry.rows(),
                col: 0,
            }
        } else {
            self.geometry.locate(addr)
        }
    }

    fn move_physical_line(&mut self, from: u64, to: u64) {
        match &mut self.storage {
            Storage::Functional(fs) => {
                // `take` leaves `(empty, 0)` behind, which is exactly the
                // vacant marker — a vacant source therefore clears `to`.
                let moved = std::mem::take(FunctionalStore::slot_mut(&mut fs.lines, from));
                *FunctionalStore::slot_mut(&mut fs.lines, to) = moved;
            }
            Storage::Symbolic(ss) => {
                // A vacant source (epoch 0) clears `to`, as above.
                let epoch = ss.epochs.take(from);
                ss.epochs.set(to, epoch);
            }
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DimmGeometry {
        &self.geometry
    }

    /// Activity counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// The device's observability handle (trace domain `"dev"`:
    /// `fault_injected`, `ue`, `remap`). Disabled by default.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the observability handle (enable it, drain the
    /// trace, merge metrics).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Wear-tracking data.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Currently injected faults.
    pub fn faults(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// Injects a fault; its onset is the current write epoch, so transient
    /// faults do not affect lines rewritten afterwards.
    pub fn inject_fault(&mut self, mut fault: FaultRecord) {
        fault.onset_epoch = self.write_epoch;
        fault.seed ^= 0x5eed_0000 ^ self.faults.len() as u64;
        self.obs.trace.emit_with("dev", "fault_injected", || {
            obs_fields![
                (
                    "kind",
                    match fault.kind {
                        FaultKind::Permanent => "permanent",
                        FaultKind::Transient => "transient",
                    }
                ),
                ("chips", fault.chips.len()),
                ("onset_epoch", fault.onset_epoch),
                ("seed", Field::Hex(fault.seed)),
            ]
        });
        self.obs.metrics.inc("dev.faults_injected", 1);
        self.faults.push(fault);
    }

    /// Removes all injected faults (e.g. after repair / post-package
    /// repair).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Writes a 64-byte line.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the geometry.
    pub fn write_line(&mut self, addr: LineAddr, line: &[u8; 64]) {
        let _ = self.geometry.locate(addr); // bounds check on the logical address
        if let Some(l) = &mut self.leveler {
            if let Some((from, to)) = l.record_write() {
                self.move_physical_line(from, to);
                self.obs
                    .trace
                    .emit_with("dev", "remap", || obs_fields![("from", from), ("to", to)]);
                self.obs.metrics.inc("dev.remaps", 1);
            }
        }
        let phys = self.translate(addr);
        self.write_epoch += 1;
        self.stats.writes += 1;
        self.wear.record_write(phys);
        match &mut self.storage {
            Storage::Functional(fs) => {
                // Overwrites (the common case: counters, MAC lines, tree
                // nodes) re-encode into the line's existing codeword
                // allocation.
                let entry = FunctionalStore::slot_mut(&mut fs.lines, phys.index());
                fs.codec.encode_line_into(line, &mut entry.0);
                entry.1 = self.write_epoch;
                let cw = &entry.0;
                // Write-verify: with ECP enabled, a read-back after the
                // write exposes cells pinned by permanent single-bit
                // faults; each gets a repair pointer holding the bit's
                // correct (just-written) value.
                if let Some(ecp) = &mut self.ecp {
                    let total_chips = fs.codec.total_chips() as u32;
                    let span = (fs.codec.codeword_bytes() * 8) as u16;
                    let loc = self.geometry.locate(addr);
                    for fault in &self.faults {
                        if fault.kind != FaultKind::Permanent {
                            continue;
                        }
                        let crate::fault::FaultFootprint::SingleBit { beat, bit, .. } =
                            fault.footprint
                        else {
                            continue;
                        };
                        if !fault.footprint.covers(loc, beat) {
                            continue;
                        }
                        for &chip in &fault.chips {
                            if chip >= total_chips {
                                continue;
                            }
                            let byte = beat as usize * total_chips as usize + chip as usize;
                            let cell = (byte * 8) as u16 + bit as u16;
                            let correct = (cw[byte] >> bit) & 1 != 0;
                            ecp.entry(phys.index())
                                .or_insert_with(|| EcpBlock::with_span(span))
                                .record_stuck_bit(cell, correct);
                        }
                    }
                }
            }
            Storage::Symbolic(ss) => {
                ss.epochs.set(phys.index(), self.write_epoch);
            }
        }
    }

    fn line_epoch(&self, phys: LineAddr) -> u64 {
        match &self.storage {
            Storage::Functional(fs) => fs.get(phys.index()).map_or(0, |(_, e)| *e),
            Storage::Symbolic(ss) => ss.epochs.get(phys.index()),
        }
    }

    fn fault_is_live(fault: &FaultRecord, line_epoch: u64) -> bool {
        match fault.kind {
            FaultKind::Permanent => true,
            FaultKind::Transient => line_epoch <= fault.onset_epoch,
        }
    }

    /// Reads a 64-byte line, returning its contents and the ECC outcome.
    ///
    /// Functional mode decodes the stored codeword after overlaying live
    /// fault corruption; symbolic mode derives the outcome from the set of
    /// distinct faulty chips per beat. Never-written lines read as zeroes.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the geometry.
    pub fn read_line(&mut self, addr: LineAddr) -> ([u8; 64], CorrectionOutcome) {
        let _ = self.geometry.locate(addr); // bounds check on the logical address
        let phys = self.translate(addr);
        self.stats.reads += 1;
        // Fast path: nothing can perturb the stored codeword (no injected
        // faults, no ECP, no marked chips), so decode it borrowed in place
        // — no clone, no epoch lookup, no per-byte fault overlay. This is
        // every read of a healthy device, i.e. the controller's hot path.
        if self.faults.is_empty() && self.ecp.is_none() && self.marked_chips.is_empty() {
            let outcome_and_line = match &self.storage {
                Storage::Functional(fs) => match fs.get(phys.index()) {
                    Some((cw, _)) => fs.codec.decode_line(cw),
                    // Never-written lines read as zeroes; encode→decode of
                    // the zero line is the identity (zero parity), so this
                    // matches the slow path byte for byte.
                    None => ([0u8; 64], CorrectionOutcome::Clean),
                },
                Storage::Symbolic(_) => ([0u8; 64], CorrectionOutcome::Clean),
            };
            self.note_read_outcome(addr, phys, outcome_and_line.1);
            return outcome_and_line;
        }
        let loc = self.locate_physical(phys);
        let line_epoch = self.line_epoch(phys);
        let outcome_and_line = match &self.storage {
            Storage::Functional(fs) => {
                let mut cw = match fs.get(phys.index()) {
                    Some((cw, _)) => cw.clone(),
                    None => fs.codec.encode_line(&[0u8; 64]),
                };
                let total_chips = fs.codec.total_chips() as u32;
                let mut corrupted = false;
                for fault in &self.faults {
                    if !Self::fault_is_live(fault, line_epoch) {
                        continue;
                    }
                    for (i, byte) in cw.iter_mut().enumerate() {
                        let chip = (i % total_chips as usize) as u32;
                        let beat = (i / total_chips as usize) as u8;
                        if fault.chips.contains(&chip) && fault.footprint.covers(loc, beat) {
                            *byte ^= fault.corruption(phys.index(), chip, beat);
                            corrupted = true;
                        }
                    }
                }
                // ECP repairs known-stuck cells before the ECC decoder
                // sees the word.
                let mut ecp_fixed = 0u64;
                if let Some(ecp) = &self.ecp {
                    if let Some(block) = ecp.get(&phys.index()) {
                        let before = cw.clone();
                        block.apply(&mut cw);
                        ecp_fixed = before
                            .iter()
                            .zip(cw.iter())
                            .map(|(a, b)| (a ^ b).count_ones() as u64)
                            .sum();
                    }
                }
                self.ecp_repaired_bits += ecp_fixed;
                let marks: Vec<usize> = self.marked_chips.iter().map(|&c| c as usize).collect();
                let (line, outcome) = if marks.is_empty() {
                    fs.codec.decode_line(&cw)
                } else {
                    fs.codec.decode_line_marked(&cw, &marks)
                };
                // Record corrupted-but-decoded-clean as clean: that is what
                // the controller observes (silent corruption shows up at
                // the MAC check instead).
                let _ = corrupted;
                (line, outcome)
            }
            Storage::Symbolic(ss) => {
                let mut worst = CorrectionOutcome::Clean;
                for beat in 0..ss.beats {
                    let mut chips: Vec<u32> = Vec::new();
                    for fault in &self.faults {
                        if !Self::fault_is_live(fault, line_epoch) {
                            continue;
                        }
                        if fault.footprint.covers(loc, beat) {
                            for &c in &fault.chips {
                                if !chips.contains(&c) {
                                    chips.push(c);
                                }
                            }
                        }
                    }
                    // Erasure accounting: marked chips cost half the
                    // budget of unknown errors (e + 2v <= 2t).
                    let unknown = chips
                        .iter()
                        .filter(|c| !self.marked_chips.contains(c))
                        .count();
                    let budget_used = self.marked_chips.len() + 2 * unknown;
                    let outcome = if chips.is_empty() {
                        CorrectionOutcome::Clean
                    } else if budget_used <= 2 * ss.correctable_chips {
                        CorrectionOutcome::Corrected {
                            symbols: chips.len(),
                        }
                    } else {
                        CorrectionOutcome::Uncorrectable
                    };
                    worst = match (worst, outcome) {
                        (_, CorrectionOutcome::Uncorrectable)
                        | (CorrectionOutcome::Uncorrectable, _) => CorrectionOutcome::Uncorrectable,
                        (
                            CorrectionOutcome::Corrected { symbols: a },
                            CorrectionOutcome::Corrected { symbols: b },
                        ) => CorrectionOutcome::Corrected { symbols: a + b },
                        (CorrectionOutcome::Corrected { symbols }, _)
                        | (_, CorrectionOutcome::Corrected { symbols }) => {
                            CorrectionOutcome::Corrected { symbols }
                        }
                        _ => CorrectionOutcome::Clean,
                    };
                }
                ([0u8; 64], worst)
            }
        };
        self.note_read_outcome(addr, phys, outcome_and_line.1);
        outcome_and_line
    }

    fn note_read_outcome(&mut self, addr: LineAddr, phys: LineAddr, outcome: CorrectionOutcome) {
        match outcome {
            CorrectionOutcome::Corrected { symbols } => {
                self.stats.corrected_reads += 1;
                self.obs.metrics.inc("dev.corrected_reads", 1);
                self.obs
                    .metrics
                    .observe("dev.corrected_symbols", symbols as u64);
            }
            CorrectionOutcome::Uncorrectable => {
                self.stats.uncorrectable_reads += 1;
                self.obs.trace.emit_with("dev", "ue", || {
                    obs_fields![("addr", addr.index()), ("phys", phys.index())]
                });
                self.obs.metrics.inc("dev.ue_reads", 1);
            }
            CorrectionOutcome::Clean => {}
        }
    }

    /// Scrubs one line: read, and if the content is usable, rewrite it so
    /// transient faults are cleansed. Returns the read outcome.
    pub fn scrub_line(&mut self, addr: LineAddr) -> CorrectionOutcome {
        let (line, outcome) = self.read_line(addr);
        if outcome.is_usable() {
            self.write_line(addr, &line);
        }
        outcome
    }

    /// Patrol-scrubs a line range `[start, end)` (the demand/patrol
    /// scrubber real memory controllers run in the background): every
    /// correctable line is rewritten clean, uncorrectable ones are
    /// counted for the RAS log.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the geometry.
    pub fn scrub_region(&mut self, start: LineAddr, end: LineAddr) -> ScrubReport {
        assert!(
            end.index() <= self.geometry.total_lines(),
            "scrub range beyond capacity"
        );
        let mut report = ScrubReport::default();
        for idx in start.index()..end.index() {
            report.scanned += 1;
            match self.scrub_line(LineAddr::new(idx)) {
                CorrectionOutcome::Clean => {}
                CorrectionOutcome::Corrected { .. } => report.corrected += 1,
                CorrectionOutcome::Uncorrectable => report.uncorrectable += 1,
            }
        }
        report
    }
}

/// Outcome of a patrol-scrub pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Lines scanned.
    pub scanned: u64,
    /// Lines whose errors were corrected and cleansed.
    pub corrected: u64,
    /// Lines with uncorrectable errors (left untouched, reported).
    pub uncorrectable: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultFootprint;

    fn dimm() -> NvmDimm {
        NvmDimm::chipkill(DimmGeometry::tiny())
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut d = dimm();
        let (line, outcome) = d.read_line(LineAddr::new(0));
        assert_eq!(line, [0u8; 64]);
        assert_eq!(outcome, CorrectionOutcome::Clean);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = dimm();
        let data = [0x3cu8; 64];
        d.write_line(LineAddr::new(5), &data);
        let (line, outcome) = d.read_line(LineAddr::new(5));
        assert_eq!(line, data);
        assert_eq!(outcome, CorrectionOutcome::Clean);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn single_chip_fault_is_corrected() {
        let mut d = dimm();
        let data = [0x77u8; 64];
        d.write_line(LineAddr::new(3), &data);
        d.inject_fault(FaultRecord::on_chip(
            d.geometry(),
            4,
            FaultFootprint::WholeChip,
            FaultKind::Permanent,
        ));
        let (line, outcome) = d.read_line(LineAddr::new(3));
        assert_eq!(line, data);
        assert!(matches!(outcome, CorrectionOutcome::Corrected { .. }));
        assert_eq!(d.stats().corrected_reads, 1);
    }

    #[test]
    fn two_chip_fault_is_uncorrectable() {
        let mut d = dimm();
        d.write_line(LineAddr::new(3), &[1u8; 64]);
        for chip in [2, 9] {
            d.inject_fault(FaultRecord::on_chip(
                d.geometry(),
                chip,
                FaultFootprint::WholeChip,
                FaultKind::Permanent,
            ));
        }
        let (_, outcome) = d.read_line(LineAddr::new(3));
        assert_eq!(outcome, CorrectionOutcome::Uncorrectable);
        assert_eq!(d.stats().uncorrectable_reads, 1);
    }

    #[test]
    fn transient_fault_cleared_by_rewrite() {
        let mut d = dimm();
        d.write_line(LineAddr::new(7), &[9u8; 64]);
        d.inject_fault(FaultRecord::on_chip(
            d.geometry(),
            0,
            FaultFootprint::WholeChip,
            FaultKind::Transient,
        ));
        let (_, outcome) = d.read_line(LineAddr::new(7));
        assert!(matches!(outcome, CorrectionOutcome::Corrected { .. }));
        // Rewriting replaces the cell contents: transient corruption gone.
        d.write_line(LineAddr::new(7), &[9u8; 64]);
        let (_, outcome) = d.read_line(LineAddr::new(7));
        assert_eq!(outcome, CorrectionOutcome::Clean);
    }

    #[test]
    fn permanent_fault_survives_rewrite() {
        let mut d = dimm();
        d.write_line(LineAddr::new(7), &[9u8; 64]);
        d.inject_fault(FaultRecord::on_chip(
            d.geometry(),
            0,
            FaultFootprint::WholeChip,
            FaultKind::Permanent,
        ));
        d.write_line(LineAddr::new(7), &[9u8; 64]);
        let (_, outcome) = d.read_line(LineAddr::new(7));
        assert!(matches!(outcome, CorrectionOutcome::Corrected { .. }));
    }

    #[test]
    fn fault_scoped_to_row_spares_other_rows() {
        let mut d = dimm();
        let g = *d.geometry();
        let loc0 = g.locate(LineAddr::new(0));
        d.write_line(LineAddr::new(0), &[1u8; 64]);
        // A line in a different row of the same bank.
        let other = g.line_at(crate::geometry::LineLocation {
            bank: loc0.bank,
            row: loc0.row + 1,
            col: loc0.col,
        });
        d.write_line(other, &[2u8; 64]);
        d.inject_fault(FaultRecord::on_chip(
            &g,
            1,
            FaultFootprint::SingleRow {
                bank: loc0.bank,
                row: loc0.row,
            },
            FaultKind::Permanent,
        ));
        let (_, o0) = d.read_line(LineAddr::new(0));
        let (_, o1) = d.read_line(other);
        assert!(matches!(o0, CorrectionOutcome::Corrected { .. }));
        assert_eq!(o1, CorrectionOutcome::Clean);
    }

    #[test]
    fn scrub_cleans_transients() {
        let mut d = dimm();
        d.write_line(LineAddr::new(1), &[5u8; 64]);
        d.inject_fault(FaultRecord::on_chip(
            d.geometry(),
            3,
            FaultFootprint::WholeChip,
            FaultKind::Transient,
        ));
        assert!(matches!(
            d.scrub_line(LineAddr::new(1)),
            CorrectionOutcome::Corrected { .. }
        ));
        assert_eq!(d.scrub_line(LineAddr::new(1)), CorrectionOutcome::Clean);
    }

    #[test]
    fn symbolic_mode_matches_chipkill_semantics() {
        let g = DimmGeometry::tiny();
        let mut d = NvmDimm::symbolic(g, 1);
        d.write_line(LineAddr::new(0), &[0u8; 64]);
        let (_, o) = d.read_line(LineAddr::new(0));
        assert_eq!(o, CorrectionOutcome::Clean);
        d.inject_fault(FaultRecord::on_chip(
            &g,
            5,
            FaultFootprint::WholeChip,
            FaultKind::Permanent,
        ));
        let (_, o) = d.read_line(LineAddr::new(0));
        assert!(matches!(o, CorrectionOutcome::Corrected { .. }));
        d.inject_fault(FaultRecord::on_chip(
            &g,
            6,
            FaultFootprint::WholeChip,
            FaultKind::Permanent,
        ));
        let (_, o) = d.read_line(LineAddr::new(0));
        assert_eq!(o, CorrectionOutcome::Uncorrectable);
    }

    #[test]
    fn rank_fault_defeats_chipkill() {
        let mut d = dimm();
        d.write_line(LineAddr::new(2), &[4u8; 64]);
        let rank_fault = FaultRecord::on_rank(
            d.geometry(),
            0,
            FaultFootprint::WholeChip,
            FaultKind::Permanent,
        );
        d.inject_fault(rank_fault);
        let (_, outcome) = d.read_line(LineAddr::new(2));
        assert_eq!(outcome, CorrectionOutcome::Uncorrectable);
    }

    #[test]
    fn sixteen_gib_device_tables_stay_sparse() {
        // A 2^29-line device, room for the 16 GiB Timing system, whose
        // shadow and clone regions sit far above its 2^28 data lines. Two
        // far-apart writes must cost two pages of epochs and two of wear
        // counts.
        let g = DimmGeometry::new(18, 9, 2, 16, 32768, 1024);
        let mut d = NvmDimm::symbolic(g, 1);
        for line in [0, 300_000_000] {
            d.write_line(LineAddr::new(line), &[0u8; 64]);
        }
        let Storage::Symbolic(ss) = &d.storage else {
            unreachable!("symbolic device")
        };
        assert!(ss.epochs.allocated_pages() <= 2);
        assert!(d.wear.allocated_pages() <= 2);
        assert_eq!(d.wear().writes_to(LineAddr::new(300_000_000)), 1);
    }

    #[test]
    fn symbolic_transient_outcomes_match_an_ordered_map_model() {
        // A model of the symbolic device with start-gap leveling on: its
        // own leveler, write epochs in a BTreeMap keyed by physical line,
        // and the transient-liveness and chip-count rules. Random writes,
        // transient whole-chip and single-bank faults and reads must give
        // the device's outcomes, wear counts and hottest line.
        use soteria_rt::prop::{check, vec, Config};
        let g = DimmGeometry::tiny();
        check(
            "symbolic_transient_outcomes_match_an_ordered_map_model",
            &Config::with_cases(48),
            &(1u64..6, vec((0u8..12, 0u64..256, 0u32..18), 1..240usize)),
            |(interval, ops)| {
                let mut d = NvmDimm::symbolic(g, 1);
                d.enable_wear_leveling(*interval);
                let mut leveler = StartGapLeveler::new(g.total_lines(), *interval);
                let mut epochs: BTreeMap<u64, u64> = BTreeMap::new();
                let mut wear: BTreeMap<u64, u64> = BTreeMap::new();
                let mut faults: Vec<(u32, Option<u32>, u64)> = Vec::new();
                let mut epoch = 0u64;
                let bank_of = |phys: u64| {
                    if phys == g.total_lines() {
                        0 // the start-gap spare borrows bank 0
                    } else {
                        g.locate(LineAddr::new(phys)).bank
                    }
                };
                for &(op, line, chip) in ops {
                    match op {
                        0..=5 => {
                            d.write_line(LineAddr::new(line), &[0u8; 64]);
                            if let Some((from, to)) = leveler.record_write() {
                                match epochs.remove(&from) {
                                    Some(e) => epochs.insert(to, e),
                                    None => epochs.remove(&to),
                                };
                            }
                            epoch += 1;
                            let phys = leveler.translate(line);
                            epochs.insert(phys, epoch);
                            *wear.entry(phys).or_default() += 1;
                        }
                        6 | 7 => {
                            let bank = (op == 7).then_some(chip % g.banks());
                            let footprint = match bank {
                                Some(bank) => FaultFootprint::SingleBank { bank },
                                None => FaultFootprint::WholeChip,
                            };
                            d.inject_fault(FaultRecord::on_chip(
                                &g,
                                chip,
                                footprint,
                                FaultKind::Transient,
                            ));
                            faults.push((chip, bank, epoch));
                        }
                        _ => {
                            let outcome = d.read_line(LineAddr::new(line)).1;
                            let phys = leveler.translate(line);
                            let line_epoch = epochs.get(&phys).copied().unwrap_or(0);
                            let mut chips: Vec<u32> = faults
                                .iter()
                                .filter(|&&(_, bank, onset)| {
                                    line_epoch <= onset && bank.is_none_or(|b| b == bank_of(phys))
                                })
                                .map(|&(c, _, _)| c)
                                .collect();
                            chips.sort_unstable();
                            chips.dedup();
                            let want = match chips.len() {
                                0 => CorrectionOutcome::Clean,
                                1 => CorrectionOutcome::Corrected { symbols: 4 },
                                _ => CorrectionOutcome::Uncorrectable,
                            };
                            soteria_rt::prop_assert_eq!(outcome, want, "line {}", line);
                        }
                    }
                }
                for (&phys, &n) in &wear {
                    soteria_rt::prop_assert_eq!(d.wear().writes_to(LineAddr::new(phys)), n);
                }
                let hottest =
                    wear.iter()
                        .fold(None, |best: Option<(u64, u64)>, (&a, &n)| match best {
                            Some((_, m)) if m >= n => best,
                            _ => Some((a, n)),
                        });
                soteria_rt::prop_assert_eq!(
                    d.wear().hottest(),
                    hottest.map(|(a, n)| (LineAddr::new(a), n))
                );
                soteria_rt::prop_assert_eq!(d.wear().total_writes(), wear.values().sum::<u64>());
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn write_bounds_checked() {
        let mut d = dimm();
        let max = d.geometry().total_lines();
        d.write_line(LineAddr::new(max), &[0u8; 64]);
    }
}
