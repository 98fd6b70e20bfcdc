//! Crash recovery: Anubis shadow-table restore + Osiris counter recovery,
//! hardened by Soteria's duplicated shadow entries and metadata clones.
//!
//! After a power loss the NVM holds: all data/MAC/shadow writes that
//! reached the WPQ (ADR), the *stale* memory copies of metadata blocks
//! that were dirty in the volatile cache, and the shadow table describing
//! exactly which blocks those were. Recovery proceeds **top-down**:
//!
//! 1. rebuild the shadow BMT from the region and compare with the
//!    persisted root (replay detection),
//! 2. for every shadow entry (trying both duplicated copies if they
//!    disagree): reconstruct the block from its stale memory copy — ToC
//!    counters get their 16-bit LSBs patched forward; leaf counter blocks
//!    go through **Osiris trials** (try up to `osiris_limit` increments of
//!    each minor counter against the line's data MAC),
//! 3. verify the reconstruction against the entry's MAC, refresh the
//!    block's tree MAC, and write it (plus its clones) back.
//!
//! A block whose memory copy is uncorrectable consults its clones
//! (Fig. 9); only if every copy fails is the subtree reported
//! unverifiable — the quantity UDR measures.

use soteria_crypto::ctr::CounterModeCipher;
use soteria_crypto::mac::MacEngine;
use soteria_ecc::CorrectionOutcome;
use soteria_nvm::device::NvmDimm;
use soteria_nvm::timing::NvmTiming;
use soteria_rt::obs::Obs;
use soteria_rt::obs_fields;

use crate::config::{Fidelity, SecureMemoryConfig};
use crate::controller::SecureMemoryController;
use crate::counter::{CounterBlock, MINOR_LIMIT};
use crate::layout::{MemoryLayout, MetaId, COUNTERS_PER_BLOCK};
use crate::shadow::{decode_entry, ShadowRecord, ShadowTree};
use crate::toc::TocNode;
use crate::DataAddr;

/// The persistent state surviving a crash: NVM contents plus the
/// controller's persistent register file (ToC root, shadow root).
pub struct CrashImage {
    config: SecureMemoryConfig,
    device: NvmDimm,
    root: TocNode,
    shadow_root: [u8; 32],
    /// The crashed controller's observability handle, carried across the
    /// power loss so recovery events (`"rec"` domain) extend the same
    /// trace. Trace state is volatile in real hardware; keeping it here
    /// is a debugging convenience, not an architectural claim.
    obs: Obs,
    /// WPQ event journal (empty unless the crashed controller had
    /// `enable_wpq_journal` on) — replayable against the pure queue
    /// model in `soteria_rt::crashck`.
    wpq_journal: Vec<soteria_rt::crashck::WpqEventRecord>,
}

impl std::fmt::Debug for CrashImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashImage")
            .field("capacity_bytes", &self.config.capacity_bytes())
            .finish_non_exhaustive()
    }
}

impl CrashImage {
    pub(crate) fn new(
        config: SecureMemoryConfig,
        device: NvmDimm,
        root: TocNode,
        shadow_root: [u8; 32],
    ) -> Self {
        Self {
            config,
            device,
            root,
            shadow_root,
            obs: Obs::disabled(),
            wpq_journal: Vec::new(),
        }
    }

    pub(crate) fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    pub(crate) fn with_wpq_journal(
        mut self,
        journal: Vec<soteria_rt::crashck::WpqEventRecord>,
    ) -> Self {
        self.wpq_journal = journal;
        self
    }

    /// The WPQ event journal recorded up to the crash (including the ADR
    /// flush), for replay against `soteria_rt::crashck::replay_journal`.
    /// Empty unless the crashed controller enabled journaling.
    pub fn wpq_journal(&self) -> &[soteria_rt::crashck::WpqEventRecord] {
        &self.wpq_journal
    }

    /// The observability handle carried from the crashed controller.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The powered-off device — inject faults here to model errors that
    /// strike while the system is down (e.g. resistance drift during a
    /// long outage, §2.7).
    pub fn device_mut(&mut self) -> &mut NvmDimm {
        &mut self.device
    }

    /// The configuration the crashed system ran.
    pub fn config(&self) -> &SecureMemoryConfig {
        &self.config
    }
}

/// What recovery accomplished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// The rebuilt shadow-tree root matched the persisted one.
    pub shadow_root_intact: bool,
    /// Shadow entries examined.
    pub entries_seen: u64,
    /// Metadata blocks successfully reconstructed and re-persisted.
    pub blocks_restored: u64,
    /// Counters whose lost updates Osiris trials recovered (> 0 trials).
    pub counters_recovered: u64,
    /// Blocks recovered from a clone after the primary failed.
    pub clone_repairs: u64,
    /// Stale shadow entries skipped (their block was superseded by a
    /// later writeback and the memory copy verifies on its own — normal
    /// after cache-slot reuse).
    pub stale_entries: u64,
    /// Metadata blocks that could not be reconstructed, with the number
    /// of data lines each renders unverifiable.
    pub unverifiable: Vec<(MetaId, u64)>,
    /// NVM line reads issued during recovery.
    pub nvm_reads: u64,
    /// NVM line writes issued during recovery.
    pub nvm_writes: u64,
}

impl RecoveryReport {
    /// Total data lines rendered unverifiable.
    pub fn unverifiable_lines(&self) -> u64 {
        self.unverifiable.iter().map(|&(_, n)| n).sum()
    }

    /// `true` when every tracked block was restored.
    pub fn is_complete(&self) -> bool {
        self.unverifiable.is_empty()
    }

    /// Estimated recovery time with serialized PCM accesses
    /// ([`NvmTiming::serialized_ns`] at the Table 3 latencies) — the
    /// metric the Anubis-vs-Osiris comparison of §2.6 is about.
    pub fn estimated_duration_ns(&self) -> u64 {
        NvmTiming::table3_pcm().serialized_ns(self.nvm_reads, self.nvm_writes)
    }
}

fn restore_lsb16(current: u64, lsb: u16) -> u64 {
    let restored = (current & !0xffff) | lsb as u64;
    if restored < current {
        restored + 0x1_0000
    } else {
        restored
    }
}

struct Recoverer<'a> {
    layout: &'a MemoryLayout,
    config: &'a SecureMemoryConfig,
    device: &'a mut NvmDimm,
    mac: MacEngine,
    cipher: CounterModeCipher,
    root: &'a TocNode,
    report: RecoveryReport,
}

impl Recoverer<'_> {
    /// Reads a metadata block's candidate contents: the primary copy plus
    /// every clone whose ECC outcome is usable. Returns (bytes, was_clone).
    fn candidate_sources(&mut self, meta: MetaId) -> Vec<([u8; 64], bool)> {
        let mut out = Vec::new();
        let (bytes, outcome) = self.device.read_line(self.layout.meta_addr(meta));
        if outcome.is_usable() {
            out.push((bytes, false));
        }
        let extra = self
            .config
            .cloning()
            .extra_clones(meta.level, self.layout.levels());
        for c in 1..=extra {
            let (cb, co) = self.device.read_line(self.layout.clone_addr(meta, c));
            if co.is_usable() {
                out.push((cb, true));
            }
        }
        out
    }

    /// The parent counter currently protecting `meta` (parents were
    /// restored first — top-down order).
    fn parent_counter(&mut self, meta: MetaId) -> Option<u64> {
        match self.layout.parent_of(meta) {
            None => Some(self.root.counter(self.layout.child_slot(meta))),
            Some(p) => {
                let sources = self.candidate_sources(p);
                let (bytes, _) = sources.first()?;
                Some(TocNode::from_bytes(bytes).counter(self.layout.child_slot(meta)))
            }
        }
    }

    fn shadow_mac_of_node(&self, meta: MetaId, node: &TocNode) -> u64 {
        let mut payload = [0u8; 64];
        for (i, c) in node.counters().iter().enumerate() {
            payload[8 * i..8 * i + 8].copy_from_slice(&c.to_le_bytes());
        }
        self.mac
            .shadow_entry_mac(self.layout.meta_addr(meta).byte_addr(), &payload)
    }

    /// Attempts to reconstruct a ToC node from one byte source.
    fn reconstruct_node(&mut self, rec: &ShadowRecord, bytes: &[u8; 64]) -> Option<[u8; 64]> {
        let meta = rec.meta;
        let mem = TocNode::from_bytes(bytes);
        let mut restored = mem;
        for i in 0..8 {
            restored.set_counter(i, restore_lsb16(mem.counter(i), rec.lsbs[i]));
        }
        if self.shadow_mac_of_node(meta, &restored) != rec.mac {
            return None;
        }
        let parent_counter = self.parent_counter(meta)?;
        restored.set_mac(self.mac.tree_node_mac(
            self.layout.meta_addr(meta).byte_addr(),
            restored.counters(),
            parent_counter,
        ));
        Some(restored.to_bytes())
    }

    /// Attempts to reconstruct a leaf counter block via Osiris trials.
    fn reconstruct_leaf(&mut self, rec: &ShadowRecord, bytes: &[u8; 64]) -> Option<[u8; 64]> {
        self.reconstruct_leaf_inner(rec.meta, bytes, Some(rec))
    }

    /// Osiris trials without a shadow record (exhaustive-scan recovery).
    fn reconstruct_leaf_unchecked(&mut self, meta: MetaId, bytes: &[u8; 64]) -> Option<[u8; 64]> {
        self.reconstruct_leaf_inner(meta, bytes, None)
    }

    fn reconstruct_leaf_inner(
        &mut self,
        meta: MetaId,
        bytes: &[u8; 64],
        rec: Option<&ShadowRecord>,
    ) -> Option<[u8; 64]> {
        let mem = CounterBlock::from_bytes(bytes);
        let major = match rec {
            Some(r) => restore_lsb16(mem.major(), r.lsbs[0]),
            None => mem.major(), // no shadow: trust the stored major
        };
        let major_bumped = major != mem.major();
        let mut restored = mem;
        // Rebuild through serialization to set the major cleanly.
        let mut raw = restored.to_bytes();
        raw[..8].copy_from_slice(&major.to_le_bytes());
        restored = CounterBlock::from_bytes(&raw);
        let mut recovered_here = 0u64;
        for slot in 0..COUNTERS_PER_BLOCK as usize {
            let base_minor = if major_bumped { 0 } else { mem.minor(slot) };
            let daddr = DataAddr::new(meta.index * COUNTERS_PER_BLOCK + slot as u64);
            let (mac_line, off) = self.layout.data_mac_slot(daddr);
            let (mac_bytes, mo) = self.device.read_line(mac_line);
            if !mo.is_usable() {
                continue; // the data line is lost anyway (L_error)
            }
            let stored = soteria_rt::bytes::u64_le(&mac_bytes[off..off + 8]);
            if stored == 0 {
                set_minor(&mut restored, slot, base_minor);
                continue; // line never written
            }
            let (cipher_bytes, co) = self.device.read_line(self.layout.data_line_addr(daddr));
            if !co.is_usable() {
                continue;
            }
            let mut found = false;
            for t in 0..=self.config.osiris_limit() as u64 {
                let minor = base_minor as u64 + t;
                if minor >= MINOR_LIMIT as u64 {
                    break;
                }
                let counter = major * MINOR_LIMIT as u64 + minor;
                let tag = self
                    .mac
                    .data_mac(daddr.index() * 64, &cipher_bytes, counter)
                    .max(1);
                if tag == stored {
                    set_minor(&mut restored, slot, minor as u8);
                    if t > 0 {
                        recovered_here += 1;
                    }
                    found = true;
                    break;
                }
            }
            if !found {
                return None; // trials exhausted: wrong source or tampering
            }
        }
        let out = restored.to_bytes();
        if let Some(r) = rec {
            // Shadow-guided recovery confirms the reconstruction against
            // the entry MAC; the exhaustive scan relies on the per-line
            // trials alone (Osiris's original design).
            if self
                .mac
                .shadow_entry_mac(self.layout.meta_addr(meta).byte_addr(), &out)
                != r.mac
            {
                return None;
            }
        }
        self.report.counters_recovered += recovered_here;
        // Refresh the leaf MAC under the (unchanged) parent counter.
        let parent_counter = self.parent_counter(meta)?;
        let tag = self.mac.counter_block_mac(
            self.layout.meta_addr(meta).byte_addr(),
            &out,
            parent_counter,
        );
        let (line, off) = self.layout.leaf_mac_slot(meta.index);
        let (mut mac_bytes, mo) = self.device.read_line(line);
        if !mo.is_usable() {
            return None;
        }
        mac_bytes[off..off + 8].copy_from_slice(&tag.to_le_bytes());
        self.device.write_line(line, &mac_bytes);
        Some(out)
    }

    /// Does the memory copy of `meta` verify under its parent as-is? If
    /// so, a shadow entry that fails reconstruction is simply *stale*
    /// (written before the block's last writeback and its cache slot
    /// reused since) — the verification chain, not the shadow entry, is
    /// the authority.
    fn memory_copy_is_valid(&mut self, meta: MetaId) -> bool {
        let sources = self.candidate_sources(meta);
        let Some(parent_counter) = self.parent_counter(meta) else {
            return false;
        };
        let addr = self.layout.meta_addr(meta).byte_addr();
        for (bytes, _) in &sources {
            if meta.level >= 2 {
                let node = TocNode::from_bytes(bytes);
                let fresh = node.mac() == 0 && node.counters().iter().all(|&c| c == 0);
                if fresh
                    || self
                        .mac
                        .tree_node_mac(addr, node.counters(), parent_counter)
                        == node.mac()
                {
                    return true;
                }
            } else {
                let (line, off) = self.layout.leaf_mac_slot(meta.index);
                let (mac_bytes, mo) = self.device.read_line(line);
                if !mo.is_usable() {
                    continue;
                }
                let stored = soteria_rt::bytes::u64_le(&mac_bytes[off..off + 8]);
                if stored == 0 && bytes.iter().all(|&b| b == 0) {
                    return true;
                }
                if self.mac.counter_block_mac(addr, bytes, parent_counter) == stored {
                    return true;
                }
            }
        }
        false
    }

    fn process_record(&mut self, rec: &ShadowRecord) -> bool {
        let meta = rec.meta;
        // Guard against garbage decoded from corrupted entries.
        if meta.level == 0
            || meta.level > self.layout.levels()
            || meta.index >= self.layout.level_count(meta.level)
        {
            return false;
        }
        let sources = self.candidate_sources(meta);
        for (bytes, from_clone) in &sources {
            let restored = if meta.level == 1 {
                self.reconstruct_leaf(rec, bytes)
            } else {
                self.reconstruct_node(rec, bytes)
            };
            if let Some(out) = restored {
                // Purify: primary and every clone get the restored value.
                self.device.write_line(self.layout.meta_addr(meta), &out);
                let extra = self
                    .config
                    .cloning()
                    .extra_clones(meta.level, self.layout.levels());
                for c in 1..=extra {
                    self.device
                        .write_line(self.layout.clone_addr(meta, c), &out);
                }
                self.report.blocks_restored += 1;
                if *from_clone {
                    self.report.clone_repairs += 1;
                }
                return true;
            }
        }
        false
    }
}

fn set_minor(block: &mut CounterBlock, slot: usize, minor: u8) {
    // CounterBlock has no direct minor setter (its invariants are managed
    // by bump); recovery reconstructs through serialization instead.
    let mut probe = *block;
    let mut raw = probe.to_bytes();
    // Clear and re-set the 7-bit field.
    let bitpos = slot * 7;
    let byte = 8 + bitpos / 8;
    let shift = bitpos % 8;
    let mask: u16 = 0x7f << shift;
    let mut v = u16::from_le_bytes([raw[byte], *raw.get(byte + 1).unwrap_or(&0)]);
    v = (v & !mask) | ((minor as u16) << shift);
    raw[byte] = v as u8;
    if byte + 1 < 64 {
        raw[byte + 1] = (v >> 8) as u8;
    }
    probe = CounterBlock::from_bytes(&raw);
    *block = probe;
}

/// Recovers a crashed secure memory, returning a fresh controller and a
/// report of what was restored and what was lost.
///
/// # Panics
///
/// Panics if the crashed system ran in [`Fidelity::Timing`] (recovery is a
/// functional-mode feature).
pub fn recover(mut image: CrashImage) -> (SecureMemoryController, RecoveryReport) {
    assert_eq!(
        image.config.fidelity(),
        Fidelity::Functional,
        "recovery requires Functional fidelity"
    );
    let layout = image.config.build_layout();
    let mac = MacEngine::new(image.config.mac_key());
    let cipher = CounterModeCipher::new(image.config.encryption_key());
    let stats_before = image.device.stats();

    // Step 1: read the shadow region and check its integrity.
    let slots = layout.shadow_slots();
    let mut region = Vec::with_capacity(slots as usize);
    let mut any_shadow_ue = false;
    for slot in 0..slots {
        let (bytes, outcome) = image.device.read_line(layout.shadow_slot_addr(slot));
        if let CorrectionOutcome::Uncorrectable = outcome {
            any_shadow_ue = true;
        }
        region.push(bytes);
    }
    let mut rebuilt = ShadowTree::from_region(region.iter());
    let shadow_root_intact = !any_shadow_ue && rebuilt.root() == image.shadow_root;
    let mut obs = std::mem::take(&mut image.obs);
    obs.trace.emit_with("rec", "start", || {
        obs_fields![
            ("mode", "anubis"),
            ("shadow_root_intact", shadow_root_intact),
            ("shadow_slots", slots),
        ]
    });

    // Step 2: decode entries, order parents before children.
    let mut records: Vec<Vec<ShadowRecord>> = region
        .iter()
        .map(|bytes| decode_entry(bytes, image.config.shadow_mode()))
        .filter(|c| !c.is_empty())
        .collect();
    records.sort_by_key(|cands| std::cmp::Reverse(cands[0].meta.level));

    let root = image.root;
    let mut rec = Recoverer {
        layout: &layout,
        config: &image.config,
        device: &mut image.device,
        mac,
        cipher,
        root: &root,
        report: RecoveryReport {
            shadow_root_intact,
            ..RecoveryReport::default()
        },
    };
    let _ = &rec.cipher; // decryption not needed: MAC trials suffice

    for candidates in &records {
        rec.report.entries_seen += 1;
        let mut done = false;
        for candidate in candidates {
            if rec.process_record(candidate) {
                done = true;
                break;
            }
        }
        let meta = candidates[0].meta;
        if done {
            obs.trace.emit_with("rec", "restored", || {
                obs_fields![("level", meta.level), ("index", meta.index)]
            });
        } else {
            let in_bounds = meta.level >= 1
                && meta.level <= layout.levels()
                && meta.index < layout.level_count(meta.level);
            if in_bounds && rec.memory_copy_is_valid(meta) {
                // A superseded entry from a reused cache slot: the block's
                // current state is already durable and verifiable.
                rec.report.stale_entries += 1;
                obs.trace.emit_with("rec", "stale_entry", || {
                    obs_fields![("level", meta.level), ("index", meta.index)]
                });
                continue;
            }
            let covered = if in_bounds {
                layout.covered_data_lines(meta)
            } else {
                0
            };
            obs.trace.emit_with("rec", "unverifiable", || {
                obs_fields![
                    ("level", meta.level),
                    ("index", meta.index),
                    ("covered_lines", covered),
                ]
            });
            rec.report.unverifiable.push((meta, covered));
        }
    }
    let mut report = rec.report;
    let stats_after = image.device.stats();
    report.nvm_reads = stats_after.reads - stats_before.reads;
    report.nvm_writes = stats_after.writes - stats_before.writes;
    emit_rec_done(&mut obs, &report);

    // Step 3: hand back a live controller over the recovered device.
    let mut controller = SecureMemoryController::with_device(image.config, image.device);
    controller.root = root;
    *controller.obs_mut() = obs;
    // Adopt the (now authoritative) shadow region state.
    if let Some(tree) = &mut controller.shadow_tree {
        for (slot, bytes) in region.iter().enumerate() {
            tree.update(slot as u64, bytes);
        }
        controller.shadow_root = tree.root();
    }
    (controller, report)
}

/// Emits the recovery-summary event shared by both recovery paths.
fn emit_rec_done(obs: &mut Obs, report: &RecoveryReport) {
    let unverifiable_lines = report.unverifiable_lines();
    let (restored, recovered, clones, stale, reads, writes) = (
        report.blocks_restored,
        report.counters_recovered,
        report.clone_repairs,
        report.stale_entries,
        report.nvm_reads,
        report.nvm_writes,
    );
    obs.trace.emit_with("rec", "done", || {
        obs_fields![
            ("blocks_restored", restored),
            ("counters_recovered", recovered),
            ("clone_repairs", clones),
            ("stale_entries", stale),
            ("unverifiable_lines", unverifiable_lines),
            ("nvm_reads", reads),
            ("nvm_writes", writes),
        ]
    });
    obs.metrics.inc("rec.blocks_restored", restored);
    obs.metrics.inc("rec.unverifiable_lines", unverifiable_lines);
}

/// Recovers a crashed secure memory **without** the Anubis shadow table:
/// every counter block in the system goes through Osiris trials against
/// its data MACs, and every tree node is verified in place — the
/// Osiris-style whole-memory scan whose cost motivated Anubis (§2.6,
/// "needs to check every encryption and re-calculates all MAC values").
///
/// ToC intermediate nodes cannot be rebuilt without shadow LSBs: any
/// node whose lost in-cache updates mattered is reported unverifiable.
/// Use this for the recovery-time ablation, not as the product path.
///
/// # Panics
///
/// Panics if the crashed system ran in [`Fidelity::Timing`].
pub fn recover_exhaustive(mut image: CrashImage) -> (SecureMemoryController, RecoveryReport) {
    assert_eq!(
        image.config.fidelity(),
        Fidelity::Functional,
        "recovery requires Functional fidelity"
    );
    let layout = image.config.build_layout();
    let mac = MacEngine::new(image.config.mac_key());
    let cipher = CounterModeCipher::new(image.config.encryption_key());
    let stats_before = image.device.stats();
    let root = image.root;
    let mut obs = std::mem::take(&mut image.obs);
    obs.trace
        .emit_with("rec", "start", || obs_fields![("mode", "exhaustive")]);
    let mut rec = Recoverer {
        layout: &layout,
        config: &image.config,
        device: &mut image.device,
        mac,
        cipher,
        root: &root,
        report: RecoveryReport {
            shadow_root_intact: true,
            ..RecoveryReport::default()
        },
    };
    // Scan every leaf: reconstruct minors by Osiris trials (no shadow
    // record available, so no entry-MAC confirmation — the trials
    // themselves are the sanity check, exactly Osiris's design).
    for index in 0..layout.level_count(1) {
        let meta = MetaId::new(1, index);
        rec.report.entries_seen += 1;
        let sources = rec.candidate_sources(meta);
        let mut done = false;
        for (bytes, from_clone) in &sources {
            if let Some(out) = rec.reconstruct_leaf_unchecked(meta, bytes) {
                rec.device.write_line(layout.meta_addr(meta), &out);
                let extra = rec.config.cloning().extra_clones(1, layout.levels());
                for c in 1..=extra {
                    rec.device.write_line(layout.clone_addr(meta, c), &out);
                }
                rec.report.blocks_restored += 1;
                if *from_clone {
                    rec.report.clone_repairs += 1;
                }
                done = true;
                break;
            }
        }
        if !done {
            rec.report
                .unverifiable
                .push((meta, layout.covered_data_lines(meta)));
        }
    }
    // Verify every tree node in place (top-down so parent counters are
    // trusted); unverifiable nodes cannot be rebuilt without the shadow.
    for level in (2..=layout.levels()).rev() {
        for index in 0..layout.level_count(level) {
            let meta = MetaId::new(level, index);
            rec.report.entries_seen += 1;
            let sources = rec.candidate_sources(meta);
            let Some(parent_counter) = rec.parent_counter(meta) else {
                rec.report
                    .unverifiable
                    .push((meta, layout.covered_data_lines(meta)));
                continue;
            };
            let addr = rec.layout.meta_addr(meta).byte_addr();
            let mut verified = false;
            for (bytes, _) in &sources {
                let node = TocNode::from_bytes(bytes);
                let fresh = node.mac() == 0 && node.counters().iter().all(|&c| c == 0);
                if fresh
                    || rec.mac.tree_node_mac(addr, node.counters(), parent_counter) == node.mac()
                {
                    verified = true;
                    break;
                }
            }
            if !verified {
                rec.report
                    .unverifiable
                    .push((meta, layout.covered_data_lines(meta)));
            }
        }
    }
    let mut report = rec.report;
    let stats_after = image.device.stats();
    report.nvm_reads = stats_after.reads - stats_before.reads;
    report.nvm_writes = stats_after.writes - stats_before.writes;
    emit_rec_done(&mut obs, &report);
    let mut controller = SecureMemoryController::with_device(image.config, image.device);
    controller.root = root;
    *controller.obs_mut() = obs;
    (controller, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_restore_no_change() {
        assert_eq!(restore_lsb16(0x1234, 0x1234), 0x1234);
    }

    #[test]
    fn lsb_restore_forward() {
        assert_eq!(restore_lsb16(0x1_0010, 0x0015), 0x1_0015);
    }

    #[test]
    fn lsb_restore_wraps() {
        // Memory says 0x1_fffe, shadow says LSB 0x0003: the counter
        // advanced past a 16-bit boundary.
        assert_eq!(restore_lsb16(0x1_fffe, 0x0003), 0x2_0003);
    }

    #[test]
    fn set_minor_roundtrip() {
        let mut b = CounterBlock::new();
        for slot in 0..64 {
            set_minor(&mut b, slot, (slot % 128) as u8);
        }
        for slot in 0..64 {
            assert_eq!(b.minor(slot), (slot % 128) as u8, "slot {slot}");
        }
    }

    #[test]
    fn report_accounting() {
        let mut r = RecoveryReport::default();
        assert!(r.is_complete());
        r.unverifiable.push((MetaId::new(2, 0), 512));
        r.unverifiable.push((MetaId::new(1, 3), 64));
        assert_eq!(r.unverifiable_lines(), 576);
        assert!(!r.is_complete());
    }
}
