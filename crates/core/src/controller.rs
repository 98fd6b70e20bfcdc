//! The secure memory controller: counter-mode encryption, ToC integrity
//! verification, lazy tree update, Anubis shadow tracking, Osiris update
//! limits and Soteria metadata cloning — the full datapath of Fig. 7.
//!
//! # Datapath summary
//!
//! **Write**: fetch the line's counter block (L1) through the metadata
//! cache (verifying the path to the on-chip root on misses), bump the
//! minor counter (overflow ⇒ page re-encryption; Osiris limit ⇒ early
//! writeback), persist an Anubis shadow entry, encrypt, write ciphertext
//! and data MAC. Up to three NVM writes per store — cipher, data MAC,
//! shadow log — exactly the §3.2.1 accounting.
//!
//! **Read**: fetch the counter block, read ciphertext + data MAC, verify,
//! decrypt.
//!
//! **Metadata eviction** (the lazy update): a dirty block leaving the
//! cache bumps its parent's counter (making the old MAC unreplayable),
//! gets its MAC recomputed under the new parent counter, and is written
//! back **together with its Soteria clones as one atomic WPQ group**.
//!
//! **Fault handling** (Fig. 9): an uncorrectable ECC error or MAC
//! mismatch on a metadata read triggers clone scanning; the first clone
//! that passes both ECC and MAC verification purifies every copy. Only
//! when all copies fail is the subtree declared unverifiable.

use soteria_crypto::ctr::CounterModeCipher;
use soteria_crypto::mac::MacEngine;
use soteria_ecc::CorrectionOutcome;
use soteria_nvm::device::NvmDimm;
use soteria_nvm::geometry::DimmGeometry;
use soteria_nvm::timing::{AccessKind, NvmTiming};
use soteria_nvm::wpq::{AcceptOutcome, PendingWrite, WritePendingQueue};
use soteria_nvm::LineAddr;
use soteria_rt::json::Json;
use soteria_rt::obs::Obs;
use soteria_rt::obs_fields;

use crate::config::{EccKind, Fidelity, SecureMemoryConfig};
use crate::counter::{CounterBlock, MINOR_LIMIT};
use crate::error::{MemoryError, MetadataClass};
use crate::layout::{MemoryLayout, MetaId, COUNTERS_PER_BLOCK};
use crate::mdcache::{CachedBlock, Evicted, MetadataCache};
use crate::shadow::{encode_entry, ShadowRecord, ShadowTree};
use crate::stats::{ControllerStats, WriteCategory};
use crate::toc::TocNode;
use crate::DataAddr;

/// Builds a DIMM geometry large enough for `total_lines` (Table 4 chip
/// organization, rows scaled to capacity).
pub(crate) fn geometry_for(total_lines: u64) -> DimmGeometry {
    let banks = 16u32;
    let cols = 1024u32;
    let rows = total_lines.div_ceil(banks as u64 * cols as u64).max(1) as u32;
    DimmGeometry::new(18, 9, 2, banks, rows, cols)
}

/// What a key rotation cost (§2.7 quantified).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyRotationReport {
    /// Data lines decrypted and re-encrypted.
    pub lines_reencrypted: u64,
    /// NVM reads issued by the rotation walk.
    pub nvm_reads: u64,
    /// NVM writes issued by the rotation walk.
    pub nvm_writes: u64,
}

impl KeyRotationReport {
    /// Serialized-PCM time estimate: [`NvmTiming::serialized_ns`] at the
    /// Table 3 latencies.
    pub fn estimated_duration_ns(&self) -> u64 {
        NvmTiming::table3_pcm().serialized_ns(self.nvm_reads, self.nvm_writes)
    }
}

/// A staged group of data writes committed atomically through the WPQ.
///
/// The atomic-and-committing storage contract: **any crash observes a
/// prefix of committed transactions, and never a torn transaction.**
/// Staging performs no durable work; [`Transaction::commit`] stages the
/// ciphertext lines, data-MAC lines, and counter-block shadow entries of
/// every write and accepts them into the ADR power-fail domain as one
/// [`WritePendingQueue::push_atomic`] group — the single commit point.
///
/// ```
/// # use soteria::{SecureMemoryConfig, SecureMemoryController, DataAddr};
/// # let config = SecureMemoryConfig::builder().capacity_bytes(1 << 20).build().unwrap();
/// # let mut memory = SecureMemoryController::new(config);
/// let mut tx = memory.transaction();
/// tx.write(DataAddr::new(1), &[0xaa; 64]);
/// tx.write(DataAddr::new(2), &[0xbb; 64]);
/// let receipt = tx.commit().unwrap();
/// assert_eq!(receipt.writes, 2);
/// ```
#[derive(Debug)]
pub struct Transaction<'a> {
    ctl: &'a mut SecureMemoryController,
    writes: Vec<(DataAddr, [u8; 64])>,
}

impl Transaction<'_> {
    /// Stages one line write. Later writes to the same line win. Nothing
    /// is persisted (or even validated) until [`Transaction::commit`].
    pub fn write(&mut self, addr: DataAddr, data: &[u8; 64]) -> &mut Self {
        self.writes.push((addr, *data));
        self
    }

    /// Number of writes staged so far.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// `true` when no writes are staged.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Commits every staged write as one atomic WPQ group.
    ///
    /// # Errors
    ///
    /// See [`SecureMemoryController::commit_writes`]. On error nothing
    /// of the transaction is durable or visible.
    pub fn commit(self) -> Result<CommitReceipt, MemoryError> {
        let writes = self.writes;
        self.ctl.commit_writes(&writes)
    }
}

/// What [`Transaction::commit`] (or [`SecureMemoryController::commit_writes`])
/// did at the WPQ level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Data writes in the committed transaction.
    pub writes: usize,
    /// Whether the group entered the ADR domain. `false` only when an
    /// armed crash fuse killed the WPQ first (the group was dropped
    /// whole — all-or-none even at the instant of death).
    pub accepted: bool,
    /// WPQ event-clock value of the group accept (the first crash point
    /// that observes this transaction). When `accepted` is false this is
    /// the clock value at which the dead queue dropped the group.
    pub accept_event: u64,
    /// Total lines in the atomic group (ciphertext + data-MAC + shadow).
    pub group_writes: usize,
}

/// Replaces-or-appends a staged line, keeping first-staged position and
/// category (a line is staged at most once per commit group).
fn stage_line(
    staged: &mut Vec<(LineAddr, [u8; 64], WriteCategory)>,
    addr: LineAddr,
    data: [u8; 64],
    category: WriteCategory,
) {
    match staged.iter_mut().find(|(a, _, _)| *a == addr) {
        Some((_, bytes, _)) => *bytes = data,
        None => staged.push((addr, data, category)),
    }
}

/// The secure NVM memory controller.
pub struct SecureMemoryController {
    config: SecureMemoryConfig,
    layout: MemoryLayout,
    device: NvmDimm,
    wpq: WritePendingQueue,
    cache: MetadataCache,
    cipher: Option<CounterModeCipher>,
    mac: Option<MacEngine>,
    /// On-chip ToC root: counters of the top-level nodes. Lives in the
    /// controller's persistent register file (survives power loss).
    pub(crate) root: TocNode,
    pub(crate) shadow_tree: Option<ShadowTree>,
    /// Persistent copy of the shadow-tree root.
    pub(crate) shadow_root: [u8; 32],
    stats: ControllerStats,
    trace: Vec<(LineAddr, AccessKind)>,
    obs: Obs,
    /// Commit groups since the last coalesced tree flush (volatile;
    /// only advanced under `TreeUpdate::Coalesced`).
    commits_since_flush: u64,
    /// Reusable commit-path buffers: taken at the top of `commit_writes` /
    /// `nvm_write_group` and returned (cleared, capacity kept) on the way
    /// out, so the steady-state write path allocates nothing per commit.
    scratch: CommitScratch,
}

/// Scratch vectors for the transaction commit path (see
/// [`SecureMemoryController::commit_writes`]); contents are dead between
/// commits, only the capacity is reused.
#[derive(Default)]
struct CommitScratch {
    pinned: Vec<LineAddr>,
    bumps: Vec<SlotBumps>,
    leaves: Vec<StagedLeaf>,
    staged: Vec<(LineAddr, [u8; 64], WriteCategory)>,
    shadow: Vec<(u64, [u8; 64])>,
    group: Vec<PendingWrite>,
}

/// One counter slot a transaction bumps: its leaf's index in the
/// transaction's leaf list, the slot, and how many times it bumps.
#[derive(Clone, Copy, Debug)]
struct SlotBumps {
    leaf: usize,
    slot: usize,
    bumps: u8,
}

/// A leaf counter block a transaction writes under: decoded while the
/// writes bump it, serialized once when the group is staged.
#[derive(Clone, Copy, Debug)]
struct StagedLeaf {
    meta: MetaId,
    block: CounterBlock,
    image: [u8; 64],
}

/// Plans a transaction's counter bumps into the (cleared) vectors: its
/// leaves in first-write order, not yet fetched, and how many times each
/// touched counter slot bumps.
fn plan_bumps(
    layout: &MemoryLayout,
    writes: &[(DataAddr, [u8; 64])],
    leaves: &mut Vec<StagedLeaf>,
    bumps: &mut Vec<SlotBumps>,
) {
    leaves.clear();
    bumps.clear();
    for &(addr, _) in writes {
        let meta = layout.counter_block_of(addr);
        let slot = layout.counter_slot_of(addr);
        let leaf = match leaves.iter().position(|l| l.meta == meta) {
            Some(i) => i,
            None => {
                leaves.push(StagedLeaf {
                    meta,
                    block: CounterBlock::new(),
                    image: [0; 64],
                });
                leaves.len() - 1
            }
        };
        match bumps.iter_mut().find(|b| b.leaf == leaf && b.slot == slot) {
            Some(b) => b.bumps = b.bumps.saturating_add(1),
            None => bumps.push(SlotBumps {
                leaf,
                slot,
                bumps: 1,
            }),
        }
    }
}

/// The bumps of the slot a transaction takes past the Osiris `limit`,
/// if any: the first such leaf's lowest such slot, as a scan of every
/// leaf's 64 slots finds it.
fn over_budget(bumps: &[SlotBumps], limit: u8) -> Option<u8> {
    bumps
        .iter()
        .filter(|b| b.bumps > limit)
        .min_by_key(|b| (b.leaf, b.slot))
        .map(|b| b.bumps)
}

/// Whether the planned bumps of leaf `leaf` take any slot of its cached
/// block past the Osiris `limit`.
fn bumps_exceed(blk: &CachedBlock, bumps: &[SlotBumps], leaf: usize, limit: u8) -> bool {
    bumps
        .iter()
        .any(|b| b.leaf == leaf && blk.slot_updates(b.slot).saturating_add(b.bumps) > limit)
}

impl std::fmt::Debug for SecureMemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureMemoryController")
            .field("capacity_bytes", &self.config.capacity_bytes())
            .field("cloning", self.config.cloning())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SecureMemoryController {
    /// Creates a controller (and its backing DIMM) from a configuration.
    pub fn new(config: SecureMemoryConfig) -> Self {
        let layout = config.build_layout();
        let geometry = geometry_for(layout.total_lines());
        let device = match config.fidelity() {
            Fidelity::Timing => NvmDimm::symbolic(geometry, 1),
            Fidelity::Functional => match config.ecc() {
                EccKind::Chipkill => NvmDimm::chipkill(geometry),
                EccKind::SecDed => NvmDimm::secded(geometry),
                EccKind::DoubleChipkill => NvmDimm::with_codec(
                    geometry,
                    Box::new(soteria_ecc::chipkill::ChipkillCodec::new(16, 2)),
                ),
            },
        };
        Self::with_device(config, device)
    }

    /// Creates a controller over an existing device (used by recovery).
    pub(crate) fn with_device(config: SecureMemoryConfig, device: NvmDimm) -> Self {
        let layout = config.build_layout();
        let functional = config.fidelity() == Fidelity::Functional;
        let cache = MetadataCache::new(config.cache_bytes(), config.cache_ways());
        let mut shadow_tree = functional.then(|| ShadowTree::new(layout.shadow_slots()));
        let shadow_root = shadow_tree.as_mut().map(|t| t.root()).unwrap_or_default();
        Self {
            wpq: WritePendingQueue::new(config.wpq_entries()),
            cache,
            cipher: functional.then(|| CounterModeCipher::new(config.encryption_key())),
            mac: functional.then(|| MacEngine::new(config.mac_key())),
            root: TocNode::new(),
            shadow_tree,
            shadow_root,
            stats: ControllerStats::default(),
            trace: Vec::new(),
            obs: Obs::disabled(),
            commits_since_flush: 0,
            scratch: CommitScratch::default(),
            layout,
            device,
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SecureMemoryConfig {
        &self.config
    }

    /// The memory layout in force.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Metadata-cache statistics.
    pub fn cache_stats(&self) -> crate::mdcache::CacheStats {
        self.cache.stats()
    }

    /// The backing device (e.g. to inspect wear).
    pub fn device(&self) -> &NvmDimm {
        &self.device
    }

    /// Mutable device access for fault injection.
    pub fn device_mut(&mut self) -> &mut NvmDimm {
        &mut self.device
    }

    /// NVM accesses issued by the most recent `read`/`write` call, for the
    /// timing simulator. Cleared at the start of each operation.
    pub fn last_trace(&self) -> &[(LineAddr, AccessKind)] {
        &self.trace
    }

    /// The controller's observability handle (trace domain `"ctl"`).
    /// Disabled by default; see [`Self::enable_obs`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the controller's observability handle.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Enables tracing and metrics on the controller **and** its backing
    /// device. Events carry only logical facts (addresses, levels,
    /// counters), so a trace of a deterministic run is byte-identical
    /// across replays.
    pub fn enable_obs(&mut self) {
        self.obs.enable();
        self.device.obs_mut().enable();
    }

    /// Exports the full trace as NDJSON: controller (`"ctl"`) events
    /// first, then device (`"dev"`) events. Each domain keeps its own
    /// monotonic sequence, so the concatenation validates with
    /// [`soteria_rt::obs::parse_ndjson`].
    pub fn export_trace_ndjson(&self) -> String {
        let mut out = self.obs.trace.export_ndjson();
        out.push_str(&self.device.obs().trace.export_ndjson());
        out
    }

    /// A deterministic metrics snapshot merging controller counters,
    /// metadata-cache statistics, WPQ statistics and device counters.
    pub fn metrics_snapshot(&self) -> Json {
        let mut merged = soteria_rt::obs::Metrics::enabled();
        merged.merge(&self.obs.metrics);
        merged.merge(&self.device.obs().metrics);
        let cs = self.cache.stats();
        merged.inc("mdcache.hits", cs.hits);
        merged.inc("mdcache.misses", cs.misses);
        merged.inc("mdcache.dirty_evictions", cs.dirty_evictions);
        merged.inc("mdcache.clean_evictions", cs.clean_evictions);
        merged.inc("wpq.accepted", self.wpq.accepted());
        merged.inc("wpq.stalls", self.wpq.stalls());
        merged.inc("wpq.drains", self.wpq.drains());
        merged.snapshot_json(false)
    }

    fn functional(&self) -> bool {
        self.config.fidelity() == Fidelity::Functional
    }

    // ----- raw NVM access (with WPQ forwarding and tracing) -----

    fn nvm_read(&mut self, addr: LineAddr) -> ([u8; 64], CorrectionOutcome) {
        self.trace.push((addr, AccessKind::Read));
        self.stats.nvm_reads += 1;
        // Write forwarding: the WPQ holds the freshest copy. Scan newest
        // first so the first hit is the last write and the scan can stop.
        if let Some(w) = self.wpq.iter().rev().find(|w| w.addr == addr) {
            return (w.data, CorrectionOutcome::Clean);
        }
        self.device.read_line(addr)
    }

    fn nvm_write(&mut self, addr: LineAddr, data: [u8; 64], category: WriteCategory) {
        self.trace.push((addr, AccessKind::Write));
        self.stats.nvm_writes += 1;
        self.stats.writes.record(category);
        let drains_before = self.wpq.drains();
        self.wpq.push(PendingWrite { addr, data }, &mut self.device);
        self.note_wpq(drains_before);
    }

    fn nvm_write_group(
        &mut self,
        writes: &mut Vec<(LineAddr, [u8; 64], WriteCategory)>,
    ) -> AcceptOutcome {
        let mut group = std::mem::take(&mut self.scratch.group);
        group.clear();
        group.reserve(writes.len());
        for (addr, data, category) in writes.drain(..) {
            self.trace.push((addr, AccessKind::Write));
            self.stats.nvm_writes += 1;
            self.stats.writes.record(category);
            group.push(PendingWrite { addr, data });
        }
        let drains_before = self.wpq.drains();
        let outcome = self
            .wpq
            .push_atomic(&mut group, &mut self.device)
            // lint:allow(P1, group sizes are validated against WPQ capacity at config/commit time)
            .expect("write group fits the WPQ");
        self.scratch.group = group;
        self.note_wpq(drains_before);
        outcome
    }

    /// Records WPQ activity after a push: occupancy into the metrics
    /// histogram, and a `wpq_drain` trace event when the push stall-drained
    /// entries to media. The cumulative `drains` field is the crash-point
    /// clock the crash-sweep test enumerates.
    #[inline]
    fn note_wpq(&mut self, drains_before: u64) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs
            .metrics
            .observe("wpq.occupancy", self.wpq.len() as u64);
        let drained = self.wpq.drains() - drains_before;
        if drained > 0 {
            let drains = self.wpq.drains();
            self.obs.trace.emit_with("ctl", "wpq_drain", || {
                obs_fields![("steps", drained), ("drains", drains)]
            });
        }
    }

    // ----- residency and fidelity invariants -----
    //
    // `fetch_meta` pins every block the datapath touches into the cache
    // before the helpers below run, and the functional-fidelity paths
    // only execute when the cipher/MAC engines were constructed. A miss
    // here is a controller bug, not a recoverable condition, so these
    // are the single audited panic sites for those invariants.

    /// Immutable view of a block `fetch_meta` made resident.
    fn resident(&self, addr: LineAddr) -> &CachedBlock {
        // lint:allow(P1, fetch_meta pinned the block before this call)
        self.cache.peek(addr).expect("block resident")
    }

    /// Mutable view of a block `fetch_meta` made resident.
    fn resident_mut(&mut self, addr: LineAddr) -> &mut CachedBlock {
        // lint:allow(P1, fetch_meta pinned the block before this call)
        self.cache.peek_mut(addr).expect("block resident")
    }

    /// Shadow slot of a block `fetch_meta` made resident.
    fn resident_slot(&self, addr: LineAddr) -> u64 {
        // lint:allow(P1, fetch_meta pinned the block before this call)
        self.cache.slot_of(addr).expect("block resident")
    }

    /// The cipher engine; callers are on the functional-fidelity path.
    fn functional_cipher(&self) -> &CounterModeCipher {
        // lint:allow(P1, functional fidelity constructs the cipher engine)
        self.cipher.as_ref().expect("functional mode")
    }

    /// The MAC engine; callers are on the functional-fidelity path.
    fn functional_mac(&self) -> &MacEngine {
        // lint:allow(P1, functional fidelity constructs the MAC engine)
        self.mac.as_ref().expect("functional mode")
    }

    // ----- MAC helpers -----

    fn data_mac_of(&self, addr: DataAddr, cipher: &[u8; 64], counter: u64) -> u64 {
        match &self.mac {
            Some(m) => m.data_mac(addr.index() * 64, cipher, counter),
            None => 0,
        }
    }

    fn read_mac_slot(&mut self, line: LineAddr, offset: usize) -> Result<u64, ()> {
        let (bytes, outcome) = self.nvm_read(line);
        if !outcome.is_usable() {
            return Err(());
        }
        Ok(soteria_rt::bytes::u64_le(&bytes[offset..offset + 8]))
    }

    fn write_mac_slot(
        &mut self,
        line: LineAddr,
        offset: usize,
        mac: u64,
        category: WriteCategory,
    ) -> Result<(), ()> {
        let (mut bytes, outcome) = self.nvm_read(line);
        if !outcome.is_usable() {
            return Err(());
        }
        bytes[offset..offset + 8].copy_from_slice(&mac.to_le_bytes());
        self.nvm_write(line, bytes, category);
        Ok(())
    }

    // ----- tree navigation -----

    /// The parent counter protecting `meta` (parent must be resident; the
    /// root register serves top-level blocks).
    fn parent_counter(&self, meta: MetaId) -> u64 {
        match self.layout.parent_of(meta) {
            None => self.root.counter(self.layout.child_slot(meta)),
            Some(p) => {
                let pb = self.resident(self.layout.meta_addr(p));
                TocNode::from_bytes(&pb.data).counter(self.layout.child_slot(meta))
            }
        }
    }

    /// Verifies metadata block content against its MAC, returning the
    /// parent counter it verified under. All-zero content with an
    /// all-zero MAC is the valid fresh state. Timing mode always
    /// verifies.
    ///
    /// Beyond the exact `parent_counter`, verification tolerates exactly
    /// **one pending parent bump** (`parent_counter + 1`): the
    /// atomic-commit write path accepts a block's group into the ADR
    /// domain *before* committing the parent's own durable update, so a
    /// crash between the two legitimately leaves the child one bump
    /// ahead of its parent. Trials only go forward — an attacker
    /// replaying an *older* block can never match — and the exact
    /// counter is tried first, so healthy paths never pay the trial.
    fn verify_meta(&mut self, meta: MetaId, bytes: &[u8; 64], parent_counter: u64) -> Option<u64> {
        let Some(mac) = self.mac.clone() else {
            return Some(parent_counter);
        };
        let addr = self.layout.meta_addr(meta);
        if meta.level == 1 {
            let (line, off) = self.layout.leaf_mac_slot(meta.index);
            let Ok(stored) = self.read_mac_slot(line, off) else {
                return None;
            };
            if stored == 0 && bytes.iter().all(|&b| b == 0) {
                return Some(parent_counter); // never written back: fresh leaf
            }
            [parent_counter, parent_counter + 1]
                .into_iter()
                .find(|&c| mac.counter_block_mac(addr.byte_addr(), bytes, c) == stored)
        } else {
            let node = TocNode::from_bytes(bytes);
            if node.mac() == 0 && node.counters().iter().all(|&c| c == 0) {
                return Some(parent_counter); // fresh node
            }
            [parent_counter, parent_counter + 1]
                .into_iter()
                .find(|&c| mac.tree_node_mac(addr.byte_addr(), node.counters(), c) == node.mac())
        }
    }

    /// After a `+1` forward verification, folds the pending parent bump
    /// into the volatile parent copy (root register or cached node) so
    /// the chain is coherent for subsequent writebacks.
    fn repair_parent_counter(&mut self, meta: MetaId, counter: u64) {
        self.stats.forward_repairs += 1;
        self.obs.metrics.inc("ctl.forward_repairs", 1);
        self.obs
            .trace
            .emit_with("ctl", "parent_forward_repair", || {
                obs_fields![("level", meta.level), ("index", meta.index)]
            });
        let child_slot = self.layout.child_slot(meta);
        match self.layout.parent_of(meta) {
            None => {
                if !self.wpq.is_dead() {
                    self.root.set_counter(child_slot, counter);
                }
            }
            Some(p) => {
                let p_addr = self.layout.meta_addr(p);
                if let Some(pb) = self.cache.peek_mut(p_addr) {
                    let mut pn = TocNode::from_bytes(&pb.data);
                    pn.set_counter(child_slot, counter);
                    pb.data = pn.to_bytes();
                    self.cache.mark_dirty(p_addr);
                }
            }
        }
    }

    /// Reads a metadata block from NVM with Fig. 9 fault handling: ECC →
    /// MAC → clone scan → purify, or declare the subtree unverifiable.
    fn read_meta_repaired(&mut self, meta: MetaId) -> Result<[u8; 64], MemoryError> {
        let addr = self.layout.meta_addr(meta);
        let parent_counter = self.parent_counter(meta);
        let (bytes, outcome) = self.nvm_read(addr);
        let ue = outcome == CorrectionOutcome::Uncorrectable;
        let verified = if ue {
            self.stats.metadata_ue += 1;
            self.obs.metrics.inc("ctl.metadata_ue", 1);
            None
        } else {
            self.verify_meta(meta, &bytes, parent_counter)
        };
        if let Some(c) = verified {
            if c != parent_counter {
                self.repair_parent_counter(meta, c);
            }
            return Ok(bytes);
        }
        self.obs.trace.emit_with("ctl", "meta_fault", || {
            obs_fields![
                ("level", meta.level),
                ("index", meta.index),
                ("cause", if ue { "ue" } else { "mac_mismatch" }),
            ]
        });
        // Step 4 of Fig. 9: bring all clones and attempt repair.
        let extra = self
            .config
            .cloning()
            .extra_clones(meta.level, self.layout.levels());
        for clone_no in 1..=extra {
            let clone_addr = self.layout.clone_addr(meta, clone_no);
            let (cb, co) = self.nvm_read(clone_addr);
            let clone_ok = match co {
                CorrectionOutcome::Uncorrectable => None,
                _ => self.verify_meta(meta, &cb, parent_counter),
            };
            if let Some(c) = clone_ok {
                // Step 6-7: one verified survivor purifies every copy.
                self.nvm_write(addr, cb, WriteCategory::Repair);
                for other in 1..=extra {
                    if other != clone_no {
                        let oa = self.layout.clone_addr(meta, other);
                        self.nvm_write(oa, cb, WriteCategory::Repair);
                    }
                }
                self.stats.clone_repairs += 1;
                self.obs.metrics.inc("ctl.clone_repairs", 1);
                self.obs.trace.emit_with("ctl", "clone_repair", || {
                    obs_fields![
                        ("level", meta.level),
                        ("index", meta.index),
                        ("survivor", clone_no),
                    ]
                });
                if c != parent_counter {
                    self.repair_parent_counter(meta, c);
                }
                return Ok(cb);
            }
        }
        let class = if meta.level == 1 {
            MetadataClass::CounterBlock
        } else {
            MetadataClass::TreeNode
        };
        self.obs.trace.emit_with("ctl", "meta_unverifiable", || {
            obs_fields![
                ("level", meta.level),
                ("index", meta.index),
                ("clones_scanned", extra),
            ]
        });
        Err(MemoryError::MetadataUnverifiable {
            meta,
            class,
            covered_lines: self.layout.covered_data_lines(meta),
        })
    }

    /// Ensures `meta` is resident and verified, fetching (and verifying)
    /// ancestors first. `pinned` accumulates addresses that must survive
    /// this operation's evictions.
    fn fetch_meta(&mut self, meta: MetaId, pinned: &mut Vec<LineAddr>) -> Result<(), MemoryError> {
        let addr = self.layout.meta_addr(meta);
        if self.cache.lookup(addr).is_some() {
            self.obs.metrics.inc("ctl.meta_hits", 1);
            if !pinned.contains(&addr) {
                pinned.push(addr);
            }
            return Ok(());
        }
        self.obs.metrics.inc("ctl.meta_misses", 1);
        self.obs.trace.emit_with("ctl", "meta_miss", || {
            obs_fields![("level", meta.level), ("index", meta.index)]
        });
        if let Some(p) = self.layout.parent_of(meta) {
            self.fetch_meta(p, pinned)?;
            // The parent fetch can evict a dirty block whose writeback
            // climbs back through *this* block (a victim's parent may be
            // `meta` itself) — in that case it is resident now.
            if self.cache.lookup(addr).is_some() {
                if !pinned.contains(&addr) {
                    pinned.push(addr);
                }
                return Ok(());
            }
        }
        let bytes = self.read_meta_repaired(meta)?;
        let (_, evicted) = self
            .cache
            .insert(addr, CachedBlock::clean(meta, bytes), pinned);
        pinned.push(addr);
        if let Some(ev) = evicted {
            self.handle_eviction(ev, pinned)?;
        }
        Ok(())
    }

    /// Persists an Anubis shadow entry for the block at cache `slot`.
    /// A no-op under eager tree update (the root is always fresh, §2.5)
    /// and for the strictly-persisted levels of Triad-NVM.
    fn shadow_write(&mut self, slot: u64, meta: MetaId, bytes: &[u8; 64]) {
        if !self.config.tree_update().shadow_tracks(meta.level) {
            return;
        }
        let record = self.build_shadow_record(meta, bytes);
        let entry = encode_entry(&record, self.config.shadow_mode());
        let saddr = self.layout.shadow_slot_addr(slot);
        self.obs.metrics.inc("ctl.shadow_writes", 1);
        self.nvm_write(saddr, entry, WriteCategory::Shadow);
        // The on-chip shadow-tree registers update only while the machine
        // is alive: after the crash fuse fires, register state is frozen
        // exactly as a powered-off controller's would be.
        if !self.wpq.is_dead() {
            if let Some(tree) = &mut self.shadow_tree {
                // Lazy fold: the persisted `shadow_root` register is only
                // architecturally visible at crash capture, which refolds
                // from the (frozen) leaves — same value as an eager root.
                tree.update(slot, &entry);
            }
        }
    }

    fn build_shadow_record(&self, meta: MetaId, bytes: &[u8; 64]) -> ShadowRecord {
        let mut lsbs = [0u16; 8];
        if meta.level == 1 {
            lsbs[0] = CounterBlock::major_in(bytes) as u16;
        } else {
            let node = TocNode::from_bytes(bytes);
            for (i, lsb) in lsbs.iter_mut().enumerate() {
                *lsb = node.counter(i) as u16;
            }
        }
        let mac = match &self.mac {
            Some(m) => {
                let addr = self.layout.meta_addr(meta);
                if meta.level == 1 {
                    m.shadow_entry_mac(addr.byte_addr(), bytes)
                } else {
                    // MAC over the counter payload only: the embedded node
                    // MAC is recomputed at writeback and would be stale.
                    let node = TocNode::from_bytes(bytes);
                    let mut payload = [0u8; 64];
                    for (i, c) in node.counters().iter().enumerate() {
                        payload[8 * i..8 * i + 8].copy_from_slice(&c.to_le_bytes());
                    }
                    m.shadow_entry_mac(addr.byte_addr(), &payload)
                }
            }
            None => 0,
        };
        ShadowRecord { meta, lsbs, mac }
    }

    /// Writes back a (dirty) block: bumps the parent counter, refreshes
    /// the block's MAC under it, and commits the block plus all its clones
    /// atomically. Shared by evictions and Osiris early writebacks.
    fn writeback_block(
        &mut self,
        meta: MetaId,
        mut bytes: [u8; 64],
        pinned: &mut Vec<LineAddr>,
    ) -> Result<[u8; 64], MemoryError> {
        let addr = self.layout.meta_addr(meta);
        // 1. Compute the bumped parent counter (anti-replay for the new
        //    MAC). The parent's own *durable* update — root register, or
        //    the cached node's shadow entry — is deferred until after the
        //    child's group is accepted into the ADR domain: verification
        //    tolerates exactly one pending bump (forward trial), so a
        //    crash between the two steps is never torn.
        let child_slot = self.layout.child_slot(meta);
        let parent_shadow = match self.layout.parent_of(meta) {
            None => None,
            Some(p) => {
                self.fetch_meta(p, pinned)?;
                let p_addr = self.layout.meta_addr(p);
                let slot = self.resident_slot(p_addr);
                let pb = self.resident_mut(p_addr);
                let mut pn = TocNode::from_bytes(&pb.data);
                pn.bump(child_slot);
                pb.data = pn.to_bytes();
                let pdata = pb.data;
                self.cache.mark_dirty(p_addr);
                Some((slot, p, pdata))
            }
        };
        let new_parent_counter = match &parent_shadow {
            None => self.root.counter(child_slot) + 1,
            Some((_, _, pbytes)) => TocNode::from_bytes(pbytes).counter(child_slot),
        };
        // 2. Refresh the MAC under the new parent counter. A leaf's MAC
        //    lives in a packed side line — its read-modify-write image
        //    joins the child's atomic group (a separate push could land
        //    without the block, tearing the leaf).
        let mut group: Vec<(LineAddr, [u8; 64], WriteCategory)> = Vec::new();
        if let Some(mac) = self.mac.clone() {
            if meta.level == 1 {
                let tag = mac.counter_block_mac(addr.byte_addr(), &bytes, new_parent_counter);
                let (line, off) = self.layout.leaf_mac_slot(meta.index);
                let (mut mbytes, outcome) = self.nvm_read(line);
                if !outcome.is_usable() {
                    return Err(MemoryError::MetadataUnverifiable {
                        meta,
                        class: MetadataClass::DataMac,
                        covered_lines: self.layout.covered_data_lines(meta),
                    });
                }
                mbytes[off..off + 8].copy_from_slice(&tag.to_le_bytes());
                group.push((line, mbytes, WriteCategory::LeafMac));
            } else {
                let mut node = TocNode::from_bytes(&bytes);
                node.set_mac(mac.tree_node_mac(
                    addr.byte_addr(),
                    node.counters(),
                    new_parent_counter,
                ));
                bytes = node.to_bytes();
            }
        } else if meta.level == 1 {
            // Timing mode still pays the leaf-MAC write traffic.
            let (line, off) = self.layout.leaf_mac_slot(meta.index);
            let (mut mbytes, outcome) = self.nvm_read(line);
            if outcome.is_usable() {
                mbytes[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
                group.push((line, mbytes, WriteCategory::LeafMac));
            }
        }
        // 3. Leaf MAC + primary + clones as one atomic WPQ group (§3.2.1).
        let extra = self
            .config
            .cloning()
            .extra_clones(meta.level, self.layout.levels());
        group.push((addr, bytes, WriteCategory::Eviction));
        for c in 1..=extra {
            group.push((self.layout.clone_addr(meta, c), bytes, WriteCategory::Clone));
        }
        self.obs.trace.emit_with("ctl", "writeback", || {
            obs_fields![
                ("level", meta.level),
                ("index", meta.index),
                ("clones", extra),
            ]
        });
        self.obs.metrics.inc("ctl.writebacks", 1);
        self.nvm_write_group(&mut group);
        // 4. Commit the parent's durable update, now that the child group
        //    is in the ADR domain. The persistent root register mutates
        //    only while the machine is alive.
        match parent_shadow {
            None => {
                if !self.wpq.is_dead() {
                    self.root.set_counter(child_slot, new_parent_counter);
                }
            }
            Some((slot, p, pbytes)) => self.shadow_write(slot, p, &pbytes),
        }
        Ok(bytes)
    }

    fn handle_eviction(
        &mut self,
        ev: Evicted,
        pinned: &mut Vec<LineAddr>,
    ) -> Result<(), MemoryError> {
        if !ev.block.is_dirty() {
            return Ok(());
        }
        self.stats.record_eviction(ev.block.meta.level);
        let meta = ev.block.meta;
        self.obs.trace.emit_with("ctl", "evict", || {
            obs_fields![("level", meta.level), ("index", meta.index)]
        });
        self.writeback_block(ev.block.meta, ev.block.data, pinned)?;
        Ok(())
    }

    // ----- page re-encryption on minor overflow -----

    fn reencrypt_page(
        &mut self,
        leaf: MetaId,
        old: &CounterBlock,
        pinned: &mut Vec<LineAddr>,
    ) -> Result<(), MemoryError> {
        let _ = pinned;
        self.stats.page_reencryptions += 1;
        self.obs.metrics.inc("ctl.page_reencryptions", 1);
        self.obs.trace.emit_with("ctl", "page_reencrypt", || {
            obs_fields![("leaf", leaf.index), ("major", old.major())]
        });
        let new_major = old.major() + 1;
        for slot in 0..COUNTERS_PER_BLOCK as usize {
            let daddr = DataAddr::new(leaf.index * COUNTERS_PER_BLOCK + slot as u64);
            let (mac_line, off) = self.layout.data_mac_slot(daddr);
            if self.functional() {
                let Ok(stored) = self.read_mac_slot(mac_line, off) else {
                    return Err(MemoryError::DataUncorrectable { addr: daddr });
                };
                if stored == 0 {
                    continue; // line never written
                }
                let line_addr = self.layout.data_line_addr(daddr);
                let (ciphertext, outcome) = self.nvm_read(line_addr);
                if !outcome.is_usable() {
                    return Err(MemoryError::DataUncorrectable { addr: daddr });
                }
                let old_counter = old.counter(slot);
                if self.data_mac_of(daddr, &ciphertext, old_counter) != stored {
                    return Err(MemoryError::IntegrityViolation { addr: daddr });
                }
                let cipher = self.functional_cipher();
                let new_counter = new_major * MINOR_LIMIT as u64;
                // Strip the old-counter pad and dress the line in the new
                // one in a single XOR pass; both keystreams come from one
                // batched eight-block AES dispatch (the pads are
                // data-independent, so the old/new chains overlap in the
                // hardware pipeline). Bit-identical to decrypt-then-encrypt.
                let (pad_old, pad_new) =
                    cipher.one_time_pads2(daddr.index() * 64, old_counter, new_counter);
                let mut new_cipher = [0u8; 64];
                for i in 0..8 {
                    let c = soteria_rt::bytes::u64_ne(&ciphertext[8 * i..8 * i + 8]);
                    let po = soteria_rt::bytes::u64_ne(&pad_old[8 * i..8 * i + 8]);
                    let pn = soteria_rt::bytes::u64_ne(&pad_new[8 * i..8 * i + 8]);
                    new_cipher[8 * i..8 * i + 8].copy_from_slice(&(c ^ po ^ pn).to_ne_bytes());
                }
                let new_mac = self.data_mac_of(daddr, &new_cipher, new_counter);
                self.nvm_write(line_addr, new_cipher, WriteCategory::Reencrypt);
                let _ = self.write_mac_slot(mac_line, off, new_mac, WriteCategory::Reencrypt);
            } else {
                // Timing mode: pay the traffic without the cryptography.
                let line_addr = self.layout.data_line_addr(daddr);
                let _ = self.nvm_read(line_addr);
                self.nvm_write(line_addr, [0; 64], WriteCategory::Reencrypt);
                let _ = self.write_mac_slot(mac_line, off, 0, WriteCategory::Reencrypt);
            }
        }
        Ok(())
    }

    /// Eager propagation: write back the updated block and every dirtied
    /// ancestor, leaf-up, stopping above `max_level` (u8::MAX = to the
    /// root).
    fn eager_propagate(
        &mut self,
        leaf: MetaId,
        max_level: u8,
        pinned: &mut Vec<LineAddr>,
    ) -> Result<(), MemoryError> {
        let mut current = Some(leaf);
        while let Some(meta) = current {
            if meta.level > max_level {
                break;
            }
            let addr = self.layout.meta_addr(meta);
            let bytes = match self.cache.peek(addr) {
                Some(blk) if blk.is_dirty() => blk.data,
                _ => break, // ancestor untouched (root bump only)
            };
            let written = self.writeback_block(meta, bytes, pinned)?;
            let blk = self.resident_mut(addr);
            blk.data = written;
            blk.clear_slot_updates();
            self.cache.mark_clean(addr);
            current = self.layout.parent_of(meta);
        }
        Ok(())
    }

    // ----- public datapath -----

    fn check_bounds(&self, addr: DataAddr) -> Result<(), MemoryError> {
        if addr.index() >= self.layout.data_lines() {
            Err(MemoryError::AddressOutOfRange {
                addr,
                lines: self.layout.data_lines(),
            })
        } else {
            Ok(())
        }
    }

    /// Writes one 64-byte line at `addr` — a transaction of one write.
    ///
    /// # Errors
    ///
    /// Propagates metadata-unverifiable, uncorrectable-data and
    /// integrity-violation conditions (see [`MemoryError`]).
    pub fn write(&mut self, addr: DataAddr, data: &[u8; 64]) -> Result<(), MemoryError> {
        self.commit_writes(&[(addr, *data)]).map(|_| ())
    }

    /// Opens a [`Transaction`]: stage writes, then commit them as one
    /// atomic group. See [`Transaction`] for the durability contract.
    pub fn transaction(&mut self) -> Transaction<'_> {
        Transaction {
            ctl: self,
            writes: Vec::new(),
        }
    }

    /// Commits a group of writes atomically — **the** durability point
    /// of the controller.
    ///
    /// The atomic-and-committing contract (ROADMAP 5(b), in the style of
    /// the PSA storage-resilience API): the ciphertext lines, their data
    /// MACs, and the touched counter blocks' shadow entries enter the
    /// WPQ as **one** [`WritePendingQueue::push_atomic`] group. Because
    /// an accepted group is durable (ADR) and an unaccepted one leaves
    /// no trace, *any crash observes a prefix of committed transactions,
    /// and never a torn transaction*. Deferred maintenance (Osiris
    /// writebacks, eager propagation) runs after the commit point and
    /// only re-persists already-committed state.
    ///
    /// # Errors
    ///
    /// [`MemoryError::TransactionTooLarge`] when the staged group cannot
    /// fit the WPQ even when empty (no partial effects: the transaction
    /// may be split and retried), plus the per-write datapath errors of
    /// [`SecureMemoryController::write`].
    pub fn commit_writes(
        &mut self,
        writes: &[(DataAddr, [u8; 64])],
    ) -> Result<CommitReceipt, MemoryError> {
        for &(addr, _) in writes {
            self.check_bounds(addr)?;
        }
        self.trace.clear();
        if writes.is_empty() {
            return Ok(CommitReceipt {
                writes: 0,
                group_writes: 0,
                accepted: !self.wpq.is_dead(),
                accept_event: self.wpq.events(),
            });
        }
        self.stats.data_writes += writes.len() as u64;
        let mut pinned = std::mem::take(&mut self.scratch.pinned);
        pinned.clear();

        // Bump plan, over the slots the transaction touches.
        let mut leaves = std::mem::take(&mut self.scratch.leaves);
        let mut bumps = std::mem::take(&mut self.scratch.bumps);
        plan_bumps(&self.layout, writes, &mut leaves, &mut bumps);
        let osiris_limit = self.config.osiris_limit();
        if let Some(slot_bumps) = over_budget(&bumps, osiris_limit) {
            return Err(MemoryError::TransactionExceedsOsirisBudget {
                slot_bumps,
                osiris_limit,
            });
        }

        // Stage the transaction: leaf overlays (counter bumps) and the
        // atomic write group, without touching durable or cached state.
        //
        // The per-write chain is software-pipelined: iteration k stages
        // write k's ciphertext and MAC-line image, then computes the
        // *previous* write's data MAC and patches its 8-byte slot in the
        // already-staged image. The MAC is pure compute (no NVM access),
        // so deferring it changes neither the NVM event order nor the
        // staged bytes — but it puts write k's AES keystream and write
        // k-1's SHA compressions side by side with no data dependency,
        // so the two units overlap instead of serialising per write.
        let mut staged = std::mem::take(&mut self.scratch.staged);
        staged.clear();
        struct PendingTag {
            addr: DataAddr,
            ciphertext: [u8; 64],
            counter: u64,
            mac_line: LineAddr,
            off: usize,
        }
        let mut pending: Option<PendingTag> = None;
        // Leaves `..fetched` are resident and decoded. The plan listed the
        // leaves in first-write order, so a write to a leaf not yet
        // fetched is a write to leaf `fetched`.
        let mut fetched = 0;
        for &(addr, data) in writes {
            let meta = self.layout.counter_block_of(addr);
            let slot = self.layout.counter_slot_of(addr);
            let li = match leaves[..fetched].iter().position(|l| l.meta == meta) {
                Some(i) => i,
                None => {
                    debug_assert_eq!(leaves[fetched].meta, meta);
                    self.fetch_meta(meta, &mut pinned)?;
                    let leaf_addr = self.layout.meta_addr(meta);
                    // Osiris pre-normalization: if this transaction's
                    // bumps would push a slot past the recovery trial
                    // budget, write back the *committed* (pre-transaction)
                    // leaf first — always safe, never torn.
                    if self.config.tree_update().lazy_osiris() {
                        let needs_wb = {
                            let blk = self.resident(leaf_addr);
                            blk.is_dirty() && bumps_exceed(blk, &bumps, fetched, osiris_limit)
                        };
                        if needs_wb {
                            self.stats.osiris_writebacks += 1;
                            self.obs.metrics.inc("ctl.osiris_writebacks", 1);
                            self.obs.trace.emit_with("ctl", "osiris_writeback", || {
                                obs_fields![("leaf", meta.index)]
                            });
                            let bytes = self.resident(leaf_addr).data;
                            let written = self.writeback_block(meta, bytes, &mut pinned)?;
                            let blk = self.resident_mut(leaf_addr);
                            blk.data = written;
                            blk.clear_slot_updates();
                            self.cache.mark_clean(leaf_addr);
                        }
                    }
                    leaves[fetched].block =
                        CounterBlock::from_bytes(&self.resident(leaf_addr).data);
                    fetched += 1;
                    fetched - 1
                }
            };
            // Bump the staged counter, handling overflow (page
            // re-encryption) first. Re-encryption rewrites committed
            // data under the old counters and is pushed pre-commit.
            if leaves[li].block.minor(slot) + 1 == MINOR_LIMIT {
                self.reencrypt_page(meta, &leaves[li].block, &mut pinned)?;
            }
            leaves[li].block.bump(slot);
            let counter = leaves[li].block.counter(slot);
            // Ciphertext line.
            let line_addr = self.layout.data_line_addr(addr);
            let ciphertext = match &self.cipher {
                Some(c) => c.encrypt_line(&data, addr.index() * 64, counter),
                None => data,
            };
            stage_line(&mut staged, line_addr, ciphertext, WriteCategory::Cipher);
            // Data-MAC line: stage the line image now so later writes
            // sharing it read *through* the staged overlay; the 8-byte
            // tag slot is patched one iteration later (pipeline above).
            let (mac_line, off) = self.layout.data_mac_slot(addr);
            if !staged.iter().any(|(a, _, _)| *a == mac_line) {
                let (bytes, outcome) = self.nvm_read(mac_line);
                if !outcome.is_usable() {
                    return Err(MemoryError::DataUncorrectable { addr });
                }
                stage_line(&mut staged, mac_line, bytes, WriteCategory::DataMac);
            }
            if let Some(job) = pending.take() {
                let tag = self
                    .data_mac_of(job.addr, &job.ciphertext, job.counter)
                    .max(1);
                // The job's MAC line was staged in the iteration that
                // created it, so the lookup always hits; patching in
                // write order keeps last-write-wins on shared slots.
                if let Some((_, bytes, _)) = staged.iter_mut().find(|(a, _, _)| *a == job.mac_line)
                {
                    bytes[job.off..job.off + 8].copy_from_slice(&tag.to_le_bytes());
                }
            }
            pending = Some(PendingTag {
                addr,
                ciphertext,
                counter,
                mac_line,
                off,
            });
        }
        // Drain the pipeline: the last write's tag is still pending.
        if let Some(job) = pending.take() {
            let tag = self
                .data_mac_of(job.addr, &job.ciphertext, job.counter)
                .max(1);
            if let Some((_, bytes, _)) = staged.iter_mut().find(|(a, _, _)| *a == job.mac_line) {
                bytes[job.off..job.off + 8].copy_from_slice(&tag.to_le_bytes());
            }
        }
        for leaf in &mut leaves {
            leaf.image = leaf.block.to_bytes();
        }
        // Shadow entries for the final staged leaf images ride in the
        // same group (Lazy / lazily-tracked levels only).
        let mut shadow_updates = std::mem::take(&mut self.scratch.shadow);
        shadow_updates.clear();
        if self.config.tree_update().leaf_shadowed() {
            for leaf in &leaves {
                let record = self.build_shadow_record(leaf.meta, &leaf.image);
                let entry = encode_entry(&record, self.config.shadow_mode());
                let slot = self.resident_slot(self.layout.meta_addr(leaf.meta));
                self.obs.metrics.inc("ctl.shadow_writes", 1);
                stage_line(
                    &mut staged,
                    self.layout.shadow_slot_addr(slot),
                    entry,
                    WriteCategory::Shadow,
                );
                shadow_updates.push((slot, entry));
            }
        }
        if staged.len() > self.wpq.capacity() {
            return Err(MemoryError::TransactionTooLarge {
                writes: writes.len(),
                group: staged.len(),
                capacity: self.wpq.capacity(),
            });
        }

        // ----- THE COMMIT POINT -----
        let group_writes = staged.len();
        let tx_writes = writes.len() as u64;
        self.obs.trace.emit_with("ctl", "tx_commit", || {
            obs_fields![("writes", tx_writes), ("group", group_writes as u64)]
        });
        let outcome = self.nvm_write_group(&mut staged);
        let (accepted, accept_event) = match outcome {
            AcceptOutcome::Accepted { event } => (true, event),
            AcceptOutcome::Dead => (false, self.wpq.events()),
        };

        // Post-commit: fold the staged leaf images and their slots' bump
        // counts into the cache, and update the volatile shadow-tree
        // registers (alive only).
        for (li, leaf) in leaves.iter().enumerate() {
            let leaf_addr = self.layout.meta_addr(leaf.meta);
            let blk = self.resident_mut(leaf_addr);
            blk.data = leaf.image;
            for b in bumps.iter().filter(|b| b.leaf == li) {
                blk.add_slot_updates(b.slot, b.bumps);
            }
            self.cache.mark_dirty(leaf_addr);
        }
        if !self.wpq.is_dead() {
            if let Some(tree) = &mut self.shadow_tree {
                for (slot, entry) in &shadow_updates {
                    tree.update(*slot, entry);
                }
            }
        }

        // Deferred maintenance, re-persisting committed state only. The
        // tree-update strategy decides what runs: the lazy modes bound
        // in-cache update counts (Osiris), the persisting modes climb the
        // tree up to their ceiling (the first lazy ancestor above the
        // ceiling is dirtied by the boundary writeback, and
        // writeback_block's parent update shadow-writes it — the shadow
        // gate only skips the strictly-persisted levels), and the
        // coalesced mode batches a full dirty-path flush every `period`
        // commit groups.
        let update = self.config.tree_update();
        if update.lazy_osiris() {
            for &StagedLeaf { meta: leaf, .. } in &leaves {
                let leaf_addr = self.layout.meta_addr(leaf);
                let (do_osiris_writeback, leaf_bytes) = {
                    let blk = self.resident(leaf_addr);
                    (blk.max_slot_updates() >= osiris_limit, blk.data)
                };
                if do_osiris_writeback {
                    self.stats.osiris_writebacks += 1;
                    self.obs.metrics.inc("ctl.osiris_writebacks", 1);
                    self.obs.trace.emit_with("ctl", "osiris_writeback", || {
                        obs_fields![("leaf", leaf.index)]
                    });
                    let bytes = self.writeback_block(leaf, leaf_bytes, &mut pinned)?;
                    let blk = self.resident_mut(leaf_addr);
                    blk.data = bytes;
                    blk.clear_slot_updates();
                    self.cache.mark_clean(leaf_addr);
                }
            }
        }
        if let Some(ceiling) = update.persist_ceiling() {
            for leaf in &leaves {
                self.eager_propagate(leaf.meta, ceiling, &mut pinned)?;
            }
        }
        if let Some(period) = update.flush_period() {
            self.commits_since_flush += 1;
            if self.commits_since_flush >= u64::from(period) {
                self.commits_since_flush = 0;
                self.obs.trace.emit_with("ctl", "coalesced_flush", || {
                    obs_fields![("period", u64::from(period))]
                });
                for leaf in &leaves {
                    self.eager_propagate(leaf.meta, u8::MAX, &mut pinned)?;
                }
            }
        }
        // Return the scratch capacity for the next commit (contents are
        // dead; an early error return simply re-allocates next time).
        self.scratch.pinned = pinned;
        self.scratch.bumps = bumps;
        self.scratch.leaves = leaves;
        self.scratch.staged = staged;
        self.scratch.shadow = shadow_updates;
        Ok(CommitReceipt {
            writes: writes.len(),
            group_writes,
            accepted,
            accept_event,
        })
    }

    /// Reads one 64-byte line at `addr`, verifying its integrity.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::DataUncorrectable`] on an uncorrectable ECC
    /// error in the line, [`MemoryError::IntegrityViolation`] on a MAC
    /// mismatch (tampering/replay), and metadata errors from the counter
    /// fetch path.
    pub fn read(&mut self, addr: DataAddr) -> Result<[u8; 64], MemoryError> {
        self.check_bounds(addr)?;
        self.trace.clear();
        self.stats.data_reads += 1;
        let mut pinned = Vec::new();
        let leaf = self.layout.counter_block_of(addr);
        let slot = self.layout.counter_slot_of(addr);
        self.fetch_meta(leaf, &mut pinned)?;
        let leaf_addr = self.layout.meta_addr(leaf);
        let counter = CounterBlock::counter_in(&self.resident(leaf_addr).data, slot);

        let line_addr = self.layout.data_line_addr(addr);
        let (ciphertext, outcome) = self.nvm_read(line_addr);
        if !outcome.is_usable() {
            self.stats.data_ue += 1;
            return Err(MemoryError::DataUncorrectable { addr });
        }
        let (mac_line, off) = self.layout.data_mac_slot(addr);
        let Ok(stored) = self.read_mac_slot(mac_line, off) else {
            self.stats.data_ue += 1;
            return Err(MemoryError::DataUncorrectable { addr });
        };
        if self.functional() {
            if stored == 0 {
                // Never written: defined to read as zeroes.
                return Ok([0u8; 64]);
            }
            let expected = self.data_mac_of(addr, &ciphertext, counter).max(1);
            if expected == stored {
                return Ok(self.functional_cipher().decrypt_line(
                    &ciphertext,
                    addr.index() * 64,
                    counter,
                ));
            }
            // Crash staleness: the ciphertext + MAC committed atomically,
            // but under Eager/Triad the leaf carries no shadow entry, so
            // a crash between the commit and the eager writeback leaves
            // the durable counter lagging the data by up to
            // `osiris_limit` bumps. Trials only go *forward* — replayed
            // (older) data can never match — so this cannot weaken
            // integrity; a match folds the missing bumps back into the
            // cached leaf. Lazy mode commits the shadow entry in the
            // same atomic group and needs no trials: there a mismatch
            // stays an integrity violation (Fig. 8 loss accounting).
            if self.config.tree_update().leaf_shadowed() {
                return Err(MemoryError::IntegrityViolation { addr });
            }
            let cb = CounterBlock::from_bytes(&self.resident(leaf_addr).data);
            let headroom = (MINOR_LIMIT - cb.minor(slot)) as u64;
            for t in 1..=u64::from(self.config.osiris_limit()).min(headroom.saturating_sub(1)) {
                let trial = counter + t;
                if self.data_mac_of(addr, &ciphertext, trial).max(1) == stored {
                    self.stats.forward_repairs += 1;
                    self.obs.metrics.inc("ctl.forward_repairs", 1);
                    self.obs
                        .trace
                        .emit_with("ctl", "counter_forward_repair", || {
                            obs_fields![("line", addr.index()), ("trials", t)]
                        });
                    let blk = self.resident_mut(leaf_addr);
                    let mut cb = CounterBlock::from_bytes(&blk.data);
                    for _ in 0..t {
                        cb.bump(slot);
                    }
                    blk.data = cb.to_bytes();
                    blk.add_slot_updates(slot, t as u8);
                    self.cache.mark_dirty(leaf_addr);
                    return Ok(self.functional_cipher().decrypt_line(
                        &ciphertext,
                        addr.index() * 64,
                        trial,
                    ));
                }
            }
            Err(MemoryError::IntegrityViolation { addr })
        } else {
            Ok([0u8; 64])
        }
    }

    /// Writes back every dirty metadata block and drains the WPQ — a
    /// clean shutdown after which recovery is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates writeback failures.
    pub fn persist_all(&mut self) -> Result<(), MemoryError> {
        self.trace.clear();
        // Writing back a child dirties its parent; iterate to fixpoint,
        // lowest levels first.
        loop {
            // Lowest level first; min_by_key keeps the first minimum in
            // iteration order, matching the old stable sort's front. Not a
            // `while let`: in edition 2021 the iterator temporary would
            // borrow the cache across the `&mut self` calls in the body.
            let next = self
                .cache
                .dirty_addrs()
                .min_by_key(|a| self.cache.peek(*a).map(|b| b.meta.level).unwrap_or(u8::MAX));
            let Some(addr) = next else {
                break;
            };
            let (meta, bytes) = {
                let blk = self.resident(addr);
                (blk.meta, blk.data)
            };
            self.obs.trace.emit_with("ctl", "persist_block", || {
                obs_fields![("level", meta.level), ("index", meta.index)]
            });
            let mut pinned = vec![addr];
            let written = self.writeback_block(meta, bytes, &mut pinned)?;
            let blk = self.resident_mut(addr);
            blk.data = written;
            blk.clear_slot_updates();
            self.cache.mark_clean(addr);
        }
        let pending = self.wpq.len();
        self.wpq.flush(&mut self.device);
        self.obs
            .trace
            .emit_with("ctl", "wpq_flush", || obs_fields![("drained", pending)]);
        Ok(())
    }

    /// Rotates the memory encryption and MAC keys (§2.7): decrypts every
    /// written line under the old keys, resets all counters, re-encrypts
    /// and re-MACs everything under the new keys, and clears the shadow
    /// state. This is the "very lengthy and expensive process that can
    /// take hours" the paper invokes — the returned report quantifies it.
    ///
    /// Functional fidelity only.
    ///
    /// # Errors
    ///
    /// Propagates data/metadata faults encountered while re-reading the
    /// old image (a UE during rotation loses that line).
    ///
    /// # Panics
    ///
    /// Panics in [`Fidelity::Timing`] mode.
    pub fn rotate_keys(
        &mut self,
        new_encryption: soteria_crypto::EncryptionKey,
        new_mac: soteria_crypto::MacKey,
    ) -> Result<KeyRotationReport, MemoryError> {
        assert!(
            self.functional(),
            "key rotation requires Functional fidelity"
        );
        // Quiesce: all metadata durable and coherent before the walk.
        self.persist_all()?;
        let reads_before = self.stats.nvm_reads;
        let writes_before = self.stats.nvm_writes;

        let old_cipher = self.functional_cipher().clone();
        let old_mac = self.functional_mac().clone();
        let new_cipher = CounterModeCipher::new(new_encryption);
        let new_mac_engine = MacEngine::new(new_mac);

        let mut lines_reencrypted = 0u64;
        for leaf_index in 0..self.layout.level_count(1) {
            // Read the (durable) leaf directly; skip untouched pages.
            let leaf = MetaId::new(1, leaf_index);
            let (leaf_bytes, outcome) = self.nvm_read(self.layout.meta_addr(leaf));
            if !outcome.is_usable() {
                return Err(MemoryError::MetadataUnverifiable {
                    meta: leaf,
                    class: MetadataClass::CounterBlock,
                    covered_lines: self.layout.covered_data_lines(leaf),
                });
            }
            let cb = CounterBlock::from_bytes(&leaf_bytes);
            for slot in 0..COUNTERS_PER_BLOCK as usize {
                let daddr = DataAddr::new(leaf_index * COUNTERS_PER_BLOCK + slot as u64);
                if daddr.index() >= self.layout.data_lines() {
                    break;
                }
                let (mac_line, off) = self.layout.data_mac_slot(daddr);
                let Ok(stored) = self.read_mac_slot(mac_line, off) else {
                    return Err(MemoryError::DataUncorrectable { addr: daddr });
                };
                if stored == 0 {
                    continue; // never written
                }
                let line_addr = self.layout.data_line_addr(daddr);
                let (ciphertext, co) = self.nvm_read(line_addr);
                if !co.is_usable() {
                    return Err(MemoryError::DataUncorrectable { addr: daddr });
                }
                let counter = cb.counter(slot);
                if old_mac
                    .data_mac(daddr.index() * 64, &ciphertext, counter)
                    .max(1)
                    != stored
                {
                    return Err(MemoryError::IntegrityViolation { addr: daddr });
                }
                let plain = old_cipher.decrypt_line(&ciphertext, daddr.index() * 64, counter);
                // Fresh counters start at zero under the new key: the new
                // key guarantees pad uniqueness across the rotation.
                let new_ct = new_cipher.encrypt_line(&plain, daddr.index() * 64, 0);
                let tag = new_mac_engine
                    .data_mac(daddr.index() * 64, &new_ct, 0)
                    .max(1);
                self.nvm_write(line_addr, new_ct, WriteCategory::Reencrypt);
                self.write_mac_slot(mac_line, off, tag, WriteCategory::Reencrypt)
                    .map_err(|()| MemoryError::DataUncorrectable { addr: daddr })?;
                lines_reencrypted += 1;
            }
        }
        // Reset the whole metadata state to fresh-under-the-new-key: zero
        // counters/nodes, vacant shadow, zero root.
        let all_meta: Vec<MetaId> = self.layout.iter_meta().collect();
        for meta in all_meta {
            self.nvm_write(
                self.layout.meta_addr(meta),
                [0u8; 64],
                WriteCategory::Reencrypt,
            );
            let extra = self
                .config
                .cloning()
                .extra_clones(meta.level, self.layout.levels());
            for c in 1..=extra {
                self.nvm_write(
                    self.layout.clone_addr(meta, c),
                    [0u8; 64],
                    WriteCategory::Reencrypt,
                );
            }
            if meta.level == 1 {
                let (line, off) = self.layout.leaf_mac_slot(meta.index);
                let _ = self.write_mac_slot(line, off, 0, WriteCategory::Reencrypt);
            }
        }
        for slot in 0..self.layout.shadow_slots() {
            self.nvm_write(
                self.layout.shadow_slot_addr(slot),
                crate::shadow::vacant_entry(),
                WriteCategory::Reencrypt,
            );
        }
        self.cache.clear();
        self.root = TocNode::new();
        if let Some(tree) = &mut self.shadow_tree {
            *tree = ShadowTree::new(self.layout.shadow_slots());
            self.shadow_root = tree.root();
        }
        self.cipher = Some(new_cipher);
        self.mac = Some(new_mac_engine);
        self.config.set_keys(new_encryption, new_mac);
        self.wpq.flush(&mut self.device);

        let reads = self.stats.nvm_reads - reads_before;
        let writes = self.stats.nvm_writes - writes_before;
        self.obs.trace.emit_with("ctl", "key_rotation", || {
            obs_fields![
                ("lines_reencrypted", lines_reencrypted),
                ("nvm_reads", reads),
                ("nvm_writes", writes),
            ]
        });
        Ok(KeyRotationReport {
            lines_reencrypted,
            nvm_reads: reads,
            nvm_writes: writes,
        })
    }

    /// Simulates a sudden power loss: WPQ contents persist (ADR), all
    /// volatile state (metadata cache, on-chip shadow-tree nodes) is lost,
    /// and only the persistent register file (ToC root, shadow root)
    /// survives. Returns the crash image to [`crate::recovery::recover`].
    pub fn crash(mut self) -> crate::recovery::CrashImage {
        let pending = self.wpq.len();
        let drains = self.wpq.drains();
        let events = self.wpq.events();
        self.obs.trace.emit_with("ctl", "crash", || {
            obs_fields![
                ("adr_drained", pending),
                ("drains_at_crash", drains),
                ("events_at_crash", events),
            ]
        });
        self.wpq.flush(&mut self.device);
        let journal = self.wpq.take_journal();
        // Fold the lazily-maintained shadow tree into the persistent root
        // register. The leaves froze when (if) the crash fuse fired, so
        // this equals the root an eagerly-updated register would hold.
        if let Some(tree) = &mut self.shadow_tree {
            self.shadow_root = tree.root();
        }
        crate::recovery::CrashImage::new(self.config, self.device, self.root, self.shadow_root)
            .with_obs(self.obs)
            .with_wpq_journal(journal)
    }

    // ----- crash-consistency instrumentation (rt::crashck adapters) -----

    /// Arms the WPQ crash fuse: every durable side effect stops after
    /// `event` accept/stall-drain steps complete (`0` = dead from the
    /// start). See [`WritePendingQueue::arm_crash_at_event`]. The
    /// controller keeps executing — a dead machine's writes are simply
    /// never issued — so a crash-point sweep can run the full script and
    /// then [`SecureMemoryController::crash`].
    pub fn arm_crash_at_event(&mut self, event: u64) {
        self.wpq.arm_crash_at_event(event);
    }

    /// The WPQ event clock (accepts + stall drains). Crash points are
    /// `0..=wpq_events()`.
    pub fn wpq_events(&self) -> u64 {
        self.wpq.events()
    }

    /// `true` once an armed crash fuse has fired.
    pub fn wpq_is_dead(&self) -> bool {
        self.wpq.is_dead()
    }

    /// Starts journaling WPQ accepts/drains for replay against the pure
    /// queue model in `soteria_rt::crashck`. The journal travels with
    /// the [`crate::recovery::CrashImage`].
    pub fn enable_wpq_journal(&mut self) {
        self.wpq.enable_journal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clone::CloningPolicy;

    fn controller(policy: CloningPolicy) -> SecureMemoryController {
        let config = SecureMemoryConfig::builder()
            .capacity_bytes(1 << 20) // 1 MiB: 3-level tree
            .metadata_cache(8 * 1024, 4)
            .cloning(policy)
            .build()
            .unwrap();
        SecureMemoryController::new(config)
    }

    #[test]
    fn touched_slot_plan_matches_the_64_slot_plan() {
        // Writes to a few slots of three leaves, with repeats, against a
        // plan that keeps 64 bump counts per leaf. Both must report the
        // same `TransactionExceedsOsirisBudget` count, make the same
        // Osiris pre-normalization call for a leaf with prior in-cache
        // updates, leave the same per-slot counts after the commit, and
        // agree on the post-commit Osiris writeback.
        use soteria_rt::prop::{check, vec, Config};
        const SLOTS: usize = COUNTERS_PER_BLOCK as usize;
        let layout = SecureMemoryConfig::builder()
            .capacity_bytes(1 << 20)
            .build()
            .unwrap()
            .build_layout();
        check(
            "touched_slot_plan_matches_the_64_slot_plan",
            &Config::with_cases(256),
            &(
                vec((0u64..3, 0u64..5), 1..40usize),
                1u8..12,
                vec((0usize..3, 0u64..5, 0u8..12), 0..12usize),
            ),
            |(picks, limit, prior)| {
                let slot_of = |k: u64| (k * 29 % SLOTS as u64) as usize;
                let writes: Vec<(DataAddr, [u8; 64])> = picks
                    .iter()
                    .map(|&(leaf, k)| {
                        let line = (leaf * 7 + 2) * COUNTERS_PER_BLOCK + slot_of(k) as u64;
                        (DataAddr::new(line), [0; 64])
                    })
                    .collect();
                let (mut leaves, mut bumps) = (Vec::new(), Vec::new());
                plan_bumps(&layout, &writes, &mut leaves, &mut bumps);

                // The 64-slot plan and its budget check.
                let mut planned: Vec<(MetaId, [u8; SLOTS])> = Vec::new();
                for &(addr, _) in &writes {
                    let leaf = layout.counter_block_of(addr);
                    let slot = layout.counter_slot_of(addr);
                    match planned.iter_mut().find(|(m, _)| *m == leaf) {
                        Some((_, b)) => b[slot] = b[slot].saturating_add(1),
                        None => {
                            let mut b = [0u8; SLOTS];
                            b[slot] = 1;
                            planned.push((leaf, b));
                        }
                    }
                }
                let want = planned
                    .iter()
                    .find_map(|(_, b)| b.iter().find(|&&n| n > *limit).copied());
                soteria_rt::prop_assert_eq!(over_budget(&bumps, *limit), want);
                let metas: Vec<MetaId> = leaves.iter().map(|l| l.meta).collect();
                let want_metas: Vec<MetaId> = planned.iter().map(|(m, _)| *m).collect();
                soteria_rt::prop_assert_eq!(metas, want_metas);

                for (li, (meta, plan)) in planned.iter().enumerate() {
                    let mut blk = CachedBlock::clean(*meta, [0; 64]);
                    let mut model = [0u8; SLOTS];
                    for &(leaf, k, n) in prior {
                        if leaf == li {
                            blk.add_slot_updates(slot_of(k), n);
                            model[slot_of(k)] = model[slot_of(k)].saturating_add(n);
                        }
                    }
                    let exceeds = model
                        .iter()
                        .zip(plan.iter())
                        .any(|(&u, &b)| b > 0 && u.saturating_add(b) > *limit);
                    soteria_rt::prop_assert_eq!(bumps_exceed(&blk, &bumps, li, *limit), exceeds);
                    for b in bumps.iter().filter(|b| b.leaf == li) {
                        blk.add_slot_updates(b.slot, b.bumps);
                    }
                    for (u, b) in model.iter_mut().zip(plan.iter()) {
                        *u = u.saturating_add(*b);
                    }
                    for (slot, &u) in model.iter().enumerate() {
                        soteria_rt::prop_assert_eq!(blk.slot_updates(slot), u, "slot {}", slot);
                    }
                    soteria_rt::prop_assert_eq!(
                        blk.max_slot_updates() >= *limit,
                        model.iter().any(|&u| u >= *limit)
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn write_read_roundtrip() {
        let mut c = controller(CloningPolicy::None);
        let data: [u8; 64] = core::array::from_fn(|i| i as u8);
        c.write(DataAddr::new(10), &data).unwrap();
        assert_eq!(c.read(DataAddr::new(10)).unwrap(), data);
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut c = controller(CloningPolicy::None);
        assert_eq!(c.read(DataAddr::new(99)).unwrap(), [0u8; 64]);
    }

    #[test]
    fn data_is_encrypted_at_rest() {
        let mut c = controller(CloningPolicy::None);
        let data = [0xabu8; 64];
        c.write(DataAddr::new(0), &data).unwrap();
        c.persist_all().unwrap();
        let (raw, _) = c.device_mut().read_line(LineAddr::new(0));
        assert_ne!(raw, data, "plaintext must never reach the device");
    }

    #[test]
    fn rewrites_change_ciphertext() {
        // Counter-mode freshness: same plaintext twice gives different
        // ciphertext because the minor counter advanced.
        let mut c = controller(CloningPolicy::None);
        let data = [0x11u8; 64];
        c.write(DataAddr::new(5), &data).unwrap();
        c.persist_all().unwrap();
        let (raw1, _) = c.device_mut().read_line(LineAddr::new(5));
        c.write(DataAddr::new(5), &data).unwrap();
        c.persist_all().unwrap();
        let (raw2, _) = c.device_mut().read_line(LineAddr::new(5));
        assert_ne!(raw1, raw2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut c = controller(CloningPolicy::None);
        let lines = c.layout().data_lines();
        assert!(matches!(
            c.read(DataAddr::new(lines)),
            Err(MemoryError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn tampered_data_detected() {
        let mut c = controller(CloningPolicy::None);
        c.write(DataAddr::new(3), &[7u8; 64]).unwrap();
        c.persist_all().unwrap();
        // Overwrite the ciphertext behind the controller's back.
        c.device_mut().write_line(LineAddr::new(3), &[0u8; 64]);
        assert!(matches!(
            c.read(DataAddr::new(3)),
            Err(MemoryError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn spliced_data_detected() {
        // Copy line A's ciphertext over line B: the address-bound MAC must
        // catch the splice.
        let mut c = controller(CloningPolicy::None);
        c.write(DataAddr::new(1), &[1u8; 64]).unwrap();
        c.write(DataAddr::new(2), &[2u8; 64]).unwrap();
        c.persist_all().unwrap();
        let (a, _) = c.device_mut().read_line(LineAddr::new(1));
        c.device_mut().write_line(LineAddr::new(2), &a);
        assert!(c.read(DataAddr::new(2)).is_err());
    }

    #[test]
    fn three_writes_per_store() {
        // §3.2.1: cipher + data MAC + shadow log per store (steady state:
        // one write per counter slot, so no Osiris writebacks, and a
        // working set small enough to avoid evictions).
        let mut c = controller(CloningPolicy::None);
        for i in 0..50 {
            c.write(DataAddr::new(i * 64), &[i as u8; 64]).unwrap();
        }
        let s = c.stats();
        assert_eq!(s.writes.cipher, 50);
        assert_eq!(s.writes.data_mac, 50);
        assert_eq!(s.writes.shadow, 50);
    }

    #[test]
    fn eviction_writes_clones_for_src() {
        let mut c = controller(CloningPolicy::Relaxed);
        // Touch enough distinct counter blocks to overflow the 128-line
        // metadata cache and force evictions.
        let lines = c.layout().data_lines();
        for i in (0..lines).step_by(64) {
            c.write(DataAddr::new(i), &[1u8; 64]).unwrap();
        }
        let s = c.stats();
        assert!(
            s.total_evictions() > 0,
            "working set must overflow the cache"
        );
        assert!(
            s.writes.clone >= s.writes.eviction,
            "SRC: >= one clone per eviction"
        );
    }

    #[test]
    fn baseline_never_writes_clones() {
        let mut c = controller(CloningPolicy::None);
        let lines = c.layout().data_lines();
        for i in (0..lines).step_by(64) {
            c.write(DataAddr::new(i), &[1u8; 64]).unwrap();
        }
        assert!(c.stats().total_evictions() > 0);
        assert_eq!(c.stats().writes.clone, 0);
    }

    #[test]
    fn osiris_limit_forces_early_writeback() {
        let mut c = controller(CloningPolicy::None);
        // 5 writes to the same line with osiris_limit = 4 (default).
        for _ in 0..5 {
            c.write(DataAddr::new(0), &[9u8; 64]).unwrap();
        }
        assert!(c.stats().osiris_writebacks >= 1);
    }

    #[test]
    fn minor_overflow_reencrypts_page() {
        let mut c = controller(CloningPolicy::None);
        let data = [3u8; 64];
        // 127 bumps reach the 7-bit limit; the 128th write re-encrypts.
        for _ in 0..200 {
            c.write(DataAddr::new(0), &data).unwrap();
        }
        assert!(c.stats().page_reencryptions >= 1);
        assert_eq!(c.read(DataAddr::new(0)).unwrap(), data);
    }

    #[test]
    fn persist_all_reaches_fixpoint() {
        let mut c = controller(CloningPolicy::Relaxed);
        for i in 0..500 {
            c.write(
                DataAddr::new((i * 64) % c.layout().data_lines()),
                &[i as u8; 64],
            )
            .unwrap();
        }
        c.persist_all().unwrap();
        assert!(c.cache.dirty_addrs().next().is_none());
        // Everything still readable afterwards.
        assert!(c.read(DataAddr::new(0)).is_ok());
    }

    #[test]
    fn trace_captures_accesses() {
        let mut c = controller(CloningPolicy::None);
        c.write(DataAddr::new(0), &[1u8; 64]).unwrap();
        let has_write = c.last_trace().iter().any(|(_, k)| *k == AccessKind::Write);
        assert!(has_write);
        c.read(DataAddr::new(0)).unwrap();
        let has_read = c.last_trace().iter().any(|(_, k)| *k == AccessKind::Read);
        assert!(has_read);
    }

    #[test]
    fn timing_mode_counts_without_crypto() {
        let config = SecureMemoryConfig::builder()
            .capacity_bytes(1 << 20)
            .metadata_cache(8 * 1024, 4)
            .fidelity(Fidelity::Timing)
            .cloning(CloningPolicy::Aggressive)
            .build()
            .unwrap();
        let mut c = SecureMemoryController::new(config);
        for i in 0..1000u64 {
            c.write(
                DataAddr::new((i * 64) % c.layout().data_lines()),
                &[0u8; 64],
            )
            .unwrap();
        }
        let s = c.stats();
        assert_eq!(s.data_writes, 1000);
        assert!(s.writes.cipher == 1000 && s.writes.shadow >= 1000);
        assert!(s.total_evictions() > 0);
        assert!(s.writes.clone > 0);
    }
}
