//! The on-chip metadata cache (Table 3: 512 kB, 8-way, write-back).
//!
//! Counter blocks and ToC nodes are cached together. The cache is
//! write-back: a block updated in the cache is **not** written to NVM
//! until evicted — the lazy-update scheme whose eviction rate (Fig. 4 /
//! Fig. 10c) determines Soteria's entire cost.
//!
//! Each (set, way) slot has a fixed index that doubles as the Anubis
//! shadow-table slot for whatever block occupies it.

use soteria_nvm::LineAddr;

use crate::layout::MetaId;

/// A metadata block resident in the cache.
#[derive(Clone, Debug)]
pub struct CachedBlock {
    /// Which tree block this is.
    pub meta: MetaId,
    /// Serialized 64-byte content.
    pub data: [u8; 64],
    /// Modified since fetch (write-back pending). Private so every
    /// transition goes through [`MetadataCache::mark_dirty`] /
    /// [`MetadataCache::mark_clean`], which keep the cache's dirty bitset
    /// consistent with the flag.
    dirty: bool,
    /// Per-slot update counts since the last writeback (Osiris bounds
    /// counter trials by bounding in-cache updates). Only meaningful for
    /// leaf counter blocks.
    pub slot_updates: [u8; 64],
}

impl CachedBlock {
    /// Wraps freshly fetched (clean) content.
    pub fn clean(meta: MetaId, data: [u8; 64]) -> Self {
        Self {
            meta,
            data,
            dirty: false,
            slot_updates: [0; 64],
        }
    }

    /// Wraps content already modified relative to NVM (write-back
    /// pending from the moment of insertion).
    pub fn modified(meta: MetaId, data: [u8; 64]) -> Self {
        Self {
            dirty: true,
            ..Self::clean(meta, data)
        }
    }

    /// Whether a write-back is pending.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// A block evicted to make room, together with its former shadow slot.
#[derive(Clone, Debug)]
pub struct Evicted {
    /// NVM address of the block's primary copy.
    pub addr: LineAddr,
    /// The block content and state.
    pub block: CachedBlock,
    /// The shadow slot it occupied.
    pub slot: u64,
}

/// Hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions.
    pub dirty_evictions: u64,
    /// Clean evictions.
    pub clean_evictions: u64,
}

impl CacheStats {
    /// Miss ratio over all lookups (0 when no lookups yet).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Tag of a vacant way. No line address reaches it: [`MetadataCache::insert`]
/// rejects it, and lookups of it miss.
const VACANT: u64 = u64::MAX;

/// Set-associative write-back metadata cache with LRU replacement.
///
/// Every per-slot field lives in its own array indexed by global slot
/// (`set * ways + way`): the tags, the blocks, the last-use ticks and a
/// dirty bitset. A lookup scans its set's contiguous tags (one 64-byte
/// line for 8 ways), and nothing is hashed, so no iteration order other
/// than slot order exists.
#[derive(Clone, Debug)]
pub struct MetadataCache {
    ways: usize,
    set_mask: u64,
    tags: Vec<u64>,
    blocks: Vec<Option<CachedBlock>>,
    last_use: Vec<u64>,
    // One bit per slot, set while its resident block is dirty. Ascending
    // bit order is ascending slot order, which IS the documented
    // set-major, way-minor `dirty_addrs()` contract.
    dirty: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl MetadataCache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity forms at least one power-of-two set.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        let lines = capacity_bytes / 64;
        assert!(
            ways > 0 && lines >= ways as u64,
            "cache too small for {ways} ways"
        );
        let sets = (lines / ways as u64) as usize;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        let slots = sets * ways;
        Self {
            ways,
            set_mask: sets as u64 - 1,
            tags: vec![VACANT; slots],
            blocks: vec![None; slots],
            last_use: vec![0; slots],
            dirty: vec![0; slots.div_ceil(64)],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Table 3 configuration: 512 kB, 8-way.
    pub fn table3() -> Self {
        Self::new(512 * 1024, 8)
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.tags.len() / self.ways
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total slots (= Anubis shadow-table size).
    pub fn slots(&self) -> u64 {
        self.tags.len() as u64
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The first global slot of `addr`'s set.
    fn set_base(&self, addr: LineAddr) -> usize {
        (addr.index() & self.set_mask) as usize * self.ways
    }

    /// The global slot holding `addr`, found by scanning its set's tags.
    fn find(&self, addr: LineAddr) -> Option<usize> {
        if addr.index() == VACANT {
            return None;
        }
        let base = self.set_base(addr);
        self.tags[base..base + self.ways]
            .iter()
            .position(|&tag| tag == addr.index())
            .map(|way| base + way)
    }

    fn set_dirty_bit(&mut self, slot: usize, dirty: bool) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if dirty {
            self.dirty[word] |= bit;
        } else {
            self.dirty[word] &= !bit;
        }
    }

    /// The shadow slot a resident block occupies, if cached.
    pub fn slot_of(&self, addr: LineAddr) -> Option<u64> {
        self.find(addr).map(|slot| slot as u64)
    }

    /// Returns `true` if `addr` is resident (without touching LRU state).
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.find(addr).is_some()
    }

    /// Looks up a block, updating LRU and hit/miss statistics.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<&mut CachedBlock> {
        self.tick += 1;
        match self.find(addr) {
            Some(slot) => {
                self.last_use[slot] = self.tick;
                self.stats.hits += 1;
                self.blocks[slot].as_mut()
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks at a block without LRU/stat side effects.
    pub fn peek(&self, addr: LineAddr) -> Option<&CachedBlock> {
        self.blocks[self.find(addr)?].as_ref()
    }

    /// Mutably peeks at a block without LRU/stat side effects.
    pub fn peek_mut(&mut self, addr: LineAddr) -> Option<&mut CachedBlock> {
        let slot = self.find(addr)?;
        self.blocks[slot].as_mut()
    }

    /// Inserts a block, evicting the LRU non-pinned entry if the set is
    /// full. Returns the occupied shadow slot and the evicted entry (if
    /// any).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already resident or is `u64::MAX`, or if every
    /// way of the set is pinned. Pins are not bounded by tree depth:
    /// nested writebacks share one pin list, so a small or low-way cache
    /// can pin a whole set, and shapes that `SecureMemoryConfig::build`
    /// accepts reach this panic (ROADMAP item 1).
    pub fn insert(
        &mut self,
        addr: LineAddr,
        block: CachedBlock,
        pinned: &[LineAddr],
    ) -> (u64, Option<Evicted>) {
        assert!(addr.index() != VACANT, "{addr} is the vacant-way tag");
        assert!(!self.contains(addr), "{addr} already cached");
        self.tick += 1;
        let base = self.set_base(addr);
        let ways = base..base + self.ways;
        let dirty = block.dirty;
        // Prefer an empty way; otherwise evict the least recently used
        // way that is not pinned (the first such way on a tie).
        let slot = match self.tags[ways.clone()].iter().position(|&t| t == VACANT) {
            Some(way) => base + way,
            None => ways
                .filter(|&slot| !pinned.contains(&LineAddr::new(self.tags[slot])))
                .min_by_key(|&slot| self.last_use[slot])
                // Documented panic in the method docs: every way pinned.
                // lint:allow(P1, documented panic when every way is pinned)
                .expect("at least one unpinned way (pins share one list across nested writebacks)"),
        };
        let old_addr = LineAddr::new(std::mem::replace(&mut self.tags[slot], addr.index()));
        self.last_use[slot] = self.tick;
        self.set_dirty_bit(slot, dirty);
        let evicted = self.blocks[slot].replace(block).map(|old| {
            if old.dirty {
                self.stats.dirty_evictions += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
            Evicted {
                addr: old_addr,
                block: old,
                slot: slot as u64,
            }
        });
        (slot as u64, evicted)
    }

    /// Removes and returns a resident block (used by flush/crash paths).
    pub fn remove(&mut self, addr: LineAddr) -> Option<CachedBlock> {
        let slot = self.find(addr)?;
        self.tags[slot] = VACANT;
        self.set_dirty_bit(slot, false);
        self.blocks[slot].take()
    }

    /// Marks a resident block dirty (write-back pending), keeping the
    /// dirty bitset in step. No-op when `addr` is not resident.
    pub fn mark_dirty(&mut self, addr: LineAddr) {
        self.set_dirty(addr, true);
    }

    /// Marks a resident block clean (write-back completed), keeping the
    /// dirty bitset in step. No-op when `addr` is not resident.
    pub fn mark_clean(&mut self, addr: LineAddr) {
        self.set_dirty(addr, false);
    }

    fn set_dirty(&mut self, addr: LineAddr, dirty: bool) {
        if let Some(slot) = self.find(addr) {
            if let Some(block) = self.blocks[slot].as_mut() {
                block.dirty = dirty;
                self.set_dirty_bit(slot, dirty);
            }
        }
    }

    /// Addresses of all dirty resident blocks (for orderly flush).
    ///
    /// **Order contract**: addresses are yielded in **set-major,
    /// way-minor** order, so the sequence is a pure function of the
    /// insert/evict history. Same operation history ⇒ same iteration
    /// order, on every run and platform. The persist fixpoint loop,
    /// persist-path trace events and the crash-sweep test all rely on
    /// this stability. Implemented over the dirty bitset: ascending bit
    /// order is ascending global-slot order, which is exactly set-major,
    /// way-minor, and the scan skips 64 clean slots per zero word.
    pub fn dirty_addrs(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.dirty
            .iter()
            .enumerate()
            .flat_map(move |(word, &bits)| {
                let mut bits = bits;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let slot = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    debug_assert!(self.blocks[slot].as_ref().is_some_and(|b| b.dirty));
                    Some(LineAddr::new(self.tags[slot]))
                })
            })
    }

    /// Drops every entry (models volatile loss at crash).
    pub fn clear(&mut self) {
        self.tags.fill(VACANT);
        self.blocks.fill(None);
        self.dirty.fill(0);
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != VACANT).count()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(level: u8, index: u64) -> CachedBlock {
        CachedBlock::clean(MetaId::new(level, index), [level; 64])
    }

    fn dirty_block(level: u8, index: u64) -> CachedBlock {
        CachedBlock::modified(MetaId::new(level, index), [level; 64])
    }

    fn tiny_cache() -> MetadataCache {
        // 2 sets x 2 ways.
        MetadataCache::new(4 * 64, 2)
    }

    #[test]
    fn table3_shape() {
        let c = MetadataCache::table3();
        assert_eq!(c.slots(), 8192);
        assert_eq!(c.set_count(), 1024);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    fn insert_lookup_hit() {
        let mut c = tiny_cache();
        let a = LineAddr::new(100);
        c.insert(a, block(1, 0), &[]);
        assert!(c.lookup(a).is_some());
        assert_eq!(c.stats().hits, 1);
        assert!(c.lookup(LineAddr::new(101)).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny_cache();
        // Addresses 0,2,4 map to set 0 (2 sets).
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(2), LineAddr::new(4));
        c.insert(a, block(1, 0), &[]);
        c.insert(b, block(1, 1), &[]);
        c.lookup(a); // b is now LRU
        let (_, evicted) = c.insert(d, block(1, 2), &[]);
        assert_eq!(evicted.unwrap().addr, b);
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn pinned_ways_survive() {
        let mut c = tiny_cache();
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(2), LineAddr::new(4));
        c.insert(a, block(1, 0), &[]);
        c.insert(b, block(1, 1), &[]);
        c.lookup(a);
        // b would be LRU, but it is pinned: a gets evicted instead.
        let (_, evicted) = c.insert(d, block(1, 2), &[b]);
        assert_eq!(evicted.unwrap().addr, a);
        assert!(c.contains(b));
    }

    #[test]
    fn dirty_eviction_counted() {
        let mut c = tiny_cache();
        c.insert(LineAddr::new(0), dirty_block(1, 0), &[]);
        c.insert(LineAddr::new(2), block(1, 1), &[]);
        c.insert(LineAddr::new(4), block(1, 2), &[]);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn slots_are_stable_per_way() {
        let mut c = tiny_cache();
        let a = LineAddr::new(1); // set 1
        let (slot, _) = c.insert(a, block(1, 0), &[]);
        assert_eq!(c.slot_of(a), Some(slot));
        assert_eq!(slot, 2); // set 1, way 0 => 1*2+0
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = tiny_cache();
        c.insert(LineAddr::new(0), block(1, 0), &[]);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(LineAddr::new(0)));
    }

    #[test]
    fn dirty_addrs_lists_only_dirty() {
        let mut c = tiny_cache();
        c.insert(LineAddr::new(0), dirty_block(1, 0), &[]);
        c.insert(LineAddr::new(1), block(1, 1), &[]);
        assert_eq!(c.dirty_addrs().collect::<Vec<_>>(), vec![LineAddr::new(0)]);
    }

    #[test]
    fn dirty_addrs_order_is_set_major_way_minor() {
        // The documented order contract: set-major, way-minor, independent
        // of insertion order across sets and of the hash index. With
        // 2 sets x 2 ways, odd addresses land in set 1 and even in set 0;
        // inserting set-1 blocks first must not let them lead the
        // iteration.
        let mut c = tiny_cache();
        for (addr, idx) in [(5u64, 0u64), (1, 1), (4, 2), (0, 3)] {
            c.insert(LineAddr::new(addr), dirty_block(1, idx), &[]);
        }
        let order: Vec<u64> = c.dirty_addrs().map(|a| a.index()).collect();
        // Set 0 filled way 0 with 4 then way 1 with 0; set 1 filled way 0
        // with 5 then way 1 with 1.
        assert_eq!(order, vec![4, 0, 5, 1]);
        // Stable across repeated iteration (no interior mutation).
        assert_eq!(
            order,
            c.dirty_addrs().map(|a| a.index()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mark_dirty_and_clean_drive_dirty_addrs() {
        let mut c = tiny_cache();
        let (a, b) = (LineAddr::new(0), LineAddr::new(2));
        c.insert(a, block(1, 0), &[]);
        c.insert(b, block(1, 1), &[]);
        assert_eq!(c.dirty_addrs().count(), 0);
        c.mark_dirty(b);
        assert!(c.peek(b).unwrap().is_dirty());
        assert_eq!(c.dirty_addrs().collect::<Vec<_>>(), vec![b]);
        c.mark_dirty(a);
        assert_eq!(c.dirty_addrs().collect::<Vec<_>>(), vec![a, b]);
        // Marking twice is idempotent.
        c.mark_dirty(a);
        assert_eq!(c.dirty_addrs().count(), 2);
        c.mark_clean(b);
        assert!(!c.peek(b).unwrap().is_dirty());
        assert_eq!(c.dirty_addrs().collect::<Vec<_>>(), vec![a]);
        // Non-resident addresses are no-ops.
        c.mark_dirty(LineAddr::new(99));
        c.mark_clean(LineAddr::new(99));
        assert_eq!(c.dirty_addrs().collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn dirty_index_survives_evict_remove_clear() {
        let mut c = tiny_cache();
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(2), LineAddr::new(4));
        c.insert(a, dirty_block(1, 0), &[]);
        c.insert(b, dirty_block(1, 1), &[]);
        // Evicting dirty `a` (LRU) with a clean block must drop its slot
        // from the dirty index.
        c.lookup(b);
        let (_, ev) = c.insert(d, block(1, 2), &[]);
        assert_eq!(ev.unwrap().addr, a);
        assert_eq!(c.dirty_addrs().collect::<Vec<_>>(), vec![b]);
        // Evicting clean `d` with a dirty block adds the slot back.
        c.lookup(b);
        let (_, ev) = c.insert(a, dirty_block(1, 3), &[]);
        assert_eq!(ev.unwrap().addr, d);
        assert_eq!(c.dirty_addrs().count(), 2);
        // remove() drops the slot; clear() drops everything.
        c.remove(a);
        assert_eq!(c.dirty_addrs().collect::<Vec<_>>(), vec![b]);
        c.clear();
        assert_eq!(c.dirty_addrs().count(), 0);
    }

    #[test]
    fn slots_consistent_through_insert_evict_remove_clear() {
        // `slot_of`, `contains`, `peek` and `len` must agree after every
        // mutation, and resolved slots must round-trip.
        fn check(c: &MetadataCache, universe: &[LineAddr]) {
            let mut scanned = 0usize;
            for &addr in universe {
                let set = (addr.index() % c.set_count() as u64) as usize;
                let linear = (0..c.ways()).find_map(|way| {
                    let slot = (set * c.ways() + way) as u64;
                    c.peek(addr)?;
                    // peek goes through the index; cross-check against
                    // slot_of and the actual slot arithmetic.
                    (c.slot_of(addr) == Some(slot)).then_some(slot)
                });
                if c.contains(addr) {
                    assert_eq!(c.slot_of(addr), linear, "{addr}");
                    scanned += 1;
                } else {
                    assert_eq!(c.slot_of(addr), None, "{addr}");
                }
            }
            assert_eq!(c.len(), scanned);
        }
        let universe: Vec<LineAddr> = (0..12).map(LineAddr::new).collect();
        let mut c = tiny_cache();
        for i in 0..8u64 {
            c.insert(LineAddr::new(i), block(1, i), &[]);
            check(&c, &universe);
        }
        c.remove(LineAddr::new(6));
        check(&c, &universe);
        c.insert(LineAddr::new(10), block(2, 10), &[]);
        check(&c, &universe);
        c.clear();
        check(&c, &universe);
        assert!(c.is_empty());
    }

    /// One occupied way of the reference model.
    #[derive(Clone, Copy)]
    struct Way {
        addr: u64,
        id: u64,
        dirty: bool,
        used: u64,
    }

    /// The reference model: each set a vector of ways, scanned naively.
    struct Model {
        sets: Vec<Vec<Option<Way>>>,
        tick: u64,
        stats: CacheStats,
    }

    impl Model {
        fn new(sets: usize, ways: usize) -> Self {
            Self {
                sets: vec![vec![None; ways]; sets],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn locate(&self, addr: u64) -> Option<(usize, usize)> {
            let set = addr as usize % self.sets.len();
            let way = self.sets[set]
                .iter()
                .position(|e| e.is_some_and(|e| e.addr == addr))?;
            Some((set, way))
        }

        fn slot(&self, (set, way): (usize, usize)) -> u64 {
            (set * self.sets[0].len() + way) as u64
        }

        /// Like `insert`: `None` when every way is pinned, else the slot
        /// and the evicted way.
        fn insert(&mut self, new: Way, pinned: &[u64]) -> Option<(u64, Option<Way>)> {
            let addr = new.addr;
            let set = addr as usize % self.sets.len();
            let ways = &self.sets[set];
            let way = match ways.iter().position(Option::is_none) {
                Some(way) => way,
                None => {
                    let mut best: Option<(usize, u64)> = None;
                    for (way, e) in ways.iter().enumerate() {
                        let e = e.unwrap();
                        if !pinned.contains(&e.addr) && best.is_none_or(|(_, b)| e.used < b) {
                            best = Some((way, e.used));
                        }
                    }
                    best?.0
                }
            };
            self.tick += 1;
            let old = self.sets[set][way].replace(Way {
                used: self.tick,
                ..new
            });
            if let Some(old) = old {
                if old.dirty {
                    self.stats.dirty_evictions += 1;
                } else {
                    self.stats.clean_evictions += 1;
                }
            }
            Some((self.slot((set, way)), old))
        }

        fn dirty_addrs(&self) -> Vec<u64> {
            let entries = self.sets.iter().flatten().flatten();
            entries.filter(|e| e.dirty).map(|e| e.addr).collect()
        }
    }

    #[test]
    fn cache_matches_a_naive_per_set_model() {
        // 4 sets x 4 ways over 24 addresses: every set sees six
        // contenders, and pins are drawn from the inserted block's own set
        // so they decide victims.
        use soteria_rt::prop::{any, check, vec, Config};
        use soteria_rt::prop_assert_eq;
        const SETS: u64 = 4;
        check(
            "mdcache_matches_a_naive_per_set_model",
            &Config::with_cases(64),
            &vec((0u8..16, 0u64..24, 0u8..8, any::<bool>()), 1..400usize),
            |ops| {
                let mut cache = MetadataCache::new(SETS * 4 * 64, 4);
                let mut model = Model::new(SETS as usize, 4);
                for (id, &(op, addr, pins, dirty)) in ops.iter().enumerate() {
                    let id = id as u64;
                    let a = LineAddr::new(addr);
                    match op {
                        0..=5 => {
                            if model.locate(addr).is_some() {
                                continue;
                            }
                            let pinned: Vec<u64> = (0..3)
                                .filter(|k| pins & (1 << k) != 0)
                                .map(|k| (addr + (k + 1) * SETS) % 24)
                                .collect();
                            let new = Way {
                                addr,
                                id,
                                dirty,
                                used: 0,
                            };
                            let Some((want_slot, want_evicted)) = model.insert(new, &pinned) else {
                                continue; // every way pinned: insert panics
                            };
                            let block = if dirty {
                                CachedBlock::modified(MetaId::new(1, id), [0; 64])
                            } else {
                                CachedBlock::clean(MetaId::new(1, id), [0; 64])
                            };
                            let pinned: Vec<LineAddr> =
                                pinned.iter().map(|&p| LineAddr::new(p)).collect();
                            let (slot, evicted) = cache.insert(a, block, &pinned);
                            let evicted = evicted.map(|e| {
                                assert_eq!(e.slot, slot);
                                (e.addr.index(), e.block.meta.index, e.block.is_dirty())
                            });
                            let want_evicted = want_evicted.map(|e| (e.addr, e.id, e.dirty));
                            prop_assert_eq!((slot, evicted), (want_slot, want_evicted));
                        }
                        6..=8 => {
                            let got = cache.lookup(a).map(|b| b.meta.index);
                            model.tick += 1;
                            let want = model.locate(addr).map(|(set, way)| {
                                let e = model.sets[set][way].as_mut().unwrap();
                                e.used = model.tick;
                                e.id
                            });
                            match want {
                                Some(_) => model.stats.hits += 1,
                                None => model.stats.misses += 1,
                            }
                            prop_assert_eq!(got, want);
                        }
                        9 => {
                            let got = cache.peek(a).map(|b| (b.meta.index, b.is_dirty()));
                            let want = model
                                .locate(addr)
                                .map(|(s, w)| model.sets[s][w].map(|e| (e.id, e.dirty)).unwrap());
                            prop_assert_eq!(got, want);
                        }
                        10 | 11 => {
                            let mark = op == 10;
                            if mark {
                                cache.mark_dirty(a);
                            } else {
                                cache.mark_clean(a);
                            }
                            if let Some((s, w)) = model.locate(addr) {
                                model.sets[s][w].as_mut().unwrap().dirty = mark;
                            }
                        }
                        12..=14 => {
                            let got = cache.remove(a).map(|b| b.meta.index);
                            let want = model
                                .locate(addr)
                                .and_then(|(s, w)| model.sets[s][w].take().map(|e| e.id));
                            prop_assert_eq!(got, want);
                        }
                        _ => {
                            cache.clear();
                            model.sets.iter_mut().flatten().for_each(|e| *e = None);
                        }
                    }
                    prop_assert_eq!(cache.stats(), model.stats);
                    let dirty: Vec<u64> = cache.dirty_addrs().map(|a| a.index()).collect();
                    prop_assert_eq!(dirty, model.dirty_addrs());
                    let resident = model.sets.iter().flatten().flatten().count();
                    prop_assert_eq!(cache.len(), resident);
                    for probe in 0..24 {
                        let want = model.locate(probe).map(|c| model.slot(c));
                        prop_assert_eq!(cache.slot_of(LineAddr::new(probe)), want);
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_rejected() {
        let mut c = tiny_cache();
        c.insert(LineAddr::new(0), block(1, 0), &[]);
        c.insert(LineAddr::new(0), block(1, 0), &[]);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny_cache();
        c.insert(LineAddr::new(0), block(1, 0), &[]);
        c.lookup(LineAddr::new(0));
        c.lookup(LineAddr::new(9));
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
