//! Set-associative write-back caches for the Table 3 hierarchy.

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in CPU cycles.
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Table 3 L1: 32 kB, 2-way, 2 cycles.
    pub fn table3_l1() -> Self {
        Self {
            bytes: 32 * 1024,
            ways: 2,
            latency_cycles: 2,
        }
    }

    /// Table 3 L2: 512 kB, 8-way, 20 cycles.
    pub fn table3_l2() -> Self {
        Self {
            bytes: 512 * 1024,
            ways: 8,
            latency_cycles: 20,
        }
    }

    /// Table 3 LLC: 8 MB, 64-way, 32 cycles.
    pub fn table3_llc() -> Self {
        Self {
            bytes: 8 * 1024 * 1024,
            ways: 64,
            latency_cycles: 32,
        }
    }
}

/// Tag of an invalid way.
const INVALID: u64 = u64::MAX;

/// What a cache access did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessResult {
    /// The line was present.
    pub hit: bool,
    /// A dirty victim (line index) was evicted to make room.
    pub writeback: Option<u64>,
}

/// Per-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Hits at this level.
    pub hits: u64,
    /// Misses at this level.
    pub misses: u64,
}

/// One cache level, indexed by 64-byte line address.
///
/// Each per-way field lives in its own array indexed by `set * ways +
/// way`: the line held ([`u64::MAX`] when invalid), its LRU stamp and its
/// dirty bit. A lookup scans only its set's contiguous tags: 512 bytes
/// for the 64-way LLC.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    set_mask: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    stats: LevelStats,
}

impl Cache {
    /// Builds the level.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration forms at least one power-of-two
    /// set.
    pub fn new(config: CacheConfig) -> Self {
        let lines = (config.bytes / 64) as usize;
        assert!(config.ways > 0 && lines >= config.ways, "cache too small");
        let sets = lines / config.ways;
        assert!(sets.is_power_of_two(), "{sets} sets not a power of two");
        let slots = sets * config.ways;
        Self {
            config,
            set_mask: sets as u64 - 1,
            tags: vec![INVALID; slots],
            stamps: vec![0; slots],
            dirty: vec![false; slots],
            tick: 0,
            stats: LevelStats::default(),
        }
    }

    /// Hit latency.
    pub fn latency(&self) -> u64 {
        self.config.latency_cycles
    }

    /// Statistics so far.
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Accesses `line`; on a miss the line is allocated (write-allocate)
    /// and the dirty victim, if any, is reported for writeback.
    ///
    /// # Panics
    ///
    /// Panics if `line` is `u64::MAX`, the invalid-way tag.
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessResult {
        assert!(line != INVALID, "line {line} is the invalid-way tag");
        self.tick += 1;
        let base = (line & self.set_mask) as usize * self.config.ways;
        let tags = &self.tags[base..base + self.config.ways];
        if let Some(way) = tags.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.tick;
            self.dirty[base + way] |= is_write;
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        // Choose an invalid way or the LRU victim (the first on a tie).
        let way = match tags.iter().position(|&t| t == INVALID) {
            Some(way) => way,
            None => {
                let stamps = &self.stamps[base..base + self.config.ways];
                (1..stamps.len()).fold(0, |lru, w| if stamps[w] < stamps[lru] { w } else { lru })
            }
        };
        let victim = base + way;
        let old = std::mem::replace(&mut self.tags[victim], line);
        let writeback = (old != INVALID && self.dirty[victim]).then_some(old);
        self.stamps[victim] = self.tick;
        self.dirty[victim] = is_write;
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Inserts a dirty line without a demand access (victim insertion from
    /// an upper level); reports a displaced dirty victim.
    pub fn insert_dirty(&mut self, line: u64) -> Option<u64> {
        let r = self.access(line, true);
        // `access` counted this as a miss/hit; victim insertions should not
        // pollute demand statistics.
        if r.hit {
            self.stats.hits -= 1;
        } else {
            self.stats.misses -= 1;
        }
        r.writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines, 2-way => 2 sets.
        Cache::new(CacheConfig {
            bytes: 256,
            ways: 2,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_and_writeback() {
        let mut c = tiny();
        c.access(0, true); // set 0, dirty
        c.access(2, false); // set 0
        c.access(0, false); // refresh 0
        let r = c.access(4, false); // set 0: evicts 2 (clean)
        assert_eq!(r.writeback, None);
        let r = c.access(6, false); // set 0: evicts 0 (dirty)
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn writes_dirty_lines() {
        let mut c = tiny();
        c.access(1, false);
        c.access(1, true); // now dirty
        c.access(3, false);
        let r = c.access(5, false); // evicts LRU=1 dirty
        assert_eq!(r.writeback, Some(1));
    }

    #[test]
    fn victim_insertion_does_not_count_in_stats() {
        let mut c = tiny();
        c.insert_dirty(8);
        assert_eq!(c.stats(), LevelStats::default());
        assert!(c.access(8, false).hit);
    }

    /// The array-of-structs level the split arrays replaced, kept as the
    /// reference they must match.
    mod reference {
        use super::super::{AccessResult, CacheConfig, LevelStats};

        #[derive(Clone, Copy, Debug)]
        struct Line {
            tag: u64,
            dirty: bool,
            last_use: u64,
            valid: bool,
        }

        pub struct Cache {
            sets: Vec<Vec<Line>>,
            tick: u64,
            pub stats: LevelStats,
        }

        impl Cache {
            pub fn new(config: CacheConfig) -> Self {
                let sets = (config.bytes / 64) as usize / config.ways;
                let line = Line {
                    tag: 0,
                    dirty: false,
                    last_use: 0,
                    valid: false,
                };
                Self {
                    sets: vec![vec![line; config.ways]; sets],
                    tick: 0,
                    stats: LevelStats::default(),
                }
            }

            pub fn access(&mut self, line: u64, is_write: bool) -> AccessResult {
                self.tick += 1;
                let set_idx = (line % self.sets.len() as u64) as usize;
                let set = &mut self.sets[set_idx];
                if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == line) {
                    l.last_use = self.tick;
                    l.dirty |= is_write;
                    self.stats.hits += 1;
                    return AccessResult {
                        hit: true,
                        writeback: None,
                    };
                }
                self.stats.misses += 1;
                let victim = match set.iter().position(|l| !l.valid) {
                    Some(w) => w,
                    None => set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.last_use)
                        .map(|(w, _)| w)
                        .expect("nonempty set"),
                };
                let old = set[victim];
                set[victim] = Line {
                    tag: line,
                    dirty: is_write,
                    last_use: self.tick,
                    valid: true,
                };
                AccessResult {
                    hit: false,
                    writeback: (old.valid && old.dirty).then_some(old.tag),
                }
            }
        }
    }

    #[test]
    fn table3_levels_match_the_array_of_structs_reference() {
        // Lines from four sets, with twice as many tags as ways per set,
        // so hits, fills, LRU evictions and dirty writebacks all occur.
        use soteria_rt::prop::{any, check, vec, Config};
        for config in [
            CacheConfig::table3_l1(),
            CacheConfig::table3_l2(),
            CacheConfig::table3_llc(),
        ] {
            let sets = config.bytes / 64 / config.ways as u64;
            let tags = 2 * config.ways as u64;
            check(
                &format!("simcpu_cache_matches_reference_{}way", config.ways),
                &Config::with_cases(16),
                &vec((0u64..4, 0u64..tags, any::<bool>()), 1..1500usize),
                |stream| {
                    let mut cache = Cache::new(config);
                    let mut reference = reference::Cache::new(config);
                    for &(set, tag, is_write) in stream {
                        let line = set * 97 % sets + tag * sets;
                        let got = cache.access(line, is_write);
                        soteria_rt::prop_assert_eq!(got, reference.access(line, is_write));
                        soteria_rt::prop_assert_eq!(cache.stats(), reference.stats);
                    }
                    Ok(())
                },
            );
        }
    }

    #[test]
    fn table3_shapes_build() {
        let _ = Cache::new(CacheConfig::table3_l1());
        let _ = Cache::new(CacheConfig::table3_l2());
        let _ = Cache::new(CacheConfig::table3_llc());
    }
}
