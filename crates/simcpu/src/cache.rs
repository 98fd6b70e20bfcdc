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

/// The position of `tag` in `tags`. Each chunk of 16 is tested whole,
/// with no early exit, so the comparison runs as vector instructions;
/// only the chunk holding the tag is then searched.
fn find(tags: &[u32], tag: u32) -> Option<usize> {
    const CHUNK: usize = 16;
    let mut chunks = tags.chunks_exact(CHUNK);
    for (c, chunk) in chunks.by_ref().enumerate() {
        if chunk.iter().fold(false, |hit, &t| hit | (t == tag)) {
            return chunk.iter().position(|&t| t == tag).map(|w| c * CHUNK + w);
        }
    }
    let rest = chunks.remainder();
    let start = tags.len() - rest.len();
    rest.iter().position(|&t| t == tag).map(|w| start + w)
}

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

/// A way's dirty bit and its neighbours in its set's recency list.
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    /// The next less recently used way (meaningless at the tail).
    older: u8,
    /// The next more recently used way (meaningless at the head).
    newer: u8,
    dirty: bool,
}

/// A set's recency list ends and its fill count.
#[derive(Clone, Copy, Debug, Default)]
struct SetState {
    /// Most recently used way.
    mru: u8,
    /// Least recently used way: the next victim once the set is full.
    lru: u8,
    /// Ways filled so far. Fills take ways in order and no way is ever
    /// invalidated, so exactly ways `0..fill` hold lines.
    fill: u16,
}

/// One cache level with exact LRU, indexed by 64-byte line address.
///
/// Two arrays are indexed by `set * ways + way`: the tags, and each
/// way's dirty bit and neighbours in its set's recency list. A tag is
/// the line's index above the set bits, stored in 32 bits, so a lookup
/// scans 256 bytes of the 64-way LLC, and only the filled ways. A hit
/// moves its way to the front of the list and a full set evicts the
/// list's tail, so neither reads more than a few entries.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    set_bits: u32,
    tags: Vec<u32>,
    ways: Vec<Way>,
    sets: Vec<SetState>,
    stats: LevelStats,
}

impl Cache {
    /// Builds the level.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration forms at least one power-of-two
    /// set of at most 256 ways.
    pub fn new(config: CacheConfig) -> Self {
        let lines = (config.bytes / 64) as usize;
        assert!(config.ways > 0 && lines >= config.ways, "cache too small");
        assert!(config.ways <= 256, "{} ways exceed 256", config.ways);
        let sets = lines / config.ways;
        assert!(sets.is_power_of_two(), "{sets} sets not a power of two");
        let slots = sets * config.ways;
        Self {
            config,
            set_bits: sets.trailing_zeros(),
            tags: vec![0; slots],
            ways: vec![Way::default(); slots],
            sets: vec![SetState::default(); sets],
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

    /// One past the highest line this level can hold: tags are 32 bits
    /// above the set bits.
    fn line_limit(&self) -> u64 {
        1u64 << (32 + self.set_bits)
    }

    /// Accesses `line`; on a miss the line is allocated (write-allocate)
    /// and the dirty victim, if any, is reported for writeback.
    ///
    /// # Panics
    ///
    /// Panics if `line` needs a tag wider than 32 bits: at the Table 3
    /// LLC's 2 048 sets, a line at or above 2^43.
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessResult {
        let tag = line >> self.set_bits;
        assert!(
            tag <= u64::from(u32::MAX),
            "line {line} is beyond this level's 32-bit tags (limit {})",
            self.line_limit()
        );
        let tag = tag as u32;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        let ways = self.config.ways;
        let base = set * ways;
        let state = self.sets[set];
        let fill = usize::from(state.fill);
        if let Some(way) = find(&self.tags[base..base + fill], tag) {
            self.ways[base + way].dirty |= is_write;
            self.stats.hits += 1;
            self.touch(set, way as u8);
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        let mut writeback = None;
        if fill < ways {
            let way = fill as u8;
            let state = &mut self.sets[set];
            state.fill += 1;
            if fill == 0 {
                state.lru = way;
            } else {
                self.ways[base + fill].older = state.mru;
                self.ways[base + usize::from(state.mru)].newer = way;
            }
            state.mru = way;
            self.tags[base + fill] = tag;
            self.ways[base + fill].dirty = is_write;
        } else {
            let way = state.lru;
            let victim = base + usize::from(way);
            if self.ways[victim].dirty {
                writeback = Some((u64::from(self.tags[victim]) << self.set_bits) | set as u64);
            }
            self.tags[victim] = tag;
            self.ways[victim].dirty = is_write;
            self.touch(set, way);
        }
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Moves filled `way` of `set` to the front of its recency list.
    fn touch(&mut self, set: usize, way: u8) {
        let base = set * self.config.ways;
        let state = &mut self.sets[set];
        if state.mru == way {
            return;
        }
        let ways = &mut self.ways[base..base + self.config.ways];
        // Unlink: `way` has a newer neighbour, since it is not the head.
        let Way { older, newer, .. } = ways[usize::from(way)];
        if state.lru == way {
            state.lru = newer;
        } else {
            ways[usize::from(older)].newer = newer;
            ways[usize::from(newer)].older = older;
        }
        ways[usize::from(way)].older = state.mru;
        ways[usize::from(state.mru)].newer = way;
        state.mru = way;
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

    /// The array-of-structs level with per-line LRU stamps that the
    /// recency lists replaced, kept as the reference they must match.
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
        // Half the tags sit at the top of the 32-bit tag range, so the
        // highest line each level can hold is exercised too.
        use soteria_rt::prop::{any, check, vec, Config};
        for config in [
            CacheConfig::table3_l1(),
            CacheConfig::table3_l2(),
            CacheConfig::table3_llc(),
        ] {
            let sets = config.bytes / 64 / config.ways as u64;
            let tags = 2 * config.ways as u64;
            let top = u64::from(u32::MAX) + 1 - config.ways as u64;
            check(
                &format!("simcpu_cache_matches_reference_{}way", config.ways),
                &Config::with_cases(16),
                &vec((0u64..4, 0u64..tags, any::<bool>()), 1..1500usize),
                |stream| {
                    let mut cache = Cache::new(config);
                    let mut reference = reference::Cache::new(config);
                    for &(set, tag, is_write) in stream {
                        let tag = if tag.is_multiple_of(2) {
                            tag / 2
                        } else {
                            top + tag / 2
                        };
                        let line = set * 97 % sets + tag * sets;
                        soteria_rt::prop_assert!(line < cache.line_limit());
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
    fn line_limit_is_the_32_bit_tag_bound() {
        // The LLC's 2 048 sets take 11 bits, so its tags cover 2^43 lines.
        let mut llc = Cache::new(CacheConfig::table3_llc());
        assert_eq!(llc.line_limit(), 1 << 43);
        let last = llc.line_limit() - 1;
        assert!(!llc.access(last, true).hit);
        assert!(llc.access(last, false).hit);
    }

    #[test]
    #[should_panic(expected = "beyond this level's 32-bit tags")]
    fn lines_past_the_tag_bound_are_rejected() {
        let mut llc = Cache::new(CacheConfig::table3_llc());
        let limit = llc.line_limit();
        llc.access(limit, false);
    }

    #[test]
    fn table3_shapes_build() {
        let _ = Cache::new(CacheConfig::table3_l1());
        let _ = Cache::new(CacheConfig::table3_l2());
        let _ = Cache::new(CacheConfig::table3_llc());
    }
}
