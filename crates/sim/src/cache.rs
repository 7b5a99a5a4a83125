//! Set-associative cache array with true-LRU replacement and banking.
//!
//! Ways are allocated per set on first touch: a set that has never had
//! a line installed owns no storage, so building a large cache costs
//! nothing until a run actually uses it (an N = 512 design point's
//! 64 MiB L2 sees a few thousand distinct lines per evaluation).

use crate::config::CacheConfig;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present.
    Hit,
    /// Line absent.
    Miss,
}

/// One way of a set.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Monotonic timestamp of last touch (true LRU).
    last_used: u64,
}

/// A set-associative cache array (state only — timing lives in the chip
/// engine).
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    banks: usize,
    line_size: u64,
    /// Per set: 0 until the set's first install, then 1 + the index of
    /// its block of `ways` entries in `data`. Zero-filled, so the
    /// allocator can hand out untouched pages.
    slots: Vec<u32>,
    /// The way blocks of touched sets, in first-touch order.
    data: Vec<Way>,
    clock: u64,
    // Statistics
    hits: u64,
    misses: u64,
    evictions: u64,
    dirty_evictions: u64,
}

impl CacheArray {
    /// Build from a validated configuration.
    pub fn new(config: &CacheConfig) -> Self {
        CacheArray {
            sets: config.sets(),
            ways: config.associativity,
            banks: config.banks,
            line_size: config.line_size,
            slots: vec![0; config.sets()],
            data: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            dirty_evictions: 0,
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// The set index and tag of a line.
    #[inline]
    fn locate(&self, line: u64) -> (usize, u64) {
        (self.set_index(line), line / self.sets as u64)
    }

    /// Where the ways of `set` live in `data`, or `None` if the set was
    /// never installed into.
    #[inline]
    fn ways_of(&self, set: usize) -> Option<std::ops::Range<usize>> {
        let slot = self.slots[set] as usize;
        (slot > 0).then(|| (slot - 1) * self.ways..slot * self.ways)
    }

    /// The resident way holding `tag` in `set`, if any.
    #[inline]
    fn find_mut(&mut self, set: usize, tag: u64) -> Option<&mut Way> {
        let ways = self.ways_of(set)?;
        self.data[ways].iter_mut().find(|w| w.valid && w.tag == tag)
    }

    /// Which bank services this line (line-interleaved).
    #[inline]
    pub fn bank_of(&self, line: u64) -> usize {
        (line as usize) & (self.banks - 1)
    }

    /// The line index of a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_size
    }

    /// Probe without updating replacement state or statistics.
    pub fn probe(&self, line: u64) -> LookupResult {
        let (set, tag) = self.locate(line);
        let resident = self
            .ways_of(set)
            .is_some_and(|ways| self.data[ways].iter().any(|w| w.valid && w.tag == tag));
        if resident {
            LookupResult::Hit
        } else {
            LookupResult::Miss
        }
    }

    /// Access (lookup + LRU update + stats). `write` marks the line dirty
    /// on a hit.
    pub fn access(&mut self, line: u64, write: bool) -> LookupResult {
        self.clock += 1;
        let (set, tag) = self.locate(line);
        let clock = self.clock;
        if let Some(w) = self.find_mut(set, tag) {
            w.last_used = clock;
            if write {
                w.dirty = true;
            }
            self.hits += 1;
            return LookupResult::Hit;
        }
        self.misses += 1;
        LookupResult::Miss
    }

    /// Install a line (after a fill), evicting the LRU way if needed.
    ///
    /// Returns `Some((victim_line, was_dirty))` if a valid line was
    /// evicted.
    pub fn install(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let (set, tag) = self.locate(line);
        let clock = self.clock;
        if self.slots[set] == 0 {
            let block = self.data.len() / self.ways;
            self.slots[set] = u32::try_from(block + 1)
                .expect("CacheConfig::validate bounds the set count to u32");
            self.data
                .resize(self.data.len() + self.ways, Way::default());
        }
        let sets = self.sets as u64;
        let ways = self.ways_of(set).expect("set allocated above");
        let ways = &mut self.data[ways];
        // Already present (e.g. two merged fills): refresh.
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.last_used = clock;
            w.dirty |= dirty;
            return None;
        }
        // Prefer an invalid way, else the least recently used one.
        let mut victim = 0;
        let mut victim_used = u64::MAX;
        for (i, w) in ways.iter().enumerate() {
            if !w.valid {
                victim = i;
                break;
            }
            if w.last_used < victim_used {
                victim_used = w.last_used;
                victim = i;
            }
        }
        let w = &mut ways[victim];
        let evicted = w.valid.then(|| (w.tag * sets + set as u64, w.dirty));
        *w = Way {
            valid: true,
            dirty,
            tag,
            last_used: clock,
        };
        if let Some((_, d)) = evicted {
            self.evictions += 1;
            if d {
                self.dirty_evictions += 1;
            }
        }
        evicted
    }

    /// Mark a resident line dirty (writeback absorption from an upper
    /// level). Returns `false` if the line is not resident.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        match self.find_mut(set, tag) {
            Some(w) => {
                w.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Invalidate a line if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (set, tag) = self.locate(line);
        let w = self.find_mut(set, tag)?;
        w.valid = false;
        Some(w.dirty)
    }

    /// Hits recorded by [`CacheArray::access`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`CacheArray::access`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total evictions of valid lines.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions of dirty lines (writebacks generated).
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.data.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny_cache(ways: usize, lines: u64) -> CacheArray {
        let config = CacheConfig {
            size_bytes: lines * 64,
            line_size: 64,
            associativity: ways,
            hit_latency: 1,
            mshr_entries: 4,
            ports: 1,
            banks: 1,
            next_line_prefetch: false,
        };
        config.validate().unwrap();
        CacheArray::new(&config)
    }

    #[test]
    fn miss_then_hit_after_install() {
        let mut c = tiny_cache(2, 8);
        assert_eq!(c.access(5, false), LookupResult::Miss);
        c.install(5, false);
        assert_eq!(c.access(5, false), LookupResult::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, 4 sets: lines 0, 4, 8 all map to set 0.
        let mut c = tiny_cache(2, 8);
        c.install(0, false);
        c.install(4, false);
        // Touch 0 so 4 becomes LRU.
        assert_eq!(c.access(0, false), LookupResult::Hit);
        let evicted = c.install(8, false);
        assert_eq!(evicted, Some((4, false)));
        assert_eq!(c.probe(0), LookupResult::Hit);
        assert_eq!(c.probe(4), LookupResult::Miss);
        assert_eq!(c.probe(8), LookupResult::Hit);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny_cache(1, 4);
        c.install(0, true);
        let evicted = c.install(4, false); // same set (4 sets, 1 way)
        assert_eq!(evicted, Some((0, true)));
        assert_eq!(c.dirty_evictions(), 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny_cache(1, 4);
        c.install(1, false);
        c.access(1, true);
        let evicted = c.install(5, false);
        assert_eq!(evicted, Some((1, true)));
    }

    #[test]
    fn install_existing_line_is_refresh_not_eviction() {
        let mut c = tiny_cache(2, 8);
        c.install(3, false);
        assert_eq!(c.install(3, true), None);
        assert_eq!(c.evictions(), 0);
        // The refresh made it dirty.
        let mut evicted = None;
        // Fill the set (lines 3, 7 map to set 3) then evict.
        c.install(7, false);
        c.access(7, false); // 3 becomes LRU
        evicted = c.install(11, false).or(evicted);
        assert_eq!(evicted, Some((3, true)));
    }

    #[test]
    fn invalidate() {
        let mut c = tiny_cache(2, 8);
        c.install(2, true);
        assert_eq!(c.invalidate(2), Some(true));
        assert_eq!(c.probe(2), LookupResult::Miss);
        assert_eq!(c.invalidate(2), None);
    }

    #[test]
    fn capacity_behaviour_matches_size() {
        // A 16-line fully-indexed cache holds a 16-line working set.
        let mut c = tiny_cache(2, 16);
        for line in 0..16u64 {
            c.access(line, false);
            c.install(line, false);
        }
        assert_eq!(c.resident_lines(), 16);
        // Second pass: all hits.
        for line in 0..16u64 {
            assert_eq!(c.access(line, false), LookupResult::Hit);
        }
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn victims_are_correct_when_sets_fill_out_of_index_order() {
        // 2-way, 4 sets: set s holds lines s, s+4, s+8, ... First-touch
        // order 3, 0, 2, 1 puts each set's ways at a block position
        // unrelated to its index, so a victim's line must come from the
        // set index, not from where its way lives.
        let mut c = tiny_cache(2, 8);
        for set in [3u64, 0, 2, 1] {
            assert_eq!(c.install(set, set % 2 == 0), None);
            assert_eq!(c.install(set + 4, false), None);
        }
        for set in [1u64, 3, 0, 2] {
            // `set` is the LRU way of its set: it goes first.
            assert_eq!(c.install(set + 8, false), Some((set, set % 2 == 0)));
            assert_eq!(c.install(set + 12, false), Some((set + 4, false)));
            assert_eq!(c.probe(set + 8), LookupResult::Hit);
            assert_eq!(c.probe(set), LookupResult::Miss);
        }
        assert_eq!(c.evictions(), 8);
        assert_eq!(c.dirty_evictions(), 2);
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn untouched_sets_miss_without_allocating() {
        let mut c = tiny_cache(4, 64);
        assert_eq!(c.probe(9), LookupResult::Miss);
        assert_eq!(c.access(9, true), LookupResult::Miss);
        assert!(!c.mark_dirty(9));
        assert_eq!(c.invalidate(9), None);
        assert!(c.data.is_empty(), "a lookup must not allocate a set");
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.misses(), 1);
        // An install allocates exactly one set's ways.
        c.install(9, false);
        assert_eq!(c.data.len(), 4);
        assert_eq!(c.probe(9 + 16), LookupResult::Miss);
        assert_eq!(c.data.len(), 4);
    }

    /// The dense reference: every set's ways allocated up front, the
    /// victim's line recovered from its position in the array.
    struct DenseCache {
        sets: usize,
        ways: usize,
        data: Vec<Way>,
        clock: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
        dirty_evictions: u64,
    }

    impl DenseCache {
        fn new(sets: usize, ways: usize) -> Self {
            DenseCache {
                sets,
                ways,
                data: vec![Way::default(); sets * ways],
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                dirty_evictions: 0,
            }
        }

        fn set_range(&self, line: u64) -> (std::ops::Range<usize>, u64) {
            let base = (line as usize & (self.sets - 1)) * self.ways;
            (base..base + self.ways, line / self.sets as u64)
        }

        fn find(&mut self, line: u64) -> Option<&mut Way> {
            let (range, tag) = self.set_range(line);
            self.data[range]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)
        }

        fn access(&mut self, line: u64, write: bool) -> LookupResult {
            self.clock += 1;
            let clock = self.clock;
            match self.find(line) {
                Some(w) => {
                    w.last_used = clock;
                    w.dirty |= write;
                    self.hits += 1;
                    LookupResult::Hit
                }
                None => {
                    self.misses += 1;
                    LookupResult::Miss
                }
            }
        }

        fn install(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
            self.clock += 1;
            let clock = self.clock;
            if let Some(w) = self.find(line) {
                w.last_used = clock;
                w.dirty |= dirty;
                return None;
            }
            let (range, tag) = self.set_range(line);
            let victim = range
                .clone()
                .find(|&i| !self.data[i].valid)
                .or_else(|| range.min_by_key(|&i| self.data[i].last_used))
                .unwrap();
            let w = self.data[victim];
            let evicted = w.valid.then(|| {
                (
                    w.tag * self.sets as u64 + (victim / self.ways) as u64,
                    w.dirty,
                )
            });
            self.data[victim] = Way {
                valid: true,
                dirty,
                tag,
                last_used: clock,
            };
            if let Some((_, d)) = evicted {
                self.evictions += 1;
                self.dirty_evictions += d as u64;
            }
            evicted
        }
    }

    #[test]
    fn first_touch_matches_the_dense_array_on_a_random_stream() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut c = tiny_cache(4, 256); // 64 sets
        let mut dense = DenseCache::new(64, 4);
        for step in 0..20_000 {
            // Lines over 8x the capacity, skewed so sets fill unevenly.
            let line = if rng.gen_range(0..4) == 0 {
                rng.gen_range(0..2048u64)
            } else {
                rng.gen_range(0..96u64) * 3
            };
            let write = rng.gen_range(0..3) == 0;
            match rng.gen_range(0..10) {
                0..=4 => assert_eq!(c.access(line, write), dense.access(line, write), "{step}"),
                5..=7 => assert_eq!(c.install(line, write), dense.install(line, write), "{step}"),
                8 => assert_eq!(
                    c.mark_dirty(line),
                    dense.find(line).map(|w| w.dirty = true).is_some()
                ),
                _ => assert_eq!(
                    c.invalidate(line),
                    dense.find(line).map(|w| {
                        w.valid = false;
                        w.dirty
                    })
                ),
            }
        }
        let dense_resident = dense.data.iter().filter(|w| w.valid).count();
        assert_eq!(c.resident_lines(), dense_resident);
        assert_eq!(c.hits(), dense.hits);
        assert_eq!(c.misses(), dense.misses);
        assert_eq!(c.evictions(), dense.evictions);
        assert_eq!(c.dirty_evictions(), dense.dirty_evictions);
        assert!(c.evictions() > 1_000, "the stream must exercise eviction");
    }

    #[test]
    fn bank_mapping_is_line_interleaved() {
        let config = CacheConfig {
            banks: 4,
            ..CacheConfig::default_l1()
        };
        let c = CacheArray::new(&config);
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(1), 1);
        assert_eq!(c.bank_of(5), 1);
        assert_eq!(c.bank_of(7), 3);
        assert_eq!(c.line_of(256), 4);
    }
}
