//! Generic set-associative cache with LRU replacement and CAT-style
//! way-masked allocation.
//!
//! One [`Cache`] instance models any of L1D, L2 or the shared LLC; the
//! level-specific behaviour (who triggers which prefetcher, inclusive
//! back-invalidation) lives in [`crate::system`].
//!
//! ## CAT semantics
//!
//! Intel Cache Allocation Technology restricts only **allocation**: a core
//! whose class of service (CLOS) owns ways `{0,1}` may still *hit* on a
//! line that physically resides in way 7 — it just cannot victimise way 7
//! when it needs to insert. [`Cache::insert`] therefore takes an
//! `alloc_mask` limiting victim selection, while [`Cache::access`] searches
//! all ways unconditionally. This mirrors the hardware exactly and is what
//! makes *overlapping* partitions (used by the paper and by Dunn) work.

use crate::config::CacheGeometry;

const INVALID_TAG: u64 = u64::MAX;

const FLAG_PREFETCHED: u8 = 0b01;
const FLAG_DIRTY: u8 = 0b10;

/// Result of a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// True if the line was brought in by a prefetch and this is the first
    /// demand touch since (the prefetched bit is cleared by that touch).
    /// Used for ground-truth prefetch-accuracy accounting.
    pub first_use_of_prefetch: bool,
}

/// A line pushed out by [`Cache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line number of the victim.
    pub line: u64,
    /// The victim held modified data and must be written back.
    pub dirty: bool,
    /// The victim was prefetched and never demand-touched (wasted prefetch).
    pub unused_prefetch: bool,
}

/// Aggregate counters kept by each cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Demand hits that were the first touch of a prefetched line.
    pub prefetch_used: u64,
    /// Prefetched lines evicted without ever being demand-touched.
    pub prefetch_wasted: u64,
}

/// A set-associative, write-back, LRU cache.
#[derive(Clone)]
pub struct Cache {
    sets: u64,
    ways: usize,
    set_mask: u64,
    /// `sets * ways` tags (line numbers), row-major by set.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`; larger = more recently used.
    stamps: Vec<u64>,
    /// Per-line flag bits parallel to `tags`.
    flags: Vec<u8>,
    tick: u64,
    /// Counters; public for tests and diagnostics.
    pub stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        geom.validate();
        let sets = geom.sets();
        let ways = geom.ways as usize;
        let n = (sets as usize) * ways;
        Cache {
            sets,
            ways,
            set_mask: sets - 1,
            tags: vec![INVALID_TAG; n],
            stamps: vec![0; n],
            flags: vec![0; n],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    #[inline(always)]
    fn set_base(&self, line: u64) -> usize {
        ((line & self.set_mask) as usize) * self.ways
    }

    #[inline(always)]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_base(line);
        // One slice reborrow, one pass: the compiler hoists the bounds
        // check and vectorises the tag compare.
        let tags = &self.tags[base..base + self.ways];
        for (w, &t) in tags.iter().enumerate() {
            if t == line {
                return Some(base + w);
            }
        }
        None
    }

    /// True if the line is resident. Does not disturb LRU or statistics.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Demand access. On a hit, updates LRU, clears the prefetched bit and
    /// reports whether this was the first use of a prefetched line.
    pub fn access(&mut self, line: u64) -> Option<HitInfo> {
        self.tick += 1;
        match self.find(line) {
            Some(idx) => {
                self.stamps[idx] = self.tick;
                let first_use = self.flags[idx] & FLAG_PREFETCHED != 0;
                if first_use {
                    self.flags[idx] &= !FLAG_PREFETCHED;
                    self.stats.prefetch_used += 1;
                }
                self.stats.hits += 1;
                Some(HitInfo { first_use_of_prefetch: first_use })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Prefetch probe: like [`Cache::access`] but does **not** clear the
    /// prefetched bit (a prefetcher re-touching its own line is not a use)
    /// and does not update LRU (Intel prefetch probes do not promote).
    pub fn probe_for_prefetch(&mut self, line: u64) -> bool {
        let hit = self.find(line).is_some();
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Marks a resident line dirty (no-op if absent).
    pub fn mark_dirty(&mut self, line: u64) {
        if let Some(idx) = self.find(line) {
            self.flags[idx] |= FLAG_DIRTY;
        }
    }

    /// Removes a line (inclusive back-invalidation). Returns the removed
    /// line's state if it was resident, so callers can write back dirty
    /// data.
    pub fn invalidate_line(&mut self, line: u64) -> Option<Eviction> {
        if let Some(idx) = self.find(line) {
            let unused_prefetch = self.flags[idx] & FLAG_PREFETCHED != 0;
            if unused_prefetch {
                self.stats.prefetch_wasted += 1;
            }
            let dirty = self.flags[idx] & FLAG_DIRTY != 0;
            self.tags[idx] = INVALID_TAG;
            self.flags[idx] = 0;
            self.stamps[idx] = 0;
            Some(Eviction { line, dirty, unused_prefetch })
        } else {
            None
        }
    }

    /// Inserts `line`, selecting the victim only among ways set in
    /// `alloc_mask` (CAT). If the line is already resident this refreshes
    /// LRU instead (fill races are benign). Returns the eviction, if any.
    ///
    /// `alloc_mask` must intersect `[0, ways)`; callers pass
    /// `u64::MAX` when partitioning is off.
    pub fn insert(&mut self, line: u64, prefetched: bool, alloc_mask: u64) -> Option<Eviction> {
        self.insert_qbs(line, prefetched, alloc_mask, &|_| false)
    }

    /// [`Cache::insert`] with Query-Based Selection: ways whose line is
    /// `protected` (resident in some private cache, per the inclusive-LLC
    /// QBS of Broadwell) are victimised only if every usable way is
    /// protected.
    pub fn insert_qbs(
        &mut self,
        line: u64,
        prefetched: bool,
        alloc_mask: u64,
        protected: &dyn Fn(u64) -> bool,
    ) -> Option<Eviction> {
        self.tick += 1;
        let base = self.set_base(line);
        let usable = alloc_mask & Self::low_ways_mask(self.ways);
        debug_assert!(usable != 0, "allocation mask selects no way");

        // Single packed pass over the set: detect a hit on `line`, note the
        // first usable invalid way, and track the LRU (min-stamp) usable
        // way all in one sweep over the contiguous tag/stamp rows, instead
        // of a `find` pass followed by a victim-selection pass.
        let mut invalid_way: Option<usize> = None;
        let mut lru_way = usize::MAX;
        let mut lru_stamp = u64::MAX;
        let tags = &self.tags[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        for (w, &t) in tags.iter().enumerate() {
            if t == line {
                // Already present (e.g. demand fill racing a prefetch
                // fill): refresh recency; never *set* the prefetched bit on
                // a line that a demand already claimed.
                let idx = base + w;
                self.stamps[idx] = self.tick;
                if !prefetched {
                    self.flags[idx] &= !FLAG_PREFETCHED;
                }
                return None;
            }
            if usable & (1 << w) != 0 {
                if t == INVALID_TAG && invalid_way.is_none() {
                    invalid_way = Some(w);
                }
                let s = stamps[w];
                if s < lru_stamp {
                    lru_stamp = s;
                    lru_way = w;
                }
            }
        }

        // Prefer an invalid way inside the mask, else the LRU way among
        // unprotected lines, else (all usable ways protected) the plain LRU
        // way. Candidates are probed in LRU order so `protected` — a
        // presence-table lookup — runs once for the common case of an
        // unprotected LRU victim rather than once per way.
        let idx = if let Some(w) = invalid_way {
            base + w
        } else {
            assert!(lru_way != usize::MAX, "allocation mask selects no way");
            if !protected(self.tags[base + lru_way]) {
                base + lru_way
            } else {
                base + self.qbs_fallback(base, usable, lru_way, protected)
            }
        };

        let evicted = if self.tags[idx] != INVALID_TAG {
            let unused_prefetch = self.flags[idx] & FLAG_PREFETCHED != 0;
            if unused_prefetch {
                self.stats.prefetch_wasted += 1;
            }
            self.stats.evictions += 1;
            Some(Eviction {
                line: self.tags[idx],
                dirty: self.flags[idx] & FLAG_DIRTY != 0,
                unused_prefetch,
            })
        } else {
            None
        };

        self.tags[idx] = line;
        self.stamps[idx] = self.tick;
        self.flags[idx] = if prefetched { FLAG_PREFETCHED } else { 0 };
        self.stats.insertions += 1;
        evicted
    }

    /// QBS fallback once the LRU way `lru_way` of the set at `base` turned
    /// out to be protected: probe the other usable ways in LRU order and
    /// return the first unprotected one, or `lru_way` if every usable way
    /// is protected. Under the paper's mixes this runs about 0.3 M times
    /// per 3.7 M-cycle 8-core run and takes a median of five probes, so
    /// the candidates are gathered once into a dense stamp array and each
    /// probe takes a branch-free minimum over it. The probe order is the
    /// LRU order by `(stamp, way)`.
    fn qbs_fallback(
        &self,
        base: usize,
        usable: u64,
        lru_way: usize,
        protected: &dyn Fn(u64) -> bool,
    ) -> usize {
        // Candidates in way order. A probed way is retired by setting its
        // stamp to `u64::MAX`, which no live stamp reaches (stamps are
        // tick values, one per access).
        let mut stamps = [u64::MAX; 64];
        let mut ways = [0u8; 64];
        let mut n = 0;
        for (w, &s) in self.stamps[base..base + self.ways].iter().enumerate() {
            if usable & (1 << w) != 0 && w != lru_way {
                stamps[n] = s;
                ways[n] = w as u8;
                n += 1;
            }
        }
        for _ in 0..n {
            // Strict `<` keeps the first (lowest) way among equal stamps.
            let (mut best, mut best_stamp) = (0, stamps[0]);
            for (i, &s) in stamps[..n].iter().enumerate().skip(1) {
                let older = s < best_stamp;
                best = if older { i } else { best };
                best_stamp = if older { s } else { best_stamp };
            }
            let w = usize::from(ways[best]);
            if !protected(self.tags[base + w]) {
                return w;
            }
            stamps[best] = u64::MAX;
        }
        lru_way
    }

    /// Bitmask selecting all `ways` low way bits.
    #[inline]
    pub fn low_ways_mask(ways: usize) -> u64 {
        if ways >= 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        }
    }

    /// Empties the cache, keeping statistics.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.flags.fill(0);
        self.stamps.fill(0);
    }

    /// How many lines of the given set are currently valid. Test helper.
    pub fn set_occupancy(&self, set: u64) -> usize {
        let base = (set as usize) * self.ways;
        self.tags[base..base + self.ways].iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 4 ways.
        Cache::new(CacheGeometry { size_bytes: 4 * 4 * 64, ways: 4, hit_latency: 1 })
    }

    /// Lines 0,4,8,... all map to set 0 of a 4-set cache.
    fn set0_line(i: u64) -> u64 {
        i * 4
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.access(10).is_none());
        c.insert(10, false, u64::MAX);
        assert!(c.access(10).is_some());
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        for i in 0..4 {
            c.insert(set0_line(i), false, u64::MAX);
        }
        // Touch lines 1..3 so line 0 is LRU.
        for i in 1..4 {
            assert!(c.access(set0_line(i)).is_some());
        }
        let ev = c.insert(set0_line(9), false, u64::MAX).expect("set full");
        assert_eq!(ev.line, set0_line(0));
    }

    #[test]
    fn masked_insert_only_victimises_masked_ways() {
        let mut c = small();
        // Fill all 4 ways of set 0.
        for i in 0..4 {
            c.insert(set0_line(i), false, u64::MAX);
        }
        // Insert 100 new lines restricted to way 0: the three lines that
        // landed in ways 1..3 must survive.
        let survivors: Vec<u64> = (1..4).map(set0_line).collect();
        for i in 10..110 {
            c.insert(set0_line(i), false, 0b0001);
        }
        let mut present = 0;
        for &l in &survivors {
            if c.contains(l) {
                present += 1;
            }
        }
        assert!(present >= 2, "masked inserts must not evict unmasked ways (kept {present}/3)");
        // At least the most recent masked insert is resident.
        assert!(c.contains(set0_line(109)));
    }

    #[test]
    fn hits_allowed_outside_alloc_mask() {
        let mut c = small();
        c.insert(set0_line(0), false, 0b1000); // way 3
                                               // A core restricted to way 0 still hits.
        assert!(c.access(set0_line(0)).is_some());
    }

    #[test]
    fn prefetched_bit_first_use_accounting() {
        let mut c = small();
        c.insert(7, true, u64::MAX);
        let h1 = c.access(7).unwrap();
        assert!(h1.first_use_of_prefetch);
        let h2 = c.access(7).unwrap();
        assert!(!h2.first_use_of_prefetch);
        assert_eq!(c.stats.prefetch_used, 1);
    }

    #[test]
    fn unused_prefetch_counted_on_eviction() {
        let mut c = small();
        c.insert(set0_line(0), true, 0b0001);
        c.insert(set0_line(1), false, 0b0001);
        assert_eq!(c.stats.prefetch_wasted, 1);
    }

    #[test]
    fn demand_fill_overrides_prefetch_bit_on_race() {
        let mut c = small();
        c.insert(9, true, u64::MAX);
        c.insert(9, false, u64::MAX); // demand fill of same line
        let h = c.access(9).unwrap();
        assert!(!h.first_use_of_prefetch);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.insert(set0_line(0), false, 0b0001);
        c.mark_dirty(set0_line(0));
        let ev = c.insert(set0_line(1), false, 0b0001).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.insert(42, false, u64::MAX);
        assert!(c.invalidate_line(42).is_some());
        assert!(!c.contains(42));
        assert!(c.invalidate_line(42).is_none());
    }

    #[test]
    fn invalidate_reports_dirty_state() {
        let mut c = small();
        c.insert(42, false, u64::MAX);
        c.mark_dirty(42);
        let ev = c.invalidate_line(42).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.line, 42);
    }

    #[test]
    fn prefetch_probe_does_not_consume_first_use() {
        let mut c = small();
        c.insert(5, true, u64::MAX);
        assert!(c.probe_for_prefetch(5));
        let h = c.access(5).unwrap();
        assert!(h.first_use_of_prefetch, "probe must not clear the prefetched bit");
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = small();
        assert_eq!(c.set_occupancy(0), 0);
        c.insert(set0_line(0), false, u64::MAX);
        c.insert(set0_line(1), false, u64::MAX);
        assert_eq!(c.set_occupancy(0), 2);
        c.flush();
        assert_eq!(c.set_occupancy(0), 0);
    }
}
