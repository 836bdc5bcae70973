//! Property tests: the set-associative cache against a naive reference
//! model and against the repeated-min-scan QBS victim choice it replaced,
//! plus structural invariants under arbitrary operation sequences.

use cmm_sim::cache::{Cache, Eviction};
use cmm_sim::config::CacheGeometry;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Naive fully-explicit LRU reference: per set, a recency queue of lines.
struct RefCache {
    sets: u64,
    ways: usize,
    /// Per-set recency order, most-recent last.
    q: Vec<VecDeque<u64>>,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        RefCache { sets, ways, q: (0..sets).map(|_| VecDeque::new()).collect() }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets) as usize
    }

    fn access(&mut self, line: u64) -> bool {
        let s = self.set_of(line);
        if let Some(pos) = self.q[s].iter().position(|&l| l == line) {
            let l = self.q[s].remove(pos).unwrap();
            self.q[s].push_back(l);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, line: u64) -> Option<u64> {
        let s = self.set_of(line);
        if let Some(pos) = self.q[s].iter().position(|&l| l == line) {
            let l = self.q[s].remove(pos).unwrap();
            self.q[s].push_back(l);
            return None;
        }
        let evicted = if self.q[s].len() == self.ways { self.q[s].pop_front() } else { None };
        self.q[s].push_back(line);
        evicted
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Insert(u64),
    Invalidate(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(Op::Access),
            (0u64..256).prop_map(Op::Insert),
            (0u64..256).prop_map(Op::Invalidate),
        ],
        1..400,
    )
}

proptest! {
    /// With the full allocation mask and no QBS protection the cache must
    /// behave exactly like textbook per-set LRU.
    #[test]
    fn matches_reference_lru(ops in arb_ops()) {
        // 8 sets × 4 ways.
        let geom = CacheGeometry { size_bytes: 8 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut cache = Cache::new(geom);
        let mut reference = RefCache::new(8, 4);
        for op in ops {
            match op {
                Op::Access(l) => {
                    prop_assert_eq!(cache.access(l).is_some(), reference.access(l), "access {}", l);
                }
                Op::Insert(l) => {
                    let ev = cache.insert(l, false, u64::MAX).map(|e| e.line);
                    let ev_ref = reference.insert(l);
                    prop_assert_eq!(ev, ev_ref, "insert {}", l);
                }
                Op::Invalidate(l) => {
                    let s = reference.set_of(l);
                    let present = reference.q[s].iter().position(|&x| x == l);
                    if let Some(pos) = present {
                        reference.q[s].remove(pos);
                    }
                    prop_assert_eq!(cache.invalidate_line(l).is_some(), present.is_some());
                }
            }
        }
        // Final contents agree.
        for l in 0u64..256 {
            let s = reference.set_of(l);
            prop_assert_eq!(cache.contains(l), reference.q[s].contains(&l), "line {}", l);
        }
    }

    /// Lines inserted under a restricted mask never push out more lines
    /// than the mask has ways, and hits remain possible on every resident
    /// line regardless of mask.
    #[test]
    fn masked_inserts_bounded_by_mask_width(
        lines in proptest::collection::vec(0u64..64, 1..100),
        mask_width in 1u32..4,
    ) {
        let geom = CacheGeometry { size_bytes: 8 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut cache = Cache::new(geom);
        let mask = (1u64 << mask_width) - 1;
        for &l in &lines {
            cache.insert(l, false, mask);
        }
        // Per set, at most mask_width of the inserted lines can survive.
        for set in 0..8u64 {
            let resident = (0..64u64)
                .filter(|l| l % 8 == set && cache.contains(*l))
                .count();
            prop_assert!(resident <= mask_width as usize, "set {set}: {resident} lines");
        }
    }

    /// QBS: protected lines survive any volume of unprotected churn as
    /// long as one unprotected victim exists.
    #[test]
    fn qbs_protects_resident_lines(churn in proptest::collection::vec(0u64..512, 10..200)) {
        let geom = CacheGeometry { size_bytes: 8 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut cache = Cache::new(geom);
        // Two protected lines per set would still leave 2 ways of churn room.
        let protected = |l: u64| l < 16; // lines 0..16: two per set
        for l in 0..16u64 {
            cache.insert(l, false, u64::MAX);
        }
        for &l in &churn {
            cache.insert_qbs(l + 16, false, u64::MAX, &protected);
        }
        for l in 0..16u64 {
            prop_assert!(cache.contains(l), "protected line {l} was evicted");
        }
    }

    /// Statistics stay consistent: hits + misses == accesses issued.
    #[test]
    fn stats_accounting(ops in proptest::collection::vec(0u64..128, 1..300)) {
        let geom = CacheGeometry { size_bytes: 4 * 4 * 64, ways: 4, hit_latency: 1 };
        let mut cache = Cache::new(geom);
        for (i, &l) in ops.iter().enumerate() {
            if i % 3 == 0 {
                cache.insert(l, false, u64::MAX);
            } else {
                cache.access(l);
            }
        }
        let accesses = ops.iter().enumerate().filter(|(i, _)| i % 3 != 0).count() as u64;
        prop_assert_eq!(cache.stats.hits + cache.stats.misses, accesses);
        prop_assert!(cache.stats.evictions <= cache.stats.insertions);
    }
}

/// The cache's tag/stamp/flag state with the original QBS victim choice:
/// after a protected LRU way, rescan the set for the next-oldest untried
/// usable way before every probe. Kept as the reference for the
/// single-gather fallback in [`Cache::insert_qbs`].
struct MinScanCache {
    ways: usize,
    set_mask: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    prefetched: Vec<bool>,
    dirty: Vec<bool>,
    tick: u64,
}

impl MinScanCache {
    fn new(sets: u64, ways: usize) -> Self {
        let n = sets as usize * ways;
        MinScanCache {
            ways,
            set_mask: sets - 1,
            tags: vec![u64::MAX; n],
            stamps: vec![0; n],
            prefetched: vec![false; n],
            dirty: vec![false; n],
            tick: 0,
        }
    }

    fn find(&self, line: u64) -> Option<usize> {
        let base = (line & self.set_mask) as usize * self.ways;
        (base..base + self.ways).find(|&i| self.tags[i] == line)
    }

    fn access(&mut self, line: u64) -> bool {
        self.tick += 1;
        match self.find(line) {
            Some(i) => {
                self.stamps[i] = self.tick;
                self.prefetched[i] = false;
                true
            }
            None => false,
        }
    }

    fn mark_dirty(&mut self, line: u64) {
        if let Some(i) = self.find(line) {
            self.dirty[i] = true;
        }
    }

    fn invalidate_line(&mut self, line: u64) -> Option<Eviction> {
        let i = self.find(line)?;
        let ev = Eviction { line, dirty: self.dirty[i], unused_prefetch: self.prefetched[i] };
        self.tags[i] = u64::MAX;
        self.stamps[i] = 0;
        self.prefetched[i] = false;
        self.dirty[i] = false;
        Some(ev)
    }

    fn insert_qbs(
        &mut self,
        line: u64,
        prefetched: bool,
        alloc_mask: u64,
        protected: &dyn Fn(u64) -> bool,
    ) -> Option<Eviction> {
        self.tick += 1;
        let base = (line & self.set_mask) as usize * self.ways;
        let usable = alloc_mask & Cache::low_ways_mask(self.ways);
        if let Some(i) = self.find(line) {
            self.stamps[i] = self.tick;
            if !prefetched {
                self.prefetched[i] = false;
            }
            return None;
        }
        let ways = (0..self.ways).filter(|&w| usable & (1 << w) != 0);
        let invalid = ways.clone().find(|&w| self.tags[base + w] == u64::MAX);
        let lru = ways.min_by_key(|&w| self.stamps[base + w]).expect("mask selects a way");
        let way = match invalid {
            Some(w) => w,
            None if !protected(self.tags[base + lru]) => lru,
            None => {
                let mut tried: u64 = 1 << lru;
                loop {
                    let mut best: Option<usize> = None;
                    let mut best_stamp = u64::MAX;
                    for w in 0..self.ways {
                        if usable & (1 << w) == 0 || tried & (1 << w) != 0 {
                            continue;
                        }
                        if self.stamps[base + w] < best_stamp {
                            best_stamp = self.stamps[base + w];
                            best = Some(w);
                        }
                    }
                    match best {
                        None => break lru,
                        Some(w) if !protected(self.tags[base + w]) => break w,
                        Some(w) => tried |= 1 << w,
                    }
                }
            }
        };
        let i = base + way;
        let evicted = (self.tags[i] != u64::MAX).then(|| Eviction {
            line: self.tags[i],
            dirty: self.dirty[i],
            unused_prefetch: self.prefetched[i],
        });
        self.tags[i] = line;
        self.stamps[i] = self.tick;
        self.prefetched[i] = prefetched;
        self.dirty[i] = false;
        evicted
    }
}

#[derive(Debug, Clone, Copy)]
enum QbsOp {
    Access(u64),
    Insert { line: u64, prefetched: bool, mask_kind: u8, mask_bits: u64 },
    Invalidate(u64),
    Dirty(u64),
}

/// Ops over `lines` line numbers, weighted towards inserts so sets fill
/// and the fallback runs.
fn arb_qbs_ops(lines: u64) -> impl Strategy<Value = Vec<QbsOp>> {
    let insert = || {
        (0..lines, any::<bool>(), 0u8..4, any::<u64>()).prop_map(
            |(line, prefetched, mask_kind, mask_bits)| QbsOp::Insert {
                line,
                prefetched,
                mask_kind,
                mask_bits,
            },
        )
    };
    proptest::collection::vec(
        prop_oneof![
            insert(),
            insert(),
            insert(),
            (0..lines).prop_map(QbsOp::Access),
            (0..lines).prop_map(QbsOp::Invalidate),
            (0..lines).prop_map(QbsOp::Dirty),
        ],
        1..600,
    )
}

/// A CAT-style allocation mask: the full mask, one way, a contiguous run,
/// or raw bits (which may name ways past the associativity); never empty
/// within `[0, ways)`.
fn alloc_mask(ways: usize, kind: u8, bits: u64) -> u64 {
    let w = ways as u64;
    let mask = match kind {
        0 => u64::MAX,
        1 => 1 << (bits % w),
        2 => {
            let start = bits % w;
            let len = 1 + (bits >> 8) % (w - start);
            ((1 << len) - 1) << start
        }
        _ => bits,
    };
    if mask & Cache::low_ways_mask(ways) == 0 {
        1 << (bits % w)
    } else {
        mask
    }
}

proptest! {
    /// The single-gather QBS fallback picks the same victim, returns the same
    /// eviction and issues the same `protected` queries in the same order
    /// as the repeated min-scan, for random sets, masks (single-way,
    /// contiguous, raw, with invalid ways present) and predicates
    /// (`density` 4 protects every line).
    #[test]
    fn qbs_fallback_matches_repeated_min_scan(
        geometry in 0usize..3,
        ops in arb_qbs_ops(160),
        protect_seed in any::<u64>(),
        density in 0u64..=4,
    ) {
        let (sets, ways) = [(2u64, 4usize), (2, 8), (4, 20)][geometry];
        let geom = CacheGeometry { size_bytes: sets * ways as u64 * 64, ways: ways as u32, hit_latency: 1 };
        let mut cache = Cache::new(geom);
        let mut reference = MinScanCache::new(sets, ways);
        let calls = RefCell::new(Vec::new());
        let ref_calls = RefCell::new(Vec::new());
        let is_protected = |l: u64| {
            density == 4 || (l ^ protect_seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 < density
        };
        let protected = |l: u64| {
            calls.borrow_mut().push(l);
            is_protected(l)
        };
        let ref_protected = |l: u64| {
            ref_calls.borrow_mut().push(l);
            is_protected(l)
        };
        for op in ops {
            match op {
                QbsOp::Access(l) => {
                    prop_assert_eq!(cache.access(l).is_some(), reference.access(l), "access {}", l);
                }
                QbsOp::Insert { line, prefetched, mask_kind, mask_bits } => {
                    let mask = alloc_mask(ways, mask_kind, mask_bits);
                    let ev = cache.insert_qbs(line, prefetched, mask, &protected);
                    let ev_ref = reference.insert_qbs(line, prefetched, mask, &ref_protected);
                    prop_assert_eq!(ev, ev_ref, "insert {} mask {:#x}", line, mask);
                    let (probes, ref_probes) = (calls.take(), ref_calls.take());
                    prop_assert_eq!(probes, ref_probes, "probe order for insert {} mask {:#x}", line, mask);
                }
                QbsOp::Invalidate(l) => {
                    prop_assert_eq!(cache.invalidate_line(l), reference.invalidate_line(l));
                }
                QbsOp::Dirty(l) => {
                    cache.mark_dirty(l);
                    reference.mark_dirty(l);
                }
            }
        }
        for l in 0..160 {
            prop_assert_eq!(cache.contains(l), reference.find(l).is_some(), "line {}", l);
        }
    }
}
