//! Private-cache presence tracking for QBS victim selection and targeted
//! inclusive back-invalidation.
//!
//! Broadwell's inclusive LLC implements *Query Based Selection* (Jaleel et
//! al., MICRO'10: "Achieving Non-Inclusive Cache Performance with Inclusive
//! Caches"): before evicting an LLC victim, the LLC queries whether the
//! line is resident in any core's private caches and prefers victims that
//! are not. Without QBS, a pure-LRU inclusive LLC systematically destroys
//! L1/L2-resident working sets — their LLC copies are never re-touched
//! (all hits are absorbed privately), so they always look coldest exactly
//! when a streaming neighbour churns the cache.
//!
//! Instead of probing every core's L2 on each eviction, the simulator
//! keeps, per line, a bitmask of which private L2 caches hold it (L1
//! contents are a subset of L2 in this hierarchy). The mask serves two
//! consumers on the hot path:
//!
//! * [`Presence::resident`] — the QBS query, issued once per scanned LLC
//!   way during victim selection;
//! * [`Presence::holders`] — the set of cores an LLC victim must be
//!   back-invalidated from, so [`crate::system::System::run`] walks only
//!   the cores that actually hold a copy instead of broadcasting to all.
//!
//! Both queries sit inside the per-access simulation loop, so the map is a
//! purpose-built open-addressing table rather than `std::HashMap`: u64
//! keys, Fibonacci multiplicative hashing (no SipHash), linear probing,
//! and backward-shift deletion (no tombstones). The table only grows —
//! the working set of a run is bounded by the private-cache capacity, so
//! steady state performs no allocation at all. `Presence::reserve`
//! grows it to that bound up front.

/// Sentinel for an empty slot. Line numbers are `addr >> 6`, so `u64::MAX`
/// can never be a real key.
const EMPTY: u64 = u64::MAX;

/// Per-line bitmask of private L2 caches holding the line.
#[derive(Debug, Clone)]
pub struct Presence {
    /// Slot keys (line numbers), `EMPTY` when vacant.
    keys: Vec<u64>,
    /// Holder bitmasks parallel to `keys`; bit *i* = core *i*'s L2.
    masks: Vec<u64>,
    /// Occupied slot count.
    len: usize,
    /// `keys.len() - 1`; capacity is always a power of two.
    index_mask: usize,
}

impl Default for Presence {
    fn default() -> Self {
        Presence::new()
    }
}

impl Presence {
    /// Empty tracker. Starts at a capacity that covers a typical private
    /// cache working set without rehashing.
    pub fn new() -> Self {
        Self::with_capacity_pow2(1 << 12)
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        Presence { keys: vec![EMPTY; cap], masks: vec![0; cap], len: 0, index_mask: cap - 1 }
    }

    /// Fibonacci multiplicative hash: multiply by 2^64/φ and keep the high
    /// bits, which mixes low-entropy line numbers well and costs one
    /// multiply — the whole point of not using the default SipHash.
    #[inline(always)]
    fn slot_of(&self, line: u64) -> usize {
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.index_mask
    }

    #[inline(always)]
    fn probe(&self, line: u64) -> Result<usize, usize> {
        let mut i = self.slot_of(line);
        loop {
            let k = self.keys[i];
            if k == line {
                return Ok(i);
            }
            if k == EMPTY {
                return Err(i);
            }
            i = (i + 1) & self.index_mask;
        }
    }

    /// Core `core`'s private L2 gained a copy of `line`.
    #[inline]
    pub fn inc(&mut self, line: u64, core: usize) {
        debug_assert!(core < 64, "holder mask is 64 bits wide");
        match self.probe(line) {
            Ok(i) => {
                debug_assert!(
                    self.masks[i] & (1 << core) == 0,
                    "core {core} already holds line {line}"
                );
                self.masks[i] |= 1 << core;
            }
            Err(i) => {
                self.keys[i] = line;
                self.masks[i] = 1 << core;
                self.len += 1;
                // Keep load factor below 1/2 so probe chains stay short.
                if self.len * 2 > self.keys.len() {
                    self.grow();
                }
            }
        }
    }

    /// Core `core`'s private L2 lost its copy of `line`.
    #[inline]
    pub fn dec(&mut self, line: u64, core: usize) {
        match self.probe(line) {
            Ok(i) => {
                debug_assert!(
                    self.masks[i] & (1 << core) != 0,
                    "core {core} does not hold line {line}"
                );
                self.masks[i] &= !(1 << core);
                if self.masks[i] == 0 {
                    self.remove_slot(i);
                }
            }
            Err(_) => debug_assert!(false, "presence underflow for line {line}"),
        }
    }

    /// True if any private cache holds `line` (the QBS query).
    #[inline(always)]
    pub fn resident(&self, line: u64) -> bool {
        self.probe(line).is_ok()
    }

    /// Bitmask of cores whose private caches hold `line` (bit *i* = core
    /// *i*). Drives targeted back-invalidation of LLC victims.
    #[inline(always)]
    pub fn holders(&self, line: u64) -> u64 {
        match self.probe(line) {
            Ok(i) => self.masks[i],
            Err(_) => 0,
        }
    }

    /// Number of tracked lines (diagnostics).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the table until `lines` tracked lines fit without another
    /// grow. Capacity never changes a query's answer, only where keys sit.
    pub(crate) fn reserve(&mut self, lines: usize) {
        while lines * 2 > self.keys.len() {
            self.grow();
        }
    }

    /// Backward-shift deletion: re-seat the following probe-chain entries
    /// so lookups never need tombstones.
    fn remove_slot(&mut self, mut hole: usize) {
        self.keys[hole] = EMPTY;
        self.masks[hole] = 0;
        self.len -= 1;
        let mut i = (hole + 1) & self.index_mask;
        while self.keys[i] != EMPTY {
            let home = self.slot_of(self.keys[i]);
            // Shift back only entries whose home slot does not sit in the
            // (cyclic) interval (hole, i]; those can still be found.
            let in_interval =
                if hole <= i { hole < home && home <= i } else { home > hole || home <= i };
            if !in_interval {
                self.keys[hole] = self.keys[i];
                self.masks[hole] = self.masks[i];
                self.keys[i] = EMPTY;
                self.masks[i] = 0;
                hole = i;
            }
            i = (i + 1) & self.index_mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let mut bigger = Presence::with_capacity_pow2(self.keys.len() * 2);
        for (i, &k) in self.keys.iter().enumerate() {
            if k != EMPTY {
                match bigger.probe(k) {
                    Ok(_) => unreachable!("duplicate key while rehashing"),
                    Err(slot) => {
                        bigger.keys[slot] = k;
                        bigger.masks[slot] = self.masks[i];
                        bigger.len += 1;
                    }
                }
            }
        }
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holder_mask_roundtrip() {
        let mut p = Presence::new();
        assert!(!p.resident(5));
        assert_eq!(p.holders(5), 0);
        p.inc(5, 0);
        assert!(p.resident(5));
        assert_eq!(p.holders(5), 0b01);
        p.inc(5, 3);
        assert_eq!(p.holders(5), 0b1001);
        p.dec(5, 0);
        assert!(p.resident(5), "still held by core 3");
        assert_eq!(p.holders(5), 0b1000);
        p.dec(5, 3);
        assert!(!p.resident(5));
        assert!(p.is_empty());
    }

    #[test]
    fn independent_lines() {
        let mut p = Presence::new();
        p.inc(1, 0);
        p.inc(2, 1);
        p.dec(1, 0);
        assert!(!p.resident(1));
        assert!(p.resident(2));
        assert_eq!(p.holders(2), 0b10);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn survives_growth() {
        let mut p = Presence::with_capacity_pow2(8);
        for line in 0..1000u64 {
            p.inc(line, (line % 4) as usize);
        }
        assert_eq!(p.len(), 1000);
        for line in 0..1000u64 {
            assert_eq!(p.holders(line), 1 << (line % 4), "line {line}");
        }
        for line in 0..1000u64 {
            p.dec(line, (line % 4) as usize);
        }
        assert!(p.is_empty());
    }

    #[test]
    fn reserve_grows_once_up_front() {
        let mut p = Presence::with_capacity_pow2(8);
        p.inc(3, 1);
        p.reserve(1000);
        let capacity = p.keys.len();
        assert!(capacity >= 2000);
        assert_eq!(p.holders(3), 0b10, "entries survive the grow");
        for line in 0..999u64 {
            p.inc(line + 10, 0);
        }
        assert_eq!(p.keys.len(), capacity, "no grow within the reserved bound");
        p.reserve(10);
        assert_eq!(p.keys.len(), capacity, "reserve never shrinks");
    }

    #[test]
    fn colliding_lines_found_after_deletion() {
        // Force collisions in a tiny table and delete from the middle of a
        // probe chain; backward-shift must keep the rest findable.
        let mut p = Presence::with_capacity_pow2(8);
        // With a 3-bit index the chance of chains is high among any handful
        // of keys; use many and check exhaustively.
        let lines = [3u64, 11, 19, 27];
        for &l in &lines {
            p.inc(l, 0);
        }
        p.dec(11, 0);
        assert!(!p.resident(11));
        for &l in [3u64, 19, 27].iter() {
            assert!(p.resident(l), "line {l} lost after backward-shift deletion");
        }
    }

    #[test]
    fn same_core_reinsertion_after_eviction() {
        let mut p = Presence::new();
        p.inc(7, 2);
        p.dec(7, 2);
        p.inc(7, 2);
        assert_eq!(p.holders(7), 0b100);
    }
}
