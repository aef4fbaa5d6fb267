//! Generic set-associative cache array with true-LRU replacement.
//!
//! Used for both the L1 arrays (direct set indexing) and the L2 NUCA
//! slices, whose set index skips the tile-interleaving bits
//! (`index_shift`). The array stores an arbitrary per-line payload `V`
//! (the MESI state for L1, line + directory state for L2).
//!
//! Layout is struct-of-arrays: the tags of a set are contiguous, so
//! the hit check — the single hottest loop in the simulator — scans
//! one cache line of packed `u64` tags without touching payloads or
//! LRU stamps. Invalid ways carry the reserved tag `INVALID_TAG`;
//! stamps and values live in parallel side arrays indexed by the same
//! slot number and are only read on a hit or during victim selection.

use cmp_common::types::Addr;

/// Reserved tag for an invalid way. Line addresses are byte addresses
/// of cache lines; `u64::MAX` is not line-aligned and can never name a
/// real line (debug-asserted on insert).
const INVALID_TAG: u64 = u64::MAX;

/// A set-associative array keyed by line address.
#[derive(Clone, Debug)]
pub struct CacheArray<V> {
    sets: usize,
    ways: usize,
    /// Right-shift applied to the line address before set selection —
    /// log2(tiles) for an interleaved L2 slice, 0 for an L1.
    index_shift: u32,
    /// Packed per-slot tags; [`INVALID_TAG`] marks a free way.
    tags: Vec<u64>,
    /// Per-slot LRU stamps (parallel to `tags`).
    stamps: Vec<u64>,
    /// Per-slot payloads (parallel to `tags`; `None` iff the tag is
    /// invalid).
    values: Vec<Option<V>>,
    clock: u64,
}

/// Result of asking for a victim way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VictimSlot {
    /// An invalid way is free.
    Free,
    /// The LRU evictable line must leave first.
    Evict(Addr),
    /// Every way is excluded by the filter (all mid-transaction).
    None,
}

impl<V> CacheArray<V> {
    /// Array with `sets` × `ways` lines. `sets` must be a power of two.
    pub fn new(sets: usize, ways: usize, index_shift: u32) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0);
        CacheArray {
            sets,
            ways,
            index_shift,
            tags: vec![INVALID_TAG; sets * ways],
            stamps: vec![0; sets * ways],
            values: (0..sets * ways).map(|_| None).collect(),
            clock: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: Addr) -> usize {
        ((line >> self.index_shift) as usize) & (self.sets - 1)
    }

    /// Slot of `line` if resident: a branch-free scan over the set's
    /// packed tags.
    #[inline]
    fn find(&self, line: Addr) -> Option<usize> {
        let base = self.set_of(line) * self.ways;
        let mut found = usize::MAX;
        for (i, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            if t == line {
                found = base + i;
            }
        }
        (found != usize::MAX).then_some(found)
    }

    /// Shared view of a resident line (no LRU update).
    #[inline]
    pub fn peek(&self, line: Addr) -> Option<&V> {
        self.find(line)
            .map(|s| self.values[s].as_ref().expect("tag/value in sync"))
    }

    /// Mutable view of a resident line, updating LRU.
    #[inline]
    pub fn get_mut(&mut self, line: Addr) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        self.find(line).map(|s| {
            self.stamps[s] = clock;
            self.values[s].as_mut().expect("tag/value in sync")
        })
    }

    /// Touch a line's LRU stamp.
    pub fn touch(&mut self, line: Addr) {
        let _ = self.get_mut(line);
    }

    /// Remove a line, returning its payload.
    pub fn remove(&mut self, line: Addr) -> Option<V> {
        let slot = self.find(line)?;
        self.tags[slot] = INVALID_TAG;
        self.values[slot].take()
    }

    /// What inserting `line` would displace: a free way, the LRU line
    /// among those `evictable` allows, or nothing.
    pub fn victim_for(
        &self,
        line: Addr,
        mut evictable: impl FnMut(Addr, &V) -> bool,
    ) -> VictimSlot {
        let base = self.set_of(line) * self.ways;
        let mut lru: Option<(u64, Addr)> = None;
        for s in base..base + self.ways {
            let tag = self.tags[s];
            if tag == INVALID_TAG {
                return VictimSlot::Free;
            }
            let value = self.values[s].as_ref().expect("tag/value in sync");
            if evictable(tag, value) && lru.is_none_or(|(stamp, _)| self.stamps[s] < stamp) {
                lru = Some((self.stamps[s], tag));
            }
        }
        match lru {
            Some((_, addr)) => VictimSlot::Evict(addr),
            None => VictimSlot::None,
        }
    }

    /// Whether two lines map to the same set.
    #[inline]
    pub fn same_set(&self, a: Addr, b: Addr) -> bool {
        self.set_of(a) == self.set_of(b)
    }

    /// Number of invalid (free) ways in `line`'s set.
    pub fn free_ways(&self, line: Addr) -> usize {
        let base = self.set_of(line) * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .filter(|&&t| t == INVALID_TAG)
            .count()
    }

    /// The LRU *resident* line among those `evictable` allows, ignoring
    /// free ways (used when free ways are already reserved for pending
    /// fills).
    pub fn lru_resident(
        &self,
        line: Addr,
        mut evictable: impl FnMut(Addr, &V) -> bool,
    ) -> Option<Addr> {
        let base = self.set_of(line) * self.ways;
        let mut lru: Option<(u64, Addr)> = None;
        for s in base..base + self.ways {
            let tag = self.tags[s];
            if tag == INVALID_TAG {
                continue;
            }
            let value = self.values[s].as_ref().expect("tag/value in sync");
            if evictable(tag, value) && lru.is_none_or(|(stamp, _)| self.stamps[s] < stamp) {
                lru = Some((self.stamps[s], tag));
            }
        }
        lru.map(|(_, addr)| addr)
    }

    /// Insert `line` into a free way. Returns the rejected payload when
    /// the set is full — callers must evict the `victim_for` line first
    /// (the two-step dance lets the L2 run its recall protocol between
    /// choosing and evicting) and treat a full set as a protocol error.
    #[must_use = "a full set means the caller skipped eviction"]
    pub fn insert(&mut self, line: Addr, value: V) -> Result<(), V> {
        debug_assert!(line != INVALID_TAG, "line aliases the invalid tag");
        debug_assert!(self.peek(line).is_none(), "double insert of {line:#x}");
        self.clock += 1;
        let base = self.set_of(line) * self.ways;
        for s in base..base + self.ways {
            if self.tags[s] == INVALID_TAG {
                self.tags[s] = line;
                self.stamps[s] = self.clock;
                self.values[s] = Some(value);
                return Ok(());
            }
        }
        Err(value)
    }

    /// Number of resident lines (O(capacity); for tests/stats).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Iterate over resident `(line, value)` pairs in slot order (a
    /// deterministic, platform-independent order).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &V)> {
        self.tags
            .iter()
            .zip(self.values.iter())
            .filter(|(&t, _)| t != INVALID_TAG)
            .map(|(&t, v)| (t, v.as_ref().expect("tag/value in sync")))
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }
}

/// Geometry (sets/ways/shift) is configuration; the resident lines and
/// the LRU clock are the state. The encoding is slot-by-slot (the byte
/// layout predates the struct-of-arrays split and is kept stable:
/// presence bool, then line/value/stamp); the stored slot count doubles
/// as a shape check — a checkpoint from a differently-sized array
/// refuses to load.
impl<V: cmp_common::persist::Persist> cmp_common::persist::PersistState for CacheArray<V> {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        w.usize(self.tags.len());
        for s in 0..self.tags.len() {
            if self.tags[s] == INVALID_TAG {
                w.bool(false);
            } else {
                w.bool(true);
                w.u64(self.tags[s]);
                self.values[s].as_ref().expect("tag/value in sync").save(w);
                w.u64(self.stamps[s]);
            }
        }
        w.u64(self.clock);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        let n = r.usize()?;
        if n != self.tags.len() {
            return Err(r.err("slice length does not match machine shape"));
        }
        for s in 0..n {
            if r.bool()? {
                let line = r.u64()?;
                if line == INVALID_TAG {
                    return Err(r.err("resident line aliases the invalid tag"));
                }
                self.tags[s] = line;
                self.values[s] = Some(cmp_common::persist::Persist::load(r)?);
                self.stamps[s] = r.u64()?;
            } else {
                self.tags[s] = INVALID_TAG;
                self.values[s] = None;
                self.stamps[s] = 0;
            }
        }
        self.clock = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 sets x 2 ways, no interleave shift.
    fn small() -> CacheArray<u32> {
        CacheArray::new(4, 2, 0)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = small();
        c.insert(0x10, 7).unwrap();
        assert_eq!(c.peek(0x10), Some(&7));
        assert_eq!(c.peek(0x11), None);
        *c.get_mut(0x10).unwrap() = 9;
        assert_eq!(c.peek(0x10), Some(&9));
    }

    #[test]
    fn set_conflicts_and_lru() {
        let mut c = small();
        // lines 0, 4, 8 all map to set 0 (2 ways)
        c.insert(0, 0).unwrap();
        c.insert(4, 4).unwrap();
        assert_eq!(c.victim_for(8, |_, _| true), VictimSlot::Evict(0));
        c.touch(0); // now 4 is LRU
        assert_eq!(c.victim_for(8, |_, _| true), VictimSlot::Evict(4));
        let evicted = c.remove(4).unwrap();
        assert_eq!(evicted, 4);
        assert_eq!(c.victim_for(8, |_, _| true), VictimSlot::Free);
        c.insert(8, 8).unwrap();
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn victim_filter_excludes_busy_lines() {
        let mut c = small();
        c.insert(0, 0).unwrap();
        c.insert(4, 4).unwrap();
        // both lines busy: no victim available
        assert_eq!(c.victim_for(8, |_, _| false), VictimSlot::None);
        // only line 4 evictable
        assert_eq!(c.victim_for(8, |a, _| a == 4), VictimSlot::Evict(4));
    }

    #[test]
    fn index_shift_skips_interleave_bits() {
        // 16-tile interleave: lines 0,16,32... belong to this slice
        let mut c: CacheArray<u32> = CacheArray::new(4, 1, 4);
        c.insert(0, 0).unwrap();
        c.insert(16, 1).unwrap();
        // 0 -> set 0, 16 -> set 1: no conflict
        assert_eq!(c.occupancy(), 2);
        // 64 -> (64>>4)&3 = set 0: conflicts with line 0
        assert_eq!(c.victim_for(64, |_, _| true), VictimSlot::Evict(0));
    }

    #[test]
    fn insert_into_full_set_returns_payload() {
        let mut c = small();
        c.insert(0, 0).unwrap();
        c.insert(4, 4).unwrap();
        assert_eq!(c.insert(8, 8), Err(8), "full set rejects the payload");
        // the resident lines are untouched
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.peek(8), None);
        // after evicting, the insert succeeds
        c.remove(0).unwrap();
        c.insert(8, 8).unwrap();
        assert_eq!(c.peek(8), Some(&8));
    }

    #[test]
    fn iter_and_capacity() {
        let mut c = small();
        c.insert(1, 10).unwrap();
        c.insert(2, 20).unwrap();
        assert_eq!(c.capacity(), 8);
        let mut pairs: Vec<_> = c.iter().map(|(a, &v)| (a, v)).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn persist_round_trips_through_slot_layout() {
        use cmp_common::persist::{ByteReader, ByteWriter, PersistState};
        let mut c = small();
        c.insert(0, 7).unwrap();
        c.insert(4, 9).unwrap();
        c.touch(0);
        c.remove(4).unwrap();
        let mut w = ByteWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = small();
        let mut r = ByteReader::new(&bytes);
        fresh.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.peek(0), Some(&7));
        assert_eq!(fresh.peek(4), None);
        assert_eq!(fresh.occupancy(), 1);
        // LRU history survives: inserting into the freed way then asking
        // for a victim must evict by the restored stamps
        fresh.insert(4, 1).unwrap();
        assert_eq!(fresh.victim_for(8, |_, _| true), VictimSlot::Evict(0));
        // and a geometry mismatch is a structured error
        let mut wrong: CacheArray<u32> = CacheArray::new(8, 2, 0);
        let mut r = ByteReader::new(&bytes);
        assert!(wrong.load_state(&mut r).is_err());
    }
}
