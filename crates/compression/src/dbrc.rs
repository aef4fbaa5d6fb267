//! Dynamic Base Register Caching (Farrens & Park, ISCA 1991; Figure 1
//! left).
//!
//! The sender keeps a small fully-associative cache of *bases* — the
//! address bits above the uncompressed low-order bytes. A hit sends only
//! the entry index plus the low-order bytes; a miss sends the whole
//! address and inserts the base, evicting the LRU entry. The receiver's
//! register file applies the same deterministic update rule, so both ends
//! stay synchronised without extra traffic.
//!
//! The state lives in `DbrcLanes`, a struct-of-arrays table of many
//! independent caches ("lanes"): the engine keeps one table per stream
//! with a lane per destination, and [`Dbrc`] is the one-lane form of the
//! same table.

use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistError};
use cmp_common::types::Addr;

use crate::scheme::AddressCodec;

/// DBRC state for `lanes` independent (destination, stream) pairs.
///
/// Lane `l` owns entries `l·entries .. (l+1)·entries` of `bases` and
/// `stamps`. A stamp of 0 marks an invalid entry: every install stamps
/// with the lane's clock, which is ≥ 1 after the first encode, and the
/// LRU rule already fills stamp-0 entries first.
#[derive(Clone, Debug)]
pub(crate) struct DbrcLanes {
    entries: usize,
    /// Right-shift applied to line addresses to form a base.
    base_shift: u32,
    low_bytes: usize,
    /// Base values (line address >> 8·low_bytes); meaningless where the
    /// stamp is 0.
    bases: Vec<u64>,
    /// LRU stamps, parallel to `bases`; 0 = invalid entry.
    stamps: Vec<u64>,
    /// Per-lane logical clock for LRU.
    clocks: Vec<u64>,
}

impl DbrcLanes {
    pub(crate) fn new(lanes: usize, entries: usize, low_bytes: usize) -> Self {
        assert!(entries > 0, "DBRC needs at least one entry");
        assert!(
            (1..=4).contains(&low_bytes),
            "low-order bytes must be 1..=4, got {low_bytes}"
        );
        DbrcLanes {
            entries,
            base_shift: (8 * low_bytes) as u32,
            low_bytes,
            bases: vec![0; lanes * entries],
            stamps: vec![0; lanes * entries],
            clocks: vec![0; lanes],
        }
    }

    pub(crate) fn lanes(&self) -> usize {
        self.clocks.len()
    }

    fn row(&self, lane: usize) -> std::ops::Range<usize> {
        lane * self.entries..(lane + 1) * self.entries
    }

    /// Whether `line_addr` would hit in `lane`, without mutating state.
    pub(crate) fn peek(&self, lane: usize, line_addr: Addr) -> bool {
        let base = line_addr >> self.base_shift;
        let row = self.row(lane);
        self.bases[row.clone()]
            .iter()
            .zip(&self.stamps[row])
            .any(|(&b, &s)| s != 0 && b == base)
    }

    /// The DBRC update rule: look `line_addr`'s base up in `lane`,
    /// refresh its stamp on a hit, install it over the LRU entry on a
    /// miss.
    pub(crate) fn encode(&mut self, lane: usize, line_addr: Addr) -> bool {
        let row = self.row(lane);
        let clock = &mut self.clocks[lane];
        *clock += 1;
        let now = *clock;
        let base = line_addr >> self.base_shift;
        let bases = &mut self.bases[row.clone()];
        let stamps = &mut self.stamps[row];
        if let Some(i) = (0..bases.len()).position(|i| stamps[i] != 0 && bases[i] == base) {
            stamps[i] = now;
            return true;
        }
        // Miss: install into the LRU slot (invalid entries have stamp 0
        // and lose ties, so they fill first).
        let victim = (0..stamps.len())
            .min_by_key(|&i| stamps[i])
            .expect("non-empty cache");
        bases[victim] = base;
        stamps[victim] = now;
        false
    }

    pub(crate) fn resync(&mut self, lane: usize) {
        let row = self.row(lane);
        self.bases[row.clone()].fill(0);
        self.stamps[row].fill(0);
        self.clocks[lane] = 0;
    }

    /// One lane's snapshot bytes, in the layout of a standalone codec:
    /// the bases as `Vec<Option<u64>>`, the stamps as `Vec<u64>`, then
    /// the clock.
    pub(crate) fn save_lane(&self, lane: usize, w: &mut ByteWriter) {
        let row = self.row(lane);
        w.usize(self.entries);
        for i in row.clone() {
            (self.stamps[i] != 0).then_some(self.bases[i]).save(w);
        }
        w.usize(self.entries);
        for &stamp in &self.stamps[row] {
            w.u64(stamp);
        }
        w.u64(self.clocks[lane]);
    }

    /// Overwrite one lane from [`DbrcLanes::save_lane`] bytes. Refuses
    /// an entry count other than the machine's and an entry whose
    /// validity disagrees with its stamp (`Some` base with stamp 0, or
    /// `None` with a non-zero stamp): no encode can produce either.
    pub(crate) fn load_lane(
        &mut self,
        lane: usize,
        r: &mut ByteReader,
    ) -> Result<(), PersistError> {
        let row = self.row(lane);
        if r.usize()? != self.entries {
            return Err(r.err("DBRC entry count does not match machine shape"));
        }
        for i in row.clone() {
            let base: Option<u64> = Persist::load(r)?;
            self.bases[i] = base.unwrap_or(0);
            // the validity bit waits in the stamp until the stamps arrive
            self.stamps[i] = u64::from(base.is_some());
        }
        if r.usize()? != self.entries {
            return Err(r.err("DBRC entry count does not match machine shape"));
        }
        for i in row {
            let stamp = r.u64()?;
            if (stamp != 0) != (self.stamps[i] != 0) {
                return Err(r.err("DBRC entry validity disagrees with its LRU stamp"));
            }
            self.stamps[i] = stamp;
        }
        self.clocks[lane] = r.u64()?;
        Ok(())
    }
}

/// Sender-side DBRC state for one (destination, stream) pair: the
/// one-lane form of the engine's DBRC lane table, sharing its code.
#[derive(Clone, Debug)]
pub struct Dbrc(DbrcLanes);

impl Dbrc {
    /// A DBRC cache with `entries` bases, keeping `low_bytes` low-order
    /// bytes of the line address uncompressed. The paper evaluates 4, 16
    /// and 64 entries with 1–2 low-order bytes.
    pub fn new(entries: usize, low_bytes: usize) -> Self {
        Dbrc(DbrcLanes::new(1, entries, low_bytes))
    }

    /// Number of entries in the compression cache.
    pub fn entries(&self) -> usize {
        self.0.entries
    }

    /// Uncompressed low-order bytes per message.
    pub fn low_bytes(&self) -> usize {
        self.0.low_bytes
    }

    /// Whether `line_addr` would hit, without mutating state.
    pub fn peek(&self, line_addr: Addr) -> bool {
        self.0.peek(0, line_addr)
    }
}

impl AddressCodec for Dbrc {
    fn encode(&mut self, line_addr: Addr) -> bool {
        self.0.encode(0, line_addr)
    }

    fn resync(&mut self) {
        self.0.resync(0);
    }

    fn hw_entries(&self) -> usize {
        self.entries()
    }

    // entries/low_bytes are configuration; the learned bases, their LRU
    // stamps and the clock are the state.
    fn save_state(&self, w: &mut ByteWriter) {
        self.0.save_lane(0, w);
    }

    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        self.0.load_lane(0, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line addresses sharing a base with 1 low byte: same bits above 8.
    const LOW1_SPAN: u64 = 256;

    #[test]
    fn first_access_misses_then_hits() {
        let mut d = Dbrc::new(4, 1);
        assert!(!d.encode(0x1234));
        assert!(d.encode(0x1234));
        // a neighbour within the same 256-line base also hits
        assert!(d.encode(0x1234 ^ 0x3F));
    }

    #[test]
    fn base_granularity_follows_low_bytes() {
        let mut d1 = Dbrc::new(4, 1);
        d1.encode(0);
        assert!(d1.peek(LOW1_SPAN - 1));
        assert!(!d1.peek(LOW1_SPAN));

        let mut d2 = Dbrc::new(4, 2);
        d2.encode(0);
        assert!(d2.peek(65_535));
        assert!(!d2.peek(65_536));
    }

    #[test]
    fn lru_evicts_oldest_base() {
        let mut d = Dbrc::new(2, 1);
        d.encode(0); // install A (base 0)
        d.encode(LOW1_SPAN); // install B
        d.encode(0); // touch A (now B is LRU)
        d.encode(2 * LOW1_SPAN); // install C, evicting B
        assert!(d.peek(0));
        assert!(!d.peek(LOW1_SPAN), "B should have been evicted");
        assert!(d.peek(2 * LOW1_SPAN));
    }

    #[test]
    fn invalid_entries_fill_before_eviction() {
        let mut d = Dbrc::new(4, 1);
        for i in 0..4 {
            d.encode(i * LOW1_SPAN);
        }
        // all four distinct bases should be resident
        for i in 0..4 {
            assert!(d.peek(i * LOW1_SPAN), "base {i} missing");
        }
    }

    #[test]
    fn working_set_within_entries_converges_to_full_coverage() {
        let mut d = Dbrc::new(4, 2);
        let mut hits = 0;
        let n = 10_000;
        // cyclic walk over 3 bases x 100 lines
        for i in 0..n {
            let addr = (i % 3) as u64 * 65_536 + (i % 100) as u64;
            if d.encode(addr) {
                hits += 1;
            }
        }
        assert!(hits >= n - 3, "only {hits}/{n} hits");
    }

    #[test]
    fn thrashing_working_set_gets_no_coverage() {
        let mut d = Dbrc::new(4, 1);
        // round-robin over 8 bases with a 4-entry cache: classic LRU
        // thrash, zero hits after the cold misses too.
        let mut hits = 0;
        for i in 0..800u64 {
            if d.encode((i % 8) * LOW1_SPAN) {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn resync_clears_state() {
        let mut d = Dbrc::new(4, 1);
        d.encode(42);
        assert!(d.peek(42));
        d.resync();
        assert!(!d.peek(42));
        assert!(!d.encode(42));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        Dbrc::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "low-order bytes")]
    fn silly_low_bytes_rejected() {
        Dbrc::new(4, 7);
    }
}
