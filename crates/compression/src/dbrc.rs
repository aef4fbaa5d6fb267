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
//! same table. LRU is exact and costs one byte per base register: each
//! entry holds its age ([`cmp_common::recency`]), the log2(entries)
//! bits of recency the hardware keeps, and no lane keeps a clock.

use cmp_common::persist::{ByteReader, ByteWriter, PersistError};
use cmp_common::recency::{self, INVALID};
use cmp_common::types::Addr;

use crate::scheme::AddressCodec;

/// DBRC state for `lanes` independent (destination, stream) pairs.
///
/// Lane `l` owns entries `l·entries .. (l+1)·entries` of `bases` and
/// `ages`. An entry aged [`INVALID`] holds no base; a miss fills the
/// lowest-index invalid entry, or else the least recent one.
#[derive(Clone, Debug)]
pub(crate) struct DbrcLanes {
    entries: usize,
    /// Right-shift applied to line addresses to form a base.
    base_shift: u32,
    low_bytes: usize,
    /// Base values (line address >> 8·low_bytes); meaningless where the
    /// entry is invalid.
    bases: Vec<u64>,
    /// LRU ages, parallel to `bases`.
    ages: Vec<u8>,
}

impl DbrcLanes {
    pub(crate) fn new(lanes: usize, entries: usize, low_bytes: usize) -> Self {
        assert!(entries > 0, "DBRC needs at least one entry");
        assert!(
            entries <= recency::MAX_WAYS,
            "DBRC holds at most {} entries, got {entries}",
            recency::MAX_WAYS
        );
        assert!(
            (1..=4).contains(&low_bytes),
            "low-order bytes must be 1..=4, got {low_bytes}"
        );
        DbrcLanes {
            entries,
            base_shift: (8 * low_bytes) as u32,
            low_bytes,
            bases: vec![0; lanes * entries],
            ages: vec![INVALID; lanes * entries],
        }
    }

    pub(crate) fn lanes(&self) -> usize {
        self.ages.len() / self.entries
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
            .zip(&self.ages[row])
            .any(|(&b, &a)| a != INVALID && b == base)
    }

    /// The DBRC update rule: look `line_addr`'s base up in `lane`,
    /// make it the most recent on a hit, install it over the lowest
    /// invalid or else the least recent entry on a miss.
    pub(crate) fn encode(&mut self, lane: usize, line_addr: Addr) -> bool {
        let row = self.row(lane);
        let base = line_addr >> self.base_shift;
        let bases = &mut self.bases[row.clone()];
        let ages = &mut self.ages[row];
        if let Some(i) = (0..bases.len()).position(|i| ages[i] != INVALID && bases[i] == base) {
            recency::touch(ages, i);
            return true;
        }
        let victim = recency::victim(ages).expect("non-empty cache");
        match ages[victim] {
            INVALID => recency::insert(ages, victim),
            // A full lane's least recent entry takes the new base and
            // becomes the most recent.
            _ => recency::touch(ages, victim),
        }
        bases[victim] = base;
        false
    }

    pub(crate) fn resync(&mut self, lane: usize) {
        let row = self.row(lane);
        self.ages[row].fill(INVALID);
    }

    /// One lane's snapshot bytes, in the layout of a standalone codec:
    /// every entry's age ([`INVALID`] for an empty entry), then the base
    /// of each valid entry in entry order. The entry count is machine
    /// shape, not lane state: the snapshot header's shape fingerprint
    /// covers the scheme.
    pub(crate) fn save_lane(&self, lane: usize, w: &mut ByteWriter) {
        let row = self.row(lane);
        for &age in &self.ages[row.clone()] {
            w.u8(age);
        }
        for i in row {
            if self.ages[i] != INVALID {
                w.u64(self.bases[i]);
            }
        }
    }

    /// Overwrite one lane from [`DbrcLanes::save_lane`] bytes. Refuses
    /// valid ages that are not a permutation of `0..valid`: no encode
    /// can produce them.
    pub(crate) fn load_lane(
        &mut self,
        lane: usize,
        r: &mut ByteReader,
    ) -> Result<(), PersistError> {
        let row = self.row(lane);
        let mut order = recency::OrderCheck::default();
        for i in row.clone() {
            self.ages[i] = r.u8()?;
            if !order.see(self.ages[i]) {
                return Err(r.err("DBRC LRU ages are not a recency order"));
            }
        }
        if !order.holds() {
            return Err(r.err("DBRC LRU ages are not a recency order"));
        }
        for i in row {
            self.bases[i] = match self.ages[i] {
                INVALID => 0,
                _ => r.u64()?,
            };
        }
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

    // entries/low_bytes are configuration; the learned bases and their
    // LRU ages are the state.
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

    /// The stamp-and-clock lane the ages replaced: a per-lane clock, a
    /// `u64` stamp per entry (0 = invalid), a hit restamps, a miss fills
    /// the entry with the smallest stamp.
    struct StampLane {
        bases: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl StampLane {
        fn encode(&mut self, base: u64) -> bool {
            self.clock += 1;
            let hit =
                (0..self.bases.len()).position(|i| self.stamps[i] != 0 && self.bases[i] == base);
            let i = hit.unwrap_or_else(|| {
                (0..self.stamps.len())
                    .min_by_key(|&i| self.stamps[i])
                    .expect("non-empty")
            });
            self.bases[i] = base;
            self.stamps[i] = self.clock;
            hit.is_some()
        }
    }

    #[test]
    fn ages_give_the_hits_and_misses_of_stamp_and_clock_lanes() {
        use cmp_common::persist::{ByteReader, ByteWriter};
        use cmp_common::randtest::{run_cases, usize_in};
        run_cases("dbrc_ages_vs_stamps", 48, |rng| {
            let lanes = usize_in(rng, 1, 8);
            let entries = [1, 2, 3, 4, 16, 64][rng.index(6)];
            let low_bytes = usize_in(rng, 1, 2);
            let shift = 8 * low_bytes as u32;
            let mut ages = DbrcLanes::new(lanes, entries, low_bytes);
            let mut stamps: Vec<StampLane> = (0..lanes)
                .map(|_| StampLane {
                    bases: vec![0; entries],
                    stamps: vec![0; entries],
                    clock: 0,
                })
                .collect();
            // Twice as many bases as entries: hits, misses and evictions.
            let pool = 2 * entries as u64;
            let steps = 2000;
            let reload_at = rng.index(steps);
            for step in 0..steps {
                let lane = rng.index(lanes);
                if rng.chance(0.02) {
                    ages.resync(lane);
                    stamps[lane].stamps.fill(0);
                    stamps[lane].clock = 0;
                } else {
                    let line = (rng.below(pool) << shift) | rng.below(1 << shift);
                    let want = stamps[lane].encode(line >> shift);
                    assert_eq!(ages.encode(lane, line), want, "step {step} lane {lane}");
                }
                // Entry for entry: the same bases in the same places, the
                // same recency order.
                let (row, lane_ref) = (ages.row(lane), &stamps[lane]);
                for (i, a) in row.clone().enumerate() {
                    let valid = lane_ref.stamps[i] != 0;
                    assert_eq!(ages.ages[a] != INVALID, valid, "step {step}: entry {i}");
                    if valid {
                        assert_eq!(ages.bases[a], lane_ref.bases[i], "step {step}: entry {i}");
                    }
                    for (j, b) in row.clone().enumerate() {
                        if valid && lane_ref.stamps[j] != 0 {
                            let older = ages.ages[a] > ages.ages[b];
                            assert_eq!(older, lane_ref.stamps[i] < lane_ref.stamps[j]);
                        }
                    }
                }
                let probe = rng.below(pool) << shift;
                let want = (0..entries)
                    .any(|i| lane_ref.stamps[i] != 0 && lane_ref.bases[i] == probe >> shift);
                assert_eq!(ages.peek(lane, probe), want, "step {step}: peek");
                if step == reload_at {
                    let mut w = ByteWriter::new();
                    (0..lanes).for_each(|l| ages.save_lane(l, &mut w));
                    let bytes = w.into_bytes();
                    ages = DbrcLanes::new(lanes, entries, low_bytes);
                    let mut r = ByteReader::new(&bytes);
                    for l in 0..lanes {
                        ages.load_lane(l, &mut r).expect("saved lanes load");
                    }
                    r.finish().expect("every byte read");
                }
            }
        });
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
