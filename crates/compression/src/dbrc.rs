//! Dynamic Base Register Caching (Farrens & Park, ISCA 1991; Figure 1
//! left).
//!
//! The sender keeps a small fully-associative cache of *bases* — the
//! address bits above the uncompressed low-order bytes. A hit sends only
//! the entry index plus the low-order bytes; a miss sends the whole
//! address and inserts the base, evicting the LRU entry. The receiver's
//! register file applies the same deterministic update rule, so both ends
//! stay synchronised without extra traffic.

use cmp_common::types::Addr;

use crate::scheme::AddressCodec;

/// Sender-side DBRC state for one (destination, stream) pair.
#[derive(Clone, Debug)]
pub struct Dbrc {
    /// Base values (line address >> 8·low_bytes). `None` = invalid entry.
    bases: Vec<Option<u64>>,
    /// LRU stamps, parallel to `bases`.
    stamps: Vec<u64>,
    /// Logical clock for LRU.
    clock: u64,
    /// Right-shift applied to line addresses to form a base.
    base_shift: u32,
    low_bytes: usize,
}

impl Dbrc {
    /// A DBRC cache with `entries` bases, keeping `low_bytes` low-order
    /// bytes of the line address uncompressed. The paper evaluates 4, 16
    /// and 64 entries with 1–2 low-order bytes.
    pub fn new(entries: usize, low_bytes: usize) -> Self {
        assert!(entries > 0, "DBRC needs at least one entry");
        assert!(
            (1..=4).contains(&low_bytes),
            "low-order bytes must be 1..=4, got {low_bytes}"
        );
        Dbrc {
            bases: vec![None; entries],
            stamps: vec![0; entries],
            clock: 0,
            base_shift: (8 * low_bytes) as u32,
            low_bytes,
        }
    }

    /// Number of entries in the compression cache.
    pub fn entries(&self) -> usize {
        self.bases.len()
    }

    /// Uncompressed low-order bytes per message.
    pub fn low_bytes(&self) -> usize {
        self.low_bytes
    }

    /// The base a line address maps to.
    #[inline]
    fn base_of(&self, line_addr: Addr) -> u64 {
        line_addr >> self.base_shift
    }

    /// Whether `line_addr` would hit, without mutating state.
    pub fn peek(&self, line_addr: Addr) -> bool {
        let base = self.base_of(line_addr);
        self.bases.contains(&Some(base))
    }
}

impl AddressCodec for Dbrc {
    fn encode(&mut self, line_addr: Addr) -> bool {
        self.clock += 1;
        let base = self.base_of(line_addr);
        if let Some(idx) = self.bases.iter().position(|&b| b == Some(base)) {
            self.stamps[idx] = self.clock;
            return true;
        }
        // Miss: install into the LRU slot (invalid entries have stamp 0
        // and lose ties, so they fill first).
        let victim = (0..self.bases.len())
            .min_by_key(|&i| self.stamps[i])
            .expect("non-empty cache");
        self.bases[victim] = Some(base);
        self.stamps[victim] = self.clock;
        false
    }

    fn resync(&mut self) {
        self.bases.fill(None);
        self.stamps.fill(0);
        self.clock = 0;
    }

    fn hw_entries(&self) -> usize {
        self.entries()
    }

    // entries/low_bytes are configuration; the learned bases, their LRU
    // stamps and the clock are the state.
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        self.bases.save(w);
        self.stamps.save(w);
        w.u64(self.clock);
    }

    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        let bases: Vec<Option<u64>> = Persist::load(r)?;
        let stamps: Vec<u64> = Persist::load(r)?;
        if bases.len() != self.bases.len() || stamps.len() != self.stamps.len() {
            return Err(r.err("DBRC entry count does not match machine shape"));
        }
        self.bases = bases;
        self.stamps = stamps;
        self.clock = r.u64()?;
        Ok(())
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
