//! Stride (delta) address compression (Figure 1 right).
//!
//! One base register per (sender, receiver, stream) holds the last address
//! exchanged. When the signed difference between the next address and the
//! base fits in the configured number of bytes, only the delta travels.
//! Both ends update their base to the new address on every message —
//! compressed or not — which is what makes constant-stride streams
//! (`a, a+s, a+2s, …`, the patterns of Sazeides & Smith) compress
//! indefinitely.

use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistError};
use cmp_common::types::Addr;

use crate::scheme::AddressCodec;

/// Stride state for `lanes` independent (destination, stream) pairs:
/// one base register and one valid bit per lane.
#[derive(Clone, Debug)]
pub(crate) struct StrideLanes {
    /// Last address exchanged per lane; meaningless where `valid` is
    /// false.
    bases: Vec<Addr>,
    valid: Vec<bool>,
    low_bytes: usize,
    /// Largest delta magnitude representable: deltas live in
    /// `[-2^(8·low-1), 2^(8·low-1))`.
    max_pos: i64,
}

impl StrideLanes {
    pub(crate) fn new(lanes: usize, low_bytes: usize) -> Self {
        assert!(
            (1..=4).contains(&low_bytes),
            "delta bytes must be 1..=4, got {low_bytes}"
        );
        StrideLanes {
            bases: vec![0; lanes],
            valid: vec![false; lanes],
            low_bytes,
            max_pos: 1i64 << (8 * low_bytes - 1),
        }
    }

    pub(crate) fn lanes(&self) -> usize {
        self.valid.len()
    }

    /// Whether `line_addr` would compress against `lane`'s base.
    pub(crate) fn peek(&self, lane: usize, line_addr: Addr) -> bool {
        let delta = line_addr.wrapping_sub(self.bases[lane]) as i64;
        self.valid[lane] && delta >= -self.max_pos && delta < self.max_pos
    }

    /// The Stride update rule: compare against `lane`'s base, then
    /// follow the address whether or not it compressed.
    pub(crate) fn encode(&mut self, lane: usize, line_addr: Addr) -> bool {
        let hit = self.peek(lane, line_addr);
        self.bases[lane] = line_addr;
        self.valid[lane] = true;
        hit
    }

    pub(crate) fn resync(&mut self, lane: usize) {
        self.bases[lane] = 0;
        self.valid[lane] = false;
    }

    /// One lane's snapshot bytes: the base as an `Option<u64>`.
    pub(crate) fn save_lane(&self, lane: usize, w: &mut ByteWriter) {
        self.valid[lane].then_some(self.bases[lane]).save(w);
    }

    pub(crate) fn load_lane(
        &mut self,
        lane: usize,
        r: &mut ByteReader,
    ) -> Result<(), PersistError> {
        let base: Option<Addr> = Persist::load(r)?;
        self.bases[lane] = base.unwrap_or(0);
        self.valid[lane] = base.is_some();
        Ok(())
    }
}

/// Sender-side stride-compression state for one (destination, stream)
/// pair: the one-lane form of the engine's Stride lane table.
#[derive(Clone, Debug)]
pub struct Stride(StrideLanes);

impl Stride {
    /// Delta compression with `low_bytes` bytes of signed delta (the paper
    /// evaluates 1 and 2).
    pub fn new(low_bytes: usize) -> Self {
        Stride(StrideLanes::new(1, low_bytes))
    }

    /// Delta bytes per compressed message.
    pub fn low_bytes(&self) -> usize {
        self.0.low_bytes
    }

    /// Whether `line_addr` would compress against the current base.
    pub fn peek(&self, line_addr: Addr) -> bool {
        self.0.peek(0, line_addr)
    }
}

impl AddressCodec for Stride {
    fn encode(&mut self, line_addr: Addr) -> bool {
        self.0.encode(0, line_addr)
    }

    fn resync(&mut self) {
        self.0.resync(0);
    }

    fn hw_entries(&self) -> usize {
        1
    }

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

    #[test]
    fn first_access_misses() {
        let mut s = Stride::new(2);
        assert!(!s.encode(0x1000));
        assert!(s.encode(0x1001));
    }

    #[test]
    fn constant_stride_compresses_forever() {
        let mut s = Stride::new(1);
        s.encode(0);
        for i in 1..10_000u64 {
            assert!(s.encode(i * 16), "step {i} should compress");
        }
    }

    #[test]
    fn delta_range_is_signed() {
        let mut s = Stride::new(1); // deltas in [-128, 128)
        s.encode(1000);
        assert!(s.peek(1000 + 127));
        assert!(!s.peek(1000 + 128));
        assert!(s.peek(1000 - 128));
        assert!(!s.peek(1000 - 129));
    }

    #[test]
    fn two_byte_range() {
        let mut s = Stride::new(2); // [-32768, 32768)
        s.encode(1 << 20);
        assert!(s.peek((1 << 20) + 32767));
        assert!(!s.peek((1 << 20) + 32768));
        assert!(s.peek((1 << 20) - 32768));
    }

    #[test]
    fn base_updates_even_on_miss() {
        let mut s = Stride::new(1);
        s.encode(0);
        assert!(!s.encode(1 << 30)); // wild jump: miss
        assert!(s.encode((1 << 30) + 1)); // but the base followed it
    }

    #[test]
    fn alternating_far_streams_never_compress() {
        // Two interleaved far-apart streams defeat a single base register —
        // the reason the paper gives each stream its own hardware.
        let mut s = Stride::new(2);
        let mut hits = 0;
        for i in 0..1000u64 {
            let addr = if i % 2 == 0 { i * 8 } else { (1 << 40) + i * 8 };
            if s.encode(addr) {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn wraparound_deltas_handled() {
        let mut s = Stride::new(1);
        s.encode(u64::MAX);
        // +1 wraps to 0: delta is +1, should compress
        assert!(s.peek(0));
    }

    #[test]
    fn resync_forgets_base() {
        let mut s = Stride::new(1);
        s.encode(100);
        assert!(s.peek(101));
        s.resync();
        assert!(!s.peek(101));
    }
}
