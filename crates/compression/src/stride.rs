//! Stride (delta) address compression (Figure 1 right).
//!
//! One base register per (sender, receiver, stream) holds the last address
//! exchanged. When the signed difference between the next address and the
//! base fits in the configured number of bytes, only the delta travels.
//! Both ends update their base to the new address on every message —
//! compressed or not — which is what makes constant-stride streams
//! (`a, a+s, a+2s, …`, the patterns of Sazeides & Smith) compress
//! indefinitely.

use cmp_common::types::Addr;

use crate::scheme::AddressCodec;

/// Sender-side stride-compression state for one (destination, stream)
/// pair.
#[derive(Clone, Debug)]
pub struct Stride {
    base: Option<Addr>,
    low_bytes: usize,
    /// Largest delta magnitude representable: deltas live in
    /// `[-2^(8·low-1), 2^(8·low-1))`.
    max_pos: i64,
}

impl Stride {
    /// Delta compression with `low_bytes` bytes of signed delta (the paper
    /// evaluates 1 and 2).
    pub fn new(low_bytes: usize) -> Self {
        assert!(
            (1..=4).contains(&low_bytes),
            "delta bytes must be 1..=4, got {low_bytes}"
        );
        Stride {
            base: None,
            low_bytes,
            max_pos: 1i64 << (8 * low_bytes - 1),
        }
    }

    /// Delta bytes per compressed message.
    pub fn low_bytes(&self) -> usize {
        self.low_bytes
    }

    /// Whether `line_addr` would compress against the current base.
    pub fn peek(&self, line_addr: Addr) -> bool {
        match self.base {
            None => false,
            Some(base) => {
                let delta = line_addr.wrapping_sub(base) as i64;
                delta >= -self.max_pos && delta < self.max_pos
            }
        }
    }
}

impl AddressCodec for Stride {
    fn encode(&mut self, line_addr: Addr) -> bool {
        let hit = self.peek(line_addr);
        self.base = Some(line_addr);
        hit
    }

    fn resync(&mut self) {
        self.base = None;
    }

    fn hw_entries(&self) -> usize {
        1
    }

    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        self.base.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        self.base = cmp_common::persist::Persist::load(r)?;
        Ok(())
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
