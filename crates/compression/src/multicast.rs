//! Multicast-encoded coherence commands (after the multicast address
//! compression of arXiv 2411.11545).
//!
//! One-to-many coherence commands — invalidation fan-outs to a sharer
//! set — leave one tile back-to-back and all name the *same* line. With
//! per-destination codec state, the first fan-out toward each sharer pays
//! its own cold miss: a k-way invalidation can ship k full 11-byte
//! addresses. With a single sender-side base cache shared by every
//! destination, the fan-out carries one compressed base plus a sharer-set
//! encoding riding in the control bits: only the first leg can miss, and
//! every later leg (of this fan-out and of any future fan-out for a
//! nearby line) compresses to `CONTROL_BYTES + low_bytes`.
//!
//! The base cache itself is a [`Dbrc`]; what makes the codec *multicast*
//! is the sharing topology [`crate::engine::CompressionEngine`] gives it —
//! one instance per sender tile for the whole commands stream, selected
//! through
//! [`CompressionScheme::shared_across_destinations`](crate::scheme::CompressionScheme::shared_across_destinations).
//! Receiver mirrors stay deterministic for the same reason DBRC's do:
//! every destination observes the same update stream.

use cmp_common::types::Addr;

use crate::dbrc::Dbrc;
use crate::scheme::AddressCodec;

/// Shared commands-stream codec state for one sender tile.
#[derive(Clone, Debug)]
pub struct MulticastCodec {
    base: Dbrc,
    /// Encodes that hit a base installed by an earlier encode — on a
    /// fan-out, every leg after the first. Diagnostic counter; not part
    /// of the wire model.
    shared_hits: u64,
}

impl MulticastCodec {
    /// A shared base cache with `entries` bases and `low_bytes`
    /// uncompressed low-order bytes, like the DBRC it wraps.
    pub fn new(entries: usize, low_bytes: usize) -> Self {
        MulticastCodec {
            base: Dbrc::new(entries, low_bytes),
            shared_hits: 0,
        }
    }

    /// Encodes so far that compressed against an already-installed base.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Whether `line_addr` would hit, without mutating state.
    pub fn peek(&self, line_addr: Addr) -> bool {
        self.base.peek(line_addr)
    }
}

impl AddressCodec for MulticastCodec {
    fn encode(&mut self, line_addr: Addr) -> bool {
        let hit = self.base.encode(line_addr);
        if hit {
            self.shared_hits += 1;
        }
        hit
    }

    fn resync(&mut self) {
        self.base.resync();
        self.shared_hits = 0;
    }

    fn hw_entries(&self) -> usize {
        self.base.entries()
    }

    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        self.base.save_state(w);
        w.u64(self.shared_hits);
    }

    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        self.base.load_state(r)?;
        self.shared_hits = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_pays_one_cold_miss() {
        let mut m = MulticastCodec::new(4, 2);
        // 4-way invalidation fan-out: one line, four legs
        assert!(!m.encode(0x1234), "first leg installs the base");
        for leg in 1..4 {
            assert!(m.encode(0x1234), "leg {leg} must ride the shared base");
        }
        assert_eq!(m.shared_hits(), 3);
    }

    #[test]
    fn later_fan_outs_for_nearby_lines_hit_immediately() {
        let mut m = MulticastCodec::new(4, 2);
        m.encode(0x10_0000);
        // a different line under the same 2-byte base: already covered
        assert!(m.peek(0x10_FFFF));
        assert!(!m.peek(0x11_0000));
    }

    #[test]
    fn resync_forgets_bases_and_counters() {
        let mut m = MulticastCodec::new(4, 1);
        m.encode(0x40);
        m.encode(0x40);
        assert_eq!(m.shared_hits(), 1);
        m.resync();
        assert!(!m.peek(0x40));
        assert_eq!(m.shared_hits(), 0);
        assert!(!m.encode(0x40), "cold after resync");
    }

    #[test]
    fn hw_cost_surface_reports_the_base_cache() {
        assert_eq!(MulticastCodec::new(16, 2).hw_entries(), 16);
    }
}
