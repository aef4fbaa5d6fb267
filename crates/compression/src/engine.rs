//! The per-tile compression engine: the hardware block sitting in the
//! network interface between the cache controllers and the router.
//!
//! Each tile holds one sender-side codec per (destination tile, stream) —
//! the paper's Figure 1 organisation, with the *requests* and *coherence
//! commands* streams on separate structures. Receiver state mirrors the
//! sender deterministically, so the simulator keeps a single logical state
//! machine per directed pair and decides the on-wire size at send time.

use cmp_common::types::{Addr, CompressionStream, MessageClass, TileId};

use crate::coverage::CoverageStats;
use crate::scheme::{CodecBox, CompressionScheme};

/// The outcome of offering a message to the compression engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressedSize {
    /// Bytes that will travel on the wire.
    pub wire_bytes: usize,
    /// Whether the address compressed (`false` also covers messages that
    /// never carry a compressible address).
    pub compressed: bool,
}

/// All compression state owned by one tile's network interface.
#[derive(Debug)]
pub struct CompressionEngine {
    scheme: CompressionScheme,
    /// `codecs[stream][lane]`, where a lane is one destination — or, for
    /// a stream the scheme shares across destinations (the multicast
    /// commands stream), the single shared slot 0. See
    /// [`CompressionEngine::lane`].
    codecs: [Vec<CodecBox>; 2],
    /// `desynced[stream][lane]`: the receiver-side mirror of this codec
    /// no longer matches the sender (injected metadata corruption). The
    /// sender cannot see this directly — the NI detects it through the
    /// sequence/checksum tag on the next compressible send and triggers
    /// a resynchronisation. A shared lane desyncs for every destination
    /// at once, exactly as corrupting broadcast-mirrored state would.
    desynced: [Vec<bool>; 2],
    stats: CoverageStats,
}

impl CompressionEngine {
    /// Engine for a machine with `tiles` tiles. A codec is instantiated
    /// per destination including self — matching the paper's hardware
    /// sizing ("as many receiving structures as the number of cores") —
    /// though the simulator never routes self-messages through it.
    /// Streams the scheme shares across destinations get one codec.
    pub fn new(scheme: CompressionScheme, tiles: usize) -> Self {
        let lanes = |stream: CompressionStream| {
            if scheme.shared_across_destinations(stream) {
                1
            } else {
                tiles
            }
        };
        let bank = |stream: CompressionStream| {
            (0..lanes(stream))
                .map(|_| scheme.build_codec(stream))
                .collect::<Vec<_>>()
        };
        CompressionEngine {
            scheme,
            codecs: [
                bank(CompressionStream::Requests),
                bank(CompressionStream::Commands),
            ],
            desynced: [
                vec![false; lanes(CompressionStream::Requests)],
                vec![false; lanes(CompressionStream::Commands)],
            ],
            stats: CoverageStats::new(),
        }
    }

    /// Which codec (and desync flag) a (`stream`, `dest`) pair uses:
    /// slot 0 when the stream's state is shared across destinations, the
    /// destination index otherwise.
    fn lane(&self, stream: CompressionStream, dest: TileId) -> usize {
        if self.scheme.shared_across_destinations(stream) {
            0
        } else {
            dest.index()
        }
    }

    /// The configured scheme.
    pub fn scheme(&self) -> CompressionScheme {
        self.scheme
    }

    /// Offer an outgoing message to the engine and learn its wire size.
    ///
    /// Messages whose class does not belong to a compression stream pass
    /// through at their uncompressed size. For compressible classes the
    /// codec for (stream, destination) observes the line address: on a hit
    /// the message shrinks to `control + low-order` bytes (4–5 bytes), on
    /// a miss it stays 11 bytes and the codec learns the address.
    pub fn process(
        &mut self,
        dest: TileId,
        class: MessageClass,
        line_addr: Addr,
    ) -> CompressedSize {
        let uncompressed = class.uncompressed_bytes();
        let Some(stream) = class.compression_stream() else {
            return CompressedSize {
                wire_bytes: uncompressed,
                compressed: false,
            };
        };
        if matches!(self.scheme, CompressionScheme::None) {
            return CompressedSize {
                wire_bytes: uncompressed,
                compressed: false,
            };
        }
        let lane = self.lane(stream, dest);
        let codec = &mut self.codecs[stream.index()][lane];
        let hit = codec.encode(line_addr);
        self.stats.record(stream, hit);
        CompressedSize {
            wire_bytes: if hit {
                self.scheme.compressed_bytes()
            } else {
                uncompressed
            },
            compressed: hit,
        }
    }

    /// Coverage statistics accumulated so far.
    pub fn stats(&self) -> &CoverageStats {
        &self.stats
    }

    /// Fault hook: corrupt the receiver-side mirror of the codec pair
    /// that `class`-messages to `dest` use. Returns `false` when there is
    /// nothing to desynchronise (non-compressible class, or no codec
    /// state under [`CompressionScheme::None`]).
    pub fn fault_desync(&mut self, dest: TileId, class: MessageClass) -> bool {
        if matches!(self.scheme, CompressionScheme::None) {
            return false;
        }
        let Some(stream) = class.compression_stream() else {
            return false;
        };
        let lane = self.lane(stream, dest);
        self.desynced[stream.index()][lane] = true;
        true
    }

    /// Whether the codec pair for (`dest`, `class`'s stream) has diverged
    /// from its receiver mirror. This models the NI's sequence/checksum
    /// tag comparison: divergence is detected with certainty on the next
    /// compressible message for the pair.
    pub fn divergence(&self, dest: TileId, class: MessageClass) -> bool {
        class
            .compression_stream()
            .is_some_and(|s| self.desynced[s.index()][self.lane(s, dest)])
    }

    /// Resynchronise a diverged codec pair: both sides drop their learned
    /// state and restart cold (the resync handshake's effect).
    pub fn resync(&mut self, dest: TileId, class: MessageClass) {
        let Some(stream) = class.compression_stream() else {
            return;
        };
        let lane = self.lane(stream, dest);
        self.codecs[stream.index()][lane].resync();
        self.desynced[stream.index()][lane] = false;
    }

    /// Forget all learned codec state and statistics.
    pub fn reset(&mut self) {
        for side in &mut self.codecs {
            for codec in side {
                codec.resync();
            }
        }
        for side in &mut self.desynced {
            side.fill(false);
        }
        self.stats = CoverageStats::new();
    }
}

/// The scheme (and therefore the codec bank shape) is configuration;
/// each codec's learned state, the desync flags and the coverage
/// counters travel as bytes.
impl cmp_common::persist::PersistState for CompressionEngine {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        for bank in &self.codecs {
            cmp_common::persist::save_state_slice(bank, w);
        }
        for side in &self.desynced {
            side.save(w);
        }
        self.stats.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        for bank in &mut self.codecs {
            cmp_common::persist::load_state_slice(bank, r)?;
        }
        for side in &mut self.desynced {
            let flags: Vec<bool> = Persist::load(r)?;
            if flags.len() != side.len() {
                return Err(r.err("desync lane count does not match machine shape"));
            }
            *side = flags;
        }
        self.stats = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(scheme: CompressionScheme) -> CompressionEngine {
        CompressionEngine::new(scheme, 16)
    }

    #[test]
    fn non_compressible_classes_pass_through() {
        let mut e = engine(CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        });
        let r = e.process(TileId(3), MessageClass::ResponseData, 0x40);
        assert_eq!(r.wire_bytes, 67);
        assert!(!r.compressed);
        let r = e.process(TileId(3), MessageClass::CoherenceReply, 0x40);
        assert_eq!(r.wire_bytes, 3);
        assert_eq!(
            e.stats().accesses(),
            0,
            "pass-through must not touch codecs"
        );
    }

    #[test]
    fn requests_compress_after_warmup() {
        let mut e = engine(CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        });
        let first = e.process(TileId(1), MessageClass::Request, 100);
        assert_eq!(first.wire_bytes, 11);
        assert!(!first.compressed);
        let second = e.process(TileId(1), MessageClass::Request, 101);
        assert_eq!(second.wire_bytes, 5);
        assert!(second.compressed);
    }

    #[test]
    fn destinations_have_independent_state() {
        let mut e = engine(CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        });
        e.process(TileId(1), MessageClass::Request, 100);
        // same base, different destination: still a cold miss
        let r = e.process(TileId(2), MessageClass::Request, 100);
        assert!(!r.compressed);
    }

    #[test]
    fn streams_have_independent_state() {
        let mut e = engine(CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        });
        e.process(TileId(1), MessageClass::Request, 100);
        // same destination + base but the commands stream: cold miss
        let r = e.process(TileId(1), MessageClass::CoherenceCmd, 100);
        assert!(!r.compressed);
        // and it hits on its own stream afterwards
        let r = e.process(TileId(1), MessageClass::CoherenceCmd, 100);
        assert!(r.compressed);
    }

    #[test]
    fn none_scheme_never_compresses_or_counts() {
        let mut e = engine(CompressionScheme::None);
        for i in 0..10 {
            let r = e.process(TileId(1), MessageClass::Request, i);
            assert_eq!(r.wire_bytes, 11);
        }
        assert_eq!(e.stats().accesses(), 0);
    }

    #[test]
    fn perfect_scheme_always_compresses() {
        let mut e = engine(CompressionScheme::Perfect { low_bytes: 1 });
        for i in 0..10u64 {
            let r = e.process(TileId(i as u16 % 16), MessageClass::Request, i * 99_991);
            assert_eq!(r.wire_bytes, 4);
            assert!(r.compressed);
        }
        assert!((e.stats().coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_reflects_hits() {
        let mut e = engine(CompressionScheme::Stride { low_bytes: 2 });
        e.process(TileId(1), MessageClass::Request, 0); // miss
        e.process(TileId(1), MessageClass::Request, 1); // hit
        e.process(TileId(1), MessageClass::Request, 2); // hit
        assert!((e.stats().coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn desync_is_scoped_to_one_pair_and_cleared_by_resync() {
        let mut e = engine(CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        });
        assert!(e.fault_desync(TileId(1), MessageClass::Request));
        assert!(e.divergence(TileId(1), MessageClass::Request));
        // other destination / other stream / non-compressible class: clean
        assert!(!e.divergence(TileId(2), MessageClass::Request));
        assert!(!e.divergence(TileId(1), MessageClass::CoherenceCmd));
        assert!(!e.divergence(TileId(1), MessageClass::ResponseData));
        // warm the pair, then resync: flag cleared AND codec cold again
        e.process(TileId(1), MessageClass::Request, 100);
        assert!(e.process(TileId(1), MessageClass::Request, 101).compressed);
        e.resync(TileId(1), MessageClass::Request);
        assert!(!e.divergence(TileId(1), MessageClass::Request));
        assert!(
            !e.process(TileId(1), MessageClass::Request, 102).compressed,
            "resync must drop the learned base"
        );
    }

    #[test]
    fn nothing_to_desync_without_codec_state() {
        let mut e = engine(CompressionScheme::None);
        assert!(!e.fault_desync(TileId(1), MessageClass::Request));
        let mut e = engine(CompressionScheme::Stride { low_bytes: 2 });
        assert!(!e.fault_desync(TileId(1), MessageClass::ResponseData));
        assert!(!e.divergence(TileId(1), MessageClass::ResponseData));
    }

    #[test]
    fn multicast_fan_out_pays_one_cold_miss() {
        let mut e = engine(CompressionScheme::Multicast {
            entries: 4,
            low_bytes: 2,
        });
        // a 3-way invalidation fan-out: same line, three sharers
        let legs: Vec<bool> = [1u16, 5, 9]
            .iter()
            .map(|&t| {
                e.process(TileId(t), MessageClass::CoherenceCmd, 0x4000)
                    .compressed
            })
            .collect();
        assert_eq!(
            legs,
            vec![false, true, true],
            "only the first leg may miss cold"
        );
        // compare: per-destination DBRC pays three cold misses
        let mut d = engine(CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        });
        for t in [1u16, 5, 9] {
            assert!(
                !d.process(TileId(t), MessageClass::CoherenceCmd, 0x4000)
                    .compressed
            );
        }
    }

    #[test]
    fn multicast_requests_stay_per_destination() {
        let mut e = engine(CompressionScheme::Multicast {
            entries: 4,
            low_bytes: 2,
        });
        e.process(TileId(1), MessageClass::Request, 100);
        // same base, different destination, requests stream: cold miss —
        // sharing is scoped to the one-to-many commands stream
        assert!(!e.process(TileId(2), MessageClass::Request, 100).compressed);
        assert!(e.process(TileId(1), MessageClass::Request, 101).compressed);
    }

    #[test]
    fn multicast_desync_covers_every_destination() {
        let mut e = engine(CompressionScheme::Multicast {
            entries: 4,
            low_bytes: 2,
        });
        assert!(e.fault_desync(TileId(1), MessageClass::CoherenceCmd));
        // the shared mirror serves all destinations, so all diverge...
        assert!(e.divergence(TileId(7), MessageClass::CoherenceCmd));
        // ...while the per-destination requests stream stays clean
        assert!(!e.divergence(TileId(1), MessageClass::Request));
        // one resync (from any destination's viewpoint) heals the stream
        e.resync(TileId(12), MessageClass::CoherenceCmd);
        assert!(!e.divergence(TileId(1), MessageClass::CoherenceCmd));
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut e = engine(CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        });
        e.process(TileId(1), MessageClass::Request, 100);
        e.process(TileId(1), MessageClass::Request, 100);
        e.reset();
        let r = e.process(TileId(1), MessageClass::Request, 100);
        assert!(!r.compressed);
        assert_eq!(e.stats().accesses(), 1);
    }
}
