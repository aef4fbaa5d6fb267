//! The per-tile compression engine: the hardware block sitting in the
//! network interface between the cache controllers and the router.
//!
//! Each tile holds one sender-side codec per (destination tile, stream) —
//! the paper's Figure 1 organisation, with the *requests* and *coherence
//! commands* streams on separate structures. Receiver state mirrors the
//! sender deterministically, so the simulator keeps a single logical state
//! machine per directed pair and decides the on-wire size at send time.
//!
//! That state is O(tiles²) across the machine, so it is stored as data,
//! not as objects: each stream is one struct-of-arrays lane table (a lane
//! per destination; one shared lane for the multicast commands stream)
//! whose update rule is the same code the standalone one-lane codecs
//! run. No lane owns a heap block of its own.

use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistError, PersistState};
use cmp_common::types::{Addr, CompressionStream, MessageClass, TileId};

use crate::coverage::CoverageStats;
use crate::dbrc::DbrcLanes;
use crate::multicast::MulticastCodec;
use crate::scheme::{AddressCodec, CompressionScheme};
use crate::stride::StrideLanes;

/// The outcome of offering a message to the compression engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressedSize {
    /// Bytes that will travel on the wire.
    pub wire_bytes: usize,
    /// Whether the address compressed (`false` also covers messages that
    /// never carry a compressible address).
    pub compressed: bool,
}

/// One stream's codec state for every lane of one engine.
#[derive(Debug)]
enum LaneTable {
    /// `None` / `Perfect`: nothing is learned; every lane answers `hit`.
    Stateless {
        lanes: usize,
        hit: bool,
    },
    Dbrc(DbrcLanes),
    Stride(StrideLanes),
    /// The multicast commands stream: one lane serves every destination.
    Multicast(MulticastCodec),
}

impl LaneTable {
    /// The table `scheme` gives `stream` on a `tiles`-tile machine. It
    /// must hold, lane for lane, what [`CompressionScheme::build_codec`]
    /// builds.
    fn new(scheme: CompressionScheme, stream: CompressionStream, tiles: usize) -> Self {
        match scheme {
            CompressionScheme::None => LaneTable::Stateless {
                lanes: tiles,
                hit: false,
            },
            CompressionScheme::Perfect { .. } => LaneTable::Stateless {
                lanes: tiles,
                hit: true,
            },
            CompressionScheme::Dbrc { entries, low_bytes } => {
                LaneTable::Dbrc(DbrcLanes::new(tiles, entries, low_bytes))
            }
            CompressionScheme::Stride { low_bytes } => {
                LaneTable::Stride(StrideLanes::new(tiles, low_bytes))
            }
            CompressionScheme::Multicast { entries, low_bytes } => match stream {
                CompressionStream::Requests => {
                    LaneTable::Dbrc(DbrcLanes::new(tiles, entries, low_bytes))
                }
                CompressionStream::Commands => {
                    LaneTable::Multicast(MulticastCodec::new(entries, low_bytes))
                }
            },
        }
    }

    fn lanes(&self) -> usize {
        match self {
            LaneTable::Stateless { lanes, .. } => *lanes,
            LaneTable::Dbrc(t) => t.lanes(),
            LaneTable::Stride(t) => t.lanes(),
            LaneTable::Multicast(_) => 1,
        }
    }

    #[inline]
    fn encode(&mut self, lane: usize, line_addr: Addr) -> bool {
        match self {
            LaneTable::Stateless { hit, .. } => *hit,
            LaneTable::Dbrc(t) => t.encode(lane, line_addr),
            LaneTable::Stride(t) => t.encode(lane, line_addr),
            LaneTable::Multicast(m) => m.encode(line_addr),
        }
    }

    fn resync(&mut self, lane: usize) {
        match self {
            LaneTable::Stateless { .. } => {}
            LaneTable::Dbrc(t) => t.resync(lane),
            LaneTable::Stride(t) => t.resync(lane),
            LaneTable::Multicast(m) => m.resync(),
        }
    }
}

/// The lane count, then each lane's bytes in the layout its standalone
/// codec saves (none for a stateless lane).
impl PersistState for LaneTable {
    fn save_state(&self, w: &mut ByteWriter) {
        w.usize(self.lanes());
        match self {
            LaneTable::Stateless { .. } => {}
            LaneTable::Dbrc(t) => (0..t.lanes()).for_each(|l| t.save_lane(l, w)),
            LaneTable::Stride(t) => (0..t.lanes()).for_each(|l| t.save_lane(l, w)),
            LaneTable::Multicast(m) => m.save_state(w),
        }
    }

    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        if r.usize()? != self.lanes() {
            return Err(r.err("codec lane count does not match machine shape"));
        }
        match self {
            LaneTable::Stateless { .. } => Ok(()),
            LaneTable::Dbrc(t) => (0..t.lanes()).try_for_each(|l| t.load_lane(l, r)),
            LaneTable::Stride(t) => (0..t.lanes()).try_for_each(|l| t.load_lane(l, r)),
            LaneTable::Multicast(m) => m.load_state(r),
        }
    }
}

/// All compression state owned by one tile's network interface.
#[derive(Debug)]
pub struct CompressionEngine {
    scheme: CompressionScheme,
    /// `lanes[stream]`: the stream's codec state, one lane per
    /// destination — or, for a stream the scheme shares across
    /// destinations (the multicast commands stream), the single shared
    /// lane 0. See [`CompressionEngine::lane`].
    lanes: [LaneTable; 2],
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
    /// Engine for a machine with `tiles` tiles. A codec lane exists per
    /// destination including self — matching the paper's hardware
    /// sizing ("as many receiving structures as the number of cores") —
    /// though the simulator never routes self-messages through it.
    /// Streams the scheme shares across destinations get one lane.
    pub fn new(scheme: CompressionScheme, tiles: usize) -> Self {
        let table = |stream| LaneTable::new(scheme, stream, tiles);
        let lanes = [
            table(CompressionStream::Requests),
            table(CompressionStream::Commands),
        ];
        let desynced = [vec![false; lanes[0].lanes()], vec![false; lanes[1].lanes()]];
        CompressionEngine {
            scheme,
            lanes,
            desynced,
            stats: CoverageStats::new(),
        }
    }

    /// Which lane (and desync flag) a (`stream`, `dest`) pair uses:
    /// lane 0 when the stream's state is shared across destinations, the
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
        let hit = self.lanes[stream.index()].encode(lane, line_addr);
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
        self.lanes[stream.index()].resync(lane);
        self.desynced[stream.index()][lane] = false;
    }
}

/// The scheme (and therefore the lane-table shape) is configuration;
/// each lane's learned state, the desync flags and the coverage counters
/// travel as bytes — the same bytes a bank of standalone codecs, one per
/// lane, would write.
impl PersistState for CompressionEngine {
    fn save_state(&self, w: &mut ByteWriter) {
        for table in &self.lanes {
            table.save_state(w);
        }
        for side in &self.desynced {
            side.save(w);
        }
        self.stats.save(w);
    }
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        for table in &mut self.lanes {
            table.load_state(r)?;
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
    use cmp_common::recency::INVALID;

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

    /// Snapshot bytes of a one-tile, two-entry DBRC engine whose
    /// requests lane is spelt out by hand (`lanes` lane records of it:
    /// each entry's age, then `bases`) and whose commands lane is cold.
    fn forged(lanes: usize, ages: &[u8], bases: &[u64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.usize(lanes);
        for _ in 0..lanes {
            ages.iter().for_each(|&a| w.u8(a));
            bases.iter().for_each(|&b| w.u64(b));
        }
        w.usize(1);
        [INVALID; 2].iter().for_each(|&a| w.u8(a));
        for _ in 0..2 {
            vec![false].save(&mut w);
        }
        CoverageStats::new().save(&mut w);
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<CompressionEngine, PersistError> {
        let mut e = CompressionEngine::new(
            CompressionScheme::Dbrc {
                entries: 2,
                low_bytes: 1,
            },
            1,
        );
        let mut r = ByteReader::new(bytes);
        e.load_state(&mut r).and_then(|()| r.finish())?;
        Ok(e)
    }

    fn refusal(bytes: &[u8]) -> String {
        load(bytes)
            .expect_err("forged codec state must be refused")
            .to_string()
    }

    #[test]
    fn consistent_hand_written_state_loads_and_saves_back() {
        for (ages, bases) in [
            (&[0, INVALID][..], &[3][..]),
            (&[INVALID, 0], &[3]),
            (&[1, 0], &[3, 9]),
            (&[INVALID; 2], &[]),
        ] {
            let bytes = forged(1, ages, bases);
            let e = load(&bytes).expect("consistent state loads");
            let mut w = ByteWriter::new();
            e.save_state(&mut w);
            assert_eq!(w.into_bytes(), bytes, "{ages:?}");
        }
    }

    #[test]
    fn duplicate_age_is_refused() {
        let err = refusal(&forged(1, &[0, 0], &[3, 9]));
        assert!(err.contains("recency order"), "{err}");
    }

    #[test]
    fn age_at_or_past_the_valid_count_is_refused() {
        let err = refusal(&forged(1, &[1, INVALID], &[3]));
        assert!(err.contains("recency order"), "{err}");
        let err = refusal(&forged(1, &[0, 2], &[3, 9]));
        assert!(err.contains("recency order"), "{err}");
    }

    #[test]
    fn base_on_an_entry_aged_invalid_is_refused() {
        // An invalid entry carries no base: the stray one is read as the
        // commands table's lane count.
        let err = refusal(&forged(1, &[0, INVALID], &[3, 9]));
        assert!(err.contains("lane count"), "{err}");
    }

    #[test]
    fn lane_count_other_than_the_machines_is_refused() {
        let err = refusal(&forged(2, &[0, INVALID], &[3]));
        assert!(err.contains("lane count"), "{err}");
    }

    #[test]
    fn lanes_of_another_entry_count_are_refused() {
        // Lane bytes carry no entry count (the snapshot header's shape
        // fingerprint covers the scheme): a lane of another size reads
        // out of step and is refused, never loaded.
        let err = refusal(&forged(1, &[0, INVALID, INVALID], &[3]));
        assert!(err.contains("lane count"), "{err}");
        let err = refusal(&forged(1, &[0], &[3]));
        assert!(err.contains("recency order"), "{err}");
    }
}
