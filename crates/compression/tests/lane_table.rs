//! Differential test of the engine's lane tables against a reference
//! engine that holds one [`CompressionScheme::build_codec`] codec per
//! lane — the standalone codecs, behind the trait seam.
//!
//! Random (destination, class, line) streams, with random desync
//! faults, divergence checks, resyncs and a save → load into a fresh
//! engine mid-stream, must give the same wire size and hit at every
//! step, the same coverage counters and the same saved bytes.

use addr_compression::{CodecBox, CompressionEngine, CompressionScheme, CoverageStats};
use cmp_common::persist::{
    load_state_slice, save_state_slice, ByteReader, ByteWriter, Persist, PersistState,
};
use cmp_common::randtest::{run_cases, usize_in};
use cmp_common::rng::SimRng;
use cmp_common::types::{CompressionStream, MessageClass, TileId};

/// The engine as a bank of boxed standalone codecs, one per lane.
struct Reference {
    scheme: CompressionScheme,
    codecs: [Vec<CodecBox>; 2],
    desynced: [Vec<bool>; 2],
    stats: CoverageStats,
}

impl Reference {
    fn new(scheme: CompressionScheme, tiles: usize) -> Self {
        let lanes = |stream| {
            if scheme.shared_across_destinations(stream) {
                1
            } else {
                tiles
            }
        };
        let bank = |stream| {
            (0..lanes(stream))
                .map(|_| scheme.build_codec(stream))
                .collect()
        };
        Reference {
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

    fn lane(&self, stream: CompressionStream, dest: TileId) -> usize {
        if self.scheme.shared_across_destinations(stream) {
            0
        } else {
            dest.index()
        }
    }

    /// `(wire bytes, compressed)` of one message.
    fn process(&mut self, dest: TileId, class: MessageClass, line: u64) -> (usize, bool) {
        let uncompressed = class.uncompressed_bytes();
        let Some(stream) = class.compression_stream() else {
            return (uncompressed, false);
        };
        if self.scheme == CompressionScheme::None {
            return (uncompressed, false);
        }
        let lane = self.lane(stream, dest);
        let hit = self.codecs[stream.index()][lane].encode(line);
        self.stats.record(stream, hit);
        let bytes = if hit {
            self.scheme.compressed_bytes()
        } else {
            uncompressed
        };
        (bytes, hit)
    }

    fn fault_desync(&mut self, dest: TileId, class: MessageClass) -> bool {
        let Some(stream) = class.compression_stream() else {
            return false;
        };
        if self.scheme == CompressionScheme::None {
            return false;
        }
        let lane = self.lane(stream, dest);
        self.desynced[stream.index()][lane] = true;
        true
    }

    fn divergence(&self, dest: TileId, class: MessageClass) -> bool {
        class
            .compression_stream()
            .is_some_and(|s| self.desynced[s.index()][self.lane(s, dest)])
    }

    fn resync(&mut self, dest: TileId, class: MessageClass) {
        let Some(stream) = class.compression_stream() else {
            return;
        };
        let lane = self.lane(stream, dest);
        self.codecs[stream.index()][lane].resync();
        self.desynced[stream.index()][lane] = false;
    }

    fn save_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for bank in &self.codecs {
            save_state_slice(bank, &mut w);
        }
        for side in &self.desynced {
            side.save(&mut w);
        }
        self.stats.save(&mut w);
        w.into_bytes()
    }

    fn load_bytes(&mut self, bytes: &[u8]) {
        let mut r = ByteReader::new(bytes);
        for bank in &mut self.codecs {
            load_state_slice(bank, &mut r).expect("reference codecs load");
        }
        for side in &mut self.desynced {
            *side = Persist::load(&mut r).expect("reference desync flags load");
        }
        self.stats = Persist::load(&mut r).expect("reference stats load");
        r.finish().expect("reference consumed every byte");
    }
}

fn engine_bytes(e: &CompressionEngine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    e.save_state(&mut w);
    w.into_bytes()
}

fn schemes() -> Vec<CompressionScheme> {
    let mut v = CompressionScheme::paper_matrix();
    v.extend([
        CompressionScheme::None,
        CompressionScheme::Perfect { low_bytes: 1 },
        CompressionScheme::Perfect { low_bytes: 2 },
        CompressionScheme::Multicast {
            entries: 4,
            low_bytes: 2,
        },
        CompressionScheme::Multicast {
            entries: 16,
            low_bytes: 1,
        },
    ]);
    v
}

/// A destination, biased toward a few hot ones so lanes warm up even
/// on a 256-tile machine.
fn dest(rng: &mut SimRng, tiles: usize) -> TileId {
    let hot = tiles.min(6);
    TileId::from(if rng.chance(0.8) {
        rng.index(hot)
    } else {
        rng.index(tiles)
    })
}

/// A line address with enough locality for every scheme to both hit
/// and miss: a handful of regions, near neighbours inside each.
fn line(rng: &mut SimRng) -> u64 {
    let region = rng.below(10) * 70_001;
    region + rng.below(600)
}

fn assert_same_stats(e: &CompressionEngine, r: &Reference, ctx: &str) {
    assert_eq!(e.stats().accesses(), r.stats.accesses(), "{ctx}: accesses");
    assert_eq!(e.stats().hits(), r.stats.hits(), "{ctx}: hits");
    for s in CompressionStream::ALL {
        assert_eq!(
            e.stats().stream_rate(s).to_bits(),
            r.stats.stream_rate(s).to_bits(),
            "{ctx}: {s:?} coverage"
        );
    }
}

#[test]
fn lane_tables_match_one_boxed_codec_per_lane() {
    for scheme in schemes() {
        for tiles in [1usize, 16, 256] {
            let name = format!("lane_table {} x{tiles}", scheme.label());
            run_cases(&name, 6, |rng| {
                let mut engine = CompressionEngine::new(scheme, tiles);
                let mut reference = Reference::new(scheme, tiles);
                let steps = usize_in(rng, 200, 1500);
                let reload_at = rng.index(steps);
                for step in 0..steps {
                    let ctx = format!("{name} step {step}");
                    let d = dest(rng, tiles);
                    let class = MessageClass::ALL[rng.index(MessageClass::ALL.len())];
                    let roll = rng.below(100);
                    if roll < 4 {
                        assert_eq!(
                            engine.fault_desync(d, class),
                            reference.fault_desync(d, class),
                            "{ctx}: fault_desync"
                        );
                    } else if roll < 8 {
                        engine.resync(d, class);
                        reference.resync(d, class);
                    } else {
                        let a = line(rng);
                        let got = engine.process(d, class, a);
                        let want = reference.process(d, class, a);
                        assert_eq!((got.wire_bytes, got.compressed), want, "{ctx}: process");
                    }
                    assert_eq!(
                        engine.divergence(d, class),
                        reference.divergence(d, class),
                        "{ctx}: divergence"
                    );
                    if step == reload_at {
                        let bytes = engine_bytes(&engine);
                        assert!(bytes == reference.save_bytes(), "{ctx}: saved bytes");
                        engine = CompressionEngine::new(scheme, tiles);
                        let mut r = ByteReader::new(&bytes);
                        engine.load_state(&mut r).expect("engine bytes load");
                        r.finish().expect("engine consumed every byte");
                        reference = Reference::new(scheme, tiles);
                        reference.load_bytes(&bytes);
                        assert_same_stats(&engine, &reference, &ctx);
                    }
                }
                assert_same_stats(&engine, &reference, &name);
                assert!(
                    engine_bytes(&engine) == reference.save_bytes(),
                    "{name}: saved bytes at the end"
                );
            });
        }
    }
}
