//! The codec strategy seam and scheme configuration.
//!
//! [`AddressCodec`] is the compression layer's strategy trait: every
//! standalone sender-side codec — DBRC, Stride, the multicast commands
//! codec, the oracles — implements the same
//! encode/decode/resync/snapshot/hw-cost surface, and
//! [`CompressionScheme::build_codec`] builds one from the scheme value
//! carried in the run configuration. The engine does not box codecs: it
//! keeps each stream as a lane table built from the same scheme value
//! and running the same update code (see [`crate::engine`]). Nothing
//! about the codec choice is compile-time wiring: a scheme value decodes
//! from a campaign journal and builds the same hardware.

use std::fmt;
use std::ops::{Deref, DerefMut};

use cmp_common::types::{Addr, CompressionStream, CONTROL_BYTES};

use crate::dbrc::Dbrc;
use crate::multicast::MulticastCodec;
use crate::stride::Stride;

/// Which address-compression scheme a configuration uses.
///
/// The paper is explicit that it "is not aimed at proposing a particular
/// compression scheme" — any scheme that yields coverage can feed the
/// heterogeneous interconnect, which is why the scheme is a plain value
/// the experiment matrix sweeps over.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompressionScheme {
    /// No compression: every address-bearing message stays 11 bytes.
    None,
    /// Dynamic Base Register Caching with `entries` bases per
    /// (destination, stream) and `low_bytes` uncompressed low-order bytes.
    Dbrc { entries: usize, low_bytes: usize },
    /// Stride/delta compression with `low_bytes` delta bytes.
    Stride { low_bytes: usize },
    /// Oracle that always hits — the paper's "perfect address compression"
    /// solid lines. Costs no hardware.
    Perfect { low_bytes: usize },
    /// DBRC for requests plus a *multicast-encoded* commands stream: one
    /// sender-side base cache shared across all destinations, so an
    /// invalidation fan-out carries one compressed base and a sharer-set
    /// encoding and pays at most one cold miss (see [`crate::multicast`]).
    Multicast { entries: usize, low_bytes: usize },
}

impl CompressionScheme {
    /// The configurations evaluated in Figures 2/6/7 of the paper.
    pub fn paper_matrix() -> Vec<CompressionScheme> {
        vec![
            CompressionScheme::Stride { low_bytes: 1 },
            CompressionScheme::Stride { low_bytes: 2 },
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 1,
            },
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2,
            },
            CompressionScheme::Dbrc {
                entries: 16,
                low_bytes: 1,
            },
            CompressionScheme::Dbrc {
                entries: 16,
                low_bytes: 2,
            },
            CompressionScheme::Dbrc {
                entries: 64,
                low_bytes: 1,
            },
            CompressionScheme::Dbrc {
                entries: 64,
                low_bytes: 2,
            },
        ]
    }

    /// Uncompressed low-order bytes this scheme sends alongside the
    /// compression metadata (0 for `None`, whose messages are never
    /// compressed).
    pub fn low_order_bytes(&self) -> usize {
        match *self {
            CompressionScheme::None => 0,
            CompressionScheme::Dbrc { low_bytes, .. }
            | CompressionScheme::Stride { low_bytes }
            | CompressionScheme::Perfect { low_bytes }
            | CompressionScheme::Multicast { low_bytes, .. } => low_bytes,
        }
    }

    /// On-wire size of a *compressed* message: control bytes + low-order
    /// bytes (the DBRC index / delta sign / sharer-set encoding ride in
    /// spare control bits — Section 4.3 puts compressed requests at 4–5
    /// bytes).
    pub fn compressed_bytes(&self) -> usize {
        CONTROL_BYTES + self.low_order_bytes()
    }

    /// Short, human-readable configuration label (matches the paper's
    /// figure legends).
    pub fn label(&self) -> String {
        match *self {
            CompressionScheme::None => "no-compression".to_string(),
            CompressionScheme::Dbrc { entries, low_bytes } => {
                format!("{entries}-entry DBRC ({low_bytes}B LO)")
            }
            CompressionScheme::Stride { low_bytes } => format!("{low_bytes}-byte Stride"),
            CompressionScheme::Perfect { low_bytes } => {
                format!("perfect ({}B msg)", CONTROL_BYTES + low_bytes)
            }
            CompressionScheme::Multicast { entries, low_bytes } => {
                format!("{entries}-entry multicast ({low_bytes}B LO)")
            }
        }
    }

    /// Whether `stream`'s codec state lives once per sender tile instead
    /// of once per (destination, stream) pair. Only the multicast scheme
    /// shares, and only for the one-to-many commands stream.
    pub fn shared_across_destinations(&self, stream: CompressionStream) -> bool {
        matches!(self, CompressionScheme::Multicast { .. }) && stream == CompressionStream::Commands
    }

    /// Build one standalone sender-side codec for `stream`: one lane of
    /// what [`crate::CompressionEngine`] holds for the stream, boxed
    /// behind the [`AddressCodec`] seam. Which hardware runs is decided
    /// by the configuration value, not by compile-time wiring.
    pub fn build_codec(&self, stream: CompressionStream) -> CodecBox {
        match *self {
            CompressionScheme::None => CodecBox::new(NoneCodec),
            CompressionScheme::Dbrc { entries, low_bytes } => {
                CodecBox::new(Dbrc::new(entries, low_bytes))
            }
            CompressionScheme::Stride { low_bytes } => CodecBox::new(Stride::new(low_bytes)),
            CompressionScheme::Perfect { .. } => CodecBox::new(PerfectCodec),
            CompressionScheme::Multicast { entries, low_bytes } => match stream {
                CompressionStream::Requests => CodecBox::new(Dbrc::new(entries, low_bytes)),
                CompressionStream::Commands => {
                    CodecBox::new(MulticastCodec::new(entries, low_bytes))
                }
            },
        }
    }
}

cmp_common::json_tagged!(CompressionScheme, "kind" {
    "none" => None,
    "dbrc" => Dbrc { entries, low_bytes },
    "stride" => Stride { low_bytes },
    "perfect" => Perfect { low_bytes },
    "multicast" => Multicast { entries, low_bytes },
});

/// Behaviour every sender-side codec strategy implements.
///
/// The seam covers the full codec lifecycle: `encode` on the sender,
/// `decode` on the receiver mirror, `resync` for the recovery handshake,
/// `save_state`/`load_state` for whole-machine snapshots, and
/// `hw_entries` for the Table 1 cost model. Receiver state mirrors the sender deterministically
/// (the simulator carries the real address in message metadata), so one
/// state machine per (src, dst, stream) suffices on the hot path.
pub trait AddressCodec: fmt::Debug + Send {
    /// Sender side: observe an outgoing line address, update state, and
    /// report whether it compressed.
    fn encode(&mut self, line_addr: Addr) -> bool;

    /// Receiver side: apply the mirror update for an arriving address and
    /// report whether it was reconstructible from local state. Every
    /// codec here uses the same deterministic update rule on both ends,
    /// so the default delegates to [`AddressCodec::encode`]; tests use it
    /// to prove sender/receiver lockstep.
    fn decode(&mut self, line_addr: Addr) -> bool {
        self.encode(line_addr)
    }

    /// Drop all learned state — the effect of the resynchronisation
    /// handshake, also used between application phases.
    fn resync(&mut self);

    /// Base-storage entries one instance of this codec's hardware holds
    /// (each entry stores an 8-byte base; feeds [`crate::hw_cost`]).
    fn hw_entries(&self) -> usize;

    /// Append this codec's mutable state to a whole-machine snapshot.
    /// The matching [`AddressCodec::load_state`] always runs on a codec
    /// built for the same scheme (the snapshot header fingerprints the
    /// configuration), so no type tag travels with the bytes.
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter);

    /// Overwrite *all* of this codec's mutable state from snapshot
    /// bytes: the codec may be fresh or may have run on past the
    /// snapshot, and must end up identical either way.
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError>;
}

impl cmp_common::persist::PersistState for CodecBox {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        self.0.save_state(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        self.0.load_state(r)
    }
}

/// An owned, dynamically-dispatched codec.
pub struct CodecBox(Box<dyn AddressCodec + Send>);

impl CodecBox {
    /// Box a concrete codec.
    pub fn new<C: AddressCodec + 'static>(codec: C) -> Self {
        CodecBox(Box::new(codec))
    }
}

impl fmt::Debug for CodecBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Deref for CodecBox {
    type Target = dyn AddressCodec + Send;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl DerefMut for CodecBox {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut *self.0
    }
}

/// No compression hardware: never hits, holds no state.
#[derive(Clone, Copy, Debug)]
pub struct NoneCodec;

impl AddressCodec for NoneCodec {
    fn encode(&mut self, _line_addr: Addr) -> bool {
        false
    }

    fn resync(&mut self) {}

    fn hw_entries(&self) -> usize {
        0
    }

    fn save_state(&self, _w: &mut cmp_common::persist::ByteWriter) {}

    fn load_state(
        &mut self,
        _r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        Ok(())
    }
}

/// Oracle that always hits — the paper's "perfect address compression"
/// upper-bound lines. Costs no hardware.
#[derive(Clone, Copy, Debug)]
pub struct PerfectCodec;

impl AddressCodec for PerfectCodec {
    fn encode(&mut self, _line_addr: Addr) -> bool {
        true
    }

    fn resync(&mut self) {}

    fn hw_entries(&self) -> usize {
        0
    }

    fn save_state(&self, _w: &mut cmp_common::persist::ByteWriter) {}

    fn load_state(
        &mut self,
        _r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_codec_round_trips_every_variant() {
        for scheme in [
            CompressionScheme::None,
            CompressionScheme::Dbrc {
                entries: 16,
                low_bytes: 1,
            },
            CompressionScheme::Stride { low_bytes: 2 },
            CompressionScheme::Perfect { low_bytes: 2 },
            CompressionScheme::Multicast {
                entries: 4,
                low_bytes: 2,
            },
        ] {
            let encoded = scheme.to_json().render();
            let parsed = cmp_common::Json::parse(&encoded).expect("scheme JSON parses");
            assert_eq!(
                CompressionScheme::from_json(&parsed).expect("scheme decodes"),
                scheme,
                "round trip lost {scheme:?}"
            );
        }
    }

    #[test]
    fn compressed_sizes_match_section_4_3() {
        // "from 11 bytes to 4-5 bytes depending on the size of the
        // uncompressed low order bits"
        let s1 = CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 1,
        };
        let s2 = CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        };
        assert_eq!(s1.compressed_bytes(), 4);
        assert_eq!(s2.compressed_bytes(), 5);
        assert_eq!(
            CompressionScheme::Stride { low_bytes: 2 }.compressed_bytes(),
            5
        );
        assert_eq!(
            CompressionScheme::Perfect { low_bytes: 0 }.compressed_bytes(),
            3
        );
        assert_eq!(
            CompressionScheme::Multicast {
                entries: 4,
                low_bytes: 2
            }
            .compressed_bytes(),
            5
        );
    }

    #[test]
    fn paper_matrix_covers_figure_2() {
        let m = CompressionScheme::paper_matrix();
        assert_eq!(m.len(), 8);
        // all Stride and DBRC rows of Figure 2 present
        assert!(m.contains(&CompressionScheme::Stride { low_bytes: 1 }));
        assert!(m.contains(&CompressionScheme::Dbrc {
            entries: 64,
            low_bytes: 2
        }));
    }

    #[test]
    fn oracles_behave() {
        let mut none = CompressionScheme::None.build_codec(CompressionStream::Requests);
        let mut perfect =
            CompressionScheme::Perfect { low_bytes: 1 }.build_codec(CompressionStream::Requests);
        for a in [0u64, 1, 0xFFFF_FFFF, 42] {
            assert!(!none.encode(a));
            assert!(perfect.encode(a));
        }
    }

    #[test]
    fn labels_are_figure_legends() {
        assert_eq!(
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2
            }
            .label(),
            "4-entry DBRC (2B LO)"
        );
        assert_eq!(
            CompressionScheme::Stride { low_bytes: 1 }.label(),
            "1-byte Stride"
        );
        assert_eq!(
            CompressionScheme::Multicast {
                entries: 16,
                low_bytes: 2
            }
            .label(),
            "16-entry multicast (2B LO)"
        );
    }

    #[test]
    fn only_the_multicast_commands_stream_is_shared() {
        let mc = CompressionScheme::Multicast {
            entries: 4,
            low_bytes: 2,
        };
        assert!(mc.shared_across_destinations(CompressionStream::Commands));
        assert!(!mc.shared_across_destinations(CompressionStream::Requests));
        for s in [
            CompressionScheme::None,
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2,
            },
            CompressionScheme::Stride { low_bytes: 2 },
            CompressionScheme::Perfect { low_bytes: 2 },
        ] {
            for stream in CompressionStream::ALL {
                assert!(!s.shared_across_destinations(stream));
            }
        }
    }

    #[test]
    fn decode_mirrors_encode_in_lockstep() {
        // The sender/receiver lockstep the protocol relies on: feeding the
        // same address sequence to an encode-side and a decode-side
        // instance produces identical hit/miss verdicts at every step.
        for scheme in [
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 1,
            },
            CompressionScheme::Stride { low_bytes: 2 },
            CompressionScheme::Multicast {
                entries: 4,
                low_bytes: 1,
            },
        ] {
            for stream in CompressionStream::ALL {
                let mut sender = scheme.build_codec(stream);
                let mut receiver = scheme.build_codec(stream);
                for i in 0u64..500 {
                    let addr = (i % 7) * 1009 + i / 3;
                    assert_eq!(
                        sender.encode(addr),
                        receiver.decode(addr),
                        "{scheme:?}/{stream:?} diverged at step {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn hw_entries_follow_the_scheme() {
        let dbrc = CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 2,
        };
        assert_eq!(
            dbrc.build_codec(CompressionStream::Requests).hw_entries(),
            16
        );
        let stride = CompressionScheme::Stride { low_bytes: 2 };
        assert_eq!(
            stride.build_codec(CompressionStream::Requests).hw_entries(),
            1
        );
        assert_eq!(
            CompressionScheme::None
                .build_codec(CompressionStream::Commands)
                .hw_entries(),
            0
        );
    }
}
