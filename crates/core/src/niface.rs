//! The network-interface policy of the proposal (Section 4.3).
//!
//! "VL-Wires will be used for sending already short, critical messages
//! (e.g., coherence replies) as well as *compressed* requests and
//! *compressed* coherence commands. Uncompressed and long messages are
//! sent using the original B-Wires."

use cmp_common::config::{CmpConfig, NetworkConfig};
use cmp_common::types::{Cycle, MessageClass, TileId};
use mesh_noc::config::{ChannelKind, NocConfig};
use wire_model::wires::VlWidth;

/// Which physical link organisation a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InterconnectChoice {
    /// One 75-byte B-Wire channel per link (the normalisation baseline).
    Baseline,
    /// 34 bytes of B-Wires + a VL channel of the given width
    /// (area-neutral re-provisioning) — this paper's proposal.
    Heterogeneous(VlWidth),
    /// 11 bytes of L-Wires + 64 bytes of PW-Wires with split data
    /// responses — the Reply Partitioning comparison point from the
    /// group's prior work (\[9\], HiPC 2007).
    ReplyPartitioning,
}

impl InterconnectChoice {
    /// Build the NoC configuration for this choice.
    pub fn noc_config(self, net: &NetworkConfig, clock_hz: f64) -> NocConfig {
        match self {
            InterconnectChoice::Baseline => NocConfig::baseline(net, clock_hz),
            InterconnectChoice::Heterogeneous(vl) => NocConfig::heterogeneous(net, clock_hz, vl),
            InterconnectChoice::ReplyPartitioning => NocConfig::reply_partitioning(net, clock_hz),
        }
    }

    /// The VL channel width in bytes (`None` for the baseline).
    pub fn vl_bytes(self) -> Option<usize> {
        match self {
            InterconnectChoice::Baseline | InterconnectChoice::ReplyPartitioning => None,
            InterconnectChoice::Heterogeneous(vl) => Some(vl.bytes()),
        }
    }

    /// Whether data responses are split into partial + ordinary replies.
    pub fn splits_replies(self) -> bool {
        self == InterconnectChoice::ReplyPartitioning
    }

    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            InterconnectChoice::Baseline => "75B B-Wires".to_string(),
            InterconnectChoice::Heterogeneous(vl) => {
                format!("34B B + {}B VL", vl.bytes())
            }
            InterconnectChoice::ReplyPartitioning => "11B L + 64B PW (RP)".to_string(),
        }
    }

    /// Sanity-check against the machine description.
    pub fn validate(self, cfg: &CmpConfig) -> Result<(), String> {
        if !matches!(self, InterconnectChoice::Baseline) && cfg.network.link_bytes != 75 {
            return Err("link re-provisioning assumes the 75-byte link of Table 4".into());
        }
        Ok(())
    }
}

cmp_common::json_tagged!(InterconnectChoice, "kind" {
    "baseline" => Baseline,
    "heterogeneous" => Heterogeneous(vl_bytes),
    "reply_partitioning" => ReplyPartitioning,
});

/// Map a message to a physical channel.
///
/// * Baseline: everything on the B-Wires.
/// * Heterogeneous (this paper): critical messages whose on-wire size
///   fits the VL channel ride it; everything else (long data, whole
///   uncompressed addresses, non-critical replacements) rides the
///   B-Wires.
/// * Reply Partitioning (\[9\]): short critical messages (≤ 11 bytes,
///   including partial replies) ride the L-Wires; ordinary replies and
///   everything long or non-critical rides the PW-Wires.
#[inline]
pub fn map_channel(
    choice: InterconnectChoice,
    class: MessageClass,
    wire_bytes: usize,
) -> ChannelKind {
    match choice {
        InterconnectChoice::Baseline => ChannelKind::B,
        InterconnectChoice::Heterogeneous(vl) => {
            if class.is_critical() && wire_bytes <= vl.bytes() {
                ChannelKind::Vl
            } else {
                ChannelKind::B
            }
        }
        InterconnectChoice::ReplyPartitioning => {
            // data responses are split by the NI: the whole-line ordinary
            // reply is non-critical by construction here
            if class.is_critical()
                && class != MessageClass::ResponseData
                && wire_bytes <= wire_model::link::RP_L_BYTES
            {
                ChannelKind::L
            } else {
                ChannelKind::Pw
            }
        }
    }
}

/// Cycles a codec pair spends in its resynchronisation handshake after
/// the NI detects divergence: one request/grant round trip across the
/// mesh (worst-case ~30 cycles of B-Wire latency each way) during which
/// the pair transmits uncompressed.
pub const RESYNC_WINDOW_CYCLES: Cycle = 64;

/// Codec-resynchronisation accounting for one tile's NI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResyncStats {
    /// Divergences detected via the sequence/checksum tag.
    pub desyncs_detected: u64,
    /// Resync handshakes that ran to completion.
    pub resyncs_completed: u64,
    /// Messages sent uncompressed because their pair was resyncing
    /// (includes the detecting message itself).
    pub fallback_msgs: u64,
}

/// Per-(stream, destination) resynchronisation windows for one tile's
/// network interface.
///
/// Every compressed message carries a short sequence/checksum tag over
/// the sender's codec state; the receiver acks mismatches on the reply
/// path, so the sender learns of a desynchronised pair at the next
/// compressible send with certainty. Detection flips the pair to
/// uncompressed B-Wire transmission, resets the sender codec, and opens
/// a [`RESYNC_WINDOW_CYCLES`]-cycle window modelling the handshake that
/// clears the receiver mirror; the pair resumes compressed (cold) when
/// the window closes.
///
/// Only fault campaigns ever open a window, so a stream's window vector
/// stays empty until its first [`ResyncTracker::begin_resync`]: a clean
/// run allocates none of the O(tiles²) table.
#[derive(Clone, Debug)]
pub struct ResyncTracker {
    tiles: usize,
    /// `windows[stream][dest]`: cycle at which the pair's handshake
    /// completes (0 = no handshake running); empty until the stream's
    /// first resync.
    windows: [Vec<Cycle>; 2],
    stats: ResyncStats,
}

impl ResyncTracker {
    /// Tracker for one tile of a `tiles`-tile machine.
    pub fn new(tiles: usize) -> Self {
        ResyncTracker {
            tiles,
            windows: [Vec::new(), Vec::new()],
            stats: ResyncStats::default(),
        }
    }

    /// Accounting so far.
    pub fn stats(&self) -> &ResyncStats {
        &self.stats
    }

    /// Record a tag-detected divergence for (`dest`, `class`) at `now`:
    /// the handshake starts and the pair falls back to uncompressed.
    pub fn begin_resync(&mut self, now: Cycle, dest: TileId, class: MessageClass) {
        let Some(stream) = class.compression_stream() else {
            return;
        };
        self.stats.desyncs_detected += 1;
        let side = &mut self.windows[stream.index()];
        side.resize(self.tiles, 0);
        side[dest.index()] = now + RESYNC_WINDOW_CYCLES;
    }

    /// Whether (`dest`, `class`) must send uncompressed at `now`.
    /// Expired windows are closed lazily here, crediting a completed
    /// resync; open ones count the fallback message.
    pub fn in_window(&mut self, now: Cycle, dest: TileId, class: MessageClass) -> bool {
        let Some(stream) = class.compression_stream() else {
            return false;
        };
        let Some(w) = self.windows[stream.index()].get_mut(dest.index()) else {
            return false;
        };
        if *w == 0 {
            return false;
        }
        if now >= *w {
            *w = 0;
            self.stats.resyncs_completed += 1;
            return false;
        }
        self.stats.fallback_msgs += 1;
        true
    }

    /// Close every window that has expired by `now` (or is still open —
    /// the run is over and the handshake completes in the drained
    /// network), so end-of-run accounting matches detections.
    pub fn settle(&mut self, _now: Cycle) {
        for side in &mut self.windows {
            for w in side {
                if *w != 0 {
                    *w = 0;
                    self.stats.resyncs_completed += 1;
                }
            }
        }
    }
}

cmp_common::impl_persist!(ResyncStats {
    desyncs_detected,
    resyncs_completed,
    fallback_msgs,
});
cmp_common::json_record!(ResyncStats {
    desyncs_detected,
    resyncs_completed,
    fallback_msgs,
});

/// Window vectors are written as held: empty until the stream's first
/// resync, then sized by the tile count — machine shape, checked at
/// load.
impl cmp_common::persist::PersistState for ResyncTracker {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        for side in &self.windows {
            side.save(w);
        }
        self.stats.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        for side in &mut self.windows {
            let loaded: Vec<Cycle> = Persist::load(r)?;
            if !loaded.is_empty() && loaded.len() != self.tiles {
                return Err(r.err("resync window count does not match machine shape"));
            }
            *side = loaded;
        }
        self.stats = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H4: InterconnectChoice = InterconnectChoice::Heterogeneous(VlWidth::FourBytes);
    const H5: InterconnectChoice = InterconnectChoice::Heterogeneous(VlWidth::FiveBytes);
    const RP: InterconnectChoice = InterconnectChoice::ReplyPartitioning;

    #[test]
    fn baseline_maps_everything_to_b() {
        for class in MessageClass::ALL {
            assert_eq!(
                map_channel(InterconnectChoice::Baseline, class, 3),
                ChannelKind::B
            );
        }
    }

    #[test]
    fn compressed_requests_and_commands_ride_vl() {
        // 4-byte compressed request on a 4-byte VL channel
        assert_eq!(map_channel(H4, MessageClass::Request, 4), ChannelKind::Vl);
        assert_eq!(
            map_channel(H5, MessageClass::CoherenceCmd, 5),
            ChannelKind::Vl
        );
        // uncompressed (11-byte) versions stay on B
        assert_eq!(map_channel(H5, MessageClass::Request, 11), ChannelKind::B);
    }

    #[test]
    fn coherence_replies_always_fit_vl() {
        for vl in VlWidth::ALL {
            assert_eq!(
                map_channel(
                    InterconnectChoice::Heterogeneous(vl),
                    MessageClass::CoherenceReply,
                    3
                ),
                ChannelKind::Vl
            );
        }
    }

    #[test]
    fn long_and_noncritical_messages_stay_on_b() {
        assert_eq!(
            map_channel(H5, MessageClass::ResponseData, 67),
            ChannelKind::B
        );
        // a replacement hint is short but non-critical
        assert_eq!(
            map_channel(H5, MessageClass::ReplacementNoData, 5),
            ChannelKind::B
        );
    }

    #[test]
    fn reply_partitioning_mapping() {
        // short critical messages (and the split-off partial replies)
        // ride the 11-byte L-Wires
        assert_eq!(map_channel(RP, MessageClass::Request, 11), ChannelKind::L);
        assert_eq!(
            map_channel(RP, MessageClass::PartialReply, 11),
            ChannelKind::L
        );
        assert_eq!(
            map_channel(RP, MessageClass::CoherenceReply, 3),
            ChannelKind::L
        );
        assert_eq!(
            map_channel(RP, MessageClass::CoherenceCmd, 11),
            ChannelKind::L
        );
        // ordinary (whole-line) replies and non-critical traffic take PW
        assert_eq!(
            map_channel(RP, MessageClass::ResponseData, 67),
            ChannelKind::Pw
        );
        assert_eq!(
            map_channel(RP, MessageClass::ReplacementData, 67),
            ChannelKind::Pw
        );
        assert_eq!(
            map_channel(RP, MessageClass::ReplacementNoData, 11),
            ChannelKind::Pw
        );
        assert_eq!(map_channel(RP, MessageClass::Revision, 67), ChannelKind::Pw);
        assert!(RP.splits_replies());
        assert!(!H4.splits_replies());
    }

    #[test]
    fn resync_window_opens_counts_fallbacks_and_closes() {
        let mut t = ResyncTracker::new(16);
        let dest = TileId(7);
        assert!(!t.in_window(10, dest, MessageClass::Request));
        t.begin_resync(10, dest, MessageClass::Request);
        assert!(t.in_window(11, dest, MessageClass::Request));
        assert!(t.in_window(10 + RESYNC_WINDOW_CYCLES - 1, dest, MessageClass::Request));
        // other destinations and the other stream are unaffected
        assert!(!t.in_window(11, TileId(8), MessageClass::Request));
        assert!(!t.in_window(11, dest, MessageClass::CoherenceCmd));
        // window expiry closes the handshake exactly once
        assert!(!t.in_window(10 + RESYNC_WINDOW_CYCLES, dest, MessageClass::Request));
        assert!(!t.in_window(10 + RESYNC_WINDOW_CYCLES + 1, dest, MessageClass::Request));
        let s = t.stats();
        assert_eq!(s.desyncs_detected, 1);
        assert_eq!(s.resyncs_completed, 1);
        assert_eq!(s.fallback_msgs, 2);
    }

    #[test]
    fn settle_closes_open_windows() {
        let mut t = ResyncTracker::new(16);
        t.begin_resync(100, TileId(1), MessageClass::Request);
        t.begin_resync(100, TileId(2), MessageClass::CoherenceCmd);
        t.settle(110);
        assert_eq!(t.stats().resyncs_completed, 2);
        assert!(!t.in_window(110, TileId(1), MessageClass::Request));
        // non-compressible classes never open or consult windows
        t.begin_resync(0, TileId(3), MessageClass::ResponseData);
        assert_eq!(t.stats().desyncs_detected, 2);
    }

    #[test]
    fn windows_are_allocated_on_first_resync_and_saved_as_held() {
        use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistState};
        let bytes = |t: &ResyncTracker| {
            let mut w = ByteWriter::new();
            t.save_state(&mut w);
            w.into_bytes()
        };
        let load = |bytes: &[u8]| {
            let mut t = ResyncTracker::new(16);
            let mut r = ByteReader::new(bytes);
            t.load_state(&mut r).and_then(|()| r.finish()).map(|()| t)
        };
        let mut t = ResyncTracker::new(16);
        assert!(!t.in_window(5, TileId(3), MessageClass::Request));
        t.settle(5);
        let clean = bytes(&t);
        assert!(
            t.windows.iter().all(Vec::is_empty),
            "a clean run allocates nothing"
        );
        t.begin_resync(10, TileId(3), MessageClass::Request);
        assert_eq!((t.windows[0].len(), t.windows[1].len()), (16, 0));
        assert!(clean.len() < bytes(&t).len());
        let mut back = load(&bytes(&t)).expect("a lazily sized tracker loads");
        assert!(back.in_window(11, TileId(3), MessageClass::Request));
        assert_eq!(bytes(&load(&clean).expect("a clean tracker loads")), clean);
        // a window vector of any length but 0 or the tile count is refused
        let mut w = ByteWriter::new();
        vec![0 as Cycle; 15].save(&mut w);
        Vec::<Cycle>::new().save(&mut w);
        ResyncStats::default().save(&mut w);
        let err = load(&w.into_bytes()).expect_err("a short window vector");
        assert!(err.to_string().contains("machine shape"), "{err}");
    }

    #[test]
    fn interconnect_choice_builders() {
        let cfg = CmpConfig::default();
        let base = InterconnectChoice::Baseline;
        assert!(base.vl_bytes().is_none());
        base.validate(&cfg).unwrap();
        let hetero = InterconnectChoice::Heterogeneous(VlWidth::FourBytes);
        assert_eq!(hetero.vl_bytes(), Some(4));
        hetero.validate(&cfg).unwrap();
        let noc = hetero.noc_config(&cfg.network, cfg.clock_hz);
        assert!(noc.has_vl());

        let mut narrow = cfg.clone();
        narrow.network.link_bytes = 32;
        assert!(hetero.validate(&narrow).is_err());
    }
}
