//! Core scalar types and the coherence-message taxonomy.
//!
//! The message classification mirrors Figure 4 of the paper: requests,
//! responses (with and without data), coherence commands, coherence replies
//! and replacements (with and without data). Each class carries a fixed
//! on-wire size (Section 4.3): 3 bytes of control information, plus 8 bytes
//! of address for address-bearing messages, plus 64 bytes for a cache line
//! when data travels with the message.

use std::fmt;

/// A physical (block-aligned or byte) memory address.
pub type Addr = u64;

/// A simulation time stamp in core clock cycles (4 GHz by default).
pub type Cycle = u64;

/// Cache-line size in bytes (Table 4).
pub const LINE_BYTES: usize = 64;

/// Control-information bytes carried by every coherence message
/// (source/destination, message type, MSHR id, ...).
pub const CONTROL_BYTES: usize = 3;

/// Address bytes carried by address-bearing messages (64-bit addresses).
pub const ADDRESS_BYTES: usize = 8;

/// Identifier of a tile (core + L1 + L2 slice + router) in the CMP.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TileId(pub u16);

impl TileId {
    /// The tile index as a plain `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

impl From<usize> for TileId {
    fn from(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize, "tile index {v} out of range");
        TileId(v as u16)
    }
}

/// Classification of every message that travels on the interconnect
/// (paper Figure 4), with the criticality and size rules of Sections
/// 4.2–4.3 attached.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MessageClass {
    /// L1 miss request sent to the home L2 slice (GetS/GetX/Upgrade).
    /// Critical, short, carries an address. 11 bytes uncompressed.
    Request,
    /// Response carrying a full cache line (home L2 or remote owner to the
    /// requestor). Critical but long: 67 bytes.
    ResponseData,
    /// Response without data (e.g. upgrade acknowledgements). Critical,
    /// short, carries an address: 11 bytes.
    ResponseNoData,
    /// Coherence command from the home L2 to an L1 (invalidation,
    /// intervention/forward). Critical, short, carries an address: 11 bytes.
    CoherenceCmd,
    /// Coherence reply from an L1 back to the home L2 (invalidation ack,
    /// downgrade ack). Critical, short, control-only: 3 bytes.
    CoherenceReply,
    /// Revision message — the non-critical half of a cache-to-cache
    /// transfer (3b in the paper's example): the owner informs/updates the
    /// home node while the requestor is already served. 67 bytes when the
    /// line travels with it.
    Revision,
    /// Replacement of a modified line: writeback with data, non-critical,
    /// 67 bytes.
    ReplacementData,
    /// Replacement hint for a clean-exclusive line: non-critical, short,
    /// carries an address: 11 bytes.
    ReplacementNoData,
    /// *Reply Partitioning* (Flores et al., HiPC 2007 — the companion
    /// technique this paper builds on): the critical half of a split data
    /// response, carrying only the word the processor asked for. Short
    /// (3 bytes control + 8 bytes word), critical, rides the low-latency
    /// wires; the matching full-line `ResponseData` follows as a
    /// non-critical *ordinary reply*.
    PartialReply,
}

impl MessageClass {
    /// All message classes, for iteration in reports.
    pub const ALL: [MessageClass; 9] = [
        MessageClass::Request,
        MessageClass::ResponseData,
        MessageClass::ResponseNoData,
        MessageClass::CoherenceCmd,
        MessageClass::CoherenceReply,
        MessageClass::Revision,
        MessageClass::ReplacementData,
        MessageClass::ReplacementNoData,
        MessageClass::PartialReply,
    ];

    /// Position of this class in [`MessageClass::ALL`]: the dense index
    /// of per-class tables and the persisted tag.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the message sits on the critical path of an L1 miss
    /// (Section 4.2). Replacements and revision-style coherence replies are
    /// the non-critical ones.
    #[inline]
    pub fn is_critical(self) -> bool {
        !matches!(
            self,
            MessageClass::Revision
                | MessageClass::ReplacementData
                | MessageClass::ReplacementNoData
        )
    }

    /// Whether the message body includes a block address that an address
    /// compression scheme could shrink.
    #[inline]
    pub fn carries_address(self) -> bool {
        matches!(
            self,
            MessageClass::Request
                | MessageClass::ResponseNoData
                | MessageClass::CoherenceCmd
                | MessageClass::ReplacementNoData
        )
    }

    /// Whether a full cache line travels with the message.
    #[inline]
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            MessageClass::ResponseData | MessageClass::Revision | MessageClass::ReplacementData
        )
    }

    /// Uncompressed on-wire size in bytes (Section 4.3): 3 bytes control,
    /// +8 bytes for an address, +64 bytes for a line. A partial reply
    /// carries control plus one 8-byte word.
    #[inline]
    pub fn uncompressed_bytes(self) -> usize {
        if self == MessageClass::PartialReply {
            return CONTROL_BYTES + 8;
        }
        let mut size = CONTROL_BYTES;
        if self.carries_address() {
            size += ADDRESS_BYTES;
        }
        if self.carries_data() {
            size += LINE_BYTES;
        }
        size
    }

    /// Short messages are everything that does not carry a cache line
    /// (Section 4.2's size classification).
    #[inline]
    pub fn is_short(self) -> bool {
        !self.carries_data()
    }

    /// The compression stream this message belongs to. The paper keeps
    /// *requests* and *coherence commands* on separate sender/receiver
    /// structures "to avoid destructive interferences between both address
    /// streams" (Section 3.1). Messages that are never compressed return
    /// `None`.
    #[inline]
    pub fn compression_stream(self) -> Option<CompressionStream> {
        match self {
            MessageClass::Request => Some(CompressionStream::Requests),
            MessageClass::CoherenceCmd => Some(CompressionStream::Commands),
            _ => None,
        }
    }

    /// Human-readable label used in reports (matches the paper's Figure 5
    /// legend granularity).
    pub fn label(self) -> &'static str {
        match self {
            MessageClass::Request => "request",
            MessageClass::ResponseData => "response+data",
            MessageClass::ResponseNoData => "response",
            MessageClass::CoherenceCmd => "coherence-cmd",
            MessageClass::CoherenceReply => "coherence-reply",
            MessageClass::Revision => "revision",
            MessageClass::ReplacementData => "replacement+data",
            MessageClass::ReplacementNoData => "replacement",
            MessageClass::PartialReply => "partial-reply",
        }
    }
}

// On the wire a class is its label.
crate::json_as!(MessageClass as String, |c| c.label().to_string(), |label| {
    MessageClass::ALL
        .into_iter()
        .find(|c| c.label() == label)
        .ok_or_else(|| format!("unknown message class `{label}`"))
});

/// The two independent address streams that get their own compression
/// hardware at each tile (Section 3.1: "requests and coherence commands use
/// their own hardware structures").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompressionStream {
    /// Addresses flowing L1 → home L2 (requests) and home L2 → L1 responses
    /// without data.
    Requests,
    /// Addresses flowing home L2 → L1 (invalidations, interventions).
    Commands,
}

impl CompressionStream {
    /// Both streams, for iteration.
    pub const ALL: [CompressionStream; 2] =
        [CompressionStream::Requests, CompressionStream::Commands];

    /// Dense index for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CompressionStream::Requests => 0,
            CompressionStream::Commands => 1,
        }
    }
}

impl crate::persist::Persist for TileId {
    fn save(&self, w: &mut crate::persist::ByteWriter) {
        w.u16(self.0);
    }
    fn load(r: &mut crate::persist::ByteReader) -> Result<Self, crate::persist::PersistError> {
        Ok(TileId(r.u16()?))
    }
}

impl crate::persist::Persist for MessageClass {
    fn save(&self, w: &mut crate::persist::ByteWriter) {
        w.u8(self.index() as u8);
    }
    fn load(r: &mut crate::persist::ByteReader) -> Result<Self, crate::persist::PersistError> {
        let tag = r.u8()? as usize;
        MessageClass::ALL
            .get(tag)
            .copied()
            .ok_or_else(|| r.err("invalid MessageClass tag"))
    }
}

impl crate::persist::Persist for CompressionStream {
    fn save(&self, w: &mut crate::persist::ByteWriter) {
        w.u8(self.index() as u8);
    }
    fn load(r: &mut crate::persist::ByteReader) -> Result<Self, crate::persist::PersistError> {
        let tag = r.u8()? as usize;
        CompressionStream::ALL
            .get(tag)
            .copied()
            .ok_or_else(|| r.err("invalid CompressionStream tag"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes_match_paper_section_4_3() {
        // "Requests, coherence commands are 11-byte long"
        assert_eq!(MessageClass::Request.uncompressed_bytes(), 11);
        assert_eq!(MessageClass::CoherenceCmd.uncompressed_bytes(), 11);
        assert_eq!(MessageClass::ResponseNoData.uncompressed_bytes(), 11);
        // "coherence replies and replacements without data are just 3-byte"
        assert_eq!(MessageClass::CoherenceReply.uncompressed_bytes(), 3);
        assert_eq!(MessageClass::ReplacementNoData.uncompressed_bytes(), 11);
        // "ordinary reply messages are 67-byte long"
        assert_eq!(MessageClass::ResponseData.uncompressed_bytes(), 67);
        assert_eq!(MessageClass::ReplacementData.uncompressed_bytes(), 67);
        assert_eq!(MessageClass::Revision.uncompressed_bytes(), 67);
    }

    #[test]
    fn criticality_matches_paper_section_4_2() {
        // "all message types but replacement messages and some coherence
        // replies (such as revision messages) are critical"
        assert!(MessageClass::Request.is_critical());
        assert!(MessageClass::ResponseData.is_critical());
        assert!(MessageClass::ResponseNoData.is_critical());
        assert!(MessageClass::CoherenceCmd.is_critical());
        assert!(MessageClass::CoherenceReply.is_critical());
        assert!(!MessageClass::Revision.is_critical());
        assert!(!MessageClass::ReplacementData.is_critical());
        assert!(!MessageClass::ReplacementNoData.is_critical());
    }

    #[test]
    fn class_index_is_the_position_in_all() {
        for (i, class) in MessageClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }

    #[test]
    fn short_long_split() {
        for class in MessageClass::ALL {
            assert_eq!(class.is_short(), !class.carries_data());
            assert_eq!(class.is_short(), class.uncompressed_bytes() <= 11);
        }
    }

    #[test]
    fn compression_streams_are_disjoint_hardware() {
        assert_eq!(
            MessageClass::Request.compression_stream(),
            Some(CompressionStream::Requests)
        );
        assert_eq!(
            MessageClass::CoherenceCmd.compression_stream(),
            Some(CompressionStream::Commands)
        );
        // Data-bearing and control-only messages are never compressed, and
        // neither are responses without data (the paper compresses only
        // requests and coherence commands, Section 4.3).
        assert_eq!(MessageClass::ResponseNoData.compression_stream(), None);
        assert_eq!(MessageClass::ResponseData.compression_stream(), None);
        assert_eq!(MessageClass::CoherenceReply.compression_stream(), None);
        assert_eq!(MessageClass::ReplacementData.compression_stream(), None);
    }

    #[test]
    fn partial_reply_is_short_critical_word_sized() {
        let p = MessageClass::PartialReply;
        assert_eq!(p.uncompressed_bytes(), 11); // 3B control + 8B word
        assert!(p.is_critical());
        assert!(p.is_short());
        assert!(!p.carries_address(), "a word, not a compressible address");
        assert!(!p.carries_data(), "not a full line");
        assert_eq!(p.compression_stream(), None);
    }

    #[test]
    fn tile_id_roundtrip() {
        let t: TileId = 13usize.into();
        assert_eq!(t.index(), 13);
        assert_eq!(format!("{t:?}"), "T13");
        assert_eq!(format!("{t}"), "tile13");
    }
}
