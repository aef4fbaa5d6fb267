//! Dynamic address compression for coherence traffic (Section 3.1).
//!
//! Two schemes from the paper, plus oracles for bounding studies:
//!
//! * [`dbrc`] — **Dynamic Base Register Caching** (Farrens & Park): a small
//!   fully-associative cache of address high-order bits at the sender and a
//!   mirrored register file at the receiver. On a hit only the entry index
//!   and the uncompressed low-order bytes travel; on a miss the full
//!   address travels and both ends insert it.
//! * [`stride`] — a single base register per (sender, receiver, stream);
//!   when the delta to the previous address fits the configured number of
//!   bytes, only the delta travels.
//! * [`scheme`] — the [`AddressCodec`] strategy seam every standalone
//!   codec implements (encode/decode/resync/snapshot/hw-cost), plus the
//!   `Perfect` (always hits — the paper's solid upper-bound lines in
//!   Figure 6) and `None` oracles. Which codec runs is a configuration
//!   value ([`CompressionScheme`]), not compile-time wiring.
//! * [`multicast`] — a multicast-encoded commands codec (after arXiv
//!   2411.11545): one sender-side base cache shared across all
//!   destinations, so an invalidation fan-out carries one compressed
//!   base plus a sharer-set encoding and pays at most one cold miss.
//!
//! [`engine`] keeps one codec lane per (destination, stream) pair at each
//! tile — the paper duplicates hardware for the *requests* and *coherence
//! commands* streams to avoid destructive interference — and reports
//! per-message wire sizes. The lanes of a stream live in one flat
//! struct-of-arrays table, not a heap object each: the machine holds
//! O(tiles²) of them. [`Dbrc`], [`Stride`] and [`MulticastCodec`] are the
//! one-lane forms of the same tables. [`hw_cost`] and [`cacti_lite`]
//! model the silicon cost of that hardware (Table 1).
//!
//! ### Compression operates on line addresses
//!
//! Coherence messages name 64-byte cache lines, so the codecs see
//! line-granular addresses (`byte_addr >> 6`); the "low-order bytes" of the
//! paper are the low-order bytes of the *line* address. With 1 byte of low
//! order, one DBRC base therefore spans 256 lines = 16 KB, and with 2
//! bytes 65 536 lines = 4 MB — which is what makes 2-byte configurations
//! reach the paper's ~98 % coverage on megabyte-scale working sets.

#![forbid(unsafe_code)]

pub mod cacti_lite;
pub mod coverage;
pub mod dbrc;
pub mod engine;
pub mod hw_cost;
pub mod multicast;
pub mod scheme;
pub mod stride;

pub use coverage::CoverageStats;
pub use dbrc::Dbrc;
pub use engine::{CompressedSize, CompressionEngine};
pub use hw_cost::{CompressionHwCost, PUBLISHED_TABLE1};
pub use multicast::MulticastCodec;
pub use scheme::{AddressCodec, CodecBox, CompressionScheme, NoneCodec, PerfectCodec};
pub use stride::Stride;
