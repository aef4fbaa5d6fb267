//! Flit-level, cycle-driven 2D-mesh network-on-chip with heterogeneous
//! physical channels.
//!
//! The interconnect of a tiled CMP (paper Section 4.1/4.3) is a 2D mesh of
//! wormhole routers with unidirectional point-to-point links. This crate
//! models it at flit granularity:
//!
//! * **Routers** ([`router`]): input-buffered, virtual channels with
//!   credit-based flow control, XY dimension-order routing (deadlock-free
//!   on a mesh), round-robin switch allocation, and a configurable
//!   pipeline depth (3 cycles by default: route computation, VC/switch
//!   allocation, switch traversal).
//! * **Heterogeneous channels** ([`config`]): each physical link is split
//!   into independent sub-networks — the baseline has a single 75-byte
//!   B-Wire channel; the paper's proposal has a 34-byte B-Wire channel
//!   plus a 3–5-byte VL-Wire channel. Every sub-network has its own
//!   buffers, allocation and link timing derived from
//!   [`wire_model::Channel`].
//! * **Messages** ([`message`]): the unit the protocol layer deals in;
//!   they are segmented into flits at injection and reassembled at
//!   ejection. The payload type is generic — the NoC never inspects it.
//! * **Energy** ([`energy`]): Orion-style event counting — per-flit
//!   buffer read/write, crossbar and arbiter energies plus per-link wire
//!   energy from the wire model; static power reported for integration
//!   over runtime.
//! * **Statistics** ([`stats`]): per-class message counts, byte counts and
//!   latency histograms — the raw material for Figure 5.
//!
//! The top-level type is [`Noc`]: `inject` messages, `tick` the clock,
//! collect delivered messages. `next_event_cycle` supports the idle
//! fast-forward of the full-system simulator.

#![forbid(unsafe_code)]

pub mod config;
pub mod energy;
pub mod message;
pub mod router;
pub mod stats;
pub mod subnet;

mod network;

pub use config::{ChannelKind, ChannelSpec, NocConfig};
pub use energy::{NocEnergy, RouterEnergyModel};
pub use message::{Delivered, Message, MessageId};
pub use network::{ChannelUnavailable, Noc};
pub use stats::NocStats;
