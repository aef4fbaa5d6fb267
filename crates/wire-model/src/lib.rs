//! Wire delay, area and power models for the heterogeneous interconnect.
//!
//! The paper (Section 3.2) builds on two layers of modelling:
//!
//! 1. A **first-order RC model** of repeated global wires (Eq. 1 for delay,
//!    Eqs. 2–4 for power), with which one can trade latency, bandwidth and
//!    power against each other by tuning wire width/spacing and repeater
//!    size/spacing. Implemented in [`rc`] and [`repeater`] on top of the
//!    65 nm technology parameters in [`tech`].
//! 2. The **published wire-class tables**: Table 2 (B-Wires on the 8X and 4X
//!    planes, L-Wires, PW-Wires — reproduced from Cheng et al., ISCA 2006)
//!    and Table 3 (the paper's new VL-Wires of 3/4/5-byte widths).
//!    Implemented in [`wires`]; these constants are authoritative for the
//!    experiments, and the RC model is validated against them.
//!
//! [`link`] turns a wire class + width + length into the quantities the NoC
//! needs: traversal cycles, flit width, per-byte dynamic energy and static
//! power, plus the area-neutral heterogeneous link arithmetic of
//! Section 4.3 (75-byte B-Wire link → 34 bytes of B-Wires + 3–5 bytes of
//! VL-Wires).

#![forbid(unsafe_code)]

pub mod link;
pub mod rc;
pub mod repeater;
pub mod tech;
pub mod wires;

pub use link::{Channel, HeterogeneousLinkPlan, LinkTiming, ReplyPartitioningLinkPlan};
pub use tech::Tech65;
pub use wires::{VlWidth, WireClass, WireProps};
