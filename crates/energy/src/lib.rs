//! Energy accounting and the ED²P metrics of the evaluation.
//!
//! The paper's *Sim-PowerCMP* combines Wattch/CACTI dynamic models,
//! HotLeakage leakage and Orion interconnect power. This crate provides
//! the equivalent roll-up:
//!
//! * [`core_power`] — Wattch-lite: per-instruction and per-cache-access
//!   dynamic energies plus per-core leakage, normalised to the Table 1
//!   core budgets (≈ 22.4 W max dynamic, ≈ 3.55 W static per core at
//!   65 nm/4 GHz).
//! * [`breakdown`] — the [`breakdown::EnergyBreakdown`] aggregating cores,
//!   interconnect and compression hardware, with the link-level and
//!   full-CMP **Energy-Delay² Product** used throughout Section 5.

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod core_power;

pub use breakdown::{ed2p, edp, EnergyBreakdown};
pub use core_power::CoreEnergyModel;
