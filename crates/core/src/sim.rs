//! The `tcmp_core::sim::…` paths of the simulator's run-facing types.
//! They are defined in [`crate::engine`], whose [`CmpSimulator`] is the
//! one simulator type.

pub use crate::engine::{
    CmpSimulator, PhaseProfile, SimConfig, SimError, SimResult, WatchdogConfig,
};
