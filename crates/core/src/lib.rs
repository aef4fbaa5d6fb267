//! The paper's contribution: compressed coherence messages over an
//! area-neutral heterogeneous interconnect, evaluated on a full tiled-CMP
//! simulator.
//!
//! This crate glues the substrates together:
//!
//! * [`niface`] — the network-interface policy that is the heart of the
//!   proposal (Section 4.3): compress the addresses of requests and
//!   coherence commands, then send every critical message that fits the
//!   3–5-byte VL channel on the very-low-latency wires and everything
//!   else on the (narrowed) B-Wire channel.
//! * [`engine`] — [`CmpSimulator`], the one simulator type:
//!   trace-driven cores + L1/L2 MESI coherence + flit-level heterogeneous
//!   NoC + memory, advanced on one 4 GHz clock with idle fast-forward,
//!   with full energy accounting. Its machinery: per-tile components
//!   ([`engine::Tile`], [`engine::L2Bank`]), the event calendar, typed
//!   ports, structured errors and whole-machine snapshot/restore — one
//!   state-capture path: a [`MachineSnapshot`] is the machine's encoded
//!   state behind a self-checking header, for rewind and disk alike.
//! * [`sim`] — the `tcmp_core::sim::…` paths of the run-facing types.
//! * [`experiment`] — the run matrix of the evaluation (baseline, the
//!   Stride/DBRC configurations of Figures 6/7, and the
//!   perfect-compression bound), executed in parallel and normalised
//!   against the baseline exactly as the paper normalises.
//! * [`report`] — Markdown/CSV emission for the reproduction binaries.
//! * [`supervisor`] — supervised, crash-resumable campaign execution:
//!   per-cell cycle/wall-clock budgets, retry-with-backoff, the
//!   journal-backed matrix runner whose sweeps resume bit-identically
//!   after a kill, and the key that names what a cell simulates.
//! * [`checkpoint`] — the content-addressed, self-verifying store of
//!   warm-start [`MachineSnapshot`]s on disk that lets campaigns sharing
//!   a cold-start prefix skip it, quarantining torn or corrupted
//!   checkpoints when they fail their checks at load.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod experiment;
pub mod niface;
pub mod report;
pub mod sim;
pub mod supervisor;

/// What a cell's scheme and link are made of, for crates that configure
/// cells without linking the model crates.
pub use addr_compression::CompressionScheme;
pub use checkpoint::{CacheLoad, DiskConfig, DiskCounters, DiskLoad, DiskStore, WarmKey};
pub use coherence::sanitizer::Invariant;
pub use engine::{
    CmpSimulator, MachineSnapshot, RestoreError, SimConfig, SimError, SimResult, StateDump,
    TileDump,
};
pub use experiment::{
    figure6_configs, normalize_partial, paper_configs, run_matrix_jobs, ConfigSpec, MatrixError,
    MissingBaseline, NormalizedRow, PartialNormalization, RunFailure, RunSpec,
};
pub use niface::{map_channel, InterconnectChoice, ResyncStats, ResyncTracker};
pub use supervisor::{
    campaign_meta, cell_key, run_matrix_supervised, run_supervised, run_supervised_cached,
    supervise, warm_key, CellFailure, MatrixReport, RunPolicy, SweepState, WarmStart,
};
pub use wire_model::wires::VlWidth;
