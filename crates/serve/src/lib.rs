//! `tcmp-serve`: a crash-tolerant campaign service for the figure
//! sweeps.
//!
//! A long-running daemon accepts campaign specifications (figure,
//! application set, seed/scale, retry policy) over a local Unix socket
//! as line-delimited JSON, multiplexes the queued cells of many
//! clients through one shared worker pool, and streams per-cell
//! progress events back. The robustness contract, end to end:
//!
//! * **Admission control** — the cell queue is bounded; overflow is a
//!   structured `Overloaded` rejection, never an OOM, a panic, or a
//!   silent drop.
//! * **Crash-only** — the daemon has no shutdown path of its own:
//!   SIGTERM, SIGINT and SIGKILL all kill it, and a restart replays
//!   every campaign journal and resumes exactly the unfinished cells
//!   (at most `--jobs` in flight are re-run); the final CSVs are
//!   bit-identical to an uninterrupted run's. An in-process service
//!   still drains ([`ServiceHandle::drain`]) to end a local run.
//! * **Client-disconnect tolerance** — a campaign belongs to the
//!   service, not the submitting connection; clients re-attach by
//!   campaign id and catch up from journal-backed state.
//! * **Self-verifying warm starts** — a shared
//!   [`tcmp_core::checkpoint::DiskStore`] simulates each distinct
//!   cold-start prefix once and fast-forwards cells sharing it, across
//!   campaigns and restarts; checkpoints are digest-verified at load
//!   and quarantined on corruption, falling back to a fresh simulation.
//!
//! [`proto`] defines the wire messages, [`plan`] what a campaign
//! request means (cells and their machines, policy, stamp, tables),
//! [`service`] the queue, worker pool and campaigns — which `tcmp-fig`
//! also starts in-process for a local run — [`daemon`]/[`client`] the
//! Unix-socket transport (Unix only), and [`wire`] the line framing.

#![forbid(unsafe_code)]

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod daemon;
pub mod plan;
pub mod proto;
pub mod service;
pub mod wire;

pub use plan::CampaignPlan;
pub use proto::{CampaignRequest, Event, Figure, RejectReason, Request, Response};
pub use service::{Campaign, ServeConfig, Service, ServiceHandle};
