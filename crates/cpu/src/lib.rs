//! Trace-driven in-order core model (Table 4: 4 GHz, in-order, 2-way).
//!
//! A core consumes a stream of [`trace::TraceOp`]s: compute bursts retire
//! at the issue width, memory operations probe the L1 and block the core
//! on a miss (in-order cores with blocking loads), and barriers park the
//! core until every participant arrives. The core never owns the caches —
//! the full-system simulator mediates, which keeps this crate independent
//! of the coherence machinery:
//!
//! ```text
//! loop {
//!     match core.next_action(now) {
//!         Action::Access { line, write } => { /* probe L1, then call
//!             core.mem_hit / core.mem_miss_started / core.mem_retry */ }
//!         Action::AtBarrier(id) => { /* track arrivals, then
//!             core.barrier_release(now) on the last one */ }
//!         Action::Idle { until } => now = until,
//!         Action::Done => break,
//!     }
//! }
//! ```

#![forbid(unsafe_code)]

pub mod core;
pub mod sync;
pub mod trace;

pub use crate::core::{Action, Core, CoreStats};
pub use sync::BarrierState;
pub use trace::{OpSource, SliceSource, TraceOp};
