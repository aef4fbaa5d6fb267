//! Directory-based MESI cache coherence for a tiled CMP.
//!
//! The L2 cache is shared but physically distributed (NUCA): each tile
//! holds one slice, and every line has a *home* slice determined by
//! address interleaving. The home slice's tag array also stores the
//! full-map directory state used to keep the sixteen L1 caches coherent
//! (paper Section 4.1). On an L1 miss a request travels to the home tile,
//! where the directory orchestrates data responses, cache-to-cache
//! forwards and invalidations — exactly the message taxonomy of Figure 4.
//!
//! Modules:
//!
//! * [`msg`] — protocol messages and their mapping onto the paper's
//!   message classes (sizes, criticality, compressibility).
//! * [`cache`] — generic set-associative array with LRU replacement.
//! * [`l1`] — the private-cache controller: MESI states, MSHRs, silent
//!   shared evictions, writebacks/hints for dirty/exclusive lines,
//!   invalidation and forward handling including the races that occur
//!   when commands overtake data on a heterogeneous network.
//! * [`l2`] — the home-slice controller: inclusive L2 + directory,
//!   per-line busy states with pending-request queues
//!   (a blocking directory: races are resolved by serialisation at the
//!   home node), L2 fills from memory and inclusion-recalls of victim
//!   lines.
//! * [`directory`] — the [`directory::DirectoryStore`] each L2 slice
//!   keeps its sharer bookkeeping in: one packed, exact entry per
//!   tracked line, for the paper's full map and for the sparse
//!   organisation alike (the slice meters the sparse directory's
//!   bounded budget of directory MSHRs itself).
//! * [`memctrl`] — fixed-latency (400-cycle) memory interface.
//! * [`error`] — structured [`ProtocolError`] reporting for states a
//!   controller cannot legally reach, used by the fault-injection
//!   campaigns in place of panics.
//! * [`sanitizer`] — a periodic, read-only sweep validating the MESI
//!   invariants (single owner, sharer/L1 agreement, MSHR consistency,
//!   directory inclusion) across every tile.
//!
//! The controllers are *pure state machines*: they consume a delivered
//! message and return the messages/side-effects to issue (with relative
//! delays modelling L1/L2 access latencies). The full-system simulator in
//! `tcmp-core` wires them to the flit-level NoC; the tests here drive them
//! directly, message by message.

#![forbid(unsafe_code)]

pub mod cache;
pub mod directory;
pub mod error;
pub mod l1;
pub mod l2;
pub mod memctrl;
pub mod msg;
pub mod sanitizer;

pub use cache::CacheArray;
pub use directory::{DirState, SharerSet};
pub use error::ProtocolError;
pub use l1::{CoreAccess, L1Cache, L1Result};
pub use l2::L2Slice;
pub use memctrl::MemCtrl;
pub use msg::{OutVec, Outgoing, PKind, ProtocolMsg};
pub use sanitizer::{Invariant, Sanitizer, SanitizerConfig, Violation};
