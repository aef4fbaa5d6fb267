//! Shared foundation types for the tiled-CMP simulation stack.
//!
//! This crate is dependency-free and holds everything the subsystem crates
//! (wire model, compression, NoC, coherence, CPU, workloads, energy) need to
//! agree on:
//!
//! * [`types`] — physical addresses, tile/core identifiers, cycle counts and
//!   the coherence-message taxonomy of the paper's Figure 4.
//! * [`config`] — the simulated machine description (Table 4 of the paper is
//!   the default: 16 tiles, 65 nm, 4 GHz, 32 KB L1, 256 KB L2 slice, 2D mesh
//!   with 75-byte unidirectional links of 5 mm).
//! * [`geometry`] — 2D-mesh coordinates and routing distances.
//! * [`stats`] — counters, histograms and online mean/variance used by every
//!   subsystem to report results.
//! * [`rng`] — a tiny deterministic `SplitMix64`/`Xoshiro256**` pair so that
//!   every simulation is exactly reproducible from a seed.
//! * [`randtest`] — a seeded randomized-testing harness built on [`rng`],
//!   used by the property suites in place of an external dependency.
//! * [`fault`] — deterministic fault injection (drop/duplicate/delay/
//!   corrupt/codec-desync) for robustness campaigns.
//! * [`fsx`] — the fallible filesystem seam every durable write routes
//!   through: a production backend and a seeded fault backend (torn
//!   writes, ENOSPC, short reads, bit flips, rename-then-crash).
//! * [`persist`] — the panic-free binary state codec: the one
//!   description of every component's mutable state, behind in-memory
//!   rewind and on-disk checkpoints alike.
//! * [`addrmap`] — an open-addressed, insertion-ordered map keyed by
//!   line address (Fibonacci hashing, deterministic iteration) for the
//!   transient coherence state on the cycle path.
//! * [`hash`] — streaming FNV-1a 64 content hashing shared by the
//!   journal's configuration fingerprints and the checkpoint cache's
//!   load-time verification digests.
//! * [`journal`] — the durable campaign journal (append-only JSONL of
//!   cell records, atomic result writes, meta stamping) that makes long
//!   matrix sweeps crash-resumable, and the lossless `Json` value it is
//!   written in.
//! * [`json`] — the declarative codec layer over that value: wire
//!   messages, journal records and result rows are each declared once
//!   as a field table beside their type.
//! * [`recency`] — exact per-set LRU order in one byte per way, shared
//!   by the cache arrays and the DBRC base registers.
//! * [`smallvec`] — an inline-first vector for hot-path message plumbing.
//! * [`units`] — thin newtypes for the physical quantities that cross crate
//!   boundaries (picoseconds, watts, square millimetres, joules).

#![forbid(unsafe_code)]

pub mod addrmap;
pub mod config;
pub mod fault;
pub mod fsx;
pub mod geometry;
pub mod hash;
pub mod journal;
pub mod json;
pub mod persist;
pub mod randtest;
pub mod recency;
pub mod rng;
pub mod smallvec;
pub mod stats;
pub mod types;
pub mod units;

pub use addrmap::AddrMap;
pub use config::{CacheConfig, CmpConfig, NetworkConfig};
pub use fault::{FaultAction, FaultConfig, FaultInjector, FaultPath, FaultStats};
pub use geometry::{Coord, MeshShape};
pub use hash::Fnv64;
pub use journal::{write_atomic, CampaignMeta, Journal, JournalError, JournalReplay, Json};
pub use json::JsonCodec;
pub use rng::SimRng;
pub use smallvec::SmallVec;
pub use stats::{Counter, Histogram, OnlineStats};
pub use types::{Addr, Cycle, MessageClass, TileId, CONTROL_BYTES, LINE_BYTES};
