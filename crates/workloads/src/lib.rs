//! Synthetic parallel-application workloads.
//!
//! The paper evaluates thirteen applications (SPLASH/SPLASH-2 plus Berkeley
//! EM3D and Unstructured, Table 4) running on RSIM. Reproducing that in
//! Rust means substituting the binaries with **synthetic trace generators**
//! whose memory behaviour is calibrated, per application, to the published
//! characterisation (Woo et al.) and to the paper's own data:
//!
//! * the *address-stream structure* (sequential/strided runs, random
//!   pointer chasing, structure interleaving, address-space spread)
//!   determines the compression coverage of Figure 2;
//! * the *sharing pattern* (producer–consumer stencils, migratory
//!   objects, read-mostly tables, all-to-all transposes) determines the
//!   coherence-message mix of Figure 5;
//! * the *miss rate and compute density* determine how sensitive
//!   execution time is to interconnect latency (Figure 6's spread from
//!   Water/LU at ~1–2 % to MP3D/Unstructured at ~22–25 %).
//!
//! Each profile is a declarative list of [`profile::StructureSpec`]s —
//! data structures with a region, an access pattern and a write fraction —
//! interpreted by the streaming [`generator::TraceGen`]. Traces are
//! deterministic given (application, core, seed).

#![forbid(unsafe_code)]

pub mod apps;
pub mod generator;
pub mod profile;
pub mod synthetic;
pub mod validation;

pub use apps::{all_apps, app_by_name};
pub use generator::TraceGen;
pub use profile::{AppProfile, Pattern, Region, StructureSpec};
