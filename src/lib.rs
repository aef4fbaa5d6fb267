//! # tiled-cmp
//!
//! A tiled chip-multiprocessor simulator reproducing *"Address Compression
//! and Heterogeneous Interconnects for Energy-Efficient High-Performance
//! in Tiled CMPs"* (Flores, Acacio & Aragón, ICPP 2008).
//!
//! The paper's proposal: dynamically compress the addresses inside
//! coherence messages (requests and coherence commands shrink from 11 to
//! 4–5 bytes), and spend the freed link area on a few **very-low-latency
//! VL-Wires** that carry the short critical messages, area-neutrally
//! (each 75-byte B-Wire link becomes 34 bytes of B-Wires + 3–5 bytes of
//! VL-Wires).
//!
//! This façade crate re-exports the full stack:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`common`] | `cmp-common` | types, config, geometry, stats, RNG |
//! | [`wires`] | `wire-model` | RC delay, repeaters, Tables 2–3 wire classes |
//! | [`compression`] | `addr-compression` | DBRC, Stride, CACTI-lite (Table 1) |
//! | [`noc`] | `mesh-noc` | flit-level heterogeneous 2D-mesh NoC |
//! | [`coherence`] | `coherence` | MESI directory protocol, L1/L2, memory |
//! | [`cpu`] | `cpu-model` | trace-driven in-order cores |
//! | [`workloads`] | `workloads` | the 13 synthetic application profiles |
//! | [`energy`] | `energy-model` | Wattch-lite + interconnect energy, ED²P |
//! | [`sim`] | `tcmp-core` | the full-system simulator + experiments |
//!
//! ## Quickstart
//!
//! ```
//! use tiled_cmp::prelude::*;
//!
//! // the paper's baseline: 16 tiles, 75-byte B-Wire links, no compression
//! let baseline = SimConfig::baseline();
//! // the proposal: 34B B-Wires + 5B VL-Wires, 4-entry DBRC, 2 low bytes
//! let proposal = SimConfig::new(
//!     InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
//!     CompressionScheme::Dbrc { entries: 4, low_bytes: 2 },
//! );
//!
//! let app = tiled_cmp::workloads::apps::mp3d();
//! let run = |cfg| CmpSimulator::new(cfg, &app, 42, 0.002).run().unwrap();
//! let (base, prop) = (run(baseline), run(proposal));
//! assert!(prop.cycles <= base.cycles);
//! ```

#![forbid(unsafe_code)]

pub use addr_compression as compression;
pub use cmp_common as common;
pub use coherence;
pub use cpu_model as cpu;
pub use energy_model as energy;
pub use mesh_noc as noc;
pub use tcmp_core as sim;
pub use wire_model as wires;
pub use workloads;

/// The names most programs need.
pub mod prelude {
    pub use addr_compression::CompressionScheme;
    pub use cmp_common::config::CmpConfig;
    pub use cmp_common::journal::{CampaignMeta, Journal, Json};
    pub use cmp_common::types::{MessageClass, TileId};
    pub use tcmp_core::checkpoint::{CacheLoad, DiskConfig, DiskStore, WarmKey};
    pub use tcmp_core::engine::MachineSnapshot;
    pub use tcmp_core::experiment::{
        normalize, normalize_partial, paper_configs, run_matrix_jobs, ConfigSpec, MatrixError,
        PartialNormalization, RunFailure, RunSpec,
    };
    pub use tcmp_core::niface::InterconnectChoice;
    pub use tcmp_core::sim::{CmpSimulator, SimConfig, SimError, SimResult, WatchdogConfig};
    pub use tcmp_core::supervisor::{
        campaign_meta, cell_key, run_matrix_supervised, run_supervised, run_supervised_cached,
        supervise, warm_key, CellFailure, MatrixReport, RunPolicy, SweepState, WarmStart,
    };
    pub use wire_model::wires::{VlWidth, WireClass};
    pub use workloads::profile::AppProfile;
}
