//! The simulated machine description.
//!
//! [`CmpConfig::default`] reproduces Table 4 of the paper: a 16-core tiled
//! CMP at 65 nm, 4 GHz in-order 2-way cores, 32 KB 4-way L1 caches, 256 KB
//! 4-way L2 slices (6+2 cycles), 400-cycle memory, and a 4×4 2D mesh with
//! 75-byte unidirectional links of 5 mm.

use crate::geometry::MeshShape;

/// Parameters of one cache level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (shared across levels).
    pub line_bytes: usize,
    /// Cycles to probe the tags.
    pub tag_latency: u64,
    /// Additional cycles to read/write the data array after a tag hit.
    pub data_latency: u64,
}

impl CacheConfig {
    /// Number of sets (capacity / (ways × line)).
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Total access latency on a hit.
    pub fn hit_latency(&self) -> u64 {
        self.tag_latency + self.data_latency
    }

    /// Sanity-check invariants; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() {
            return Err(format!("line size {} not a power of two", self.line_bytes));
        }
        if self.ways == 0 {
            return Err("associativity must be >= 1".into());
        }
        if self.ways > crate::recency::MAX_WAYS {
            return Err(format!(
                "associativity {} over the {} ways one-byte LRU ages can order",
                self.ways,
                crate::recency::MAX_WAYS
            ));
        }
        if self.size_bytes % (self.ways * self.line_bytes) != 0 {
            return Err(format!(
                "capacity {} not divisible by ways*line = {}",
                self.size_bytes,
                self.ways * self.line_bytes
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} not a power of two", self.sets()));
        }
        Ok(())
    }
}

/// Physical parameters of the on-chip network (independent of the wire
/// organisation, which the experiment configuration chooses).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Width of one unidirectional inter-router link in bytes (Table 4:
    /// 75 bytes of 8X B-Wires in the baseline).
    pub link_bytes: usize,
    /// Physical link length in millimetres (≈5 mm for 25 mm² tiles).
    pub link_length_mm: f64,
    /// Router pipeline depth in cycles (route computation, VC/switch
    /// allocation, switch traversal).
    pub router_pipeline_cycles: u64,
    /// Virtual channels per physical channel.
    pub virtual_channels: usize,
    /// Buffer depth per virtual channel, in flits.
    pub vc_buffer_flits: usize,
}

impl NetworkConfig {
    /// Sanity-check invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.link_bytes == 0 {
            return Err("link width must be non-zero".into());
        }
        if self.link_length_mm <= 0.0 {
            return Err("link length must be positive".into());
        }
        if self.virtual_channels == 0 || self.vc_buffer_flits == 0 {
            return Err("need at least one VC with at least one flit buffer".into());
        }
        Ok(())
    }
}

/// Which sharer-bookkeeping hardware the L2 home slices implement.
///
/// The paper's machine keeps a *full-map* directory: one presence bit
/// per tile alongside every L2 line. That is exact but its sharer
/// vectors are a fixed 64 bits wide here, so it cannot describe meshes
/// beyond 64 tiles. The *sparse* organisation keeps tagged entries only
/// for lines with remote copies plus a bounded table of in-flight
/// directory transactions ("directory MSHRs"), which is what lets
/// 16×16 and 32×32 meshes run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectoryConfig {
    /// Full-map presence vectors co-located with every L2 line
    /// (Table 4 machine; at most [`FULL_MAP_MAX_TILES`] tiles).
    FullMap,
    /// Sparse tagged entries with `dir_mshrs` transaction slots per
    /// home slice. Exhausting the slots is a structured protocol error
    /// naming this knob, never silent misbehaviour.
    Sparse { dir_mshrs: usize },
}

/// Widest mesh a full-map directory can describe (one u64 presence
/// vector per line).
pub const FULL_MAP_MAX_TILES: usize = 64;

/// Default in-flight transaction slots per home slice for
/// [`DirectoryConfig::Sparse`]. Sized so the default machines never
/// exhaust it (a slice can serve at most `tiles × l1_mshrs` concurrent
/// lines, but in practice far fewer are in flight at one home).
pub const DEFAULT_DIR_MSHRS: usize = 64;

impl DirectoryConfig {
    /// A sparse directory with the default MSHR depth.
    pub fn sparse() -> Self {
        DirectoryConfig::Sparse {
            dir_mshrs: DEFAULT_DIR_MSHRS,
        }
    }

    /// Short label for CSV/journal rows and error messages.
    pub fn label(&self) -> String {
        match *self {
            DirectoryConfig::FullMap => "full-map".to_string(),
            DirectoryConfig::Sparse { dir_mshrs } => format!("sparse({dir_mshrs})"),
        }
    }

    /// Wire/flag spelling: `full-map`, `sparse`, or `sparse:N`.
    /// Round-trips through [`DirectoryConfig::parse_flag`].
    pub fn flag_label(&self) -> String {
        match *self {
            DirectoryConfig::FullMap => "full-map".to_string(),
            DirectoryConfig::Sparse { dir_mshrs } => format!("sparse:{dir_mshrs}"),
        }
    }

    /// Parse the flag/wire spelling accepted by the bench binaries and
    /// the campaign service: `full-map`, `sparse` (default MSHR depth),
    /// or `sparse:N`.
    pub fn parse_flag(s: &str) -> Result<DirectoryConfig, String> {
        match s {
            "full-map" => Ok(DirectoryConfig::FullMap),
            "sparse" => Ok(DirectoryConfig::sparse()),
            other => match other.strip_prefix("sparse:") {
                Some(n) => {
                    let dir_mshrs: usize = n.parse().map_err(|_| {
                        format!("bad sparse MSHR depth {n:?} (want sparse:N with N >= 1)")
                    })?;
                    let cfg = DirectoryConfig::Sparse { dir_mshrs };
                    // tiles=0: shape-independent checks only (catches 0)
                    cfg.validate(0)?;
                    Ok(cfg)
                }
                None => Err(format!(
                    "unknown directory {other:?} (want full-map | sparse | sparse:N)"
                )),
            },
        }
    }

    /// Validate against a machine of `tiles` tiles.
    pub fn validate(&self, tiles: usize) -> Result<(), String> {
        match *self {
            DirectoryConfig::FullMap if tiles > FULL_MAP_MAX_TILES => Err(format!(
                "full-map directory cannot track {tiles} tiles (the sharer \
                 vector is {FULL_MAP_MAX_TILES} bits); configure \
                 `directory: DirectoryConfig::Sparse {{ dir_mshrs }}`"
            )),
            DirectoryConfig::Sparse { dir_mshrs: 0 } => {
                Err("sparse directory needs at least one MSHR: set \
                 `directory: DirectoryConfig::Sparse { dir_mshrs >= 1 }`"
                    .into())
            }
            _ => Ok(()),
        }
    }
}

// On the wire a directory is its flag spelling.
crate::json_as!(
    DirectoryConfig as String,
    DirectoryConfig::flag_label,
    |flag| DirectoryConfig::parse_flag(&flag)
);

/// Full description of the simulated CMP (paper Table 4 by default).
#[derive(Clone, Debug, PartialEq)]
pub struct CmpConfig {
    /// Tile grid (4×4 by default).
    pub mesh: MeshShape,
    /// Core and network clock in hertz (4 GHz).
    pub clock_hz: f64,
    /// Process technology in nanometres (65 nm; feeds the wire model).
    pub technology_nm: u32,
    /// Area of one tile in mm² (25 mm²; feeds the compression-hardware
    /// relative-cost numbers of Table 1).
    pub tile_area_mm2: f64,
    /// Per-core maximum dynamic power in watts, used as the Table 1
    /// normalisation baseline and by the Wattch-lite chip power model.
    pub core_max_dyn_power_w: f64,
    /// Per-core static (leakage) power in watts.
    pub core_static_power_w: f64,
    /// Superscalar width of the in-order cores (2-way).
    pub core_issue_width: u32,
    /// L1 data/instruction cache parameters (32 KB, 4-way).
    pub l1: CacheConfig,
    /// One L2 NUCA slice (256 KB, 4-way, 6+2 cycles).
    pub l2_slice: CacheConfig,
    /// Round-trip latency of an off-chip memory access in cycles (400).
    pub mem_latency_cycles: u64,
    /// L1 MSHR entries (outstanding misses per core).
    pub l1_mshrs: usize,
    /// Sharer-bookkeeping organisation of the home L2 directories.
    pub directory: DirectoryConfig,
    /// Physical network parameters.
    pub network: NetworkConfig,
}

impl Default for CmpConfig {
    fn default() -> Self {
        let line = crate::types::LINE_BYTES;
        CmpConfig {
            mesh: MeshShape::square(4),
            clock_hz: 4.0e9,
            technology_nm: 65,
            tile_area_mm2: 25.0,
            // 25 mm^2 tile at 65 nm: the paper's Table 1 normalises a
            // 64-entry DBRC (0.7078 W) to 3.16% of a core => ~22.4 W of
            // max dynamic power per core.
            core_max_dyn_power_w: 22.4,
            // Table 1 normalises 133.42 mW static to 3.76% => ~3.55 W.
            core_static_power_w: 3.55,
            core_issue_width: 2,
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                line_bytes: line,
                tag_latency: 1,
                data_latency: 1,
            },
            l2_slice: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 4,
                line_bytes: line,
                tag_latency: 6,
                data_latency: 2,
            },
            mem_latency_cycles: 400,
            l1_mshrs: 8,
            directory: DirectoryConfig::FullMap,
            network: NetworkConfig {
                link_bytes: 75,
                link_length_mm: 5.0,
                router_pipeline_cycles: 3,
                virtual_channels: 4,
                vc_buffer_flits: 4,
            },
        }
    }
}

impl CmpConfig {
    /// Number of tiles (= cores = L2 slices).
    pub fn tiles(&self) -> usize {
        self.mesh.tiles()
    }

    /// Duration of one clock cycle in seconds.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Home tile of a block address: line-interleaved across tiles using
    /// the bits right above the block offset, the standard NUCA placement
    /// for tiled CMPs.
    pub fn home_tile(&self, addr: crate::types::Addr) -> crate::types::TileId {
        let line_shift = self.l1.line_bytes.trailing_zeros();
        let idx = (addr >> line_shift) as usize % self.tiles();
        crate::types::TileId::from(idx)
    }

    /// Validate the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_hz <= 0.0 {
            return Err("clock must be positive".into());
        }
        if self.l1.line_bytes != self.l2_slice.line_bytes {
            return Err("L1 and L2 must share a line size".into());
        }
        if self.l1_mshrs == 0 {
            return Err("need at least one MSHR".into());
        }
        self.directory
            .validate(self.tiles())
            .map_err(|e| format!("directory: {e}"))?;
        self.l1.validate().map_err(|e| format!("L1: {e}"))?;
        self.l2_slice.validate().map_err(|e| format!("L2: {e}"))?;
        self.network
            .validate()
            .map_err(|e| format!("network: {e}"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TileId;

    #[test]
    fn default_matches_table_4() {
        let c = CmpConfig::default();
        assert_eq!(c.tiles(), 16);
        assert_eq!(c.clock_hz, 4.0e9);
        assert_eq!(c.technology_nm, 65);
        assert_eq!(c.tile_area_mm2, 25.0);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.sets(), 128);
        assert_eq!(c.l2_slice.size_bytes, 256 * 1024);
        assert_eq!(c.l2_slice.hit_latency(), 8); // 6+2 cycles
        assert_eq!(c.mem_latency_cycles, 400);
        assert_eq!(c.network.link_bytes, 75);
        assert_eq!(c.network.link_length_mm, 5.0);
        c.validate().expect("default config is valid");
    }

    #[test]
    fn home_tile_interleaves_by_line() {
        let c = CmpConfig::default();
        // consecutive lines map to consecutive tiles
        assert_eq!(c.home_tile(0x0000), TileId(0));
        assert_eq!(c.home_tile(0x0040), TileId(1));
        assert_eq!(c.home_tile(0x03C0), TileId(15));
        assert_eq!(c.home_tile(0x0400), TileId(0));
        // all bytes of a line share a home
        assert_eq!(c.home_tile(0x0043), c.home_tile(0x0040));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = CmpConfig::default();
        c.l1.ways = 0;
        assert!(c.validate().is_err());

        // 256 ways of 64 B: a power-of-two set count, but past what a
        // one-byte LRU age orders
        let mut c = CmpConfig::default();
        c.l2_slice.ways = 256;
        c.l2_slice.size_bytes = 256 * 64 * 4;
        let err = c.validate().expect_err("256 ways");
        assert!(err.contains("LRU"), "{err}");

        let mut c = CmpConfig::default();
        c.l1.line_bytes = 48; // not a power of two
        assert!(c.validate().is_err());

        let mut c = CmpConfig::default();
        c.network.link_bytes = 0;
        assert!(c.validate().is_err());

        let mut c = CmpConfig::default();
        c.l2_slice.line_bytes = 128; // mismatched line sizes
        assert!(c.validate().is_err());
    }

    #[test]
    fn full_map_directory_refuses_wide_meshes() {
        let mut c = CmpConfig {
            mesh: MeshShape::square(16),
            ..CmpConfig::default()
        };
        let err = c.validate().expect_err("256 tiles exceed a 64-bit map");
        assert!(err.contains("full-map"), "{err}");
        assert!(err.contains("Sparse"), "{err}");
        c.directory = DirectoryConfig::sparse();
        c.validate().expect("sparse directory scales past 64 tiles");
    }

    #[test]
    fn sparse_directory_needs_mshrs() {
        let c = CmpConfig {
            directory: DirectoryConfig::Sparse { dir_mshrs: 0 },
            ..CmpConfig::default()
        };
        let err = c.validate().expect_err("zero directory MSHRs");
        assert!(err.contains("dir_mshrs"), "{err}");
        assert_eq!(DirectoryConfig::sparse().label(), "sparse(64)");
        assert_eq!(DirectoryConfig::FullMap.label(), "full-map");
    }

    #[test]
    fn directory_flag_spelling_round_trips() {
        for d in [
            DirectoryConfig::FullMap,
            DirectoryConfig::sparse(),
            DirectoryConfig::Sparse { dir_mshrs: 128 },
        ] {
            assert_eq!(DirectoryConfig::parse_flag(&d.flag_label()), Ok(d));
        }
        assert_eq!(
            DirectoryConfig::parse_flag("sparse"),
            Ok(DirectoryConfig::sparse())
        );
        let err = DirectoryConfig::parse_flag("sparse:0").expect_err("zero MSHRs");
        assert!(err.contains("dir_mshrs"), "{err}");
        let err = DirectoryConfig::parse_flag("sparse:lots").expect_err("non-numeric");
        assert!(err.contains("sparse:N"), "{err}");
        let err = DirectoryConfig::parse_flag("hierarchical").expect_err("unknown");
        assert!(err.contains("full-map | sparse"), "{err}");
    }

    #[test]
    fn network_bandwidth_matches_table_4() {
        // Table 4: 75 GB/s per link = 75 bytes/cycle... at 4GHz that is
        // 300 GB/s raw; the paper quotes 75 GB/s for a 1 GHz network or
        // per-direction aggregate — we check the physical width here.
        let c = CmpConfig::default();
        assert_eq!(c.network.link_bytes, 75);
    }
}
