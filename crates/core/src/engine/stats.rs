//! End-of-run accounting: fold every component's counters into one
//! [`SimResult`].

use addr_compression::{CompressionHwCost, CompressionScheme};
use cmp_common::fault::FaultStats;
use cmp_common::types::{Cycle, MessageClass};
use energy_model::breakdown::EnergyBreakdown;
use energy_model::core_power::CoreEnergyModel;

use super::CmpSimulator;
use crate::niface::{InterconnectChoice, ResyncStats};

/// Per-class message accounting (network messages only, as in Figure 5).
#[derive(Clone, Debug)]
pub struct ClassCount {
    pub class: MessageClass,
    pub count: u64,
    pub bytes: u64,
    pub mean_latency: f64,
}

cmp_common::json_record!(ClassCount {
    class,
    count,
    bytes,
    mean_latency,
});

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Application label.
    pub app: String,
    /// Compression scheme used.
    pub scheme: CompressionScheme,
    /// Link organisation used.
    pub interconnect: InterconnectChoice,
    /// Parallel-phase execution time in cycles.
    pub cycles: Cycle,
    /// Execution time in seconds.
    pub time_s: f64,
    /// Where the joules went.
    pub energy: EnergyBreakdown,
    /// Address-compression coverage (Figure 2 metric; 0 when the scheme
    /// is `None`).
    pub coverage: f64,
    /// Per-class network message counts (Figure 5).
    pub messages: Vec<ClassCount>,
    /// Total network messages.
    pub network_messages: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// L1 misses / L1 accesses.
    pub l1_miss_rate: f64,
    /// Mean network latency of critical messages.
    pub critical_latency: f64,
    /// Coverage measured by each passive probe scheme, in the order of
    /// `SimConfig::coverage_probes`.
    pub probe_coverages: Vec<(CompressionScheme, f64)>,
    /// Total cycles cores spent blocked on L1 misses.
    pub mem_stall_cycles: u64,
    /// Total cycles cores spent parked at barriers.
    pub barrier_stall_cycles: u64,
    /// Off-chip memory reads issued.
    pub mem_reads: u64,
    /// L2 inclusion recalls issued.
    pub l2_recalls: u64,
    /// Faults actually injected, by class (all zero without a campaign).
    pub fault_stats: FaultStats,
    /// Codec-resynchronisation accounting summed across all tiles.
    pub resync: ResyncStats,
    /// Sanitizer sweeps that ran (0 when the sanitizer is off).
    pub sanitizer_sweeps: u64,
}

// Lossless both ways: integers are decimal u64 tokens and floats use
// Rust's shortest round-trip repr, which `Json` keeps as raw number
// tokens — so a row decoded from the journal compares (and renders into
// CSVs) bit-identically to the in-process original.
cmp_common::json_record!(SimResult {
    app,
    scheme,
    interconnect,
    cycles,
    time_s,
    energy,
    coverage,
    messages,
    network_messages,
    instructions,
    l1_miss_rate,
    critical_latency,
    probe_coverages via probe_rows,
    mem_stall_cycles,
    barrier_stall_cycles,
    mem_reads,
    l2_recalls,
    fault_stats,
    resync,
    sanitizer_sweeps,
});

/// `SimResult::probe_coverages` as an array of `{"scheme","coverage"}`
/// rows: a tuple of two foreign types cannot carry a codec impl here.
mod probe_rows {
    use addr_compression::CompressionScheme;
    use cmp_common::journal::Json;
    use cmp_common::json::JsonCodec;

    struct Row {
        scheme: CompressionScheme,
        coverage: f64,
    }
    cmp_common::json_record!(Row { scheme, coverage });

    pub fn to_json(rows: &[(CompressionScheme, f64)]) -> Json {
        let row = |&(scheme, coverage): &(_, _)| Row { scheme, coverage }.to_json();
        Json::Arr(rows.iter().map(row).collect())
    }

    pub fn from_json(j: &Json) -> Result<Vec<(CompressionScheme, f64)>, String> {
        let rows = Vec::<Row>::from_json(j)?;
        Ok(rows.into_iter().map(|r| (r.scheme, r.coverage)).collect())
    }
}

impl SimResult {
    /// Link-level ED²P (Figure 6 bottom).
    pub fn link_ed2p(&self) -> f64 {
        self.energy.interconnect_ed2p(self.time_s)
    }

    /// Full-CMP ED²P (Figure 7).
    pub fn chip_ed2p(&self) -> f64 {
        self.energy.chip_ed2p(self.time_s)
    }

    /// Fraction of messages in `class`.
    pub fn class_fraction(&self, class: MessageClass) -> f64 {
        let total = self.network_messages.max(1);
        self.messages
            .iter()
            .find(|c| c.class == class)
            .map(|c| c.count as f64 / total as f64)
            .unwrap_or(0.0)
    }
}

impl CmpSimulator {
    /// Fold every component's counters into the run's report: the end
    /// of [`CmpSimulator::run`], or of a manually-stepped run once
    /// [`CmpSimulator::step`] has returned `Ok(false)`.
    pub fn finish(&mut self) -> SimResult {
        // Close any resync window still open at end-of-run: the handshake
        // completes in the drained network.
        let now = self.now;
        for tile in &mut self.tiles {
            tile.ni.tracker.settle(now);
        }
        let cfg = &self.cfg;
        let time_s = self.now as f64 * cfg.cmp.cycle_seconds();
        let tiles = cfg.cmp.tiles() as f64;

        // --- cores & caches (Wattch-lite) ---
        let cem = CoreEnergyModel::for_config(&cfg.cmp);
        let instructions: u64 = self.tiles.iter().map(|t| t.core.stats().instructions).sum();
        let l1_accesses: u64 = self.tiles.iter().map(|t| t.l1.stats().accesses.get()).sum();
        let l1_misses: u64 = self.tiles.iter().map(|t| t.l1.stats().misses.get()).sum();
        let l2_accesses: u64 = self
            .l2s
            .iter()
            .map(|b| b.slice.stats().requests.get() + b.slice.stats().writebacks.get())
            .sum();
        let core_dynamic = cem.dynamic(instructions, l1_accesses, l2_accesses);
        let core_static = cem.leakage_per_core.over(time_s) * tiles;

        // --- interconnect ---
        let net_energy = self.noc.energy();
        let link_static = self.noc.static_power().over(time_s);

        // --- compression hardware ---
        let hw = CompressionHwCost::for_scheme(cfg.scheme, cfg.cmp.tiles());
        let mut coverage_acc = addr_compression::CoverageStats::new();
        for tile in &self.tiles {
            coverage_acc.merge(tile.ni.codec.stats());
        }
        // every sender-side access has a mirrored receiver-side access
        let compression_accesses = coverage_acc.accesses() * 2;
        let compression_dynamic = hw.dyn_energy_per_access() * compression_accesses as f64;
        let compression_static = hw.static_power.over(time_s) * tiles;

        let energy = EnergyBreakdown {
            core_dynamic,
            core_static,
            link_dynamic: net_energy.link_dynamic,
            link_static,
            router_dynamic: net_energy.router_dynamic,
            compression_dynamic,
            compression_static,
        };

        let stats = self.noc.stats();
        let messages: Vec<ClassCount> = MessageClass::ALL
            .iter()
            .map(|&class| {
                let s = stats.class(class);
                ClassCount {
                    class,
                    count: s.count.get(),
                    bytes: s.bytes.get(),
                    mean_latency: s.latency.mean(),
                }
            })
            .collect();

        let probe_coverages = cfg
            .coverage_probes
            .iter()
            .enumerate()
            .map(|(k, &scheme)| {
                let mut acc = addr_compression::CoverageStats::new();
                for tile in &self.tiles {
                    acc.merge(tile.ni.probes[k].stats());
                }
                (scheme, acc.coverage())
            })
            .collect();

        SimResult {
            app: self.app_name.clone(),
            scheme: cfg.scheme,
            interconnect: cfg.interconnect,
            cycles: self.now,
            time_s,
            energy,
            coverage: coverage_acc.coverage(),
            network_messages: stats.delivered(),
            messages,
            instructions,
            l1_miss_rate: if l1_accesses == 0 {
                0.0
            } else {
                l1_misses as f64 / l1_accesses as f64
            },
            critical_latency: stats.critical_mean_latency(),
            probe_coverages,
            mem_stall_cycles: self
                .tiles
                .iter()
                .map(|t| t.core.stats().mem_stall_cycles)
                .sum(),
            mem_reads: self.mem.reads_issued.get(),
            l2_recalls: self.l2s.iter().map(|b| b.slice.stats().recalls.get()).sum(),
            barrier_stall_cycles: self
                .tiles
                .iter()
                .map(|t| t.core.stats().barrier_stall_cycles)
                .sum(),
            fault_stats: self
                .injector
                .as_ref()
                .map(|i| i.stats().clone())
                .unwrap_or_default(),
            resync: self.resync_stats(),
            sanitizer_sweeps: self.sanitizer.as_ref().map_or(0, |s| s.sweeps()),
        }
    }
}
