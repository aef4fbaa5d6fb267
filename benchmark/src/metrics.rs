//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repo root lists exactly these (a
//! unit test holds the two together); a later change that claims a
//! gain names its metric from this file.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark prints.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics locate a change, they do not
    /// gate it).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The four workloads and why each is here (one line; the README has
/// the measured phase shares behind these).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "hotspot_4x4",
        "saturated 4x4 NoC: noc_tick is over half of host time, so a router or switch-allocator change must show here",
    ),
    (
        "mesh_16x16_sparse",
        "256 mostly parked routers, sparse AddrMap directory and 256 MSHR tables: a NoC or layout change that wins on hotspot_4x4 and loses here shows",
    ),
    (
        "fig6_sweep",
        "36 short Figure-6 cells weighted to compute-bound apps: cores, trace generation, codecs and per-cell set-up dominate, the NoC least",
    ),
    (
        "serve_campaign",
        "one campaign through the daemon cold then warm: the only workload where serve, journal fsync, JSON and checkpoint store/load do work",
    ),
];

/// What a user of the system sees. Host-time metrics are the median
/// over the timed reps of one run; the simulated ratios repeat exactly
/// for a given seed and differ slightly between seeds (the seed picks
/// the traces), which is what their bound covers.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("sim_cycles_per_s", "1/s", Higher, 0.25),
    e2e("host_ns_per_msg", "ns", Lower, 0.25),
    e2e("cells_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("cell_ok_rate", "ratio", Higher, 0.0),
    e2e("exec_time_ratio", "ratio", Lower, 0.05),
    e2e("link_ed2p_ratio", "ratio", Lower, 0.08),
];

/// One number per stratum, named `<crate>.<metric>`, so a win or a
/// regression can be located without guessing.
pub const PER_LAYER: [MetricDef; 71] = [
    // noc — traced, then replay on a standalone `Noc<u32>`
    layer("noc.tick_share", "ratio", Lower),
    layer("noc.tick_ns_per_flit_hop", "ns", Lower),
    layer("noc.tick_ns_per_iter", "ns", Lower),
    layer("noc.msgs", "count", Lower),
    layer("noc.flit_hops", "count", Lower),
    layer("noc.critical_latency_cycles", "cycles", Lower),
    layer("noc.replay_hotspot_ns_per_flit_hop", "ns", Lower),
    layer("noc.replay_uniform_ns_per_flit_hop", "ns", Lower),
    layer("noc.replay_vl_ns_per_flit_hop", "ns", Lower),
    layer("noc.replay_sparse16_ns_per_tick", "ns", Lower),
    // coherence
    layer("coherence.l2_share", "ratio", Lower),
    layer("coherence.l1_share", "ratio", Lower),
    layer("coherence.fill_share", "ratio", Lower),
    layer("coherence.handler_ns_per_msg", "ns", Lower),
    layer("coherence.l1_miss_rate", "ratio", Lower),
    layer("coherence.l2_recalls", "count", Lower),
    layer("coherence.mem_reads", "count", Lower),
    layer("coherence.cache_probe_ns", "ns", Lower),
    layer("coherence.cache_fill_ns", "ns", Lower),
    layer("coherence.l1_hit_ns", "ns", Lower),
    // common
    layer("common.addrmap_churn_ns", "ns", Lower),
    layer("common.addrmap_grow_ns", "ns", Lower),
    layer("common.addrmap_get_ns", "ns", Lower),
    layer("common.journal_append_us", "us", Lower),
    layer("common.write_atomic_us", "us", Lower),
    layer("common.json_render_mb_per_s", "MB/s", Higher),
    layer("common.json_parse_mb_per_s", "MB/s", Higher),
    // compression
    layer("compression.dbrc4_encode_ns", "ns", Lower),
    layer("compression.dbrc64_encode_ns", "ns", Lower),
    layer("compression.stride_encode_ns", "ns", Lower),
    layer("compression.multicast_encode_ns", "ns", Lower),
    layer("compression.dbrc4_decode_ns", "ns", Lower),
    layer("compression.engine_process_ns", "ns", Lower),
    layer("compression.coverage", "ratio", Higher),
    // cpu / workloads
    layer("cpu.cores_share", "ratio", Lower),
    layer("cpu.cores_ns_per_instr", "ns", Lower),
    layer("cpu.mem_stall_cycles", "cycles", Lower),
    layer("cpu.barrier_stall_cycles", "cycles", Lower),
    layer("workloads.tracegen_ns_per_op", "ns", Lower),
    // core — engine phases, per-cell overheads, state capture
    layer("core.calendar_share", "ratio", Lower),
    layer("core.advance_share", "ratio", Lower),
    layer("core.unattributed_share", "ratio", Lower),
    layer("core.iter_ns", "ns", Lower),
    layer("core.profile_overhead_ratio", "ratio", Lower),
    layer("core.sim_new_us", "us", Lower),
    layer("core.finish_us", "us", Lower),
    layer("core.cell_cycles_per_s.baseline", "1/s", Higher),
    layer("core.cell_cycles_per_s.proposal", "1/s", Higher),
    layer("core.supervised_ratio", "ratio", Lower),
    layer("core.journaled_ratio", "ratio", Lower),
    layer("core.result_json_us", "us", Lower),
    layer("core.epoch_t2_ratio", "ratio", Lower),
    layer("core.snapshot_ms", "ms", Lower),
    layer("core.restore_ms", "ms", Lower),
    layer("core.snapshot_kb", "kB", Lower),
    layer("core.digest_mb_per_s", "MB/s", Higher),
    layer("core.save_bytes_mb_per_s", "MB/s", Higher),
    layer("core.load_bytes_mb_per_s", "MB/s", Higher),
    layer("core.diskstore_store_ms", "ms", Lower),
    layer("core.diskstore_load_ms", "ms", Lower),
    layer("core.ckpt_mem_hit_us", "us", Lower),
    // serve — zero on every workload but serve_campaign
    layer("serve.start_ms", "ms", Lower),
    layer("serve.submit_ack_ms", "ms", Lower),
    layer("serve.first_event_ms", "ms", Lower),
    layer("serve.finalise_ms", "ms", Lower),
    layer("serve.dispatch_overhead_ms_per_cell", "ms", Lower),
    layer("serve.warm_speedup", "ratio", Higher),
    layer("serve.warm_hit_ratio", "ratio", Higher),
    layer("serve.proto_roundtrip_us", "us", Lower),
    layer("serve.status_ms", "ms", Lower),
    layer("serve.drain_ms", "ms", Lower),
];

/// Look a metric up by name in either list.
#[cfg(test)]
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_common::journal::Json;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "bad workload name {name:?}");
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&b), "bound of {}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = def("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` and this file must list the same names with the
    /// same units, directions and bounds, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let arr = |k: &str| doc.get(k).and_then(Json::as_arr).expect("array field");
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect("string").to_string();

        let workloads: Vec<(String, String)> = arr("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = arr(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(s(j, "name"), d.name);
                assert_eq!(s(j, "unit"), d.unit, "unit of {}", d.name);
                assert_eq!(s(j, "better"), d.better.label(), "direction of {}", d.name);
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    d.bound,
                    "bound of {}",
                    d.name
                );
            }
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
        let paths: Vec<&str> = arr("paths").iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
