//! Tables 1–3 of the paper. They are analytic — hardware and wire
//! models, no simulation — so they have no plan, no journal and no
//! provenance stamp: each is a table and the text printed under it.

use addr_compression::cacti_lite;
use addr_compression::hw_cost::{published_row, storage_bytes};
use addr_compression::CompressionScheme;
use cmp_common::config::CmpConfig;
use tcmp_core::report::TableBuilder;
use wire_model::link::{Channel, HeterogeneousLinkPlan, BASELINE_LINK_BYTES};
use wire_model::tech::Tech65;
use wire_model::wires::{derived_rel_latency, VlWidth, WireClass};

/// One analytic table: its `tcmp-fig` sub-command, and the table with
/// the text printed under it (may be empty).
pub type Table = (&'static str, fn() -> (TableBuilder, String));

/// Tables 1–3, in paper order.
pub const TABLES: [Table; 3] = [("table1", table1), ("table2", table2), ("table3", table3)];

/// Table 1: area and power of the address-compression hardware for a
/// 16-core tiled CMP at 65 nm — the published CACTI-4.1 values next to
/// the CACTI-lite model so the fit quality is visible, plus the storage
/// arithmetic (one sender structure + sixteen receiver structures, twice
/// for the two address streams, 8 bytes per entry).
fn table1() -> (TableBuilder, String) {
    let cfg = CmpConfig::default();
    let mut t = TableBuilder::new(
        "Table 1 — compression hardware cost per core (16-core CMP, 65 nm)",
        &[
            "scheme",
            "size (B)",
            "area mm2 (paper)",
            "area mm2 (model)",
            "max dyn W (paper)",
            "max dyn W (model)",
            "static mW (paper)",
            "static mW (model)",
            "% of core area",
        ],
    );
    let dbrc = |entries| CompressionScheme::Dbrc {
        entries,
        low_bytes: 2,
    };
    for scheme in [
        dbrc(4),
        dbrc(16),
        dbrc(64),
        CompressionScheme::Stride { low_bytes: 2 },
    ] {
        let bytes = storage_bytes(scheme, cfg.tiles());
        let row = published_row(scheme).expect("every scheme listed has a published row");
        let est = cacti_lite::estimate(bytes);
        t.row(vec![
            row.label.to_string(),
            bytes.to_string(),
            format!("{:.4}", row.area_mm2),
            format!("{:.4}", est.area.value()),
            format!("{:.4}", row.max_dyn_w),
            format!("{:.4}", est.max_dynamic.value()),
            format!("{:.2}", row.static_mw),
            format!("{:.2}", est.static_power.milliwatts()),
            format!("{:.2}%", row.area_mm2 / cfg.tile_area_mm2 * 100.0),
        ]);
    }
    (t, String::new())
}

/// Table 2: area, delay and power of the wire implementations (B-Wires
/// on 8X/4X planes, L-Wires, PW-Wires) — the published constants
/// (authoritative for the simulation) next to the relative latencies
/// derived from the first-order RC + repeater model, which validates
/// that the constants are consistent with Eq. (1).
fn table2() -> (TableBuilder, String) {
    let tech = Tech65::default();
    let mut t = TableBuilder::new(
        "Table 2 — wire implementations at 65 nm (relative to B-Wire 8X)",
        &[
            "wire type",
            "rel latency (paper)",
            "rel latency (RC model)",
            "rel area",
            "dyn power (aW/m)",
            "static power (mW/m)",
            "abs delay ps/mm",
        ],
    );
    for class in [
        WireClass::B8X,
        WireClass::B4X,
        WireClass::L8X,
        WireClass::PW4X,
    ] {
        let p = class.props();
        let derived = derived_rel_latency(&tech, class)
            .map(|d| format!("{d:.2}x"))
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            format!("{class:?}"),
            format!("{}x", p.rel_latency),
            derived,
            format!("{}x", p.rel_area),
            format!("{}", p.dyn_coeff_w_per_m),
            format!("{}", p.static_mw_per_m),
            format!("{:.0}", class.delay_ps(1.0)),
        ]);
    }
    let cycles = |class, bytes| Channel::new(class, bytes, 5.0).timing(4.0e9).cycles;
    let hops = format!(
        "B-Wire 5 mm hop at 4 GHz: {} cycles; L-Wire: {} cycles; PW-Wire: {} cycles\n",
        cycles(WireClass::B8X, 75),
        cycles(WireClass::L8X, 11),
        cycles(WireClass::PW4X, 34),
    );
    (t, hops)
}

/// Table 3: VL-Wire characteristics for 3/4/5-byte widths, plus the
/// area-neutrality arithmetic of Section 4.3 (each 75-byte link becomes
/// 34 bytes of B-Wires + one VL channel of equal total metal area).
fn table3() -> (TableBuilder, String) {
    let mut t = TableBuilder::new(
        "Table 3 — VL-Wires (8X plane) relative to baseline wires",
        &[
            "width",
            "rel latency",
            "rel area",
            "dyn power (aW/m)",
            "static power (mW/m)",
            "link cycles @4GHz/5mm",
            "plan area vs 75B link",
            "plan static power vs 75B link",
        ],
    );
    let base = Channel::new(WireClass::B8X, BASELINE_LINK_BYTES, 5.0);
    for vl in VlWidth::ALL {
        let p = WireClass::VL(vl).props();
        let plan = HeterogeneousLinkPlan::area_neutral(vl, 5.0);
        t.row(vec![
            format!("{} bytes", vl.bytes()),
            format!("{}x", p.rel_latency),
            format!("{}x", p.rel_area),
            format!("{}", p.dyn_coeff_w_per_m),
            format!("{}", p.static_mw_per_m),
            format!("{}", plan.vl_channel.timing(4.0e9).cycles),
            format!("{:.3}", plan.area_vs_baseline()),
            format!("{:.3}", plan.static_power() / base.static_power()),
        ]);
    }
    let slack = "slack arithmetic: 75 B link = 600 tracks; 34 B of B-Wires keep 272,\n\
         leaving 328 tracks for 24/32/40 VL wires = 13.7x/10.3x/8.2x area each\n\
         (published: 14x/10x/8x).\n";
    (t, slack.to_string())
}
