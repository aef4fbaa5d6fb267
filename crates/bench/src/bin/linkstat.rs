//! Diagnostic: per-link utilisation heatmap of the mesh under one
//! application, per physical channel — shows where the XY-routed traffic
//! concentrates and how the proposal redistributes it.

use addr_compression::CompressionScheme;
use cmp_common::geometry::Direction;
use mesh_noc::config::ChannelKind;
use tcmp_core::niface::InterconnectChoice;
use tcmp_core::sim::{CmpSimulator, SimConfig};
use wire_model::wires::VlWidth;

fn print_heatmap(label: &str, counts: &[(usize, Direction, u64)], cycles: u64) {
    println!("\n{label}: flits per cycle on each outgoing link");
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10}",
        "tile", "east", "west", "north", "south"
    );
    for tile in 0..16 {
        let get = |d: Direction| {
            counts
                .iter()
                .find(|(t, dir, _)| *t == tile && *dir == d)
                .map(|(_, _, f)| format!("{:.4}", *f as f64 / cycles as f64))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{tile:>5} {:>10} {:>10} {:>10} {:>10}",
            get(Direction::East),
            get(Direction::West),
            get(Direction::North),
            get(Direction::South)
        );
    }
    let total: u64 = counts.iter().map(|(_, _, f)| f).sum();
    println!("total flit-hops: {total}");
}

fn main() -> Result<(), String> {
    let opts = cmp_bench::Options::parse();
    let app = opts
        .selected_apps()
        .into_iter()
        .next()
        .filter(|_| !opts.apps.is_empty())
        .unwrap_or_else(workloads::apps::mp3d);

    let on_directory = |mut cfg: SimConfig| {
        cfg.cmp.directory = opts.directory_or_default();
        cfg
    };

    // baseline: everything on the B channel
    let cfg = on_directory(SimConfig::baseline());
    let mut sim = CmpSimulator::new(cfg, &app, opts.seed, opts.scale);
    let r = sim
        .run()
        .map_err(|e| format!("{} baseline: {e}", app.name))?;
    print_heatmap(
        &format!("{} baseline (B channel)", app.name),
        &sim.link_flit_counts(ChannelKind::B),
        r.cycles,
    );

    // proposal: load split across B and VL
    let cfg = on_directory(SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
        CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        },
    ));
    let mut sim = CmpSimulator::new(cfg, &app, opts.seed, opts.scale);
    let r = sim
        .run()
        .map_err(|e| format!("{} proposal: {e}", app.name))?;
    print_heatmap(
        &format!("{} proposal (B channel)", app.name),
        &sim.link_flit_counts(ChannelKind::B),
        r.cycles,
    );
    print_heatmap(
        &format!("{} proposal (VL channel)", app.name),
        &sim.link_flit_counts(ChannelKind::Vl),
        r.cycles,
    );
    Ok(())
}
