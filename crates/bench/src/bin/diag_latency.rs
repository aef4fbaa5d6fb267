//! Internal diagnostic: where does the time go per configuration?
use addr_compression::CompressionScheme;
use cmp_common::types::MessageClass;
use tcmp_core::niface::InterconnectChoice;
use tcmp_core::sim::{CmpSimulator, SimConfig};
use wire_model::wires::VlWidth;

fn main() -> Result<(), String> {
    let opts = cmp_bench::Options::parse();
    for app in opts.selected_apps() {
        for (label, mut cfg) in [
            ("baseline", SimConfig::baseline()),
            (
                "proposal",
                SimConfig::new(
                    InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
                    CompressionScheme::Perfect { low_bytes: 2 },
                ),
            ),
        ] {
            cfg.cmp.directory = opts.directory_or_default();
            let mut sim = CmpSimulator::new(cfg, &app, opts.seed, opts.scale);
            let r = sim
                .run()
                .map_err(|e| format!("{} {label}: {e}", app.name))?;
            let lat = |c: MessageClass| {
                r.messages
                    .iter()
                    .find(|m| m.class == c)
                    .map(|m| m.mean_latency)
                    .unwrap_or(0.0)
            };
            println!(
                "{:<13} {label:<9} cycles={:<9} msgs={:<8} miss={:.3} critLat={:.1} req={:.1} data={:.1} cmd={:.1} rep={:.1} linkE_dyn={:.3e} linkE_st={:.3e}",
                r.app, r.cycles, r.network_messages, r.l1_miss_rate,
                r.critical_latency, lat(MessageClass::Request),
                lat(MessageClass::ResponseData), lat(MessageClass::CoherenceCmd),
                lat(MessageClass::CoherenceReply),
                r.energy.link_dynamic.value() + r.energy.router_dynamic.value(),
                r.energy.link_static.value(),
            );
            let total = r.cycles as f64 * 16.0;
            println!(
                "              stalls: mem={:.1}% barrier={:.1}%",
                r.mem_stall_cycles as f64 / total * 100.0,
                r.barrier_stall_cycles as f64 / total * 100.0
            );
            println!(
                "              memReads={} recalls={}",
                r.mem_reads, r.l2_recalls
            );
        }
    }
    Ok(())
}
