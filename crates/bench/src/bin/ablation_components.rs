//! Ablation (beyond the paper): where does the win come from?
//!
//! * `hetero only` — VL-Wires without compression: only 3-byte coherence
//!   replies fit the fast channel, and data replies pay the narrower
//!   (34-byte) B channel.
//! * `compression only` — DBRC over plain 75-byte links: smaller messages
//!   save wire energy but nothing travels faster.
//! * `both` — the paper's proposal.
//! * `both (multicast cmds)` — the proposal with the coherence-command
//!   stream switched to the multicast codec: one shared sender bank for
//!   all destinations, so an invalidation fan-out pays at most one cold
//!   miss (same storage as the per-destination DBRC it replaces).
//! * `reply partitioning` — the comparison point from the group's prior
//!   work \[9\]: 11-byte L-Wires + 64-byte PW-Wires with split data replies.
//! * `both (perfect)` — the coverage upper bound.

use addr_compression::CompressionScheme;
use tcmp_core::experiment::{geomean, run_matrix, ConfigSpec, RunSpec};
use tcmp_core::niface::InterconnectChoice;
use tcmp_core::report::{fmt_ratio, TableBuilder};
use wire_model::wires::VlWidth;

fn main() {
    let opts = cmp_bench::Options::parse();
    let dbrc = CompressionScheme::Dbrc {
        entries: 4,
        low_bytes: 2,
    };
    let configs = vec![
        ConfigSpec::baseline(),
        ConfigSpec {
            label: "hetero only".into(),
            interconnect: InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            scheme: CompressionScheme::None,
        },
        ConfigSpec {
            label: "compression only".into(),
            interconnect: InterconnectChoice::Baseline,
            scheme: dbrc,
        },
        ConfigSpec {
            label: "both (proposal)".into(),
            interconnect: InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            scheme: dbrc,
        },
        ConfigSpec {
            label: "both (multicast cmds)".into(),
            interconnect: InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            scheme: CompressionScheme::Multicast {
                entries: 4,
                low_bytes: 2,
            },
        },
        ConfigSpec {
            label: "reply partitioning".into(),
            interconnect: InterconnectChoice::ReplyPartitioning,
            scheme: CompressionScheme::None,
        },
        ConfigSpec {
            label: "both (perfect)".into(),
            interconnect: InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            scheme: CompressionScheme::Perfect { low_bytes: 2 },
        },
    ];

    let cmp = opts
        .machine(None)
        .expect("every --directory the parser accepts fits the default 4x4 mesh");
    let apps = opts.selected_apps();
    let mut specs = Vec::new();
    for app in &apps {
        for config in &configs {
            specs.push(RunSpec {
                app: app.clone(),
                config: config.clone(),
                seed: opts.seed,
                scale: opts.scale,
            });
        }
    }
    eprintln!("running {} simulations...", specs.len());
    let results = run_matrix(&cmp, &specs).unwrap_or_else(|e| {
        eprintln!("matrix failed: {e}");
        std::process::exit(1);
    });

    let labels: Vec<&str> = configs[1..].iter().map(|c| c.label.as_str()).collect();
    let headers: Vec<String> = std::iter::once("application".into())
        .chain(
            labels
                .iter()
                .flat_map(|l| [format!("{l} (time)"), format!("{l} (link ED2P)")]),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = TableBuilder::new("Ablation — component contributions", &header_refs);

    // results arrive in input order: app-major, config-minor
    let per_app = configs.len();
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); labels.len() * 2];
    for (ai, app) in apps.iter().enumerate() {
        let block = &results[ai * per_app..(ai + 1) * per_app];
        let base = &block[0];
        let mut row = vec![app.name.to_string()];
        for (li, r) in block[1..].iter().enumerate() {
            let time = r.cycles as f64 / base.cycles as f64;
            let ed2p = r.link_ed2p() / base.link_ed2p();
            acc[2 * li].push(time);
            acc[2 * li + 1].push(ed2p);
            row.push(fmt_ratio(time));
            row.push(fmt_ratio(ed2p));
        }
        t.row(row);
    }
    let mut avg = vec!["geomean".to_string()];
    for c in &acc {
        avg.push(fmt_ratio(geomean(c.iter().copied())));
    }
    t.row(avg);
    println!("{}", t.to_markdown());
    if let Some(path) = &opts.csv {
        t.write_csv(path).expect("write csv");
        eprintln!("wrote {path}");
    }
}
