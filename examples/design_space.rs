//! Design-space exploration: sweep the compression schemes and VL-Wire
//! widths on one application and print the normalised metrics — the
//! workflow an architect would use to size the compression cache.
//!
//! ```text
//! cargo run --release --example design_space [APP]
//! ```

use tiled_cmp::prelude::*;

fn main() {
    let app_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Ocean-cont".into());
    let app = tiled_cmp::workloads::apps::app_by_name(&app_name)
        .unwrap_or_else(|| panic!("unknown application {app_name}"));
    let cmp = CmpConfig::default();
    let scale = 0.05;

    // baseline + every paper configuration + perfect bounds
    let specs: Vec<RunSpec> = paper_configs(true)
        .into_iter()
        .map(|config| RunSpec {
            app: app.clone(),
            config,
            seed: 7,
            scale,
        })
        .collect();

    eprintln!("running {} configurations of {} ...", specs.len(), app.name);
    let results = run_matrix_jobs(&cmp, &specs, None).expect("design-space matrix runs cleanly");
    let rows = normalize(&results).expect("baseline run present in the matrix");

    println!(
        "\n{:<24} {:>10} {:>11} {:>11} {:>10}",
        "configuration", "exec time", "link ED2P", "chip ED2P", "coverage"
    );
    for row in rows {
        println!(
            "{:<24} {:>10.3} {:>11.3} {:>11.3} {:>9.1}%",
            row.config,
            row.exec_time,
            row.link_ed2p,
            row.chip_ed2p,
            row.coverage * 100.0
        );
    }
    println!("\n(all values normalised to the 75-byte B-Wire baseline; < 1 is better)");
}
