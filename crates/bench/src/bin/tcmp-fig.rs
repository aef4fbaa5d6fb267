//! Every table and figure of the paper, plus the ablation, the
//! mesh-size sensitivity study and the fault campaigns, from one binary:
//!
//! ```text
//! tcmp-fig fig2|fig5|fig6|fig7|ablation|sensitivity|faults|table1|table2|table3|all [flags]
//! ```
//!
//! A simulated figure is a campaign: `--out DIR` journals every
//! finished cell and a killed run restarted with `--resume DIR` skips
//! them and produces the identical figure; failed cells render as
//! `n/a` (or, in the fault campaigns, as the error each cell ended in)
//! instead of taking the whole figure down; `--submit SOCKET`
//! runs the sweep on a `tcmp-serve` daemon instead (which journals and
//! renders the same CSVs itself). Tables 1–3 are analytic. `all --out
//! DIR` writes every table and figure into `DIR/<name>/`.

fn main() {
    let (command, opts) = cmp_bench::cli::parse_command();
    std::process::exit(cmp_bench::matrix::run(command, &opts));
}
