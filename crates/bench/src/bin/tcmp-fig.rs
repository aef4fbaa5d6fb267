//! Every table and figure of the paper, plus the ablation, the
//! mesh-size sensitivity study and the fault campaigns, from one binary:
//!
//! ```text
//! tcmp-fig fig2|fig5|fig6|fig7|ablation|sensitivity|faults|table1|table2|table3|all [flags]
//! ```
//!
//! A simulated figure is a campaign, run by a campaign service: one
//! started in-process, or with `--submit SOCKET` a `tcmp-serve` daemon.
//! `--out DIR` makes DIR the service's state root and journals every
//! finished cell under `DIR/campaigns/c0001/`; a killed run restarted
//! with `--resume DIR` skips them and produces the identical figure.
//! Failed cells render as `n/a` (or, in the fault campaigns, as the
//! error each cell ended in) instead of taking the whole figure down.
//! Tables 1–3 are analytic. `all` runs every figure as one campaign,
//! each distinct simulation once, and writes each figure into
//! `<campaign>/<name>/` — with `--out` the tables too.

fn main() {
    let (command, opts) = cmp_bench::cli::parse_command();
    std::process::exit(cmp_bench::matrix::run(command, &opts));
}
