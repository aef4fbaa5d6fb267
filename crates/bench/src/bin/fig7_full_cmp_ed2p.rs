//! Figure 7 reproduction: normalised full-CMP ED²P, including the energy
//! overhead of the compression hardware itself (which is why growing DBRC
//! caches eventually hurt: the extra coverage no longer buys enough
//! execution time).
//!
//! With `--out DIR` the sweep journals every finished cell; a killed run
//! restarted with `--resume DIR` skips them and produces the identical
//! figure. Failed cells render as `n/a` instead of taking the whole
//! figure down. With `--submit SOCKET` the sweep runs on a `tcmp-serve`
//! daemon instead (which journals and renders the same CSVs itself).

fn main() {
    std::process::exit(cmp_bench::matrix::run_figure(
        &cmp_bench::Options::parse(),
        tcmp_serve::proto::Figure::Fig7,
        "paper landmarks: average full-CMP ED2P improves 21% (2-byte Stride)\n\
         to 26% (4-entry DBRC); larger DBRC caches do WORSE at chip level\n\
         because their area/power overhead outgrows the execution-time gain.\n",
    ));
}
