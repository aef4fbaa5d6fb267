//! Figure 6 reproduction: normalised execution time (top) and link ED²P
//! (bottom) for the compression + VL-Wire configurations, relative to the
//! 75-byte B-Wire baseline. Perfect-compression bounds reproduce the
//! paper's solid lines.
//!
//! With `--out DIR` the sweep journals every finished cell; a killed run
//! restarted with `--resume DIR` skips them and produces the identical
//! figure. Failed cells render as `n/a` instead of taking the whole
//! figure down. With `--submit SOCKET` the sweep runs on a `tcmp-serve`
//! daemon instead (which journals and renders the same CSVs itself).

fn main() {
    std::process::exit(cmp_bench::matrix::run_figure(
        &cmp_bench::Options::parse(),
        tcmp_serve::proto::Figure::Fig6,
        "paper landmarks: 4-entry DBRC (2B LO) averages ~0.92 execution time\n\
         (potential ~0.90), ranging from ~0.98-0.99 on Water/LU to ~0.75-0.78\n\
         on MP3D/Unstructured; link ED2P averages ~0.70, down to ~0.35 on the\n\
         communication-bound applications.\n",
    ));
}
