//! Memory-footprint gates, one per test, each run in a process of its
//! own:
//!
//! * a 32×32 sparse-directory proposal machine — the largest the
//!   sensitivity sweep builds — must fit its resident-set budget right
//!   after construction, before the first cycle, where the directory is
//!   still empty;
//! * the benchmark's mesh proposal cell (16×16 sparse, FFT) run to
//!   completion must fit its budget with the directory, caches and codec
//!   state it ends with.
//!
//! Ignored by default: peak RSS is a property of the whole process, so
//! each test must run alone, in release, with one malloc arena as the
//! repo benchmark runs (under libtest's per-thread arena the same
//! machine reads about half the peak):
//!
//! ```text
//! MALLOC_ARENA_MAX=1 cargo test --release -p tcmp-core --test footprint -- --ignored --exact NAME
//! ```
//!
//! `scripts/check.sh` runs each test that way.

use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::geometry::MeshShape;
use tcmp_core::{CmpSimulator, CompressionScheme, InterconnectChoice, SimConfig, VlWidth};

/// Budget for `VmHWM` after building the machine (≈ 116 MB measured).
/// The codec lane tables are 2 × 1024 × 1024 lanes of 36 bytes — four
/// `u64` bases and four one-byte LRU ages — (≈ 75 MB) of it; `u64`
/// clock stamps put the machine at ≈ 244 MB, and one boxed codec per
/// lane at ≈ 550 MB.
const BUDGET_MB: f64 = 160.0;

/// Budget for `VmHWM` after running the 16×16 sparse proposal cell to
/// completion: ≈ 24.5 MB measured, plus about 10 %. With one `AddrMap`
/// record of 32 bytes and a heap list per shared line, the directory put
/// the same run at ≈ 27.2 MB.
const RUN_BUDGET_MB: f64 = 27.0;

/// The seed both gates build their FFT traces from.
const SEED: u64 = 1025041;

/// Peak resident set size of this process in MB, from
/// `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line in /proc/self/status");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kb / 1024.0
}

/// The paper's proposal machine on a `side` × `side` sparse-directory
/// mesh: 5-byte VL-Wires and a 4-entry DBRC keeping 2 low-order bytes.
fn sparse_proposal(side: u16) -> SimConfig {
    let mut cfg = SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
        CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        },
    );
    cfg.cmp = CmpConfig {
        mesh: MeshShape::square(side),
        directory: DirectoryConfig::sparse(),
        ..CmpConfig::default()
    };
    cfg
}

fn assert_within(what: &str, peak: f64, budget: f64) {
    eprintln!("{what}: VmHWM {peak:.1} MB (budget {budget} MB)");
    assert!(
        peak <= budget,
        "{what} peaks at {peak:.1} MB, over its {budget} MB budget"
    );
}

#[test]
#[ignore = "measures whole-process peak RSS: run alone, in release, with --ignored"]
fn a_32x32_sparse_proposal_machine_fits_its_rss_budget() {
    let sim = CmpSimulator::new(sparse_proposal(32), &workloads::apps::fft(), SEED, 0.002);
    let peak = peak_rss_mb();
    drop(sim);
    assert_within("32x32 sparse proposal machine", peak, BUDGET_MB);
}

#[test]
#[ignore = "measures whole-process peak RSS: run alone, in release, with --ignored"]
fn a_16x16_sparse_proposal_run_fits_its_rss_budget() {
    let mut sim = CmpSimulator::new(sparse_proposal(16), &workloads::apps::fft(), SEED, 0.002);
    sim.run().expect("the 16x16 sparse proposal cell completes");
    let peak = peak_rss_mb();
    drop(sim);
    assert_within("16x16 sparse proposal run", peak, RUN_BUDGET_MB);
}
