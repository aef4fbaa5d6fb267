//! Memory-footprint gate: a 32×32 sparse-directory proposal machine —
//! the largest the sensitivity sweep builds — must fit its resident-set
//! budget right after construction, before the first cycle.
//!
//! Ignored by default: peak RSS is a property of the whole process, so
//! the test must run alone, in its own test binary, in release, with one
//! malloc arena as the repo benchmark runs (under libtest's per-thread
//! arena the same machine reads about half the peak):
//!
//! ```text
//! MALLOC_ARENA_MAX=1 cargo test --release -p tcmp-core --test footprint -- --ignored
//! ```
//!
//! `scripts/check.sh` runs it that way.

use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::geometry::MeshShape;
use tcmp_core::{CmpSimulator, CompressionScheme, InterconnectChoice, SimConfig, VlWidth};

/// Budget for `VmHWM` after building the machine (≈ 116 MB measured).
/// The codec lane tables are 2 × 1024 × 1024 lanes of 36 bytes — four
/// `u64` bases and four one-byte LRU ages — (≈ 75 MB) of it; `u64`
/// clock stamps put the machine at ≈ 244 MB, and one boxed codec per
/// lane at ≈ 550 MB.
const BUDGET_MB: f64 = 160.0;

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

#[test]
#[ignore = "measures whole-process peak RSS: run alone, in release, with --ignored"]
fn a_32x32_sparse_proposal_machine_fits_its_rss_budget() {
    let mut cfg = SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
        CompressionScheme::Dbrc {
            entries: 4,
            low_bytes: 2,
        },
    );
    cfg.cmp = CmpConfig {
        mesh: MeshShape::square(32),
        directory: DirectoryConfig::sparse(),
        ..CmpConfig::default()
    };
    let sim = CmpSimulator::new(cfg, &workloads::apps::fft(), 1025041, 0.002);
    let peak = peak_rss_mb();
    drop(sim);
    eprintln!("32x32 sparse proposal machine: VmHWM {peak:.1} MB (budget {BUDGET_MB} MB)");
    assert!(
        peak <= BUDGET_MB,
        "32x32 sparse proposal machine peaks at {peak:.1} MB, over its {BUDGET_MB} MB budget"
    );
}
