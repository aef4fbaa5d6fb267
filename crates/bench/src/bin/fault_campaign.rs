//! Seeded fault campaigns across the Figure-6 application matrix.
//!
//! For every selected application the driver runs, on the paper's
//! proposal configuration (16-entry DBRC over the 4-byte VL channel):
//!
//! * a **desync** campaign — codec-metadata corruption, the recoverable
//!   class: the NI must detect every divergence via its tag, fall back
//!   to uncompressed B-Wire transmission and resynchronise;
//! * a **drop** campaign — one lost coherence message: the run must end
//!   in a structured deadlock report naming the stuck tile and queue,
//!   never a hang;
//! * a **corrupt** campaign — one bit-flipped address: the receiving
//!   controller must reject the impossible message as a protocol error;
//! * a **sanitizer** campaign — live metadata corruption of each MESI
//!   invariant class, caught by the periodic sweep.
//!
//! Every run executes under `catch_unwind`, so the final summary proves
//! the "zero panics" property of the robustness layer directly.
//!
//! `--fs-faults` adds a fifth campaign sweeping the *filesystem* fault
//! seam ([`cmp_common::fsx`]): for every application, each injectable
//! I/O fault class — torn write, ENOSPC, short read, bit flip on read,
//! rename-then-crash — is armed at certainty against a checkpoint
//! spill + warm-load round trip through a [`tcmp_core::DiskStore`].
//! The pass criterion mirrors the durability contract: every cell ends
//! as a verified bit-identical warm start or a structured fallback
//! (spill error / quarantine / miss → fresh simulation) — `CORRUPT`
//! (a hit whose state differs from what was stored) and `PANIC` are
//! the only failing outcomes.
//!
//! `--smoke` shrinks the matrix to two applications at tiny scale for CI.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use addr_compression::CompressionScheme;
use cmp_common::config::DirectoryConfig;
use cmp_common::fault::FaultConfig;
use coherence::sanitizer::Invariant;
use coherence::sanitizer::SanitizerConfig;
use tcmp_core::report::TableBuilder;
use tcmp_core::sim::{CmpSimulator, SimConfig, SimError, SimResult};
use tcmp_core::supervisor::{reseed, with_retries};
use tcmp_core::InterconnectChoice;
use wire_model::wires::VlWidth;
use workloads::profile::AppProfile;

#[derive(Clone, Debug)]
struct Args {
    scale: f64,
    seed: u64,
    apps: Vec<String>,
    smoke: bool,
    verbose: bool,
    /// Worker threads for per-app campaigns (default 1 = sequential).
    jobs: usize,
    /// Extra attempts for the recoverable (desync) campaign; each retry
    /// reseeds the fault-injector stream so a pathological fault timing
    /// is not replayed verbatim. The trace seed never changes.
    retries: u32,
    /// Directory organisation for the desync/drop/corrupt campaigns
    /// (the sanitizer campaign always sweeps both organisations).
    directory: DirectoryConfig,
    /// Also sweep the filesystem fault seam against the checkpoint
    /// disk store (one table row per app, one column per fault class).
    fs_faults: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        scale: 0.01,
        seed: 0xFA_017,
        apps: Vec::new(),
        smoke: false,
        verbose: false,
        jobs: 1,
        retries: 0,
        directory: DirectoryConfig::FullMap,
        fs_faults: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                a.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage)
            }
            "--seed" => {
                a.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage)
            }
            "--app" => a.apps.push(args.next().unwrap_or_else(usage)),
            "--smoke" => a.smoke = true,
            "--fs-faults" => a.fs_faults = true,
            "--verbose" => a.verbose = true,
            "--jobs" => {
                a.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage);
                if a.jobs == 0 {
                    eprintln!("--jobs must be >= 1");
                    usage()
                }
            }
            "--retries" => {
                a.retries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage)
            }
            "--directory" => {
                let spelling = args.next().unwrap_or_else(usage);
                a.directory = DirectoryConfig::parse_flag(&spelling).unwrap_or_else(|e| {
                    eprintln!("--directory: {e}");
                    usage()
                })
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    a
}

fn usage<T>() -> T {
    eprintln!(
        "usage: fault_campaign [--scale F] [--seed N] [--app NAME]... [--smoke] [--fs-faults] \
         [--verbose] [--jobs N] [--retries N] [--directory full-map|sparse[:N]]"
    );
    std::process::exit(2)
}

/// The proposal configuration every campaign runs on, over the given
/// directory organisation.
fn proposal_cfg(directory: DirectoryConfig) -> SimConfig {
    let mut cfg = SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
        CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 1,
        },
    );
    cfg.cmp.directory = directory;
    cfg
}

/// What one campaign run ended as.
enum Outcome {
    /// Ran to completion (faults absorbed or recovered).
    Completed(Box<SimResult>),
    /// Aborted with a structured error (the desired failure mode for
    /// unrecoverable faults).
    Structured(SimError),
    /// The process panicked — the robustness layer failed.
    Panicked,
}

fn run_guarded(cfg: SimConfig, app: &AppProfile, seed: u64, scale: f64) -> Outcome {
    let out = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = CmpSimulator::new(cfg, app, seed, scale);
        sim.run()
    }));
    match out {
        Ok(Ok(r)) => Outcome::Completed(Box::new(r)),
        Ok(Err(e)) => Outcome::Structured(e),
        Err(_) => Outcome::Panicked,
    }
}

/// Step a clean run, corrupt live metadata of `class` once warm, and let
/// the sanitizer catch it.
fn run_sanitizer_campaign(
    cfg: SimConfig,
    app: &AppProfile,
    seed: u64,
    scale: f64,
    class: Invariant,
) -> Outcome {
    let out = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = CmpSimulator::new(cfg, app, seed, scale);
        let mut injected = false;
        loop {
            match sim.step() {
                Ok(true) => {}
                Ok(false) => return Ok(Box::new(sim.finish())),
                Err(e) => return Err(e),
            }
            if !injected {
                injected = sim.fault_inject_violation(class).is_some();
            }
        }
    }));
    match out {
        Ok(Ok(r)) => Outcome::Completed(r),
        Ok(Err(e)) => Outcome::Structured(e),
        Err(_) => Outcome::Panicked,
    }
}

/// The four invariant classes the sanitizer campaign corrupts.
const INVARIANTS: [Invariant; 4] = [
    Invariant::SingleOwner,
    Invariant::SharerAgreement,
    Invariant::MshrConsistency,
    Invariant::DirectoryInclusion,
];

/// Every campaign for one application; returns the table-row cells
/// (after the app name) and the per-app tally.
fn run_app_campaigns(app: &AppProfile, args: &Args, scale: f64) -> (Vec<String>, Tally) {
    let mut t = Tally::default();

    // 1. Desync: recoverable; the run must complete. Under --retries a
    // failed attempt re-runs with a *reseeded fault stream* (the trace
    // seed is untouched) before being counted as an anomaly.
    let desync_run = with_retries(args.retries, Duration::from_millis(50), |attempt| {
        let mut cfg = proposal_cfg(args.directory);
        cfg.faults = FaultConfig::desync_only(reseed(args.seed, attempt), 0.01, 25);
        match run_guarded(cfg, app, args.seed, scale) {
            Outcome::Completed(r) => Ok(r),
            other => Err(other),
        }
    });
    let desync_cell = match desync_run
        .map(Outcome::Completed)
        .unwrap_or_else(|(_, o)| o)
    {
        Outcome::Completed(r) => {
            t.desyncs_injected = r.fault_stats.desyncs.get();
            t.desyncs_detected = r.resync.desyncs_detected;
            t.resyncs_completed = r.resync.resyncs_completed;
            t.fallback_msgs = r.resync.fallback_msgs;
            if t.resyncs_completed != t.desyncs_detected {
                t.anomalies += 1;
            }
            format!(
                "{}/{}/{}",
                t.desyncs_injected, t.desyncs_detected, t.resyncs_completed
            )
        }
        Outcome::Structured(e) => {
            t.anomalies += 1;
            if args.verbose {
                eprintln!("[{}] desync campaign aborted:\n{e}", app.name);
            }
            "ABORTED".to_string()
        }
        Outcome::Panicked => {
            t.panics += 1;
            "PANIC".to_string()
        }
    };

    // 2. Drop: one lost message; a structured deadlock is the pass.
    let mut cfg = proposal_cfg(args.directory);
    cfg.faults = FaultConfig {
        seed: args.seed,
        drop: 1.0,
        max_faults: Some(1),
        ..FaultConfig::none()
    };
    // A wedged protocol never drains; bound the hang so the campaign
    // terminates in bounded time even if deadlock detection regressed.
    cfg.max_cycles = 30_000_000;
    let drop_cell = match run_guarded(cfg, app, args.seed, scale) {
        Outcome::Completed(_) => {
            t.benign += 1;
            "benign".to_string()
        }
        Outcome::Structured(e @ SimError::Deadlock { .. }) => {
            t.structured_fatal += 1;
            if args.verbose {
                eprintln!("[{}] drop campaign deadlock:\n{e}", app.name);
            }
            "deadlock(dump)".to_string()
        }
        Outcome::Structured(_) => {
            t.anomalies += 1;
            "unexpected".to_string()
        }
        Outcome::Panicked => {
            t.panics += 1;
            "PANIC".to_string()
        }
    };

    // 3. Corrupt: one flipped address bit; the wrong-home/controller
    // check must reject it as a protocol error.
    let mut cfg = proposal_cfg(args.directory);
    cfg.faults = FaultConfig {
        seed: args.seed,
        corrupt: 1.0,
        max_faults: Some(1),
        ..FaultConfig::none()
    };
    cfg.max_cycles = 30_000_000;
    let corrupt_cell = match run_guarded(cfg, app, args.seed, scale) {
        Outcome::Completed(_) => {
            t.benign += 1;
            "benign".to_string()
        }
        Outcome::Structured(SimError::Protocol { error, .. }) => {
            t.structured_fatal += 1;
            if args.verbose {
                eprintln!("[{}] corrupt campaign rejected: {error}", app.name);
            }
            "rejected".to_string()
        }
        Outcome::Structured(SimError::Deadlock { .. }) => {
            // a corrupted reply can also wedge the requester
            t.structured_fatal += 1;
            "deadlock(dump)".to_string()
        }
        Outcome::Structured(_) => {
            t.anomalies += 1;
            "unexpected".to_string()
        }
        Outcome::Panicked => {
            t.panics += 1;
            "PANIC".to_string()
        }
    };

    // 4. Sanitizer: one live-metadata corruption per invariant class,
    // asserted against BOTH directory organisations — the sparse tagged
    // store must be exactly as sanitizer-visible as the full presence
    // map, whatever --directory selected for the other campaigns.
    let dirs = [DirectoryConfig::FullMap, DirectoryConfig::sparse()];
    let mut caught = 0usize;
    for &directory in &dirs {
        for &class in &INVARIANTS {
            let mut cfg = proposal_cfg(directory);
            cfg.sanitizer = Some(SanitizerConfig { period: 256 });
            match run_sanitizer_campaign(cfg, app, args.seed, scale, class) {
                Outcome::Structured(SimError::Sanitizer { violations, .. })
                    if violations.iter().any(|v| v.invariant == class) =>
                {
                    caught += 1;
                    t.sanitizer_caught += 1;
                }
                Outcome::Panicked => t.panics += 1,
                _ => t.anomalies += 1,
            }
        }
    }
    let sanitizer_cell = format!("{caught}/{} caught", dirs.len() * INVARIANTS.len());

    (
        vec![
            desync_cell,
            drop_cell,
            corrupt_cell,
            sanitizer_cell,
            t.panics.to_string(),
        ],
        t,
    )
}

/// The fs-fault sweep's injectable classes: `(column, TCMP_FS_FAULTS
/// spec armed at certainty with a one-fault budget, whether the fault
/// lands on the spill instead of the load)`.
const FS_CLASSES: [(&str, &str, bool); 5] = [
    ("torn", "torn=1,max=1", true),
    ("enospc", "enospc=1,max=1", true),
    ("rename", "rename=1,max=1", true),
    ("short", "short=1,max=1", false),
    ("flip", "flip=1,max=1", false),
];

/// Simulated cycles of prefix spilled/reloaded by the fs-fault sweep —
/// enough for real machine state, cheap enough to run per app × class.
const FS_WARM: u64 = 10_000;

/// One application's sweep over every fs fault class: spill a warm
/// checkpoint and load it back through an armed
/// [`cmp_common::fsx::Fs`], classifying each cell. Returns the row
/// cells plus (anomalies, panics).
fn run_fs_fault_campaigns(app: &AppProfile, args: &Args, scale: f64) -> (Vec<String>, u64, u64) {
    use cmp_common::fsx::{Fs, FsFaultConfig};
    use tcmp_core::checkpoint::{DiskConfig, DiskLoad, DiskStore};
    use tcmp_core::supervisor::warm_key;

    let mut anomalies = 0u64;
    let mut panics = 0u64;
    let mut cells = Vec::new();
    for (column, spec, fault_on_spill) in FS_CLASSES {
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<&'static str, String> {
            let cfg = proposal_cfg(args.directory);
            let key = warm_key(&cfg, app, args.seed, scale, FS_WARM);
            let mut sim = CmpSimulator::new(cfg, app, args.seed, scale);
            while sim.cycle() < FS_WARM {
                match sim.step() {
                    Ok(true) => {}
                    Ok(false) => return Err("trace ended before the warm point".into()),
                    Err(e) => return Err(format!("prefix aborted: {e}")),
                }
            }
            let good = sim.snapshot();

            let root = std::env::temp_dir().join(format!(
                "tcmp-fsx-{}-{column}-{}",
                app.name.to_lowercase().replace('-', ""),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let fs = Fs::faulty(
                FsFaultConfig::parse(&format!("seed={},{spec}", args.seed)).expect("static spec"),
            );
            let store = DiskStore::open(fs, &root, DiskConfig::default())
                .map_err(|e| format!("store open: {e}"))?;
            store.store(&key, &good);

            // Load it back the way a restarted daemon (empty memory
            // tier) would.
            let mut loaded = good.clone();
            let verdict: Result<&'static str, String> = match store.load_into(&key, &mut loaded) {
                DiskLoad::Hit if loaded.save_bytes() == good.save_bytes() => Ok("warm-ok"),
                DiskLoad::Hit => Err("CORRUPT: verified hit differs from stored state".into()),
                DiskLoad::Quarantined => Ok("quarantined"),
                DiskLoad::Miss => Ok("fresh-sim"),
            };
            let counters = store.counters();
            let _ = std::fs::remove_dir_all(&root);
            let label = verdict?;
            // Cross-check the classification against the counters: a
            // faulted spill must be a counted store error, a faulted
            // read a counted quarantine — silence is the failure mode
            // this sweep exists to rule out.
            match label {
                "fresh-sim" if counters.store_errors == 0 => {
                    Err("miss without a counted spill error".into())
                }
                "quarantined" if counters.quarantined == 0 => {
                    Err("quarantine outcome without a counted quarantine".into())
                }
                "warm-ok" if fault_on_spill && counters.store_errors == 0 => {
                    // rename-then-crash: the error is reported but the
                    // complete file landed — store_errors must still
                    // count the reported failure.
                    Err("spill fault vanished from the counters".into())
                }
                _ => Ok(label),
            }
        }));
        cells.push(match outcome {
            Ok(Ok(label)) => label.to_string(),
            Ok(Err(why)) => {
                anomalies += 1;
                if args.verbose {
                    eprintln!("[{}] fs-fault {column}: {why}", app.name);
                }
                "ANOMALY".to_string()
            }
            Err(_) => {
                panics += 1;
                "PANIC".to_string()
            }
        });
    }
    (cells, anomalies, panics)
}

#[derive(Default)]
struct Tally {
    desyncs_injected: u64,
    desyncs_detected: u64,
    resyncs_completed: u64,
    fallback_msgs: u64,
    structured_fatal: u64,
    benign: u64,
    sanitizer_caught: u64,
    anomalies: u64,
    panics: u64,
}

fn main() {
    let args = parse_args();
    let apps: Vec<AppProfile> = if !args.apps.is_empty() {
        args.apps
            .iter()
            .map(|n| workloads::apps::app_by_name(n).unwrap_or_else(usage))
            .collect()
    } else if args.smoke {
        vec![workloads::apps::fft(), workloads::apps::mp3d()]
    } else {
        workloads::apps::all_apps()
    };
    let scale = if args.smoke {
        args.scale.min(0.005)
    } else {
        args.scale
    };
    let mut table = TableBuilder::new(
        format!(
            "Fault campaigns — proposal configuration (16-entry DBRC, 4B VL, {} directory)",
            args.directory.label()
        ),
        &[
            "application",
            "desync inj/det/rec",
            "drop",
            "corrupt",
            "sanitizer",
            "panics",
        ],
    );
    let mut total = Tally::default();

    // Run the per-app campaigns, sequentially or on a small worker pool;
    // results land in per-app slots so the table order is stable either way.
    type AppRow = Option<(Vec<String>, Tally)>;
    let rows: Vec<AppRow> = if args.jobs <= 1 {
        apps.iter()
            .map(|app| Some(run_app_campaigns(app, &args, scale)))
            .collect()
    } else {
        let slots: Mutex<Vec<AppRow>> = Mutex::new(apps.iter().map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let workers = args.jobs.min(apps.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= apps.len() {
                        break;
                    }
                    let row = run_app_campaigns(&apps[i], &args, scale);
                    slots
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())[i] = Some(row);
                });
            }
        });
        slots.into_inner().unwrap_or_else(|p| p.into_inner())
    };

    for (app, row) in apps.iter().zip(rows) {
        let (cells, t) = row.unwrap_or_else(|| {
            // a worker died before filling its slot — count it as a panic
            (
                vec![
                    "LOST".into(),
                    "LOST".into(),
                    "LOST".into(),
                    "LOST".into(),
                    "1".into(),
                ],
                Tally {
                    panics: 1,
                    ..Tally::default()
                },
            )
        });
        let mut full_row = vec![app.name.to_string()];
        full_row.extend(cells);
        table.row(full_row);

        total.desyncs_injected += t.desyncs_injected;
        total.desyncs_detected += t.desyncs_detected;
        total.resyncs_completed += t.resyncs_completed;
        total.fallback_msgs += t.fallback_msgs;
        total.structured_fatal += t.structured_fatal;
        total.benign += t.benign;
        total.sanitizer_caught += t.sanitizer_caught;
        total.anomalies += t.anomalies;
        total.panics += t.panics;
    }

    println!("{}", table.to_markdown());

    if args.fs_faults {
        let mut fs_table = TableBuilder::new(
            "Filesystem fault sweep — checkpoint spill + warm load per injected class",
            &["application", "torn", "enospc", "rename", "short", "flip"],
        );
        for app in &apps {
            let (cells, anomalies, panics) = run_fs_fault_campaigns(app, &args, scale);
            let mut row = vec![app.name.to_string()];
            row.extend(cells);
            fs_table.row(row);
            total.anomalies += anomalies;
            total.panics += panics;
        }
        println!("{}", fs_table.to_markdown());
    }

    println!(
        "totals: {} desyncs injected, {} detected, {} recovered, {} fallback messages",
        total.desyncs_injected,
        total.desyncs_detected,
        total.resyncs_completed,
        total.fallback_msgs
    );
    println!(
        "        {} structured fatal outcomes, {} benign, {} sanitizer catches, \
         {} anomalies, {} panics",
        total.structured_fatal, total.benign, total.sanitizer_caught, total.anomalies, total.panics
    );
    if total.panics > 0 || total.anomalies > 0 {
        eprintln!("FAIL: fault campaign saw panics or anomalous outcomes");
        std::process::exit(1);
    }
    println!("PASS: every fault detected, recovered or rejected with a structured report");
}
