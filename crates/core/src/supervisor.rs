//! Supervised, crash-resumable execution of experiment campaigns.
//!
//! A figure matrix is hours of compute; this module makes one cell
//! misbehaving (livelock, runaway, simulator bug) or the whole process
//! dying (OOM kill, pre-emption, ctrl-C) cost a cell, not the campaign:
//!
//! * [`RunPolicy`] bounds each cell — a cycle budget, a wall-clock
//!   deadline, bounded retry-with-backoff.
//! * [`run_supervised`] runs one cell under a policy.
//! * [`SweepState`] is the run state of one sweep — the durable
//!   [`Journal`] it records into (when it has one) and one outcome slot
//!   per cell — and the only place a cell is run: journaled, retried,
//!   panic-isolated. Re-opening it over the same journal skips finished
//!   cells, so a `SIGKILL`ed campaign resumes bit-identically (rows come
//!   back through the lossless [`result_to_json`]/[`result_from_json`]
//!   codec). The campaign service drives it from its long-lived queue.
//! * [`run_cells`] drives a [`SweepState`] from a scoped worker pool
//!   over one spec list, each cell on its own [`CellMachine`], for the
//!   library's matrix runners ([`run_matrix_supervised`] is this with
//!   one machine for every cell, and
//!   [`crate::experiment::run_matrix_jobs`] that with the default
//!   policy and no journal); figure campaigns run on the campaign
//!   service's pool instead. A [`CellMachine`] may carry a
//!   [`CellFault`], which is how a fault campaign is one more sweep.
//!   [`simulation_key`] names what a cell simulates, so cells of
//!   several figures that run the same simulation run it once;
//!   [`reuse_key`] names what it puts in its row, so the campaign
//!   service answers a cell from another cell's finished row
//!   ([`SweepState::adopt`]).
//! * Every cell retries on the same ladder: attempt 0 keeps the
//!   original seed so deterministic results stay deterministic, later
//!   attempts perturb only the *fault* seed, never the workload trace.

use std::borrow::{Borrow, BorrowMut};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use addr_compression::CompressionScheme;
use cmp_common::config::CmpConfig;
use cmp_common::fault::FaultConfig;
use cmp_common::journal::{fingerprint, CampaignMeta, Journal, Json};
use cmp_common::types::Cycle;
use coherence::sanitizer::{Invariant, SanitizerConfig};
use workloads::profile::AppProfile;

use crate::checkpoint::{CacheLoad, DiskStore, WarmKey};
use crate::engine::{CmpSimulator, MachineSnapshot, SimConfig, SimError, SimResult};
use crate::experiment::RunSpec;

/// How often the supervisor polls the wall clock, in scheduler
/// iterations. `Instant::now` is tens of nanoseconds; at this cadence
/// the overhead is unmeasurable.
const SUPERVISE_EVERY_ITERS: u64 = 2048;

/// Per-cell resource limits and failure handling for supervised runs.
#[derive(Clone, Debug)]
pub struct RunPolicy {
    /// Cap the cell at this many simulated cycles (tightens the
    /// config's own `max_cycles`; `None` keeps the config's cap).
    pub cycle_budget: Option<Cycle>,
    /// Abort the cell with [`SimError::WallDeadline`] once this much
    /// real time has elapsed (`None` = no deadline).
    pub wall_deadline: Option<Duration>,
    /// Re-run a failed cell up to this many extra times.
    pub retries: u32,
    /// Sleep before the first retry; doubles on each further retry.
    pub backoff: Duration,
    /// Stop claiming new cells after this many have been attempted —
    /// the in-process analogue of killing the campaign mid-flight,
    /// used by the resume tests (`None` = run everything).
    pub cell_limit: Option<usize>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            cycle_budget: None,
            wall_deadline: None,
            retries: 0,
            backoff: Duration::from_millis(100),
            cell_limit: None,
        }
    }
}

/// Run one cell under `policy`: step the simulator with periodic
/// wall-clock checks.
pub fn run_supervised(
    cfg: SimConfig,
    app: &AppProfile,
    seed: u64,
    scale: f64,
    policy: &RunPolicy,
) -> Result<SimResult, SimError> {
    run_supervised_cached(cfg, app, seed, scale, policy, None).map(|(result, _)| result)
}

/// How one supervised run crossed (or didn't) its warm-start point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmStart {
    /// No checkpoint store was offered.
    Disabled,
    /// Store miss: the prefix was simulated fresh and stored for later
    /// sharers of the same configuration.
    Stored,
    /// Store hit: the run fast-forwarded from a verified checkpoint.
    Warmed,
    /// The stored checkpoint failed verification (or, verified, still
    /// would not restore): it was quarantined and this run simulated
    /// fresh (then re-stored a clean checkpoint under the same key).
    Quarantined,
    /// The run completed before reaching the warm point; nothing was
    /// stored.
    Finished,
}

impl WarmStart {
    /// Stable label (events, logs).
    pub fn label(&self) -> &'static str {
        match self {
            WarmStart::Disabled => "disabled",
            WarmStart::Stored => "stored",
            WarmStart::Warmed => "warmed",
            WarmStart::Quarantined => "quarantined",
            WarmStart::Finished => "finished",
        }
    }
}

/// The checkpoint-store key for one cell: a fingerprint of everything
/// that shapes its simulation prefix — the full [`SimConfig`] (machine,
/// interconnect, scheme, fault campaign, sanitizer, watchdog and cycle
/// cap, via its `Debug` rendering), the app, the trace seed and the
/// scale — paired with the warm-point cycle. The inert
/// [`SimConfig::sim_threads`] field is nulled first, so a caller's
/// assignment to it cannot change the key and keys keep matching the
/// checkpoints already on disk.
pub fn warm_key(cfg: &SimConfig, app: &AppProfile, seed: u64, scale: f64, warm: Cycle) -> WarmKey {
    let mut kc = cfg.clone();
    kc.sim_threads = None;
    let desc = format!("{kc:?}|app={}|seed={seed:#x}|scale={scale:?}", app.name);
    (fingerprint(&desc), warm)
}

/// [`run_supervised`] with an optional warm-start checkpoint store.
///
/// With `checkpoints = Some((store, warm_cycles))`, the run first
/// consults the store for a checkpoint of its own configuration at the
/// warm point: a verified hit is decoded straight into the freshly
/// built simulator (fast-forward); a miss — or a corrupt file, which is
/// quarantined — simulates the prefix fresh and stores a checkpoint at
/// the first iteration boundary at or past `warm_cycles`. Either way
/// the remainder runs under the normal supervision loop, and because
/// snapshot/restore is bit-identical, the result is exactly that of a
/// run without checkpoints — the store can only change wall-clock time,
/// never numbers.
pub fn run_supervised_cached(
    mut cfg: SimConfig,
    app: &AppProfile,
    seed: u64,
    scale: f64,
    policy: &RunPolicy,
    checkpoints: Option<(&DiskStore, Cycle)>,
) -> Result<(SimResult, WarmStart), SimError> {
    if let Some(budget) = policy.cycle_budget {
        cfg.max_cycles = cfg.max_cycles.min(budget);
    }
    let Some((store, warm_cycles)) = checkpoints.filter(|&(_, w)| w > 0) else {
        let mut sim = CmpSimulator::new(cfg, app, seed, scale);
        return supervise(&mut sim, policy).map(|r| (r, WarmStart::Disabled));
    };
    let key = warm_key(&cfg, app, seed, scale, warm_cycles);
    let mut sim = CmpSimulator::new(cfg.clone(), app, seed, scale);
    let warm = match store.load(&key) {
        CacheLoad::Hit(snap) => match warm_restore(&mut sim, &snap) {
            Ok(()) => return supervise(&mut sim, policy).map(|r| (r, WarmStart::Warmed)),
            Err(reason) => {
                // A verified hit that still would not restore: throw
                // the checkpoint out and start over on a machine the
                // failed decode has not touched.
                store.quarantine_key(&key, &reason);
                sim = CmpSimulator::new(cfg, app, seed, scale);
                WarmStart::Quarantined
            }
        },
        CacheLoad::Quarantined => WarmStart::Quarantined,
        CacheLoad::Miss => WarmStart::Stored,
    };
    // Simulate the prefix fresh, then checkpoint it for the next
    // sharer. The supervision loop proper takes over after the warm
    // point; the prefix is short by construction, so running it without
    // wall-clock polling is fine.
    while sim.cycle() < warm_cycles {
        if !sim.step()? {
            return Ok((sim.finish(), WarmStart::Finished));
        }
    }
    store.store(&key, &sim.snapshot());
    supervise(&mut sim, policy).map(|r| (r, warm))
}

/// Decode a store hit into `sim` and check that it took: a snapshot
/// that verifies, fits and decodes cleanly yet is not the state that
/// was stored shows as the restored machine re-encoding to different
/// bytes. On `Err` the simulator may be partly overwritten.
fn warm_restore(sim: &mut CmpSimulator, snap: &MachineSnapshot) -> Result<(), String> {
    sim.try_restore(snap).map_err(|e| e.to_string())?;
    if sim.encode_state() != snap.state() {
        return Err("the restored machine does not re-encode to the stored state".to_string());
    }
    Ok(())
}

/// [`run_supervised`] for a simulator the caller has already built
/// (and possibly instrumented with campaign hooks). The policy's
/// `cycle_budget` is not applied here — it tightens the config, which
/// is fixed once the machine exists.
pub fn supervise(sim: &mut CmpSimulator, policy: &RunPolicy) -> Result<SimResult, SimError> {
    let started = Instant::now();
    let mut iters: u64 = 0;
    loop {
        if !sim.step()? {
            return Ok(sim.finish());
        }
        iters += 1;
        if iters % SUPERVISE_EVERY_ITERS != 0 {
            continue;
        }
        if let Some(deadline) = policy.wall_deadline {
            if started.elapsed() >= deadline {
                return Err(SimError::WallDeadline {
                    cycle: sim.cycle(),
                    limit_ms: deadline.as_millis() as u64,
                });
            }
        }
    }
}

/// Call `attempt(n)` for `n = 0, 1, …` until it succeeds or `retries`
/// extra attempts are exhausted, sleeping `backoff · 2ⁿ` between
/// attempts. On terminal failure returns the total attempt count with
/// the last error.
fn with_retries<T, E>(
    retries: u32,
    backoff: Duration,
    mut attempt: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, (u32, E)> {
    let mut n: u32 = 0;
    loop {
        match attempt(n) {
            Ok(v) => return Ok(v),
            Err(e) if n >= retries => return Err((n + 1, e)),
            Err(_) => {
                let wait = backoff.saturating_mul(1u32 << n.min(16));
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                n += 1;
            }
        }
    }
}

/// Derive the fault seed for retry `attempt` of a cell seeded with
/// `seed`. Attempt 0 is the identity — a retry of a deterministic
/// failure only makes sense with fresh fault timing, but the *first*
/// run must use exactly the configured seed. SplitMix64 finalizer, so
/// nearby attempts get unrelated streams.
fn reseed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attempt as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Journal key of one matrix cell: stable across processes and builds,
/// unique within a sweep (label + seed + scale disambiguate repeats of
/// one (app, config) pair).
pub fn cell_key(spec: &RunSpec) -> String {
    format!(
        "{}|{}|seed={:#x}|scale={:?}",
        spec.app.name, spec.config.label, spec.seed, spec.scale
    )
}

/// Git revision stamped into campaign journals: `TCMP_GIT_SHA` when
/// set (CI), else `git rev-parse`, else `"unknown"`. Read once per
/// process, so every sweep of one process (each campaign of one daemon
/// lifetime included) carries the same revision, and `git` runs once.
pub fn build_git_sha() -> String {
    static SHA: OnceLock<String> = OnceLock::new();
    SHA.get_or_init(|| {
        if let Ok(sha) = std::env::var("TCMP_GIT_SHA") {
            if !sha.is_empty() {
                return sha;
            }
        }
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
    .clone()
}

/// The identity stamp of a sweep: build SHA plus a fingerprint of the
/// machine description and every cell. [`Journal::resume`] refuses a
/// mismatch, so rows from a different build or sweep never mix.
pub fn campaign_meta(cmp: &CmpConfig, specs: &[RunSpec]) -> CampaignMeta {
    let mut desc = format!("{cmp:?}");
    for s in specs {
        desc.push('\n');
        desc.push_str(&cell_key(s));
        desc.push_str(&format!(
            "|{:?}|{:?}",
            s.config.interconnect, s.config.scheme
        ));
    }
    CampaignMeta {
        git_sha: build_git_sha(),
        config_hash: fingerprint(&desc),
        cells: specs.len(),
    }
}

/// One cell of a supervised matrix that failed terminally.
#[derive(Debug)]
pub struct CellFailure {
    /// Index into the spec list (and into `MatrixReport::results`).
    pub index: usize,
    pub app: String,
    pub config: String,
    /// Attempts made (1 = no retries were left or needed).
    pub attempts: u32,
    pub error: SimError,
}

/// Outcome of a supervised matrix: one slot per spec, in spec order —
/// the order is a function of the spec list alone, never of thread
/// scheduling or which attempt finally succeeded.
#[derive(Debug, Default)]
pub struct MatrixReport {
    /// Index-aligned with the spec list; `None` where the cell failed
    /// or was never attempted (`cell_limit`).
    pub results: Vec<Option<SimResult>>,
    /// Terminal failures, sorted by cell index.
    pub failures: Vec<CellFailure>,
    /// Cells skipped because the journal already had their rows.
    pub skipped: usize,
}

impl MatrixReport {
    /// Did every cell produce a result?
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }
}

/// What a cell simulates besides its [`RunSpec`]: the machine, the
/// passive coverage probes riding along (Figure 2 measures every scheme
/// on one baseline run), and the fault it suffers, if any.
#[derive(Clone, Debug, PartialEq)]
pub struct CellMachine {
    pub cmp: CmpConfig,
    pub probes: Vec<CompressionScheme>,
    pub fault: Option<CellFault>,
}

impl CellMachine {
    /// `cmp` with no probes and no fault.
    pub fn plain(cmp: &CmpConfig) -> Self {
        CellMachine {
            cmp: cmp.clone(),
            probes: Vec::new(),
            fault: None,
        }
    }
}

/// The fault a cell runs under on purpose.
#[derive(Clone, Debug, PartialEq)]
pub enum CellFault {
    /// Inject faults into the traffic. The seed is attempt 0's fault
    /// seed; retries reseed it.
    Inject(FaultConfig),
    /// Corrupt live coherence metadata of this invariant class as soon
    /// as the machine holds a line to corrupt, with the sanitizer armed
    /// to catch it. Such a cell never stores or loads a checkpoint.
    Plant(Invariant),
}

/// Sanitizer sweep period of a cell that plants a violation.
const PLANT_SWEEP_PERIOD: u64 = 256;

/// The simulator configuration of attempt `attempt` (0-based) of one
/// matrix cell. Retries perturb only the fault-injector seed; the
/// workload trace seed is part of the cell's identity and never
/// changes.
fn cell_config(machine: &CellMachine, spec: &RunSpec, attempt: u32) -> SimConfig {
    let mut cfg = SimConfig::new(spec.config.interconnect, spec.config.scheme);
    cfg.cmp = machine.cmp.clone();
    cfg.coverage_probes = machine.probes.clone();
    match &machine.fault {
        Some(CellFault::Inject(faults)) => cfg.faults = faults.clone(),
        Some(CellFault::Plant(_)) => {
            cfg.sanitizer = Some(SanitizerConfig {
                period: PLANT_SWEEP_PERIOD,
            })
        }
        None => {}
    }
    cfg.faults.seed = reseed(cfg.faults.seed, attempt);
    cfg
}

/// What cell `spec` simulates on `machine`, fingerprinted as
/// [`warm_key`] does: equal keys are one simulation, however the cells
/// are labelled. It covers the app, seed and scale, and the `Debug`
/// renderings of attempt 0's [`SimConfig`] and of the machine (which
/// adds the invariant class a cell plants), both without coverage
/// probes, which only observe a run. Rendering whole structs means a
/// field added to either cannot be missed.
pub fn simulation_key(machine: &CellMachine, spec: &RunSpec) -> String {
    let machine = CellMachine {
        probes: Vec::new(),
        ..machine.clone()
    };
    let cfg = cell_config(&machine, spec, 0);
    let desc = format!(
        "{cfg:?}|{machine:?}|app={}|seed={:#x}|scale={:?}",
        spec.app.name, spec.seed, spec.scale
    );
    fingerprint(&desc)
}

/// What cell `spec` on `machine` under `policy` puts in its row: its
/// [`simulation_key`], plus the machine's coverage probes (their
/// coverages are in the row) and the policy (a retry reseeds the
/// faults, a cycle budget tightens the cap), fingerprinted from their
/// `Debug` renderings. Two cells with equal keys that both finish
/// finish with equal rows, so one's row may stand for the other's.
///
/// The whole policy is keyed on purpose, though a row that finished on
/// its first attempt depends only on the cycle budget: a field added
/// to [`RunPolicy`] later cannot be left out, and a request that
/// differs only in deadline, backoff or retries simulates again — the
/// safe side of the trade.
pub fn reuse_key(machine: &CellMachine, spec: &RunSpec, policy: &RunPolicy) -> String {
    let desc = format!(
        "{}|{:?}|{policy:?}",
        simulation_key(machine, spec),
        machine.probes
    );
    fingerprint(&desc)
}

/// Step a fresh machine until a violation of `class` is planted (after
/// each step, as soon as one can be), then supervise the rest of the
/// run under `policy`. A run that finishes before any line could be
/// corrupted completes normally.
fn run_planted(
    mut cfg: SimConfig,
    spec: &RunSpec,
    class: Invariant,
    policy: &RunPolicy,
) -> Result<SimResult, SimError> {
    if let Some(budget) = policy.cycle_budget {
        cfg.max_cycles = cfg.max_cycles.min(budget);
    }
    let mut sim = CmpSimulator::new(cfg, &spec.app, spec.seed, spec.scale);
    loop {
        if !sim.step()? {
            return Ok(sim.finish());
        }
        if sim.fault_inject_violation(class).is_some() {
            return supervise(&mut sim, policy);
        }
    }
}

/// Render an unwind payload into the message carried by
/// [`SimError::Panic`]: panics carry a `&str` or `String` in practice,
/// anything else gets a placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What became of one cell: its row, or how it failed.
pub type CellOutcome = Result<SimResult, CellFailure>;

/// The run state of one sweep: its spec list, the journal it records
/// into (when it has one) and one outcome slot per spec, in spec order.
/// The campaign service keeps every campaign's progress here — both of
/// `tcmp-fig`'s doors run on one — and [`run_cells`] drives it from a
/// scoped pool, so journal replay, how a cell is run and recorded, and
/// the assembled [`MatrixReport`] exist once. Cells are named by index
/// into the spec list, nothing else.
///
/// `J` is the journal as the driver holds it: owned, or `&mut`.
pub struct SweepState<J> {
    specs: Vec<RunSpec>,
    journal: Option<Mutex<J>>,
    /// `None` until the cell has an outcome.
    slots: Mutex<Vec<Option<CellOutcome>>>,
    skipped: usize,
}

impl<J: BorrowMut<Journal>> SweepState<J> {
    /// Open the run state of `specs`. With a journal, cells whose
    /// finish records replayed from disk start out filled, their rows
    /// decoded from the journal; failed and interrupted cells start out
    /// empty, to be re-attempted. A row that no longer decodes (schema
    /// drift within one build would be a bug, but be safe) is re-run,
    /// not trusted.
    pub fn new(specs: &[RunSpec], journal: Option<J>) -> Self {
        let mut slots: Vec<Option<CellOutcome>> = specs.iter().map(|_| None).collect();
        if let Some(j) = &journal {
            let replay = &Borrow::<Journal>::borrow(j).replay;
            for (slot, spec) in slots.iter_mut().zip(specs) {
                let key = cell_key(spec);
                match replay.completed.get(&key).map(result_from_json) {
                    Some(Ok(result)) => *slot = Some(Ok(result)),
                    Some(Err(e)) => {
                        eprintln!("journal: row for cell {key} no longer decodes ({e}); re-running")
                    }
                    None => {}
                }
            }
        }
        SweepState {
            specs: specs.to_vec(),
            journal: journal.map(Mutex::new),
            skipped: slots.iter().flatten().count(),
            slots: Mutex::new(slots),
        }
    }

    fn slots(&self) -> MutexGuard<'_, Vec<Option<CellOutcome>>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Cells without an outcome yet, ascending.
    pub fn pending(&self) -> Vec<usize> {
        let slots = self.slots();
        (0..slots.len()).filter(|&i| slots[i].is_none()).collect()
    }

    /// Visit every cell that has an outcome, in spec order. `visit`
    /// runs with the state locked and must not call back into it.
    pub fn for_each_outcome(&self, mut visit: impl FnMut(usize, &CellOutcome)) {
        for (index, slot) in self.slots().iter().enumerate() {
            if let Some(outcome) = slot {
                visit(index, outcome);
            }
        }
    }

    /// Append one record about cell `key` to the journal, if there is
    /// one. A lost record costs at most a re-simulation on resume — but
    /// it must never be lost silently.
    fn record(&self, what: &str, key: &str, append: impl FnOnce(&mut Journal) -> io::Result<()>) {
        let Some(journal) = &self.journal else { return };
        let mut guard = journal.lock().unwrap_or_else(|p| p.into_inner());
        // Qualified so the blanket `impl BorrowMut<T> for T` on the
        // guard itself cannot shadow the journal view of `J`.
        if let Err(e) = append(BorrowMut::<Journal>::borrow_mut(&mut *guard)) {
            eprintln!("journal: {what} record for cell {key} failed: {e}");
        }
    }

    /// Run cell `index` to its outcome and store it: a `start` record
    /// per attempt, panic isolation, the retry ladder reseeding only
    /// the fault injector, a terminal `finish` or `fail` record.
    /// `checkpoints` is consulted only on attempt 0: a retry perturbs
    /// the fault seed, which changes the configuration fingerprint, so
    /// storing retry prefixes would only pollute the store. A cell that
    /// plants a violation never consults it.
    ///
    /// `on_outcome` is handed the stored outcome, how the cell crossed
    /// the warm point and how many cells are still without an outcome —
    /// 0 for exactly one call, the sweep's last. It runs with the state
    /// locked (so must not call back into it): storing a cell, telling
    /// anyone and counting it are one step, and whatever the last call
    /// does comes after every other call has returned.
    pub fn run_cell<R>(
        &self,
        machine: &CellMachine,
        index: usize,
        policy: &RunPolicy,
        checkpoints: Option<(&DiskStore, Cycle)>,
        on_outcome: impl FnOnce(&CellOutcome, WarmStart, usize) -> R,
    ) -> R {
        let spec = &self.specs[index];
        let key = cell_key(spec);
        let attempt = |attempt: u32| {
            self.record("start", &key, |j| j.record_start(&key, attempt + 1));
            // A panicking cell must not leave its slot empty, a mutex
            // poisoned, or its journal entry dangling: it becomes a
            // failure like any other and is released by a fail record.
            catch_unwind(AssertUnwindSafe(|| {
                let cfg = cell_config(machine, spec, attempt);
                if let Some(CellFault::Plant(class)) = machine.fault {
                    return run_planted(cfg, spec, class, policy).map(|r| (r, WarmStart::Disabled));
                }
                let checkpoints = if attempt == 0 { checkpoints } else { None };
                run_supervised_cached(cfg, &spec.app, spec.seed, spec.scale, policy, checkpoints)
            }))
            .unwrap_or_else(|payload| {
                Err(SimError::Panic {
                    message: panic_message(payload),
                })
            })
        };
        let (warm, outcome) = match with_retries(policy.retries, policy.backoff, attempt) {
            Ok((result, warm)) => (warm, Ok(result)),
            Err((attempts, error)) => {
                let failure = CellFailure {
                    index,
                    app: spec.app.name.to_string(),
                    config: spec.config.label.clone(),
                    attempts,
                    error,
                };
                (WarmStart::Disabled, Err(failure))
            }
        };
        self.settle(index, outcome, |outcome, outstanding| {
            on_outcome(outcome, warm, outstanding)
        })
    }

    /// Store `result` as cell `index`'s outcome without running it —
    /// the row of a cell elsewhere that simulated the same thing (equal
    /// [`reuse_key`]s) — journaled as a `finish` record, as if the cell
    /// had run to it. `on_outcome` is [`SweepState::run_cell`]'s, less
    /// the warm-start crossing there was none of.
    pub fn adopt<R>(
        &self,
        index: usize,
        result: SimResult,
        on_outcome: impl FnOnce(&CellOutcome, usize) -> R,
    ) -> R {
        self.settle(index, Ok(result), on_outcome)
    }

    /// The row of cell `index`, if it finished.
    pub fn row(&self, index: usize) -> Option<SimResult> {
        self.slots()[index].as_ref()?.as_ref().ok().cloned()
    }

    /// The tail of every cell: its terminal journal record, then its
    /// slot and `on_outcome` in one locked step.
    fn settle<R>(
        &self,
        index: usize,
        outcome: CellOutcome,
        on_outcome: impl FnOnce(&CellOutcome, usize) -> R,
    ) -> R {
        let key = cell_key(&self.specs[index]);
        match &outcome {
            Ok(result) => self.record("finish", &key, |j| {
                j.record_finish(&key, result_to_json(result))
            }),
            Err(failure) => self.record("fail", &key, |j| {
                j.record_fail(&key, failure.attempts, &failure.error.brief())
            }),
        }
        let mut slots = self.slots();
        let outstanding = (0..slots.len())
            .filter(|&i| i != index && slots[i].is_none())
            .count();
        on_outcome(slots[index].insert(outcome), outstanding)
    }

    /// The sweep as it stands: rows and failures in spec order.
    pub fn into_report(self) -> MatrixReport {
        let mut report = MatrixReport {
            skipped: self.skipped,
            ..MatrixReport::default()
        };
        for slot in self.slots.into_inner().unwrap_or_else(|p| p.into_inner()) {
            match slot.transpose() {
                Ok(row) => report.results.push(row),
                Err(failure) => {
                    report.results.push(None);
                    report.failures.push(failure);
                }
            }
        }
        report
    }
}

/// Size a matrix worker pool: `jobs` workers (`None` = all available
/// cores), never more than there are cells left to run. An explicit
/// request is honoured verbatim — tests deliberately run more workers
/// than cores.
fn matrix_worker_threads(jobs: Option<usize>, pending: usize) -> usize {
    let want = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    want.max(1).min(pending.max(1))
}

/// Execute `specs` on a worker pool under `policy`, every cell on
/// `cmp`, recording every cell into `journal` when one is given: see
/// [`run_cells`].
pub fn run_matrix_supervised(
    cmp: &CmpConfig,
    specs: &[RunSpec],
    jobs: Option<usize>,
    policy: &RunPolicy,
    journal: Option<&mut Journal>,
) -> MatrixReport {
    let machines = vec![CellMachine::plain(cmp); specs.len()];
    run_cells(&machines, specs, jobs, policy, journal)
}

/// Execute `specs` on a worker pool under `policy`, cell `i` on
/// `machines[i]`, recording every cell into `journal` when one is given.
///
/// With a journal, cells whose finish records replay from disk are
/// *skipped* — so a campaign killed at any instant (including
/// mid-append: a torn final line is tolerated) resumes with only the
/// unfinished cells re-run, and the assembled result set is
/// bit-identical to an uninterrupted sweep. See [`SweepState`].
pub fn run_cells(
    machines: &[CellMachine],
    specs: &[RunSpec],
    jobs: Option<usize>,
    policy: &RunPolicy,
    journal: Option<&mut Journal>,
) -> MatrixReport {
    assert_eq!(machines.len(), specs.len(), "one machine per cell");
    let state = SweepState::new(specs, journal);
    let mut pending = state.pending();
    if let Some(limit) = policy.cell_limit {
        pending.truncate(limit);
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..matrix_worker_threads(jobs, pending.len()) {
            scope.spawn(|| {
                while let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                    state.run_cell(&machines[i], i, policy, None, |_, _, _| ());
                }
            });
        }
    });
    state.into_report()
}

/// Encode a run's result as a journal row ([`SimResult`]'s field
/// table, lossless both ways).
pub fn result_to_json(r: &SimResult) -> Json {
    r.to_json()
}

/// Decode a journal row back into the exact [`SimResult`] it encoded.
pub fn result_from_json(j: &Json) -> Result<SimResult, String> {
    SimResult::from_json(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ConfigSpec;
    use crate::niface::InterconnectChoice;
    use addr_compression::CompressionScheme;
    use wire_model::wires::VlWidth;

    fn tiny_result() -> SimResult {
        let cfg = SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
            CompressionScheme::Dbrc {
                entries: 16,
                low_bytes: 1,
            },
        );
        let app = workloads::apps::fft();
        CmpSimulator::new(cfg, &app, 0xD5A1_F00D, 0.002)
            .run()
            .expect("tiny run completes")
    }

    /// A checkpoint that passes the store's checksum and still will not
    /// restore — here one whose state stops short, as a decoder bug or
    /// a hash collision would present — is quarantined, and the cell
    /// runs fresh on a rebuilt simulator to exactly the result of a run
    /// without checkpoints.
    #[test]
    fn verified_hit_that_fails_to_restore_is_quarantined_and_rerun_fresh() {
        use crate::checkpoint::DiskConfig;
        use cmp_common::fsx::Fs;

        let cfg = SimConfig::baseline();
        let app = workloads::apps::fft();
        let (seed, scale, warm) = (0xD5A1_F00D, 0.002, 20_000);
        let policy = RunPolicy::default();
        let cold = run_supervised(cfg.clone(), &app, seed, scale, &policy).expect("cold run");

        let mut sim = CmpSimulator::new(cfg.clone(), &app, seed, scale);
        while sim.cycle() < warm {
            assert!(sim.step().expect("prefix steps"));
        }
        let good = sim.snapshot();
        let cut = good.with_state(good.state()[..good.state().len() / 2].to_vec());

        let root = std::env::temp_dir().join(format!("tcmp-warm-decode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let disk = DiskStore::open(Fs::real(), &root, DiskConfig::default()).expect("open");
        let key = warm_key(&cfg, &app, seed, scale, warm);
        disk.store(&key, &cut);

        let cached = |expect: WarmStart| {
            let (r, w) =
                run_supervised_cached(cfg.clone(), &app, seed, scale, &policy, Some((&disk, warm)))
                    .expect("cached run");
            assert_eq!(w, expect);
            assert_eq!(
                result_to_json(&r).render(),
                result_to_json(&cold).render(),
                "{expect:?} run differs from the cold run"
            );
        };
        cached(WarmStart::Quarantined);
        assert_eq!(disk.counters().quarantined, 1);
        assert_eq!(
            disk.quarantine_usage().0,
            1,
            "the file is kept for forensics"
        );
        // The fresh run stored a clean checkpoint over the bad one.
        cached(WarmStart::Warmed);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The codec is lossless: encode → render → parse → decode →
    /// re-encode produces byte-identical JSON, covering every u64 and
    /// f64 field of a real run.
    #[test]
    fn result_codec_round_trips_bit_identically() {
        let r = tiny_result();
        let encoded = result_to_json(&r).render();
        let parsed = Json::parse(&encoded).expect("rendered JSON parses");
        let decoded = result_from_json(&parsed).expect("row decodes");
        assert_eq!(result_to_json(&decoded).render(), encoded);
        assert_eq!(decoded.cycles, r.cycles);
        assert_eq!(decoded.network_messages, r.network_messages);
        assert_eq!(decoded.time_s.to_bits(), r.time_s.to_bits());
        assert_eq!(
            decoded.energy.link_dynamic.value().to_bits(),
            r.energy.link_dynamic.value().to_bits()
        );
        assert_eq!(decoded.link_ed2p().to_bits(), r.link_ed2p().to_bits());
    }

    /// The row format, byte for byte as the build before the field
    /// tables wrote it (`sim_digest` and every journal hash this
    /// rendering): every scheme and interconnect shape, non-empty
    /// `messages` and `probe_coverages`, non-zero fault and resync
    /// counters, integers above 2^53 and a 17-digit float.
    #[test]
    fn result_row_bytes_are_pinned() {
        use cmp_common::fault::FaultStats;
        use cmp_common::stats::Counter;
        use cmp_common::types::MessageClass;
        use cmp_common::units::Joules;
        use energy_model::breakdown::EnergyBreakdown;

        let class = |class, count, bytes, mean_latency| crate::engine::ClassCount {
            class,
            count,
            bytes,
            mean_latency,
        };
        let full = SimResult {
            app: "MP3D".into(),
            scheme: CompressionScheme::Multicast {
                entries: 4,
                low_bytes: 2,
            },
            interconnect: InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            cycles: (1 << 53) + 1,
            time_s: 0.1 + 0.2,
            energy: EnergyBreakdown {
                core_dynamic: Joules(1.25),
                core_static: Joules(0.5),
                link_dynamic: Joules(0.012345678901234567),
                link_static: Joules(1e-9),
                router_dynamic: Joules(3.0e-4),
                compression_dynamic: Joules(2.5e-7),
                compression_static: Joules(0.0),
            },
            coverage: 0.8765432109876543,
            messages: vec![
                class(MessageClass::Request, 1200, 13200, 17.25),
                class(MessageClass::ResponseData, 900, 60300, 31.5),
                class(MessageClass::PartialReply, 3, 33, 9.0),
            ],
            network_messages: 2103,
            instructions: u64::MAX,
            l1_miss_rate: 0.03125,
            critical_latency: 21.333333333333332,
            probe_coverages: vec![
                (CompressionScheme::Perfect { low_bytes: 2 }, 1.0),
                (
                    CompressionScheme::Dbrc {
                        entries: 16,
                        low_bytes: 1,
                    },
                    0.6543210987654321,
                ),
                (CompressionScheme::Stride { low_bytes: 1 }, 0.25),
            ],
            mem_stall_cycles: 123456,
            barrier_stall_cycles: 7890,
            mem_reads: 42,
            l2_recalls: 7,
            fault_stats: FaultStats {
                drops: Counter(1),
                duplicates: Counter(2),
                delays: Counter(3),
                corruptions: Counter(4),
                desyncs: Counter(5),
                mem_replies: Counter(6),
            },
            resync: crate::niface::ResyncStats {
                desyncs_detected: 5,
                resyncs_completed: 4,
                fallback_msgs: 96,
            },
            sanitizer_sweeps: 11,
        };
        let bare = SimResult {
            scheme: CompressionScheme::None,
            interconnect: InterconnectChoice::ReplyPartitioning,
            messages: vec![],
            probe_coverages: vec![],
            ..full.clone()
        };
        for (row, text) in [
            (
                full,
                r#"{"app":"MP3D","scheme":{"kind":"multicast","entries":4,"low_bytes":2},"interconnect":{"kind":"heterogeneous","vl_bytes":5},"cycles":9007199254740993,"time_s":0.30000000000000004,"energy":{"core_dynamic":1.25,"core_static":0.5,"link_dynamic":0.012345678901234567,"link_static":1e-9,"router_dynamic":0.0003,"compression_dynamic":2.5e-7,"compression_static":0.0},"coverage":0.8765432109876543,"messages":[{"class":"request","count":1200,"bytes":13200,"mean_latency":17.25},{"class":"response+data","count":900,"bytes":60300,"mean_latency":31.5},{"class":"partial-reply","count":3,"bytes":33,"mean_latency":9.0}],"network_messages":2103,"instructions":18446744073709551615,"l1_miss_rate":0.03125,"critical_latency":21.333333333333332,"probe_coverages":[{"scheme":{"kind":"perfect","low_bytes":2},"coverage":1.0},{"scheme":{"kind":"dbrc","entries":16,"low_bytes":1},"coverage":0.6543210987654321},{"scheme":{"kind":"stride","low_bytes":1},"coverage":0.25}],"mem_stall_cycles":123456,"barrier_stall_cycles":7890,"mem_reads":42,"l2_recalls":7,"fault_stats":{"drops":1,"duplicates":2,"delays":3,"corruptions":4,"desyncs":5,"mem_replies":6},"resync":{"desyncs_detected":5,"resyncs_completed":4,"fallback_msgs":96},"sanitizer_sweeps":11}"#,
            ),
            (
                bare,
                r#"{"app":"MP3D","scheme":{"kind":"none"},"interconnect":{"kind":"reply_partitioning"},"cycles":9007199254740993,"time_s":0.30000000000000004,"energy":{"core_dynamic":1.25,"core_static":0.5,"link_dynamic":0.012345678901234567,"link_static":1e-9,"router_dynamic":0.0003,"compression_dynamic":2.5e-7,"compression_static":0.0},"coverage":0.8765432109876543,"messages":[],"network_messages":2103,"instructions":18446744073709551615,"l1_miss_rate":0.03125,"critical_latency":21.333333333333332,"probe_coverages":[],"mem_stall_cycles":123456,"barrier_stall_cycles":7890,"mem_reads":42,"l2_recalls":7,"fault_stats":{"drops":1,"duplicates":2,"delays":3,"corruptions":4,"desyncs":5,"mem_replies":6},"resync":{"desyncs_detected":5,"resyncs_completed":4,"fallback_msgs":96},"sanitizer_sweeps":11}"#,
            ),
        ] {
            assert_eq!(result_to_json(&row).render(), text);
            let back = result_from_json(&Json::parse(text).expect("literal parses"))
                .expect("literal decodes");
            assert_eq!(format!("{back:?}"), format!("{row:?}"));
        }
    }

    #[test]
    fn codec_rejects_rows_with_missing_or_mistyped_fields() {
        let r = tiny_result();
        let Json::Obj(mut fields) = result_to_json(&r) else {
            panic!("rows are objects")
        };
        fields.retain(|(k, _)| k != "cycles");
        assert!(result_from_json(&Json::Obj(fields.clone())).is_err());
        fields.push(("cycles".to_string(), Json::str("not-a-number")));
        assert!(result_from_json(&Json::Obj(fields)).is_err());
    }

    #[test]
    fn reseed_is_identity_on_the_first_attempt_and_diverges_after() {
        assert_eq!(reseed(42, 0), 42);
        let (a, b, c) = (reseed(42, 1), reseed(42, 2), reseed(43, 1));
        assert_ne!(a, 42);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn with_retries_counts_attempts_and_stops_at_the_cap() {
        let mut calls = 0;
        let r: Result<(), _> = with_retries(2, Duration::ZERO, |n| {
            assert_eq!(n, calls);
            calls += 1;
            Err::<(), _>("nope")
        });
        assert_eq!(calls, 3);
        assert_eq!(r.unwrap_err(), (3, "nope"));

        let r = with_retries(5, Duration::ZERO, |n| {
            if n < 2 {
                Err("transient")
            } else {
                Ok(n)
            }
        });
        assert_eq!(r.unwrap(), 2);
    }

    /// An impossible wall-clock deadline aborts the cell with a
    /// structured `WallDeadline`, not a hang.
    #[test]
    fn wall_deadline_aborts_with_a_structured_error() {
        let cfg = SimConfig::baseline();
        let app = workloads::apps::fft();
        let policy = RunPolicy {
            wall_deadline: Some(Duration::ZERO),
            ..RunPolicy::default()
        };
        let err = run_supervised(cfg, &app, 0xD5A1_F00D, 0.01, &policy)
            .expect_err("a zero deadline must expire");
        match err {
            SimError::WallDeadline { limit_ms, .. } => assert_eq!(limit_ms, 0),
            other => panic!("expected WallDeadline, got {other}"),
        }
    }

    /// A cycle budget tightens the config's own cap and surfaces as the
    /// engine's structured cycle-cap error.
    #[test]
    fn cycle_budget_caps_the_run() {
        let cfg = SimConfig::baseline();
        let app = workloads::apps::fft();
        let policy = RunPolicy {
            cycle_budget: Some(1_000),
            ..RunPolicy::default()
        };
        let err = run_supervised(cfg, &app, 0xD5A1_F00D, 0.01, &policy)
            .expect_err("a 1000-cycle budget cannot finish fft");
        match err {
            SimError::Watchdog { cycle } => assert!(cycle >= 1_000),
            other => panic!("expected the cycle cap, got {other}"),
        }
    }

    /// A finish record whose row no longer decodes is not trusted: the
    /// cell counts as unfinished, runs again, and its fresh row is what
    /// the next resume replays.
    #[test]
    fn undecodable_journal_row_is_rerun_not_trusted() {
        let cmp = CmpConfig::default();
        let specs = [RunSpec {
            app: workloads::apps::fft(),
            config: ConfigSpec::baseline(),
            seed: 0xD5A1_F00D,
            scale: 0.002,
        }];
        let meta = campaign_meta(&cmp, &specs);
        let dir = std::env::temp_dir().join(format!("tcmp-undecodable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stale_row = Json::Obj(vec![("app".to_string(), Json::str("FFT"))]);
        Journal::create(&dir, &meta)
            .expect("fresh journal")
            .record_finish(&cell_key(&specs[0]), stale_row)
            .expect("append");

        let resume = || {
            let mut journal = Journal::resume(&dir, &meta).expect("journal resumes");
            assert_eq!(journal.replay.skippable(), 1, "the record itself is sound");
            run_matrix_supervised(
                &cmp,
                &specs,
                Some(1),
                &RunPolicy::default(),
                Some(&mut journal),
            )
        };
        let rerun = resume();
        assert_eq!(rerun.skipped, 0, "the stale row must not be replayed");
        assert!(rerun.is_complete(), "the cell ran again");
        let replayed = resume();
        assert_eq!(replayed.skipped, 1, "the fresh row replays");
        assert_eq!(
            result_to_json(replayed.results[0].as_ref().unwrap()).render(),
            result_to_json(rerun.results[0].as_ref().unwrap()).render()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One cell's row may stand for another's only when everything that
    /// shapes the row is equal: the label does not, the coverage probes
    /// and the run policy do (though neither changes the simulation).
    #[test]
    fn reuse_key_tracks_probes_and_policy_not_labels() {
        let plain = CellMachine::plain(&CmpConfig::default());
        let spec = RunSpec {
            app: workloads::apps::fft(),
            config: ConfigSpec::baseline(),
            seed: 0xD5A1_F00D,
            scale: 0.002,
        };
        let policy = RunPolicy::default();
        let key = reuse_key(&plain, &spec, &policy);
        let relabelled = RunSpec {
            config: ConfigSpec {
                label: "coverage probes".to_string(),
                ..ConfigSpec::baseline()
            },
            ..spec.clone()
        };
        assert_eq!(reuse_key(&plain, &relabelled, &policy), key);

        let probed = CellMachine {
            probes: CompressionScheme::paper_matrix(),
            ..plain.clone()
        };
        assert_eq!(
            simulation_key(&probed, &spec),
            simulation_key(&plain, &spec)
        );
        assert_ne!(reuse_key(&probed, &spec, &policy), key);
        for other in [
            RunPolicy {
                retries: 1,
                ..RunPolicy::default()
            },
            RunPolicy {
                cycle_budget: Some(1_000),
                ..RunPolicy::default()
            },
        ] {
            assert_ne!(reuse_key(&plain, &spec, &other), key, "{other:?}");
        }
    }

    #[test]
    fn campaign_meta_fingerprint_tracks_the_spec_list() {
        let cmp = CmpConfig::default();
        let app = workloads::apps::fft();
        let spec = |seed| RunSpec {
            app: app.clone(),
            config: ConfigSpec::baseline(),
            seed,
            scale: 0.002,
        };
        let a = campaign_meta(&cmp, &[spec(1)]);
        let b = campaign_meta(&cmp, &[spec(1)]);
        let c = campaign_meta(&cmp, &[spec(2)]);
        assert_eq!(a.config_hash, b.config_hash);
        assert_ne!(a.config_hash, c.config_hash);
        assert_eq!(a.cells, 1);
    }
}
