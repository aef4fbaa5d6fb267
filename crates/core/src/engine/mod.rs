//! The full-system tiled-CMP simulator: per-tile components, trait
//! seams and the scheduler that clocks them.
//!
//! [`CmpSimulator`] is the one simulator type: build it with
//! [`CmpSimulator::new`], then [`CmpSimulator::run`] it to completion,
//! or [`CmpSimulator::step`] it iteration by iteration and
//! [`CmpSimulator::finish`]. All components share the 4 GHz clock; the
//! scheduler fast-forwards over idle stretches (compute bursts, memory
//! waits) by jumping to the next interesting cycle. It decomposes the
//! machine the way the hardware does:
//!
//! * [`tile::Tile`] — one node's private state: trace-driven core,
//!   L1 controller and the compressing network interface
//!   ([`tile::NetIface`]);
//! * [`tile::L2Bank`] — one slice of the shared NUCA L2 with its
//!   full-map directory, a sibling of the tile on the same switch;
//! * the global pieces — flit-level NoC, memory controller, barrier —
//!   owned directly by the [`CmpSimulator`];
//! * [`calendar::Calendar`] — the event calendar: delayed protocol
//!   sends plus the incremental core-readiness index;
//! * [`ports::TilePorts`] — the typed outbound ports a controller's
//!   side effects are routed through.
//!
//! Cross-cutting concerns live in submodules: [`error`] (structured
//! failures with machine dumps), [`stats`] (end-of-run accounting),
//! [`snapshot`] (whole-machine checkpoint/restore), [`faults`]
//! (campaign corruption hooks).

pub mod calendar;
pub mod error;
pub mod faults;
pub mod ports;
pub mod profile;
pub mod snapshot;
pub mod stats;
pub mod tile;
pub mod watchdog;

pub use calendar::Calendar;
pub use error::{OldestInFlight, SimError, StateDump, TileDump, TileStall};
pub use ports::TilePorts;
pub use profile::PhaseProfile;
pub use snapshot::{MachineSnapshot, RestoreError};
pub use stats::{ClassCount, SimResult};
pub use tile::{L2Bank, NetIface, Tile};
pub use watchdog::WatchdogConfig;

use watchdog::Watchdog;

use std::sync::atomic::{AtomicBool, Ordering};

use addr_compression::{CompressionEngine, CompressionScheme};
use cmp_common::config::CmpConfig;
use cmp_common::fault::{FaultAction, FaultConfig, FaultInjector, FaultPath, FaultStats};
use cmp_common::types::{Cycle, TileId};
use coherence::l1::{CoreAccess, L1Cache, L1Result};
use coherence::memctrl::{MemCtrl, MemRead};
use coherence::msg::{OutVec, PKind, ProtocolMsg};
use coherence::sanitizer::{Sanitizer, SanitizerConfig};
use coherence::ProtocolError;
use cpu_model::core::{Action, Core};
use cpu_model::sync::BarrierState;
use mesh_noc::message::{Delivered, Message};
use mesh_noc::Noc;
use workloads::generator::TraceGen;
use workloads::profile::AppProfile;

use crate::niface::{map_channel, InterconnectChoice, ResyncStats, ResyncTracker};

use calendar::DelayedEvent;

/// Everything a run needs to know.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine description (Table 4 default).
    pub cmp: CmpConfig,
    /// Link organisation.
    pub interconnect: InterconnectChoice,
    /// Address-compression scheme.
    pub scheme: CompressionScheme,
    /// Watchdog: abort after this many cycles.
    pub max_cycles: Cycle,
    /// Passive coverage probes: extra schemes observing the same address
    /// streams without influencing the run (used by the Figure 2
    /// reproduction to measure all schemes in a single simulation).
    pub coverage_probes: Vec<CompressionScheme>,
    /// Fault-injection campaign ([`FaultConfig::none`] = off, the
    /// default; a disabled campaign leaves the run bit-identical).
    pub faults: FaultConfig,
    /// Periodic protocol sanitizer (`None` = off). Sweeps are read-only,
    /// so enabling it cannot change a run's outcome — only abort a run
    /// whose coherence state has gone inconsistent.
    pub sanitizer: Option<SanitizerConfig>,
    /// Forward-progress watchdog (`None` = off; on by default).
    /// Observation is read-only, so enabling it cannot change a healthy
    /// run's outcome — only abort a livelocked one with a structured
    /// [`SimError::NoForwardProgress`] instead of spinning to
    /// `max_cycles`.
    pub watchdog: Option<WatchdogConfig>,
    /// Ignored. The engine has one, single-threaded scheduler; nothing
    /// reads this field and [`SimConfig::new`] sets it to `None`. It
    /// stays because the frozen `benchmark/` package assigns it and
    /// because the supervisor's `warm_key` hashes this struct's `Debug`
    /// rendering, so removing it would silently orphan every on-disk
    /// checkpoint. The next `benchmark` PR drops it together with the
    /// `core.epoch_t2_ratio` ledger row.
    pub sim_threads: Option<usize>,
}

impl SimConfig {
    /// A configuration over the default machine. The sanitizer defaults
    /// to off unless the `TCMP_SANITIZE` environment variable is set to
    /// a non-empty value other than `0` (the CI hook that runs the whole
    /// suite with sweeps enabled).
    pub fn new(interconnect: InterconnectChoice, scheme: CompressionScheme) -> Self {
        let sanitizer = sanitize_from_env();
        SimConfig {
            cmp: CmpConfig::default(),
            interconnect,
            scheme,
            max_cycles: 2_000_000_000,
            coverage_probes: Vec::new(),
            faults: FaultConfig::none(),
            sanitizer,
            watchdog: Some(WatchdogConfig::default()),
            sim_threads: None,
        }
    }

    /// The paper's baseline: 75-byte B-Wire links, no compression.
    pub fn baseline() -> Self {
        Self::new(InterconnectChoice::Baseline, CompressionScheme::None)
    }
}

/// Parse a `TCMP_SANITIZE` value. Accepted forms: unset, empty or `0`
/// disable the sanitizer; `1` enables it. Anything else is malformed:
/// the caller warns once on stderr and, to stay on the safe side of the
/// historical behaviour (any non-`0` value enabled sweeps), still
/// enables the sanitizer.
pub(crate) fn parse_sanitize(v: &str) -> Result<bool, String> {
    match v.trim() {
        "" | "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!(
            "TCMP_SANITIZE={other:?} is not a recognised value; accepted: 0/unset/empty (off) \
             or 1 (on); treating it as 1"
        )),
    }
}

/// True when a delivered message of this kind is handled by an L1
/// controller (the remaining kinds go to an L2 slice). Mirrors the
/// dispatch in [`CmpSimulator::deliver`]; used only for profile attribution.
fn l1_bound(kind: &PKind) -> bool {
    matches!(
        kind,
        PKind::DataS
            | PKind::DataE
            | PKind::DataM
            | PKind::PartialReply { .. }
            | PKind::UpgradeAck
            | PKind::Inv
            | PKind::FwdGetS { .. }
            | PKind::FwdGetX { .. }
            | PKind::RecallData
    )
}

/// Emit `warning` to stderr once per process (keyed by `flag`), so a
/// matrix spawning hundreds of simulators does not repeat it per cell.
fn warn_env_once(flag: &'static AtomicBool, warning: &str) {
    if !flag.swap(true, Ordering::Relaxed) {
        eprintln!("warning: {warning}");
    }
}

static SANITIZE_ENV_WARNED: AtomicBool = AtomicBool::new(false);
static PROFILE_ENV_WARNED: AtomicBool = AtomicBool::new(false);

/// The `TCMP_PROFILE` gate. A malformed value warns once on stderr and
/// enables profiling (the conservative reading, matching the other
/// `TCMP_*` knobs).
fn profile_from_env() -> bool {
    let v = std::env::var("TCMP_PROFILE").unwrap_or_default();
    match profile::parse_profile(&v) {
        Ok(on) => on,
        Err(warning) => {
            warn_env_once(&PROFILE_ENV_WARNED, &warning);
            true
        }
    }
}

/// The `TCMP_SANITIZE` gate. A malformed value warns once on stderr and
/// enables the sanitizer (the conservative reading of "the user set the
/// sanitize knob to something").
fn sanitize_from_env() -> Option<SanitizerConfig> {
    let v = std::env::var("TCMP_SANITIZE").unwrap_or_default();
    let on = match parse_sanitize(&v) {
        Ok(on) => on,
        Err(warning) => {
            warn_env_once(&SANITIZE_ENV_WARNED, &warning);
            true
        }
    };
    on.then(SanitizerConfig::default)
}

/// The full-system simulator: tiles, L2 banks and the global
/// components, clocked by one scheduler.
pub struct CmpSimulator {
    pub(crate) cfg: SimConfig,
    pub(crate) app_name: String,
    /// One per mesh node: core + L1 + network interface.
    pub(crate) tiles: Vec<Tile>,
    /// One per mesh node: the co-located shared-L2 slice.
    pub(crate) l2s: Vec<L2Bank>,
    pub(crate) noc: Noc<ProtocolMsg>,
    pub(crate) mem: MemCtrl,
    pub(crate) barrier: BarrierState,
    /// Delayed protocol sends + the incremental core-readiness index.
    pub(crate) calendar: Calendar,
    pub(crate) now: Cycle,
    /// Cores that have not retired their whole trace yet.
    pub(crate) cores_unfinished: usize,
    /// Banks whose [`L2Bank::sync`]-cached busy flag is set.
    pub(crate) busy_l2_count: usize,
    // --- robustness layer (all `None` on the clean fast path) ---
    /// Seeded fault decision-maker; present only when the campaign is
    /// enabled, so the clean path pays a single branch per injection.
    pub(crate) injector: Option<FaultInjector>,
    /// Periodic MESI-invariant sweeper.
    pub(crate) sanitizer: Option<Sanitizer>,
    /// Next cycle at/after which a sweep runs.
    pub(crate) next_sweep: Cycle,
    /// Forward-progress monitor (read-only observer).
    pub(crate) watchdog: Option<Watchdog>,
    /// Scheduler iterations completed (the watchdog's clock: each
    /// iteration advances `now` by at least one cycle).
    pub(crate) iters: u64,
    /// Test/campaign hook: silently drop whole-line data replies at the
    /// sender NI, bypassing the fault injector's recovery accounting —
    /// the synthetic livelock reproducer for the watchdog tests.
    pub(crate) drop_data_replies: bool,
    // --- reusable scratch buffers (hot-loop allocation sinks) ---
    pub(crate) delivered_scratch: Vec<Delivered<ProtocolMsg>>,
    pub(crate) due_scratch: Vec<u32>,
    /// Per-phase wall-clock attribution; `None` unless enabled via
    /// [`CmpSimulator::enable_profiling`] or `TCMP_PROFILE=1`. Host-side
    /// measurement only — outside [`MachineSnapshot`].
    pub(crate) profile: Option<Box<PhaseProfile>>,
}

impl CmpSimulator {
    /// Build a simulator running `app` at `scale`, seeded with `seed`.
    pub fn new(cfg: SimConfig, app: &AppProfile, seed: u64, scale: f64) -> Self {
        cfg.cmp.validate().expect("valid machine config");
        cfg.interconnect
            .validate(&cfg.cmp)
            .expect("valid interconnect");
        let tiles = cfg.cmp.tiles();
        let tile_row = (0..tiles)
            .map(|t| {
                let core = Core::new(
                    Box::new(TraceGen::new(app, t, tiles, seed, scale)),
                    cfg.cmp.core_issue_width,
                );
                let mut l1 = L1Cache::new(
                    TileId::from(t),
                    cfg.cmp.l1.sets(),
                    cfg.cmp.l1.ways,
                    cfg.cmp.l1_mshrs,
                    tiles,
                );
                l1.set_expects_partial(cfg.interconnect.splits_replies());
                let ni = NetIface {
                    codec: CompressionEngine::new(cfg.scheme, tiles),
                    probes: cfg
                        .coverage_probes
                        .iter()
                        .map(|&scheme| CompressionEngine::new(scheme, tiles))
                        .collect(),
                    tracker: ResyncTracker::new(tiles),
                };
                Tile {
                    core,
                    l1,
                    ni,
                    parked: false,
                }
            })
            .collect();
        let l2s = (0..tiles)
            .map(|t| L2Bank {
                slice: coherence::l2::L2Slice::with_directory(
                    TileId::from(t),
                    cfg.cmp.l2_slice.sets(),
                    cfg.cmp.l2_slice.ways,
                    tiles,
                    cfg.cmp.directory,
                ),
                busy: false,
            })
            .collect();
        let noc = Noc::new(
            cfg.cmp.mesh,
            cfg.interconnect
                .noc_config(&cfg.cmp.network, cfg.cmp.clock_hz),
        );
        let mem = MemCtrl::new(cfg.cmp.mem_latency_cycles);
        let barrier = BarrierState::new(tiles);
        let injector = cfg
            .faults
            .enabled()
            .then(|| FaultInjector::new(cfg.faults.clone()));
        let sanitizer = cfg.sanitizer.map(Sanitizer::new);
        let next_sweep = cfg.sanitizer.map_or(Cycle::MAX, |s| s.period);
        CmpSimulator {
            app_name: app.name.to_string(),
            tiles: tile_row,
            l2s,
            noc,
            mem,
            barrier,
            calendar: Calendar::new(tiles),
            now: 0,
            cores_unfinished: tiles,
            busy_l2_count: 0,
            injector,
            sanitizer,
            next_sweep,
            watchdog: cfg.watchdog.map(Watchdog::new),
            iters: 0,
            drop_data_replies: false,
            delivered_scratch: Vec::new(),
            due_scratch: Vec::new(),
            profile: profile_from_env().then(Box::default),
            cfg,
        }
    }

    /// Turn on per-phase wall-clock attribution for the rest of the
    /// run (see [`profile::PhaseProfile`]; also enabled by
    /// `TCMP_PROFILE=1`). Idempotent; already-elapsed phases are simply
    /// not counted. Profiling never changes a run's simulated outcome —
    /// only its wall-clock cost, by percents.
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// The accumulated phase profile, if profiling is enabled.
    pub fn phase_profile(&self) -> Option<&PhaseProfile> {
        self.profile.as_deref()
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> Cycle {
        self.now
    }

    /// Run to completion and report.
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        while self.step()? {}
        Ok(self.finish())
    }

    /// Route a controller's side effects through `tile`'s outbound ports.
    fn process_outgoing(&mut self, tile: TileId, outs: OutVec) {
        TilePorts::new(tile, self.now, &mut self.calendar, &mut self.mem).route(outs);
    }

    /// Re-cache core `t`'s ready cycle after its state may have changed.
    fn refresh_core(&mut self, t: usize) {
        let r = self.tiles[t].core.ready_at().unwrap_or(Cycle::MAX);
        self.calendar.set_core_ready(t, r);
    }

    /// Re-cache L2 bank `d`'s busy flag after it handled work.
    fn sync_bank(&mut self, d: usize) {
        let delta = self.l2s[d].sync();
        self.busy_l2_count = (self.busy_l2_count as i64 + delta as i64) as usize;
    }

    /// Machine snapshot for a structured failure report.
    #[cold]
    #[inline(never)]
    fn dump(&self) -> StateDump {
        let tiles = (0..self.cfg.cmp.tiles())
            .map(|t| TileDump {
                tile: TileId::from(t),
                core: self.tiles[t].core.describe(),
                mshr_lines: self.tiles[t].l1.mshr_lines().collect(),
                l2_busy: self.l2s[t].slice.busy_lines().collect(),
                l2_fills: self.l2s[t].slice.fill_lines().collect(),
                l2_pending: self.l2s[t].slice.queued_requests(),
                ni_backlog: self.noc.tile_backlog(t),
            })
            .collect();
        StateDump {
            cycle: self.now,
            tiles,
            mem_reads: self
                .mem
                .outstanding_reads()
                .map(|r| (r.tile, r.line, r.ready_at))
                .collect(),
            delayed_events: self.calendar.delayed_len(),
            held_messages: self.noc.held_count(),
            live_messages: self.noc.live_messages(),
        }
    }

    /// Wrap a controller's rejection into the run-level error.
    #[cold]
    #[inline(never)]
    fn protocol_error(&self, error: ProtocolError) -> SimError {
        SimError::Protocol {
            cycle: self.now,
            error,
            dump: Box::new(self.dump()),
        }
    }

    /// Instructions retired across all cores so far (the watchdog's
    /// progress probe).
    fn total_instructions(&self) -> u64 {
        self.tiles.iter().map(|t| t.core.stats().instructions).sum()
    }

    /// Build the structured livelock report the watchdog aborts with.
    #[cold]
    #[inline(never)]
    fn no_forward_progress(&self, stalled_for: Cycle) -> SimError {
        let tiles = (0..self.cfg.cmp.tiles())
            .map(|t| TileStall {
                tile: TileId::from(t),
                core: self.tiles[t].core.describe(),
                mshrs_in_use: self.tiles[t].l1.mshr_lines().count(),
                ni_backlog: self.noc.tile_backlog(t),
            })
            .collect();
        SimError::NoForwardProgress {
            cycle: self.now,
            stalled_for,
            tiles,
            calendar_head: self.calendar.next_delayed(),
            oldest_in_flight: self
                .noc
                .oldest_in_flight()
                .map(|(injected_at, src, dst, class)| OldestInFlight {
                    injected_at,
                    src,
                    dst,
                    class,
                }),
            dump: Box::new(self.dump()),
        }
    }

    /// A delayed event fires: local messages are delivered directly (they
    /// never touch the network); remote ones go through compression and
    /// channel mapping, then into the NoC.
    fn fire(&mut self, ev: DelayedEvent) -> Result<(), SimError> {
        if ev.src == ev.dst {
            return self.deliver(ev.src, ev.dst, ev.msg);
        }
        // Reply Partitioning: a data response is split at the sender's NI
        // into a critical partial reply (the requested word, on the fast
        // wires) plus the ordinary whole-line reply.
        if self.cfg.interconnect.splits_replies() {
            if let Some(of) = coherence::msg::PartialOf::of_kind(ev.msg.kind) {
                self.inject_one(
                    ProtocolMsg::new(PKind::PartialReply { of }, ev.msg.line),
                    ev,
                )?;
            }
        }
        // Livelock-reproducer hook: lose the whole-line reply after any
        // partial has gone out, so requesters run ahead on partials while
        // their MSHRs wait forever for fills that never come.
        if self.drop_data_replies
            && matches!(ev.msg.kind, PKind::DataS | PKind::DataE | PKind::DataM)
        {
            return Ok(());
        }
        self.inject_one(ev.msg, ev)
    }

    fn inject_one(&mut self, msg: ProtocolMsg, ev: DelayedEvent) -> Result<(), SimError> {
        let mut msg = msg;
        // The fault decision models an event in the NI input buffer: it
        // lands before the codec, so a drop never updates compression
        // state and a corrupted address is what gets compressed, routed
        // and homed.
        let action = match &mut self.injector {
            Some(inj) => inj.decide(self.now),
            None => FaultAction::None,
        };
        if let FaultAction::Corrupt(mask) = action {
            msg.line ^= mask;
        }
        if action == FaultAction::Drop {
            return Ok(());
        }
        let class = msg.class();
        let faults_live = self.injector.is_some();
        let s = ev.src.index();
        let wire_bytes = self.tiles[s]
            .ni
            .wire_size(self.now, ev.dst, class, msg.line, faults_live);
        if action == FaultAction::Desync {
            // Receiver-mirror corruption: this message still rides the
            // (now stale) codec; the *next* compressible send to the pair
            // detects the divergence via its tag.
            self.tiles[s].ni.codec.fault_desync(ev.dst, class);
        }
        let channel = map_channel(self.cfg.interconnect, class, wire_bytes);
        let message = Message {
            src: ev.src,
            dst: ev.dst,
            class,
            wire_bytes,
            channel,
            payload: msg,
        };
        let injected = match action {
            FaultAction::Duplicate => self
                .noc
                .inject(self.now, message.clone())
                .and_then(|()| self.noc.inject(self.now, message)),
            FaultAction::Delay(extra) => self.noc.inject_held(self.now + extra, message),
            _ => self.noc.inject(self.now, message),
        };
        if let Err(e) = injected {
            return Err(self.protocol_error(ProtocolError::internal(
                ev.src,
                msg.line,
                e.to_string(),
            )));
        }
        Ok(())
    }

    /// Consult the fault injector for one completed off-chip read — the
    /// memory-controller response path. Returns the (possibly
    /// address-corrupted) reply plus how many times to deliver it, or
    /// `None` when the reply was lost or re-queued with extra delay. A
    /// dropped or corrupted fill wedges or confuses the waiting home
    /// slice, which the watchdog/protocol layer must then report
    /// structurally; a duplicated fill arrives at a slice that is no
    /// longer expecting it — the same obligation.
    fn fault_mem_reply(&mut self, mut r: MemRead) -> Option<(MemRead, u32)> {
        let action = match &mut self.injector {
            Some(inj) => inj.decide_on(FaultPath::MemReply, self.now),
            None => return Some((r, 1)),
        };
        match action {
            FaultAction::None | FaultAction::Desync => Some((r, 1)),
            FaultAction::Drop => None,
            FaultAction::Duplicate => Some((r, 2)),
            FaultAction::Delay(extra) => {
                // extra >= 1, so the re-queued reply cannot come ready
                // again within this same phase-1 drain.
                r.ready_at = self.now + extra;
                self.mem.requeue_delayed(r);
                None
            }
            FaultAction::Corrupt(mask) => {
                r.line ^= mask;
                Some((r, 1))
            }
        }
    }

    fn deliver(&mut self, src: TileId, dst: TileId, msg: ProtocolMsg) -> Result<(), SimError> {
        let d = dst.index();
        match msg.kind {
            PKind::GetS | PKind::GetX | PKind::Upgrade => {
                let outs = self.l2s[d]
                    .slice
                    .handle_request(src, msg.kind, msg.line)
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(dst, outs);
                let pumped = self.l2s[d]
                    .slice
                    .pump()
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(dst, pumped);
                self.sync_bank(d);
            }
            PKind::InvAck
            | PKind::FwdFailed
            | PKind::FwdDone
            | PKind::RevisionClean
            | PKind::RevisionDirty
            | PKind::RecallAckData
            | PKind::RecallAckClean => {
                let outs = self.l2s[d]
                    .slice
                    .handle_reply(src, msg.kind, msg.line)
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(dst, outs);
                let pumped = self.l2s[d]
                    .slice
                    .pump()
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(dst, pumped);
                self.sync_bank(d);
            }
            PKind::WbData | PKind::WbHint => {
                let outs = self.l2s[d]
                    .slice
                    .handle_writeback(src, msg.kind, msg.line)
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(dst, outs);
                let pumped = self.l2s[d]
                    .slice
                    .pump()
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(dst, pumped);
                self.sync_bank(d);
            }
            PKind::DataS
            | PKind::DataE
            | PKind::DataM
            | PKind::PartialReply { .. }
            | PKind::UpgradeAck
            | PKind::Inv
            | PKind::FwdGetS { .. }
            | PKind::FwdGetX { .. }
            | PKind::RecallData => {
                let (outs, done) = self.tiles[d]
                    .l1
                    .handle(msg)
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(dst, outs);
                if done.is_some() {
                    self.tiles[d].core.mem_complete(self.now);
                    self.refresh_core(d);
                }
            }
        }
        Ok(())
    }

    /// Close a phase-profile timer into the bucket `f` selects (no-op
    /// unless profiling is enabled).
    #[inline]
    fn prof(&mut self, m: profile::Mark, f: impl FnOnce(&mut PhaseProfile) -> &mut u64) {
        if let Some(p) = self.profile.as_mut() {
            m.stop(f(p));
        }
    }

    fn step_core(&mut self, t: usize) {
        let was_done = self.tiles[t].core.is_done();
        self.step_core_inner(t);
        if !was_done && self.tiles[t].core.is_done() {
            self.cores_unfinished -= 1;
        }
    }

    fn step_core_inner(&mut self, t: usize) {
        loop {
            match self.tiles[t].core.next_action(self.now) {
                Action::Access { line, write } => {
                    let access = if write {
                        CoreAccess::Write
                    } else {
                        CoreAccess::Read
                    };
                    match self.tiles[t].l1.core_access(line, access) {
                        L1Result::Hit => {
                            self.tiles[t].core.mem_hit(self.now);
                            // falls through: next_action will report Idle
                        }
                        L1Result::Miss { out } => {
                            self.tiles[t].core.mem_miss_started(self.now);
                            self.process_outgoing(TileId::from(t), out);
                            return;
                        }
                        L1Result::Blocked => {
                            self.tiles[t].core.mem_retry(self.now);
                            return;
                        }
                    }
                }
                Action::AtBarrier(id) => {
                    self.tiles[t].parked = true;
                    if self.barrier.arrive(t, id) {
                        for p in 0..self.tiles.len() {
                            if self.tiles[p].parked {
                                self.tiles[p].core.barrier_release(self.now);
                                self.tiles[p].parked = false;
                                self.refresh_core(p);
                            }
                        }
                    }
                    return;
                }
                Action::Idle { .. } | Action::Done => return,
            }
        }
    }

    /// O(1): every term is a live counter kept in sync as state changes
    /// (the scan-per-iteration predecessor walked all cores and slices).
    fn all_done(&self) -> bool {
        self.cores_unfinished == 0
            && self.noc.is_idle()
            && self.calendar.delayed_len() == 0
            && self.mem.outstanding() == 0
            && self.busy_l2_count == 0
    }

    fn next_interesting(&mut self) -> Option<Cycle> {
        let mut next = Cycle::MAX;
        if let Some(r) = self.calendar.earliest_ready_core() {
            next = next.min(r);
        }
        if let Some(n) = self.noc.next_event_cycle(self.now) {
            next = next.min(n);
        }
        if let Some(m) = self.mem.next_ready() {
            next = next.min(m);
        }
        if let Some(d) = self.calendar.next_delayed() {
            next = next.min(d);
        }
        (next != Cycle::MAX).then_some(next.max(self.now + 1))
    }

    fn diagnostics(&self) -> String {
        let running = self.tiles.iter().filter(|t| !t.core.is_done()).count();
        let parked = self.tiles.iter().filter(|t| t.parked).count();
        let busy_l2 = self.l2s.iter().filter(|b| !b.slice.is_quiescent()).count();
        format!(
            "{} cores unfinished ({} parked at barrier {}), noc idle={}, \
             {} delayed events, {} mem reads outstanding, {} busy L2 slices",
            running,
            parked,
            self.barrier.epoch(),
            self.noc.is_idle(),
            self.calendar.delayed_len(),
            self.mem.outstanding(),
            busy_l2
        )
    }

    /// One scheduler iteration: drain everything due at `self.now`, then
    /// jump the clock to the next interesting cycle. Returns `Ok(false)`
    /// once the workload has fully drained. Public so fault-campaign
    /// drivers and robustness tests can interleave corruption hooks with
    /// the run; [`CmpSimulator::run`] is the normal entry point.
    pub fn step(&mut self) -> Result<bool, SimError> {
        if self.all_done() {
            return Ok(false);
        }
        if self.now >= self.cfg.max_cycles {
            return Err(SimError::Watchdog { cycle: self.now });
        }
        self.iters += 1;
        if let Some(p) = self.profile.as_mut() {
            p.iterations += 1;
        }
        if self
            .watchdog
            .as_ref()
            .is_some_and(|w| w.check_due(self.iters))
        {
            let instructions = self.total_instructions();
            // Summed across the per-sub-network delivery counters — cheap.
            let delivered = self.noc.delivered_total();
            let iters = self.iters;
            let now = self.now;
            let wd = self.watchdog.as_mut().expect("checked above");
            if let Some(stalled_for) = wd.observe(iters, now, instructions, delivered) {
                return Err(self.no_forward_progress(stalled_for));
            }
        }
        // 0. sanitizer sweep (read-only, between-iteration state is a
        // consistent boundary for its invariants)
        if let Some(san) = self
            .sanitizer
            .as_mut()
            .filter(|_| self.now >= self.next_sweep)
        {
            let l1s: Vec<&L1Cache> = self.tiles.iter().map(|t| &t.l1).collect();
            let l2s: Vec<&coherence::l2::L2Slice> = self.l2s.iter().map(|b| &b.slice).collect();
            let violations = san.sweep(self.now, &l1s, &l2s);
            self.next_sweep = self.now + san.period();
            if !violations.is_empty() {
                return Err(SimError::Sanitizer {
                    cycle: self.now,
                    violations,
                    dump: Box::new(self.dump()),
                });
            }
        }
        // 1.–4. the per-cycle phases: memory completions, delayed sends,
        // network, cores
        self.step_phases()?;
        // 5. advance
        let m = profile::Mark::start(self.profile.is_some());
        let next = self.next_interesting();
        self.prof(m, |p| &mut p.advance_ns);
        match next {
            Some(next) => {
                self.now = next;
                self.noc.advance_clock(next);
                Ok(true)
            }
            None => {
                if self.all_done() {
                    Ok(false)
                } else {
                    Err(SimError::Deadlock {
                        cycle: self.now,
                        diagnostics: self.diagnostics(),
                        dump: Box::new(self.dump()),
                    })
                }
            }
        }
    }

    /// Phases 1–4 of one iteration.
    fn step_phases(&mut self) -> Result<(), SimError> {
        let profiling = self.profile.is_some();
        // 1. memory completions (each reply consults the fault injector
        //    when a campaign is live — the off-chip reply path)
        let m = profile::Mark::start(profiling);
        while let Some(r) = self.mem.pop_next_ready(self.now) {
            let (reply, deliveries) = match self.fault_mem_reply(r) {
                Some(v) => v,
                None => continue, // dropped or re-queued with extra delay
            };
            for _ in 0..deliveries {
                let outs = self.l2s[reply.tile.index()]
                    .slice
                    .mem_fill_done(reply.line)
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(reply.tile, outs);
                let pumped = self.l2s[reply.tile.index()]
                    .slice
                    .pump()
                    .map_err(|e| self.protocol_error(e))?;
                self.process_outgoing(reply.tile, pumped);
                self.sync_bank(reply.tile.index());
            }
        }
        self.prof(m, |p| &mut p.mem_fills_ns);
        // 2. delayed sends due now
        let m = profile::Mark::start(profiling);
        while let Some(ev) = self.calendar.pop_delayed_due(self.now) {
            self.fire(ev)?;
        }
        self.prof(m, |p| &mut p.calendar_ns);
        // 3. network
        let mut delivered = std::mem::take(&mut self.delivered_scratch);
        delivered.clear();
        let m = profile::Mark::start(profiling);
        self.noc.tick_into(self.now, &mut delivered);
        self.prof(m, |p| &mut p.noc_tick_ns);
        let mut failed = None;
        for d in delivered.drain(..) {
            if failed.is_some() {
                continue; // drain the rest; the run is already aborting
            }
            let to_l1 = profiling && l1_bound(&d.message.payload.kind);
            let m = profile::Mark::start(profiling);
            if let Err(e) = self.deliver(d.message.src, d.message.dst, d.message.payload) {
                failed = Some(e);
            }
            self.prof(m, |p| {
                if to_l1 {
                    &mut p.l1_deliver_ns
                } else {
                    &mut p.l2_deliver_ns
                }
            });
        }
        self.delivered_scratch = delivered;
        if let Some(e) = failed {
            return Err(e);
        }
        // 4. cores due now, in ascending tile order (reproduces the
        // original full scan exactly, keeping delayed-event sequencing —
        // and therefore the determinism goldens — bit-identical).
        let mut due = std::mem::take(&mut self.due_scratch);
        self.calendar.drain_cores_due(self.now, &mut due);
        let m = profile::Mark::start(profiling);
        for &t in &due {
            self.step_core(t as usize);
            self.refresh_core(t as usize);
        }
        self.prof(m, |p| &mut p.cores_ns);
        self.due_scratch = due;
        Ok(())
    }

    /// Faults injected so far (`None` without a campaign).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// Arm (or re-arm) the periodic protocol sanitizer mid-run, with the
    /// first sweep due immediately. Arming is part of the machine's
    /// shape, so a [`MachineSnapshot`] taken before arming is refused
    /// afterwards: forensic replay — rewind a watchdog-aborted cell to
    /// its last checkpoint and re-step with sweeps on — calls this
    /// *after* the restore. Sweeps are read-only, so arming cannot
    /// change a healthy run's outcome.
    pub fn arm_sanitizer(&mut self, cfg: SanitizerConfig) {
        self.sanitizer = Some(Sanitizer::new(cfg));
        self.next_sweep = self.now;
    }

    /// Enable/disable the synthetic livelock: whole-line data replies are
    /// silently lost at the sender NI (partial replies still flow), so
    /// MSHRs pin and cores spin on blocked accesses, without the fault
    /// injector's recovery accounting. Campaign/test hook for the
    /// forward-progress watchdog; never touched on the clean path.
    #[doc(hidden)]
    pub fn fault_drop_data_replies(&mut self, enable: bool) {
        self.drop_data_replies = enable;
    }

    /// Codec-resynchronisation accounting summed across all tiles.
    pub fn resync_stats(&self) -> ResyncStats {
        let mut total = ResyncStats::default();
        for tile in &self.tiles {
            let s = tile.ni.tracker.stats();
            total.desyncs_detected += s.desyncs_detected;
            total.resyncs_completed += s.resyncs_completed;
            total.fallback_msgs += s.fallback_msgs;
        }
        total
    }

    /// Flits sent per outgoing link of one channel kind (utilisation
    /// heatmaps; see the `linkstat` diagnostic binary).
    pub fn link_flit_counts(
        &self,
        kind: mesh_noc::config::ChannelKind,
    ) -> Vec<(usize, cmp_common::geometry::Direction, u64)> {
        self.noc.link_flit_counts(kind)
    }

    /// Consistency check used by tests: the L1's home mapping must agree
    /// with the machine description's.
    pub fn homes_agree(cfg: &CmpConfig) -> bool {
        (0..4096u64)
            .all(|line| coherence::l1::home_of(line, cfg.tiles()) == cfg.home_tile(line << 6))
    }
}

#[cfg(test)]
mod tests;
