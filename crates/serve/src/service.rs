//! The campaign service proper: a bounded queue of matrix cells from
//! many campaigns, drained by one shared worker pool, with campaigns
//! that outlive their submitters.
//!
//! * **Admission control.** The cell queue is bounded; a submission
//!   that would overflow it is refused with a structured
//!   [`RejectReason::Overloaded`] carrying the numbers the client needs
//!   to back off. The service never queues unboundedly, never panics on
//!   load, never silently drops a campaign.
//! * **Durability.** Every campaign persists its request
//!   (`campaign.json`) and a cell journal (`journal.jsonl`, fsynced
//!   per record) under `<root>/campaigns/<id>/`. A service killed at
//!   any instant — SIGKILL included — replays every campaign on restart
//!   and re-queues exactly the unfinished cells; the resumed CSVs are
//!   bit-identical to an uninterrupted run's.
//! * **Quarantine, don't crash.** A campaign directory whose request or
//!   journal no longer parses (torn by a crash, written by different
//!   code) is logged and skipped; the service still starts and every
//!   healthy campaign still resumes.
//! * **Shared warm starts.** One [`DiskStore`] under
//!   `<root>/checkpoints/` spans all campaigns and service lifetimes:
//!   the cold-start prefix of a (config, app, seed, scale) cell is
//!   simulated once and fast-forwarded into every later cell sharing
//!   it, with load-time digest verification falling back to a fresh
//!   simulation on corruption. A store that cannot open costs warm
//!   starts, never the service: its cells run cold.
//! * **Each simulation once.** A worker that claims a cell first looks
//!   its [`reuse_key`] up among the cells every campaign has finished
//!   (this lifetime's, and the rows resumed campaigns replayed). On a
//!   hit the cell simulates nothing: the finished row is journaled into
//!   its own campaign and reported with the `"journal"` label. So a
//!   resubmitted request, or Figure 7 after Figure 6, costs no
//!   simulation. A cell whose key is running right now is parked on
//!   that run, holding no worker: it takes the row when the run
//!   finishes, and goes back to the queue when the run fails. Only
//!   finished rows are taken, so a cell that failed runs again. A
//!   resumed campaign's rows are taken only when its [`BUILD_FILE`]
//!   names the running binary: the journal's git SHA cannot tell a
//!   binary rebuilt from an uncommitted tree from the old one. Warm
//!   starts serve the cells no row answers.
//!
//! `tcmp-fig` runs every campaign on a service too — the daemon's over
//! `--submit`, or one it starts in-process on its `--out` directory —
//! so there is one worker pool and one claim path.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cmp_common::fsx::Fs;
use cmp_common::journal::{fingerprint, Journal, JournalError, Json};
use cmp_common::types::Cycle;
use tcmp_core::checkpoint::{DiskConfig, DiskStore};
use tcmp_core::supervisor::{cell_key, reuse_key, CellOutcome, SweepState};

use crate::plan::{markdown, CampaignPlan, Outcome};
use crate::proto::{
    CacheCounts, CampaignRequest, CampaignStatus, Event, Figure, RejectReason, Response,
};

/// Directory under the state root holding one directory per campaign.
pub const CAMPAIGNS_DIR: &str = "campaigns";

/// File holding a campaign's request, next to its journal.
pub const CAMPAIGN_FILE: &str = "campaign.json";

/// File naming the binary that made every row in a campaign's journal
/// (a fingerprint of its path, size and modification time); absent
/// when no single binary can be named.
pub const BUILD_FILE: &str = "build.id";

/// The identity of the running binary: a fingerprint of its path, size
/// and modification time, read once per process. A rebuild rewrites
/// the binary, so a daemon rebuilt from the same commit — an
/// uncommitted edit included — is another build. `None` when the
/// binary cannot be inspected; then no earlier lifetime's row is taken.
fn build_id() -> Option<&'static str> {
    static ID: OnceLock<Option<String>> = OnceLock::new();
    ID.get_or_init(|| {
        let exe = std::env::current_exe().ok()?;
        let meta = std::fs::metadata(&exe).ok()?;
        let desc = format!("{exe:?}|{}|{:?}", meta.len(), meta.modified().ok()?);
        Some(fingerprint(&desc))
    })
    .as_deref()
}

/// How many events a subscriber may fall behind before it is dropped
/// (it can re-attach and catch up from the campaign's slots).
const SUBSCRIBER_BUFFER: usize = 1024;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// State root; campaigns live under `<root>/campaigns/<id>/`
    /// ([`CAMPAIGNS_DIR`]).
    pub root: PathBuf,
    /// Worker threads draining the shared cell queue.
    pub jobs: usize,
    /// Admission bound on queued (not yet claimed) cells.
    pub queue_bound: usize,
    /// Warm-start point in cycles; 0 disables warm starts and the
    /// checkpoint store entirely.
    pub warm_cycles: Cycle,
    /// Byte budget of the checkpoint store under
    /// `<root>/checkpoints/` (FIFO eviction beyond it). The store
    /// exists whenever `warm_cycles > 0`.
    pub checkpoint_byte_budget: u64,
    /// Stop claiming cells after this many attempts — the in-process
    /// analogue of SIGKILLing the service mid-campaign, used by the
    /// resume tests (`None` = run everything).
    pub cell_limit: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            root: PathBuf::from("tcmp-serve-state"),
            jobs: 2,
            queue_bound: 1024,
            warm_cycles: 0,
            checkpoint_byte_budget: 2 << 30,
            cell_limit: None,
        }
    }
}

/// One queued unit of work: a cell index within a campaign.
struct CellTask {
    campaign: Arc<Campaign>,
    index: usize,
}

/// The shared queue. `reserved` counts cells a submission has been
/// admitted for but not yet pushed (its directory and journal are
/// being created outside the lock); admission counts them so two
/// concurrent submissions cannot both squeeze under the bound.
struct QueueState {
    tasks: VecDeque<CellTask>,
    reserved: usize,
    /// Cells claimed by workers so far (for `cell_limit`).
    attempted: usize,
}

/// One campaign as the service holds it: where it lives and who is
/// listening. What its request *means* is its [`CampaignPlan`] and how
/// far it has got is its [`SweepState`].
pub struct Campaign {
    pub id: String,
    plan: CampaignPlan,
    dir: PathBuf,
    /// The filesystem seam CSVs are finalised through (shared with the
    /// service; fault campaigns arm it via `TCMP_FS_FAULTS`).
    fs: Fs,
    /// The journal and one outcome slot per cell.
    run: SweepState<Journal>,
    /// Each cell's [`reuse_key`], index-aligned with the plan's cells.
    reuse_keys: Vec<String>,
    /// Whether the running binary made every row the journal replayed
    /// (its [`BUILD_FILE`] names it), so other cells may take them.
    rows_of_this_build: bool,
    finished: AtomicBool,
    subscribers: Mutex<Vec<SyncSender<Event>>>,
}

impl Campaign {
    /// Open the campaign whose request is persisted in `dir`: resume
    /// its journal, rows of finished cells replaying into the run
    /// state — or start the journal, for a fresh submission and for a
    /// service killed between `campaign.json` and the journal's first
    /// byte alike. The plan is fingerprinted into the journal meta, so
    /// a journal written under a different directory organisation is a
    /// detected mismatch, not a silent re-run on the wrong machine.
    ///
    /// A new journal's [`BUILD_FILE`] names the running binary. A
    /// resumed one whose file names another binary loses the file: its
    /// rows are not this build's, and the rows this lifetime adds would
    /// leave it naming no single build.
    fn open(fs: &Fs, id: &str, dir: &Path, plan: CampaignPlan) -> Result<Arc<Campaign>, String> {
        let (journal, fresh) = match Journal::resume_on(fs, dir, &plan.meta) {
            Ok(j) => (j, false),
            Err(JournalError::Missing(_)) => (
                Journal::create_on(fs, dir, &plan.meta).map_err(|e| e.to_string())?,
                true,
            ),
            Err(e) => return Err(e.to_string()),
        };
        let build_file = dir.join(BUILD_FILE);
        let rows_of_this_build = match build_id() {
            Some(build) if fresh => fs.write_atomic(&build_file, build).is_ok(),
            Some(build) => fs.read_to_string(&build_file).is_ok_and(|s| s == build),
            None => false,
        };
        if !rows_of_this_build {
            let _ = fs.remove_file(&build_file);
        }
        let reuse_keys = (plan.machines.iter().zip(&plan.specs))
            .map(|(machine, spec)| reuse_key(machine, spec, &plan.policy))
            .collect();
        Ok(Arc::new(Campaign {
            id: id.to_string(),
            run: SweepState::new(&plan.specs, Some(journal)),
            reuse_keys,
            rows_of_this_build,
            plan,
            dir: dir.to_path_buf(),
            fs: fs.clone(),
            finished: AtomicBool::new(false),
            subscribers: Mutex::new(Vec::new()),
        }))
    }

    /// Total cells.
    pub fn cells(&self) -> usize {
        self.plan.specs.len()
    }

    /// What the campaign's request means.
    pub fn plan(&self) -> &CampaignPlan {
        &self.plan
    }

    /// Where the campaign lives: `<root>/campaigns/<id>/`.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every cell's outcome as it stands, index-aligned with the plan's
    /// cells (`None` where a cell has none yet).
    pub fn outcomes(&self) -> Vec<Outcome> {
        let mut outcomes: Vec<Outcome> = vec![None; self.cells()];
        self.run.for_each_outcome(|index, outcome| {
            outcomes[index] = Some(outcome.as_ref().cloned().map_err(|f| f.error.clone()))
        });
        outcomes
    }

    /// `(completed, failed, finished)` right now: cells that ended as
    /// the figure expects ([`CampaignPlan::expected`]) and cells that
    /// did not.
    pub fn progress(&self) -> (usize, usize, bool) {
        let (mut done, mut failed) = (0, 0);
        self.run.for_each_outcome(|index, outcome| {
            let outcome = outcome.as_ref().map_err(|f| &f.error);
            match self.plan.expected(index, outcome) {
                true => done += 1,
                false => failed += 1,
            }
        });
        (done, failed, self.finished.load(Ordering::SeqCst))
    }

    /// Subscribe to this campaign's live events. The channel is
    /// bounded: a subscriber that stops reading is dropped, not waited
    /// on (it can re-attach).
    pub fn subscribe(&self) -> Receiver<Event> {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_BUFFER);
        lock(&self.subscribers).push(tx);
        rx
    }

    /// The terminal event of cell `index` given its outcome; `warm`
    /// labels how a finished cell crossed the warm point.
    fn outcome_event(&self, index: usize, outcome: &CellOutcome, warm: &str) -> Event {
        let campaign = self.id.clone();
        let cell = cell_key(&self.plan.specs[index]);
        match outcome {
            Ok(r) => Event::CellFinish {
                campaign,
                index,
                cell,
                cycles: r.cycles,
                warm: warm.to_string(),
            },
            Err(f) => Event::CellFail {
                campaign,
                index,
                cell,
                attempts: f.attempts,
                error: f.error.brief(),
            },
        }
    }

    fn done_event(&self) -> Event {
        let (completed, failed, _) = self.progress();
        Event::CampaignDone {
            campaign: self.id.clone(),
            completed,
            failed,
        }
    }

    /// Synthetic catch-up events for every cell that already has an
    /// outcome — sent to a re-attaching client before the live stream.
    /// Overlap with live events is possible by design; clients
    /// deduplicate by cell index.
    pub fn catchup(&self) -> Vec<Event> {
        let mut events = Vec::new();
        self.run.for_each_outcome(|index, outcome| {
            events.push(self.outcome_event(index, outcome, "journal"))
        });
        if self.finished.load(Ordering::SeqCst) {
            events.push(self.done_event());
        }
        events
    }

    fn emit(&self, event: Event) {
        lock(&self.subscribers).retain(|tx| match tx.try_send(event.clone()) {
            Ok(()) => true,
            // A full buffer or a vanished client both mean "this
            // subscriber is no longer keeping up": drop it. The
            // campaign itself is unaffected.
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => false,
        });
    }

    /// Render and atomically write this campaign's figure CSVs from its
    /// cells' outcomes: `results.<suffix>` in its directory, or for
    /// `all` each figure's, with the printed text as `results.md`, in
    /// `<figure>/` under it. Each figure's CSVs carry its own stamp.
    /// Idempotent: a resume that finds everything already done
    /// rewrites the same bytes.
    fn finalize(&self) {
        let all = self.plan.figure == Figure::All;
        let outcomes = self.outcomes();
        for (plan, outcomes) in self.plan.figures(&outcomes) {
            let tables = plan.render(&outcomes);
            let dir = match all {
                true => self.dir.join(plan.figure.name()),
                false => self.dir.clone(),
            };
            if all {
                let md = dir.join("results.md");
                let text = markdown(&tables, plan.landmarks());
                let written =
                    (self.fs.create_dir_all(&dir)).and_then(|()| self.fs.write_atomic(&md, text));
                if let Err(e) = written {
                    eprintln!("campaign {}: writing {}: {e}", self.id, md.display());
                }
            }
            for (suffix, table) in &tables {
                let file = dir.join(format!("results.{suffix}"));
                if let Err(e) = table.write_csv_stamped_on(&self.fs, &file, &plan.stamp()) {
                    eprintln!("campaign {}: writing {}: {e}", self.id, file.display());
                }
            }
        }
        self.finished.store(true, Ordering::SeqCst);
    }
}

/// The service: shared queue + worker pool + campaigns + checkpoints.
/// Construct via [`ServiceHandle::start`].
pub struct Service {
    cfg: ServeConfig,
    /// Every durable write of the service routes through this seam.
    fs: Fs,
    state: Mutex<QueueState>,
    work: Condvar,
    /// `Some` when `warm_cycles > 0` and the store opened.
    checkpoints: Option<DiskStore>,
    campaigns: Mutex<BTreeMap<String, Arc<Campaign>>>,
    rows: Mutex<Rows>,
    next_id: Mutex<u64>,
    draining: AtomicBool,
}

/// The rows that exist or are being made, by [`reuse_key`]. One lock
/// holds both maps, so a claimed cell sees a run either in flight or
/// finished, never neither.
#[derive(Default)]
struct Rows {
    /// Where each finished row is: the campaign and cell holding it
    /// (the first to finish it). Rows stay in their campaigns' slots;
    /// this holds no copy.
    finished: HashMap<String, (Arc<Campaign>, usize)>,
    /// Each key being simulated, with the cells parked on that run.
    running: HashMap<String, Vec<CellTask>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Service {
    /// Build the service: create the state root, replay every existing
    /// campaign directory (quarantining unreadable ones), and re-queue
    /// all unfinished cells. Does not spawn workers.
    fn new(cfg: ServeConfig) -> io::Result<Service> {
        // A malformed TCMP_FS_FAULTS spec is a hard startup error: a
        // fault campaign that silently ran without faults would report
        // false confidence.
        let fs = Fs::from_env().map_err(io::Error::other)?;
        let campaigns_dir = cfg.root.join(CAMPAIGNS_DIR);
        fs.create_dir_all(&campaigns_dir)?;
        // The checkpoint store lives beside the campaigns; one that
        // cannot open turns warm starts off (cells run cold), never the
        // service.
        let checkpoints = if cfg.warm_cycles > 0 {
            let disk_cfg = DiskConfig {
                byte_budget: cfg.checkpoint_byte_budget,
                ..DiskConfig::default()
            };
            match DiskStore::open(fs.clone(), cfg.root.join("checkpoints"), disk_cfg) {
                Ok(store) => Some(store),
                Err(e) => {
                    eprintln!("checkpoint store failed to open (cells run cold): {e}");
                    None
                }
            }
        } else {
            None
        };
        let service = Service {
            checkpoints,
            fs,
            state: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                reserved: 0,
                attempted: 0,
            }),
            work: Condvar::new(),
            campaigns: Mutex::new(BTreeMap::new()),
            rows: Mutex::new(Rows::default()),
            next_id: Mutex::new(1),
            draining: AtomicBool::new(false),
            cfg,
        };
        service.resume_existing(&campaigns_dir);
        Ok(service)
    }

    /// Replay `<root>/campaigns/*`: rebuild each campaign from its
    /// persisted request, resume its journal, and queue what is left.
    fn resume_existing(&self, campaigns_dir: &Path) {
        let dirs = match campaign_dirs(campaigns_dir) {
            Ok(dirs) => dirs,
            Err(e) => {
                eprintln!("cannot scan {}: {e}", campaigns_dir.display());
                return;
            }
        };
        for dir in dirs {
            let id = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if let Some(n) = id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok()) {
                let mut next = lock(&self.next_id);
                *next = (*next).max(n + 1);
            }
            match self.resume_one(&dir, &id) {
                Ok(campaign) => {
                    let pending = campaign.run.pending();
                    eprintln!(
                        "resumed campaign {id}: {} of {} cells already done",
                        campaign.cells() - pending.len(),
                        campaign.cells()
                    );
                    if campaign.rows_of_this_build {
                        campaign.run.for_each_outcome(|index, outcome| {
                            if outcome.is_ok() {
                                self.index_finished(&campaign, index)
                            }
                        });
                    }
                    if pending.is_empty() {
                        // Killed after the last cell but before (or
                        // during) the CSV write: finalise now.
                        campaign.finalize();
                    } else {
                        self.enqueue(&campaign, pending, 0);
                    }
                    lock(&self.campaigns).insert(id, campaign);
                }
                // Quarantine: an unreadable campaign never stops the
                // service (or the healthy campaigns) from starting.
                Err(reason) => eprintln!("quarantined campaign directory {id}: {reason}"),
            }
        }
    }

    fn resume_one(&self, dir: &Path, id: &str) -> Result<Arc<Campaign>, String> {
        let request = read_request(&self.fs, dir)?;
        let plan = CampaignPlan::new(&request).map_err(|reason| reason.to_string())?;
        Campaign::open(&self.fs, id, dir, plan)
    }

    /// Queue `cells` of `campaign`, releasing `reserved` admission
    /// slots in the same critical section.
    fn enqueue(&self, campaign: &Arc<Campaign>, cells: Vec<usize>, reserved: usize) {
        let mut st = lock(&self.state);
        st.reserved -= reserved;
        st.tasks.extend(cells.into_iter().map(|index| CellTask {
            campaign: Arc::clone(campaign),
            index,
        }));
        drop(st);
        self.work.notify_all();
    }

    /// Submit a campaign: plan, admission-check, persist, queue.
    /// Returns the response the daemon sends back verbatim.
    pub fn submit(&self, request: CampaignRequest) -> Response {
        self.submit_watched(request).0
    }

    /// [`Service::submit`], subscribed to the campaign before its cells
    /// are queued, so the events include every cell's `CellStart`.
    /// `None` when the request was refused.
    pub fn submit_watched(&self, request: CampaignRequest) -> (Response, Option<Receiver<Event>>) {
        if self.draining.load(Ordering::SeqCst) {
            return (Response::Rejected(RejectReason::Draining), None);
        }
        // Plan before anything is admitted or persisted: a request that
        // names an unknown app or a machine that does not validate is
        // refused with nothing left behind.
        let plan = match CampaignPlan::new(&request) {
            Ok(plan) => plan,
            Err(reason) => return (Response::Rejected(reason), None),
        };
        let requested = plan.specs.len();
        // Admit under the lock (reserving our cells), create the
        // directory and journal outside it, then push. The reservation
        // keeps two concurrent submissions from both fitting under the
        // bound; it is released on any setup failure.
        {
            let mut st = lock(&self.state);
            let queued = st.tasks.len() + st.reserved;
            if queued + requested > self.cfg.queue_bound {
                let reason = RejectReason::Overloaded {
                    queued,
                    bound: self.cfg.queue_bound,
                    requested,
                };
                return (Response::Rejected(reason), None);
            }
            st.reserved += requested;
        }
        let campaign = match self.create_campaign(&request, plan) {
            Ok(c) => c,
            Err(e) => {
                lock(&self.state).reserved -= requested;
                return (Response::Rejected(RejectReason::Internal(e)), None);
            }
        };
        lock(&self.campaigns).insert(campaign.id.clone(), Arc::clone(&campaign));
        let live = campaign.subscribe();
        self.enqueue(&campaign, campaign.run.pending(), requested);
        let submitted = Response::Submitted {
            campaign: campaign.id.clone(),
            cells: requested,
            resumed: 0,
        };
        (submitted, Some(live))
    }

    fn create_campaign(
        &self,
        request: &CampaignRequest,
        plan: CampaignPlan,
    ) -> Result<Arc<Campaign>, String> {
        let id = {
            let mut next = lock(&self.next_id);
            let id = format!("c{:04}", *next);
            *next += 1;
            id
        };
        let dir = self.cfg.root.join(CAMPAIGNS_DIR).join(&id);
        // Request first, journal second: a kill in between resumes as
        // a fresh campaign; a kill before the request leaves an empty
        // directory that is quarantined, never half-run.
        let persist_request = || {
            self.fs.create_dir_all(&dir)?;
            self.fs
                .write_atomic(dir.join(CAMPAIGN_FILE), request.to_json().render() + "\n")
        };
        persist_request().map_err(|e| e.to_string())?;
        Campaign::open(&self.fs, &id, &dir, plan)
    }

    /// Look up a campaign for re-attachment.
    pub fn attach(&self, id: &str) -> Result<Arc<Campaign>, RejectReason> {
        lock(&self.campaigns)
            .get(id)
            .cloned()
            .ok_or_else(|| RejectReason::UnknownCampaign(id.to_string()))
    }

    /// One status snapshot. `queued` counts every cell waiting to run:
    /// queued, reserved by a submission in flight, or parked on a twin's
    /// run.
    pub fn status(&self) -> Response {
        let queued = {
            let st = lock(&self.state);
            st.tasks.len() + st.reserved
        };
        let parked: usize = lock(&self.rows).running.values().map(Vec::len).sum();
        let queued = queued + parked;
        let campaigns = lock(&self.campaigns)
            .values()
            .map(|c| {
                let (done, failed, finished) = c.progress();
                CampaignStatus {
                    id: c.id.clone(),
                    cells: c.cells(),
                    done,
                    failed,
                    finished,
                }
            })
            .collect();
        let disk = self
            .checkpoints
            .as_ref()
            .map(DiskStore::counters)
            .unwrap_or_default();
        Response::StatusReport {
            queued,
            draining: self.draining.load(Ordering::SeqCst),
            campaigns,
            // One store, one counter set: the warm-start view and the
            // `disk_*` fields report the same counts.
            cache: CacheCounts {
                stores: disk.stores,
                hits: disk.hits,
                misses: disk.misses,
                quarantined: disk.quarantined,
                disk_stores: disk.stores,
                disk_hits: disk.hits,
                disk_quarantined: disk.quarantined,
                disk_evicted: disk.evicted,
                disk_resident_bytes: disk.resident_bytes,
            },
        }
    }

    /// The shared checkpoint store, when warm starts are on
    /// (status/test introspection).
    pub fn checkpoints(&self) -> Option<&DiskStore> {
        self.checkpoints.as_ref()
    }

    /// True once a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begin draining: refuse new submissions, stop claiming queued
    /// cells, let in-flight cells finish (their journal records land
    /// as usual). Already-queued, unclaimed cells stay journaled as
    /// unfinished and resume on the next start.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.work.notify_all();
    }

    /// Worker loop: claim queued cells until drained or `cell_limit`
    /// is exhausted.
    fn worker(&self) {
        loop {
            let task = {
                let mut st = lock(&self.state);
                loop {
                    if self.draining.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(limit) = self.cfg.cell_limit {
                        if st.attempted >= limit {
                            // The in-process SIGKILL analogue: stop
                            // claiming, leave the rest for a resume.
                            self.work.notify_all();
                            return;
                        }
                    }
                    if let Some(task) = st.tasks.pop_front() {
                        st.attempted += 1;
                        break task;
                    }
                    st = self.work.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            };
            self.run_task(task);
        }
    }

    /// Note that cell `index` of `campaign` holds a finished row. A row
    /// already indexed under the same key stays the one handed out.
    fn index_finished(&self, campaign: &Arc<Campaign>, index: usize) {
        lock(&self.rows)
            .finished
            .entry(campaign.reuse_keys[index].clone())
            .or_insert_with(|| (Arc::clone(campaign), index));
    }

    /// Settle a claimed cell one of three ways, decided under one look
    /// at the rows: take the finished row of its [`reuse_key`], park on
    /// the run of that key in flight, or be that run — and then hand
    /// the row to the cells parked on it, or put them back in the queue
    /// when it failed.
    fn run_task(&self, task: CellTask) {
        let key = task.campaign.reuse_keys[task.index].clone();
        let row = {
            let mut rows = lock(&self.rows);
            let finished = (rows.finished.get(&key)).and_then(|(holder, at)| holder.run.row(*at));
            if finished.is_none() {
                match rows.running.entry(key.clone()) {
                    Entry::Occupied(mut parked) => return parked.get_mut().push(task),
                    Entry::Vacant(run) => drop(run.insert(Vec::new())),
                }
            }
            finished
        };
        let (c, index) = (&task.campaign, task.index);
        // The cell's event goes out in the step that stores its outcome:
        // a client subscribing at any instant finds the cell in the
        // catch-up or on the live stream, and the worker that stores the
        // campaign's last outcome emits `CampaignDone` only after every
        // other cell's event is out.
        let tell = |outcome: &CellOutcome, warm: &str, outstanding: usize| {
            c.emit(c.outcome_event(index, outcome, warm));
            (outstanding == 0, outcome.is_ok())
        };
        let ran = row.is_none();
        let (last, ok) = match row {
            Some(row) => c.run.adopt(index, row, |outcome, outstanding| {
                tell(outcome, "journal", outstanding)
            }),
            None => {
                c.emit(Event::CellStart {
                    campaign: c.id.clone(),
                    index,
                    cell: cell_key(&c.plan.specs[index]),
                });
                let checkpoints = self
                    .checkpoints
                    .as_ref()
                    .map(|store| (store, self.cfg.warm_cycles));
                c.run.run_cell(
                    &c.plan.machines[index],
                    index,
                    &c.plan.policy,
                    checkpoints,
                    |outcome, warm, outstanding| tell(outcome, warm.label(), outstanding),
                )
            }
        };
        if ok {
            self.index_finished(c, index);
        }
        if last {
            c.finalize();
            c.emit(c.done_event());
        }
        if ran {
            // Indexed first: a cell claimed in between takes the row.
            let parked = lock(&self.rows).running.remove(&key).unwrap_or_default();
            match ok {
                true => parked.into_iter().for_each(|task| self.run_task(task)),
                false => {
                    lock(&self.state).tasks.extend(parked);
                    self.work.notify_all();
                }
            }
        }
    }
}

/// The request persisted in campaign directory `dir`.
fn read_request(fs: &Fs, dir: &Path) -> Result<CampaignRequest, String> {
    let text = fs
        .read_to_string(dir.join(CAMPAIGN_FILE))
        .map_err(|e| format!("reading {CAMPAIGN_FILE}: {e}"))?;
    CampaignRequest::from_json(&Json::parse(&text)?)
}

/// Every campaign directory in `campaigns_dir`, in id order.
fn campaign_dirs(campaigns_dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = std::fs::read_dir(campaigns_dir)?.filter_map(|e| e.ok().map(|e| e.path()));
    let mut dirs: Vec<PathBuf> = entries.filter(|p| p.is_dir()).collect();
    dirs.sort();
    Ok(dirs)
}

/// The id of the first campaign under state root `root` whose persisted
/// request is `request`: the one a service started on `root` resumes
/// for it.
pub fn find_campaign(root: &Path, request: &CampaignRequest) -> Option<String> {
    let dirs = campaign_dirs(&root.join(CAMPAIGNS_DIR)).ok()?;
    let dir =
        (dirs.iter()).find(|dir| read_request(&Fs::real(), dir).is_ok_and(|r| r == *request))?;
    Some(dir.file_name()?.to_string_lossy().into_owned())
}

/// A running service: the shared [`Service`] plus its worker pool.
pub struct ServiceHandle {
    service: Arc<Service>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// Start the service: resume persisted campaigns and spawn the
    /// worker pool.
    pub fn start(cfg: ServeConfig) -> io::Result<ServiceHandle> {
        let jobs = cfg.jobs.max(1);
        let service = Arc::new(Service::new(cfg)?);
        let workers = (0..jobs)
            .map(|i| {
                let service = Arc::clone(&service);
                std::thread::Builder::new()
                    .name(format!("tcmp-serve-worker-{i}"))
                    .spawn(move || service.worker())
                    .expect("spawn worker")
            })
            .collect();
        Ok(ServiceHandle { service, workers })
    }

    /// The shared service (clone the `Arc` for connection handlers).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Graceful drain: finish in-flight cells, journal everything,
    /// return once every worker has exited.
    pub fn drain(self) {
        self.service.begin_drain();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Wait for the workers to exit on their own — only meaningful
    /// with [`ServeConfig::cell_limit`], whose exhaustion stops them
    /// (the crash-simulation path of the resume tests).
    pub fn join(self) {
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Block until `campaign` finishes or `timeout` elapses; true on
    /// finish. Polling, for tests.
    pub fn wait_campaign(&self, campaign: &str, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.service.attach(campaign) {
                Ok(c) if c.finished.load(Ordering::SeqCst) => return true,
                _ => {}
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
