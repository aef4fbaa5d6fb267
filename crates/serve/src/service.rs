//! The campaign service proper: a bounded queue of matrix cells from
//! many campaigns, drained by one shared worker pool, with every
//! robustness property `tcmp-fig`'s local run has — and one it lacks:
//! campaigns outlive their submitters.
//!
//! * **Admission control.** The cell queue is bounded; a submission
//!   that would overflow it is refused with a structured
//!   [`RejectReason::Overloaded`] carrying the numbers the client needs
//!   to back off. The service never queues unboundedly, never panics on
//!   load, never silently drops a campaign.
//! * **Durability.** Every campaign persists its request
//!   (`campaign.json`) and a cell journal (`journal.jsonl`, the same
//!   fsync-per-record journal `tcmp-fig` uses) under
//!   `<root>/campaigns/<id>/`. A service killed at any instant —
//!   SIGKILL included — replays every campaign on restart and re-queues
//!   exactly the unfinished cells; the resumed CSVs are bit-identical
//!   to an uninterrupted run's.
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

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use cmp_common::fsx::Fs;
use cmp_common::journal::{Journal, JournalError, Json};
use cmp_common::types::Cycle;
use tcmp_core::checkpoint::{DiskConfig, DiskStore};
use tcmp_core::supervisor::{cell_key, CellOutcome, SweepState};

use crate::plan::{CampaignPlan, Outcome};
use crate::proto::{CacheCounts, CampaignRequest, CampaignStatus, Event, RejectReason, Response};

/// File holding a campaign's request, next to its journal.
pub const CAMPAIGN_FILE: &str = "campaign.json";

/// How many events a subscriber may fall behind before it is dropped
/// (it can re-attach and catch up from the campaign's slots).
const SUBSCRIBER_BUFFER: usize = 1024;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// State root; campaigns live under `<root>/campaigns/<id>/`.
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
/// far it has got is its [`SweepState`] — the same two things the
/// `tcmp-fig`'s local run is made of.
pub struct Campaign {
    pub id: String,
    plan: CampaignPlan,
    dir: PathBuf,
    /// The filesystem seam CSVs are finalised through (shared with the
    /// service; fault campaigns arm it via `TCMP_FS_FAULTS`).
    fs: Fs,
    /// The journal and one outcome slot per cell.
    run: SweepState<Journal>,
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
    fn open(fs: &Fs, id: &str, dir: &Path, plan: CampaignPlan) -> Result<Arc<Campaign>, String> {
        let journal = match Journal::resume_on(fs, dir, &plan.meta) {
            Ok(j) => j,
            Err(JournalError::Missing(_)) => {
                Journal::create_on(fs, dir, &plan.meta).map_err(|e| e.to_string())?
            }
            Err(e) => return Err(e.to_string()),
        };
        Ok(Arc::new(Campaign {
            id: id.to_string(),
            run: SweepState::new(&plan.specs, Some(journal)),
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

    /// The provenance line stamped into this campaign's CSVs
    /// (identical to `tcmp-fig`'s stamp for the same sweep).
    pub fn stamp(&self) -> String {
        self.plan.stamp()
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
    /// cells' outcomes. Idempotent: a resume that finds everything
    /// already done rewrites the same bytes.
    fn finalize(&self) {
        let mut outcomes: Vec<Outcome> = vec![None; self.cells()];
        self.run.for_each_outcome(|index, outcome| {
            outcomes[index] = Some(outcome.as_ref().cloned().map_err(|f| f.error.clone()))
        });
        for (suffix, table) in self.plan.render(&outcomes) {
            let file = format!("results.{suffix}");
            if let Err(e) =
                table.write_csv_stamped_on(&self.fs, self.dir.join(&file), &self.stamp())
            {
                eprintln!("campaign {}: writing {file}: {e}", self.id);
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
    next_id: Mutex<u64>,
    draining: AtomicBool,
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
        let campaigns_dir = cfg.root.join("campaigns");
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
        let mut dirs: Vec<PathBuf> = match std::fs::read_dir(campaigns_dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect(),
            Err(e) => {
                eprintln!("cannot scan {}: {e}", campaigns_dir.display());
                return;
            }
        };
        dirs.sort();
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
        let text = self
            .fs
            .read_to_string(dir.join(CAMPAIGN_FILE))
            .map_err(|e| format!("reading {CAMPAIGN_FILE}: {e}"))?;
        let request = CampaignRequest::from_json(&Json::parse(&text)?)?;
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
        if self.draining.load(Ordering::SeqCst) {
            return Response::Rejected(RejectReason::Draining);
        }
        // Plan before anything is admitted or persisted: a request that
        // names an unknown app or a machine that does not validate is
        // refused with nothing left behind.
        let plan = match CampaignPlan::new(&request) {
            Ok(plan) => plan,
            Err(reason) => return Response::Rejected(reason),
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
                return Response::Rejected(RejectReason::Overloaded {
                    queued,
                    bound: self.cfg.queue_bound,
                    requested,
                });
            }
            st.reserved += requested;
        }
        let campaign = match self.create_campaign(&request, plan) {
            Ok(c) => c,
            Err(e) => {
                lock(&self.state).reserved -= requested;
                return Response::Rejected(RejectReason::Internal(e));
            }
        };
        lock(&self.campaigns).insert(campaign.id.clone(), Arc::clone(&campaign));
        self.enqueue(&campaign, campaign.run.pending(), requested);
        Response::Submitted {
            campaign: campaign.id.clone(),
            cells: requested,
            resumed: 0,
        }
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
        let dir = self.cfg.root.join("campaigns").join(&id);
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

    /// One status snapshot.
    pub fn status(&self) -> Response {
        let queued = {
            let st = lock(&self.state);
            st.tasks.len() + st.reserved
        };
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

    fn run_task(&self, task: CellTask) {
        let (c, index) = (&task.campaign, task.index);
        c.emit(Event::CellStart {
            campaign: c.id.clone(),
            index,
            cell: cell_key(&c.plan.specs[index]),
        });
        let checkpoints = self
            .checkpoints
            .as_ref()
            .map(|store| (store, self.cfg.warm_cycles));
        // The cell's event goes out in the step that stores its outcome:
        // a client subscribing at any instant finds the cell in the
        // catch-up or on the live stream, and the worker that stores the
        // campaign's last outcome emits `CampaignDone` only after every
        // other cell's event is out.
        let last = c.run.run_cell(
            &c.plan.machines[index],
            index,
            &c.plan.policy,
            checkpoints,
            |outcome, warm, outstanding| {
                c.emit(c.outcome_event(index, outcome, warm.label()));
                outstanding == 0
            },
        );
        if last {
            c.finalize();
            c.emit(c.done_event());
        }
    }
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
    /// finish. Polling, for tests and the drain path of the daemon.
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
