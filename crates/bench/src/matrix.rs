//! The body of `tcmp-fig`: every simulated figure is a campaign, and
//! every campaign runs on a [`tcmp_serve::Service`] — the daemon named
//! by `--submit`, or one this door starts in-process.
//!
//! The flags become a [`tcmp_serve::proto::CampaignRequest`]. Run here,
//! the request is submitted to a service whose state root is the `--out`
//! directory (a throwaway one without `--out`), with `--jobs` workers
//! and warm starts off; `--resume DIR` starts the service on DIR and
//! attaches to the campaign there whose persisted request is the flags'
//! own. The campaign is then exactly what the daemon runs: journaled
//! under `DIR/campaigns/c0001/`, every finished cell fsynced before the
//! sweep moves on, so a run killed at any instant resumes with only the
//! unfinished cells re-run and renders the identical figure; and each
//! distinct simulation runs once, `all`'s figures' shared cells
//! included. The campaign's events print as they come; then each figure
//! prints from the campaign's outcomes, `--csv` is written, and the
//! exit code is the campaign's verdict ([`CampaignPlan::expected`]).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use cmp_common::fsx::Fs;
use cmp_common::journal::write_atomic;
use tcmp_serve::plan::{markdown, CampaignPlan, Tables};
use tcmp_serve::proto::{CampaignRequest, Event, Figure, Response};
use tcmp_serve::service::{find_campaign, ServeConfig, ServiceHandle};

use crate::cli::{Command, Options};
use crate::tables::{Table, TABLES};

/// Where the table with a CSV file suffix is written, given how many
/// tables the figure has (`None` = nowhere).
type CsvPath<'a> = &'a dyn Fn(&str, usize) -> Option<PathBuf>;

/// Run `command` as the options ask and return the process exit code:
/// 0 when every cell ended as its figure expects and every file was
/// written, 2 when the request does not plan, 1 otherwise.
pub fn run(command: Command, opts: &Options) -> i32 {
    match command {
        Command::Figure(figure) => run_figure(opts, figure),
        Command::Table(table) => run_table(table, &csv_flag(opts)).0,
    }
}

/// `--csv PATH`: the file of a figure's one table, or `PATH.<suffix>`
/// for each of several.
fn csv_flag(opts: &Options) -> impl Fn(&str, usize) -> Option<PathBuf> + '_ {
    |suffix, tables| {
        let csv = opts.csv.as_ref()?;
        Some(match tables {
            1 => csv.into(),
            _ => format!("{csv}.{suffix}").into(),
        })
    }
}

/// Run `figure`'s campaign as the options ask — on the daemon named by
/// `--submit`, else here — and return the process exit code (see
/// [`run`]). Run here, each figure prints its tables followed by its
/// landmark text and writes its `--csv` files; `all` also writes every
/// table and figure into the campaign's directory. Cell failures are
/// reported, not fatal: every outcome is rendered, and a figure without
/// faults shows a failed cell as `n/a`.
pub fn run_figure(opts: &Options, figure: Figure) -> i32 {
    #[cfg(unix)]
    if opts.submit.is_some() {
        return crate::submit::run_remote(opts, figure);
    }
    let request = opts.request(figure);
    let plan = match CampaignPlan::new(&request) {
        Ok(plan) => plan,
        Err(reason) => {
            eprintln!("error: cannot plan the {} sweep: {reason}", figure.label());
            return 2;
        }
    };
    if let Some(root) = opts.out.as_ref().or(opts.resume.as_ref()) {
        return run_local(opts, &plan, request, root);
    }
    // A throwaway root, which a dead process with this id may have left.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("tcmp-fig-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let code = run_local(opts, &plan, request, &root);
    let _ = std::fs::remove_dir_all(&root);
    code
}

/// Run `request`, planned as `plan`, on a service started on state root
/// `root`: submitted, or under `--resume` attached to the campaign the
/// request started there.
fn run_local(opts: &Options, plan: &CampaignPlan, request: CampaignRequest, root: &Path) -> i32 {
    let resume = match &opts.resume {
        None => None,
        Some(_) => match find_campaign(root, &request) {
            Some(id) => Some(id),
            None => {
                eprintln!(
                    "error: --resume {}: no campaign there was started with these flags \
                     (figure, apps, seed, scale, perfect, retries, deadline, directory)",
                    root.display()
                );
                return 1;
            }
        },
    };
    let jobs = opts.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let handle = match ServiceHandle::start(ServeConfig {
        root: root.to_path_buf(),
        // No more workers than there are cells to run.
        jobs: jobs.min(plan.specs.len()),
        // Only this request is ever submitted here: admission never
        // refuses it.
        queue_bound: plan.specs.len(),
        ..ServeConfig::default()
    }) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!(
                "cannot start the campaign service on {}: {e}",
                root.display()
            );
            return 1;
        }
    };
    let service = handle.service();
    let (id, watched) = match resume {
        Some(id) => (id, None),
        None => match service.submit_watched(request) {
            (Response::Submitted { campaign, .. }, Some(live)) => (campaign, Some(live)),
            (refused, _) => {
                eprintln!("error: the campaign was not queued: {refused:?}");
                handle.drain();
                return 1;
            }
        },
    };
    let Ok(campaign) = service.attach(&id) else {
        eprintln!(
            "error: campaign {id} under {} did not resume (see above)",
            root.display()
        );
        handle.drain();
        return 1;
    };
    eprintln!(
        "running {} simulations (scale {})...",
        plan.specs.len(),
        opts.scale
    );
    // A submitted campaign is watched from before its first cell was
    // queued; a resumed one was queued at start and catches up on the
    // outcomes it holds.
    let (live, caught_up) = match watched {
        Some(live) => (live, Vec::new()),
        None => (campaign.subscribe(), campaign.catchup()),
    };
    let events = caught_up.into_iter();
    let followed = follow(&id, events.chain(std::iter::from_fn(|| live.recv().ok())));
    handle.drain();
    let Some((_, unexpected)) = followed else {
        eprintln!("the event stream of campaign {id} closed before it finished");
        return 1;
    };

    let mut written = true;
    if plan.figure == Figure::All {
        for table in TABLES {
            written &= write_table(table, campaign.dir());
        }
    }
    let outcomes = campaign.outcomes();
    for (plan, outcomes) in campaign.plan().figures(&outcomes) {
        let tables = plan.render(&outcomes);
        let stamp = plan.stamp();
        written &= publish(tables, plan.landmarks(), Some(&stamp), &csv_flag(opts)).0;
    }
    if let (false, Some(dir)) = (written, opts.out.as_ref().or(opts.resume.as_ref())) {
        eprintln!(
            "the rows are safe in the journal: --resume {} (with --csv PATH for a figure) \
             renders them again without re-running a cell",
            dir.display()
        );
    }
    i32::from(!written || unexpected > 0)
}

/// Print a campaign's events, each cell's terminal event once (a
/// catch-up and a live stream may both carry it), up to
/// `CampaignDone`. Returns its `(completed, failed)` — cells that ended
/// as the figure expects and cells that did not — or `None` when the
/// events ran out first.
pub fn follow(campaign: &str, events: impl Iterator<Item = Event>) -> Option<(usize, usize)> {
    let mut settled: HashSet<usize> = HashSet::new();
    for event in events {
        if matches!(event, Event::CellFinish { .. } | Event::CellFail { .. })
            && event.index().is_some_and(|index| !settled.insert(index))
        {
            continue;
        }
        match event {
            Event::CellStart { cell, .. } => eprintln!("  start  {cell}"),
            Event::CellFinish {
                cell, cycles, warm, ..
            } => eprintln!("  done   {cell}  ({cycles} cycles, warm-start: {warm})"),
            Event::CellFail {
                cell,
                attempts,
                error,
                ..
            } => eprintln!("  failed {cell} after {attempts} attempt(s): {error}"),
            Event::CampaignDone {
                completed, failed, ..
            } => {
                eprintln!(
                    "campaign {campaign} done: {completed} cells ended as the figure expects, \
                     {failed} did not"
                );
                return Some((completed, failed));
            }
        }
    }
    None
}

/// Print an analytic table and its text, and write its unstamped CSV to
/// `csv`. Returns the exit code and the printed text.
fn run_table((_, render): Table, csv: CsvPath) -> (i32, String) {
    let (table, text) = render();
    let (written, text) = publish(vec![("csv", table)], &text, None, csv);
    (i32::from(!written), text)
}

/// Print an analytic table and write it into `dir/<name>/`, as `all`
/// lays out every table and figure: `results.csv` and the printed text
/// as `results.md`. Returns whether both were written.
fn write_table(table: Table, dir: &Path) -> bool {
    let dir = dir.join(table.0);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return false;
    }
    let results = |suffix: &str| dir.join(format!("results.{suffix}"));
    let (code, text) = run_table(table, &|suffix, _| Some(results(suffix)));
    let md = results("md");
    match write_atomic(&md, text) {
        Ok(()) => code == 0,
        Err(e) => {
            eprintln!("cannot write {}: {e}", md.display());
            false
        }
    }
}

/// Print `tables` as markdown followed by `text`, and write each table
/// as CSV to `csv` — first line `# stamp` when there is one. Returns
/// whether every file was written, and the printed text.
fn publish(tables: Tables, text: &str, stamp: Option<&str>, csv: CsvPath) -> (bool, String) {
    let mut written = true;
    for (suffix, table) in &tables {
        let Some(path) = csv(suffix, tables.len()) else {
            continue;
        };
        let result = match stamp {
            Some(stamp) => table.write_csv_stamped_on(&Fs::real(), &path, stamp),
            None => table.write_csv(&path),
        };
        match result {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                written = false;
            }
        }
    }
    let printed = markdown(&tables, text);
    print!("{printed}");
    (written, printed)
}
