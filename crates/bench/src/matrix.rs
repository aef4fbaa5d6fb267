//! The body of `tcmp-fig`: every simulated figure is a campaign, and
//! this is its local front door.
//!
//! The flags become a [`tcmp_serve::proto::CampaignRequest`] and the
//! request a [`CampaignPlan`] — exactly what `tcmp-serve` does with a
//! `--submit`ted one — and the plan's cells run under the supervisor.
//! `all` runs the union of every figure's cells as one sweep, so a
//! simulation several figures read runs once; a single figure is the
//! same path with one plan. With `--out`/`--resume` the run is
//! journaled: every finished cell is fsynced to `<dir>/journal.jsonl`
//! before the sweep moves on, so a campaign killed at any instant
//! resumes with only the unfinished cells re-run, and the assembled
//! rows are bit-identical to an uninterrupted sweep.

use std::path::PathBuf;

use cmp_common::fsx::Fs;
use cmp_common::journal::{write_atomic, Journal};
use tcmp_core::experiment::config_label;
use tcmp_core::supervisor::run_cells;
use tcmp_serve::plan::{union, CampaignPlan, Outcome, Tables};
use tcmp_serve::proto::{Figure, FIGURES};

use crate::cli::{Command, Options};
use crate::tables::{Table, TABLES};

/// Where the table with a CSV file suffix is written, given how many
/// tables the figure has (`None` = nowhere).
type CsvPath<'a> = &'a dyn Fn(&str, usize) -> Option<PathBuf>;

/// [`CsvPath`] of each of several plans, by index.
type CsvPaths<'a> = &'a dyn Fn(usize, &str, usize) -> Option<PathBuf>;

/// Run `command` as the options ask and return the process exit code:
/// 0 when every cell ended as its figure expects and every file was
/// written, 2 when the request does not plan, 1 otherwise.
pub fn run(command: Command, opts: &Options) -> i32 {
    match command {
        Command::Figure(figure) => run_figure(opts, figure),
        Command::Table(table) => run_table(table, &csv_flag(opts)).0,
        Command::All => run_all(opts),
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

/// Run `figure`'s sweep as the options ask — on the daemon named by
/// `--submit`, else here — print its tables followed by its landmark
/// text, write the `--csv` files, and return the process exit code (see
/// [`run`]). Cell failures are reported, not fatal: every outcome is
/// rendered, and a figure without faults shows a failed cell as `n/a`.
pub fn run_figure(opts: &Options, figure: Figure) -> i32 {
    #[cfg(unix)]
    if opts.submit.is_some() {
        return crate::submit::run_remote(opts, figure);
    }
    let Some(plan) = plan(opts, figure) else {
        return 2;
    };
    let csv = csv_flag(opts);
    run_local(opts, &[plan], &|_, suffix, tables| csv(suffix, tables)).0
}

/// `figure` planned as the options ask; a request that does not plan is
/// reported.
fn plan(opts: &Options, figure: Figure) -> Option<CampaignPlan> {
    let plan = CampaignPlan::new(&opts.request(figure));
    if let Err(reason) = &plan {
        eprintln!("error: cannot plan the {} sweep: {reason}", figure.label());
    }
    plan.ok()
}

/// Run `plans` (at least one) here as one sweep — each distinct
/// simulation once, through one journal under `--out`/`--resume` —
/// then, plan by plan, render its cells' outcomes, print its tables and
/// landmarks and write each table's CSV, stamped with the plan's own
/// stamp, to `csv(plan index, suffix, tables)`. Returns the exit code
/// and each plan's printed text.
fn run_local(opts: &Options, plans: &[CampaignPlan], csv: CsvPaths) -> (i32, Vec<String>) {
    let sweep = union(plans);
    let cells = sweep.specs.len();
    eprintln!("running {cells} simulations (scale {})...", opts.scale);
    let journal = opts.campaign_dir().map(|(dir, resuming)| {
        if resuming {
            Journal::resume(dir, &sweep.meta)
        } else {
            Journal::create(dir, &sweep.meta)
        }
        .map_err(|e| format!("campaign journal at {}: {e}", dir.display()))
    });
    let mut journal = match journal.transpose() {
        Ok(journal) => journal,
        Err(why) => {
            eprintln!("{why}");
            return (1, Vec::new());
        }
    };
    let replayed = journal.as_ref().map_or(0, |j| j.replay.skippable());
    if replayed > 0 {
        eprintln!("journal replays {replayed} finished cell(s); skipping them");
    }

    let report = run_cells(
        &sweep.machines,
        &sweep.specs,
        opts.jobs,
        &plans[0].policy,
        journal.as_mut(),
    );
    for r in report.results.iter().flatten() {
        eprintln!(
            "  {:<14} {:<22} {:>10} cycles, {:>8} msgs",
            r.app,
            config_label(r),
            r.cycles,
            r.network_messages
        );
    }
    let (completed, skipped) = (report.results.iter().flatten().count(), report.skipped);
    let mut outcomes: Vec<Outcome> = report.results.into_iter().map(|r| r.map(Ok)).collect();
    for f in &report.failures {
        outcomes[f.index] = Some(Err(f.error.clone()));
    }
    // A cell ends otherwise than expected when a figure it serves does
    // not expect its outcome.
    let mut unexpected = vec![false; cells];
    for (plan, indices) in plans.iter().zip(&sweep.cells) {
        for (i, &cell) in indices.iter().enumerate() {
            if let Some(outcome) = &outcomes[cell] {
                unexpected[cell] |= !plan.expected(i, outcome.as_ref());
            }
        }
    }
    for f in &report.failures {
        let verdict = match unexpected[f.index] {
            true => "FAILED",
            false => "expected",
        };
        eprintln!(
            "  {verdict} {} / {} after {} attempt(s): {}",
            f.app,
            f.config,
            f.attempts,
            f.error.brief()
        );
    }
    let unexpected = unexpected.into_iter().filter(|&u| u).count();
    eprintln!(
        "{completed} of {cells} cells completed ({skipped} of them replayed from the journal), \
         {unexpected} ended otherwise than the figure expects"
    );

    let mut all_written = true;
    let mut texts = Vec::with_capacity(plans.len());
    for (p, (plan, indices)) in plans.iter().zip(&sweep.cells).enumerate() {
        let outcomes: Vec<Outcome> = indices.iter().map(|&cell| outcomes[cell].clone()).collect();
        let tables = plan.render(&outcomes);
        let csv = |suffix: &str, tables| csv(p, suffix, tables);
        let (written, text) = publish(tables, plan.landmarks(), Some(&plan.stamp()), &csv);
        all_written &= written;
        texts.push(text);
    }
    if let (false, Some((dir, _))) = (all_written, opts.campaign_dir()) {
        eprintln!(
            "the rows are safe in the journal: --resume {} (with --csv PATH for a figure) \
             renders them again without re-running a cell",
            dir.display()
        );
    }
    (i32::from(!all_written || unexpected > 0), texts)
}

/// Print an analytic table and its text, and write its unstamped CSV to
/// `csv`. Returns the exit code and the printed text.
fn run_table((_, render): Table, csv: CsvPath) -> (i32, String) {
    let (table, text) = render();
    let (written, text) = publish(vec![("csv", table)], &text, None, csv);
    (i32::from(!written), text)
}

/// Print `tables` as markdown followed by `text`, and write each table
/// as CSV to `csv` — first line `# stamp` when there is one. Returns
/// whether every file was written, and the printed text.
fn publish(tables: Tables, text: &str, stamp: Option<&str>, csv: CsvPath) -> (bool, String) {
    let mut printed = String::new();
    let mut written = true;
    for (suffix, table) in &tables {
        printed += &table.to_markdown();
        printed.push('\n');
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
    if !text.is_empty() {
        printed += text;
        printed.push('\n');
    }
    print!("{printed}");
    (written, printed)
}

/// Every table and figure under `--out` (or `--resume`) DIR, laid out
/// like a daemon campaign: the figures run as one sweep journaled in
/// `DIR/journal.jsonl`, and each table and figure writes its
/// `results.<suffix>` CSVs and `results.md`, the printed text, into
/// `DIR/<name>/`. A figure that does not plan is reported and left out.
fn run_all(opts: &Options) -> i32 {
    let Some((root, _)) = opts.campaign_dir() else {
        eprintln!("error: all needs --out DIR or --resume DIR");
        return 2;
    };
    let mut code = 0;
    let names = TABLES
        .iter()
        .map(|t| t.0)
        .chain(FIGURES.iter().map(|f| f.0));
    for dir in names.map(|name| root.join(name)) {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            code = 1;
        }
    }
    let results = |name: &str, suffix: &str| root.join(name).join(format!("results.{suffix}"));
    let mut printed = Vec::new();
    for table in TABLES {
        let (run, text) = run_table(table, &|suffix, _| Some(results(table.0, suffix)));
        code = code.max(run);
        printed.push((table.0, text));
    }
    let (names, plans): (Vec<&str>, Vec<CampaignPlan>) = FIGURES
        .iter()
        .filter_map(|&(name, figure)| Some((name, plan(opts, figure)?)))
        .unzip();
    if plans.len() < FIGURES.len() {
        code = code.max(2);
    }
    if !plans.is_empty() {
        let (run, texts) = run_local(opts, &plans, &|p, suffix, _| {
            Some(results(names[p], suffix))
        });
        code = code.max(run);
        printed.extend(names.into_iter().zip(texts));
    }
    for (name, text) in printed {
        let md = results(name, "md");
        if let Err(e) = write_atomic(&md, text) {
            eprintln!("cannot write {}: {e}", md.display());
            code = code.max(1);
        }
    }
    code
}
