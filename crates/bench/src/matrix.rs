//! The body of `tcmp-fig`: every simulated figure is a campaign, and
//! this is its local front door.
//!
//! The flags become a [`tcmp_serve::proto::CampaignRequest`] and the
//! request a [`CampaignPlan`] — exactly what `tcmp-serve` does with a
//! `--submit`ted one — and the plan's cells run under the supervisor.
//! With `--out`/`--resume` the run is journaled: every finished cell is
//! fsynced to `<dir>/journal.jsonl` before the sweep moves on, so a
//! campaign killed at any instant resumes with only the unfinished
//! cells re-run, and the assembled rows are bit-identical to an
//! uninterrupted sweep.

use std::path::PathBuf;

use cmp_common::fsx::Fs;
use cmp_common::journal::{write_atomic, Journal, JOURNAL_FILE};
use tcmp_core::experiment::config_label;
use tcmp_core::supervisor::run_cells;
use tcmp_serve::plan::{CampaignPlan, Outcome, Tables};
use tcmp_serve::proto::{Figure, FIGURES};

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
    run_local(opts, figure, &csv_flag(opts)).0
}

/// Plan and run `figure` here, print its tables and landmarks, and
/// write each table's stamped CSV to `csv`. Returns the exit code and
/// the printed text.
fn run_local(opts: &Options, figure: Figure, csv: CsvPath) -> (i32, String) {
    let plan = match CampaignPlan::new(&opts.request(figure)) {
        Ok(plan) => plan,
        Err(reason) => {
            eprintln!("error: cannot plan the {} sweep: {reason}", figure.label());
            return (2, String::new());
        }
    };
    let cells = plan.specs.len();
    eprintln!("running {cells} simulations (scale {})...", opts.scale);
    let journal = opts.campaign_dir().map(|(dir, resuming)| {
        if resuming {
            Journal::resume(dir, &plan.meta)
        } else {
            Journal::create(dir, &plan.meta)
        }
        .map_err(|e| format!("campaign journal at {}: {e}", dir.display()))
    });
    let mut journal = match journal.transpose() {
        Ok(journal) => journal,
        Err(why) => {
            eprintln!("{why}");
            return (1, String::new());
        }
    };
    let replayed = journal.as_ref().map_or(0, |j| j.replay.skippable());
    if replayed > 0 {
        eprintln!("journal replays {replayed} finished cell(s); skipping them");
    }

    let report = run_cells(
        &plan.machines,
        &plan.specs,
        opts.jobs,
        &plan.policy,
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
    for f in report.failures {
        let verdict = match plan.expected(f.index, Err(&f.error)) {
            true => "expected",
            false => "FAILED",
        };
        eprintln!(
            "  {verdict} {} / {} after {} attempt(s): {}",
            f.app,
            f.config,
            f.attempts,
            f.error.brief()
        );
        outcomes[f.index] = Some(Err(f.error));
    }
    let unexpected = (0..cells)
        .filter(|&i| matches!(&outcomes[i], Some(o) if !plan.expected(i, o.as_ref())))
        .count();
    eprintln!(
        "{completed} of {cells} cells completed ({skipped} of them replayed from the journal), \
         {unexpected} ended otherwise than the figure expects"
    );

    let tables = plan.render(&outcomes);
    let (written, text) = publish(tables, plan.landmarks(), Some(&plan.stamp()), csv);
    if let (false, Some((dir, _))) = (written, opts.campaign_dir()) {
        eprintln!(
            "the rows are safe in the journal: --resume {} --csv PATH renders them again \
             without re-running a cell",
            dir.display()
        );
    }
    (i32::from(!written || unexpected > 0), text)
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

/// Every table and figure, each into its own directory under `--out`
/// (or `--resume`) DIR laid out like a daemon campaign: `journal.jsonl`
/// (figures), `results.<suffix>` CSVs and `results.md`, the printed
/// text. A figure whose directory already holds a journal resumes it.
fn run_all(opts: &Options) -> i32 {
    let Some((root, _)) = opts.campaign_dir() else {
        eprintln!("error: all needs --out DIR or --resume DIR");
        return 2;
    };
    let mut code = 0;
    let mut record = |name: &str, run: &dyn Fn(&Options, CsvPath) -> (i32, String)| {
        let dir = root.join(name);
        let resuming = dir.join(JOURNAL_FILE).is_file();
        let opts = Options {
            out: (!resuming).then(|| dir.clone()),
            resume: resuming.then(|| dir.clone()),
            ..opts.clone()
        };
        let md = dir.join("results.md");
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let (run, text) = run(&opts, &|suffix, _| {
                Some(dir.join(format!("results.{suffix}")))
            });
            code = code.max(run);
            // a run that printed nothing (refused) leaves the last text
            match text.is_empty() {
                true => Ok(()),
                false => write_atomic(&md, text),
            }
        });
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", md.display());
            code = code.max(1);
        }
    };
    for table in TABLES {
        record(table.0, &|_, csv| run_table(table, csv));
    }
    for (name, figure) in FIGURES {
        record(name, &|opts, csv| run_local(opts, figure, csv));
    }
    code
}
