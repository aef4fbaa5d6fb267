//! The local front door of a figure campaign, shared by both
//! reproduction binaries.
//!
//! The flags become a [`tcmp_serve::proto::CampaignRequest`] and the
//! request a [`CampaignPlan`] — exactly what `tcmp-serve` does with a
//! `--submit`ted one — and the plan's cells run under the supervisor.
//! With `--out`/`--resume` the run is journaled: every finished cell is
//! fsynced to `<dir>/journal.jsonl` before the sweep moves on, so a
//! campaign killed at any instant resumes with only the unfinished
//! cells re-run, and the assembled rows are bit-identical to an
//! uninterrupted sweep.

use cmp_common::journal::Journal;
use tcmp_core::experiment::config_label;
use tcmp_core::supervisor::run_matrix_supervised;
use tcmp_serve::plan::CampaignPlan;
use tcmp_serve::proto::Figure;

use crate::cli::Options;

/// Run `figure`'s sweep as the options ask — on the daemon named by
/// `--submit`, else here — print its tables followed by the
/// `landmarks` text, write the `--csv` files, and return the process
/// exit code: 0 when every cell completed and every file was written,
/// 1 otherwise. Cell failures are reported, not fatal: what completed
/// is rendered and the rest is `n/a`.
pub fn run_figure(opts: &Options, figure: Figure, landmarks: &str) -> i32 {
    #[cfg(unix)]
    if opts.submit.is_some() {
        return crate::submit::run_remote(opts, figure);
    }
    run_local(opts, figure, landmarks).unwrap_or_else(|why| {
        eprintln!("{why}");
        1
    })
}

fn run_local(opts: &Options, figure: Figure, landmarks: &str) -> Result<i32, String> {
    let plan = CampaignPlan::new(&opts.request(figure))
        .map_err(|reason| format!("cannot plan the sweep: {reason}"))?;
    let cells = plan.specs.len();
    eprintln!("running {cells} simulations (scale {})...", opts.scale);
    let mut journal = opts
        .campaign_dir()
        .map(|(dir, resuming)| {
            if resuming {
                Journal::resume(dir, &plan.meta)
            } else {
                Journal::create(dir, &plan.meta)
            }
            .map_err(|e| format!("campaign journal at {}: {e}", dir.display()))
        })
        .transpose()?;
    let replayed = journal.as_ref().map_or(0, |j| j.replay.skippable());
    if replayed > 0 {
        eprintln!("journal replays {replayed} finished cell(s); skipping them");
    }

    let report = run_matrix_supervised(
        &plan.cmp,
        &plan.specs,
        opts.jobs,
        &plan.policy,
        journal.as_mut(),
    );
    let results = report.completed();
    for r in &results {
        eprintln!(
            "  {:<14} {:<22} {:>10} cycles, {:>8} msgs",
            r.app,
            config_label(r),
            r.cycles,
            r.network_messages
        );
    }
    for f in &report.failures {
        eprintln!(
            "  FAILED {} / {} after {} attempt(s): {}",
            f.app,
            f.config,
            f.attempts,
            f.error.brief()
        );
    }
    eprintln!(
        "{} of {cells} cells completed ({} of them replayed from the journal), {} failed \
         terminally (their columns render as n/a)",
        results.len(),
        report.skipped,
        report.failures.len()
    );
    if results.is_empty() {
        return Err("no cell completed: nothing to report".to_string());
    }

    let mut unwritten = false;
    for (suffix, table) in plan.render(&results) {
        println!("{}", table.to_markdown());
        let Some(csv) = &opts.csv else { continue };
        // Figure 6 is two tables, so two files named after `--csv`;
        // Figure 7's one table goes to the path itself.
        let path = match figure {
            Figure::Fig6 => format!("{csv}.{suffix}"),
            Figure::Fig7 => csv.clone(),
        };
        match table.write_csv_stamped(&path, &plan.stamp()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                unwritten = true;
            }
        }
    }
    println!("{landmarks}");
    if let (true, Some((dir, _))) = (unwritten, opts.campaign_dir()) {
        eprintln!(
            "the rows are safe in the journal: --resume {} --csv PATH renders them again \
             without re-running a cell",
            dir.display()
        );
    }
    Ok(i32::from(unwritten || !report.failures.is_empty()))
}
