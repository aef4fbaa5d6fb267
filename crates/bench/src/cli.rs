//! Tiny argument parsing for the reproduction binaries (no extra deps).
//!
//! Parsing is fallible and testable ([`Options::try_parse`]); the
//! binaries use [`Options::parse`], which prints the error plus usage
//! and exits. Validation happens here, before any simulation starts:
//! a sweep that would die hours in because `--csv` points into a
//! missing directory dies in milliseconds instead. A campaign directory
//! is a campaign service's state root (`DIR/campaigns/<id>/`), whether
//! `tcmp-fig` made it here with `--out` or a daemon made it.

use std::path::{Path, PathBuf};

use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::journal::JOURNAL_FILE;
use tcmp_serve::proto::{CampaignRequest, Figure, FIGURES};
use tcmp_serve::service::CAMPAIGNS_DIR;

use crate::tables::{Table, TABLES};

/// What `tcmp-fig` is asked to produce: its first argument.
#[derive(Clone, Copy, Debug)]
pub enum Command {
    /// One simulated figure, or `all` of them ([`Figure::All`]: every
    /// table and figure, each into its own directory of the campaign),
    /// planned and run as a campaign.
    Figure(Figure),
    /// One analytic table: no plan, no journal, no stamp.
    Table(Table),
}

/// [`try_parse_command`] on `std::env::args`, exiting as [`Options::parse`] does.
pub fn parse_command() -> (Command, Options) {
    try_parse_command(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    })
}

/// Parse and validate `<command> [flags]`. `--side N` (repeatable)
/// belongs to `sensitivity` alone: it names the sides the figure sweeps.
pub fn try_parse_command(
    args: impl IntoIterator<Item = String>,
) -> Result<(Command, Options), String> {
    let mut args = args.into_iter();
    let mut name = args.next().unwrap_or_default();
    let (mut flags, mut sides) = (Vec::new(), Vec::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--side" => sides.push(args.next().ok_or("--side needs a mesh side")?),
            _ => flags.push(arg),
        }
    }
    if !sides.is_empty() {
        if name != "sensitivity" {
            return Err("--side applies to sensitivity only".to_string());
        }
        name = format!("{name}:{}", sides.join(","));
    }
    let command = match TABLES.iter().find(|t| t.0 == name) {
        Some(&table) => Command::Table(table),
        None => Command::Figure(
            Figure::from_label(&name).map_err(|e| match sides.is_empty() {
                true => format!("unknown command {name:?}; want one of {}", commands()),
                false => format!("--side: {e}"),
            })?,
        ),
    };
    let opts = Options::flags(flags)?;
    opts.validate(matches!(command, Command::Figure(Figure::All)))?;
    Ok((command, opts))
}

/// Every `tcmp-fig` command, `|`-separated.
fn commands() -> String {
    let tables = TABLES.iter().map(|t| t.0).chain(["all"]);
    let names: Vec<&str> = FIGURES.iter().map(|f| f.0).chain(tables).collect();
    names.join("|")
}

/// Options shared by every reproduction binary.
#[derive(Clone, Debug)]
pub struct Options {
    /// Trace scale relative to the nominal 200k refs/core (default 0.1).
    pub scale: f64,
    /// Application filter (`--app MP3D`, repeatable); empty = all 13.
    pub apps: Vec<String>,
    /// RNG seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Include perfect-compression bounds where applicable.
    pub perfect: bool,
    /// Cap on matrix worker threads (`--jobs N`); `None` = all cores.
    pub jobs: Option<usize>,
    /// Start a *fresh* journaled campaign in this directory, laid out
    /// as a campaign service's state root (created if absent; refused
    /// if it already holds a campaign).
    pub out: Option<PathBuf>,
    /// Resume the campaign these flags started under this directory,
    /// skipping cells whose rows are already on disk.
    pub resume: Option<PathBuf>,
    /// Extra attempts per failed cell (`--retries N`).
    pub retries: u32,
    /// Per-cell wall-clock deadline in seconds (`--deadline SECS`).
    pub deadline_s: Option<u64>,
    /// Submit the sweep to a running `tcmp-serve` daemon at this Unix
    /// socket instead of simulating locally (`--submit SOCKET`). The
    /// daemon owns the worker pool, the journal, and the result CSVs.
    pub submit: Option<PathBuf>,
    /// With `--submit`: re-attach to this existing campaign id instead
    /// of submitting a new one (`--attach c0001`).
    pub attach: Option<String>,
    /// L2 directory organisation (`--directory full-map|sparse|sparse:N`);
    /// `None` = the machine default (full-map). Wide meshes (beyond 64
    /// tiles) need `sparse`.
    pub directory: Option<DirectoryConfig>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.1,
            apps: Vec::new(),
            seed: 0xC0FFEE,
            csv: None,
            perfect: true,
            jobs: None,
            out: None,
            resume: None,
            retries: 0,
            deadline_s: None,
            submit: None,
            attach: None,
            directory: None,
        }
    }
}

impl Options {
    /// Parse from `std::env::args`, exiting with the error and usage on
    /// failure.
    pub fn parse() -> Options {
        match Options::try_parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        }
    }

    /// Parse and validate an argument list. Every rejection names the
    /// offending flag and what it needs.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let o = Options::flags(args)?;
        o.validate(false)?;
        Ok(o)
    }

    /// The flags, unvalidated.
    fn flags(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut o = Options::default();
        let mut args = args.into_iter();
        fn value(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
            what: &str,
        ) -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs {what}"))
        }
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    o.scale = value(&mut args, "--scale", "a number")?
                        .parse()
                        .map_err(|_| "--scale needs a number".to_string())?;
                }
                "--app" => o.apps.push(value(&mut args, "--app", "a name")?),
                "--seed" => {
                    o.seed = value(&mut args, "--seed", "an integer")?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?;
                }
                "--csv" => o.csv = Some(value(&mut args, "--csv", "a path")?),
                "--no-perfect" => o.perfect = false,
                "--jobs" => {
                    o.jobs = Some(
                        value(&mut args, "--jobs", "a count")?
                            .parse()
                            .map_err(|_| "--jobs needs an unsigned integer".to_string())?,
                    );
                }
                "--out" => o.out = Some(PathBuf::from(value(&mut args, "--out", "a directory")?)),
                "--resume" => {
                    o.resume = Some(PathBuf::from(value(&mut args, "--resume", "a directory")?));
                }
                "--retries" => {
                    o.retries = value(&mut args, "--retries", "a count")?
                        .parse()
                        .map_err(|_| "--retries needs an unsigned integer".to_string())?;
                }
                "--deadline" => {
                    o.deadline_s = Some(
                        value(&mut args, "--deadline", "seconds")?
                            .parse()
                            .map_err(|_| "--deadline needs whole seconds".to_string())?,
                    );
                }
                "--submit" => {
                    o.submit = Some(PathBuf::from(value(
                        &mut args,
                        "--submit",
                        "a socket path",
                    )?));
                }
                "--attach" => {
                    o.attach = Some(value(&mut args, "--attach", "a campaign id")?);
                }
                "--directory" => {
                    let spec = value(&mut args, "--directory", "full-map|sparse|sparse:N")?;
                    o.directory = Some(
                        DirectoryConfig::parse_flag(&spec)
                            .map_err(|e| format!("--directory: {e}"))?,
                    );
                }
                "--help" | "-h" => return Err("help requested".to_string()),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(o)
    }

    /// Check the flags against each other and the filesystem. `all`
    /// needs `--out`, `--resume` or `--submit`, checked as a figure's
    /// are.
    fn validate(&self, all: bool) -> Result<(), String> {
        if self.scale.is_nan() || self.scale <= 0.0 {
            return Err("--scale must be positive".to_string());
        }
        if self.jobs == Some(0) {
            return Err("--jobs must be >= 1".to_string());
        }
        if let Some(name) = self
            .apps
            .iter()
            .find(|name| workloads::apps::app_by_name(name).is_none())
        {
            let known: Vec<_> = workloads::apps::all_apps().iter().map(|a| a.name).collect();
            return Err(format!("unknown app {name}; known: {known:?}"));
        }
        if self.deadline_s == Some(0) {
            return Err("--deadline must be >= 1 second".to_string());
        }
        if self.attach.is_some() && self.submit.is_none() {
            return Err(
                "--attach re-attaches through a daemon: it needs --submit SOCKET".to_string(),
            );
        }
        if self.submit.is_some() {
            if self.out.is_some() || self.resume.is_some() {
                return Err(
                    "--submit hands the campaign to the daemon, which owns the journal: \
                     drop --out/--resume (resume happens daemon-side, automatically)"
                        .to_string(),
                );
            }
            if self.jobs.is_some() {
                return Err("--submit runs on the daemon's shared worker pool: \
                     --jobs belongs to `tcmp-serve --jobs`, not to the client"
                    .to_string());
            }
            if let Some(sock) = &self.submit {
                if !sock.exists() {
                    return Err(format!(
                        "--submit {}: no socket there — is tcmp-serve running?",
                        sock.display()
                    ));
                }
            }
        }
        if self.out.is_some() && self.resume.is_some() {
            return Err("--out starts a fresh campaign and --resume continues one: \
                 pass exactly one of them"
                .to_string());
        }
        let dir = self.out.as_ref().or(self.resume.as_ref());
        if all && (self.csv.is_some() || dir.or(self.submit.as_ref()).is_none()) {
            return Err(
                "all writes every table and figure into its campaign directory: \
                 it needs --out DIR, --resume DIR or --submit SOCKET, and takes no --csv"
                    .to_string(),
            );
        }
        let holds_campaigns = |dir: &Path| {
            std::fs::read_dir(dir.join(CAMPAIGNS_DIR)).is_ok_and(|mut d| d.next().is_some())
        };
        if let Some(dir) = &self.resume {
            if !dir.is_dir() {
                return Err(format!(
                    "--resume {}: directory does not exist",
                    dir.display()
                ));
            }
            if !dir.join(CAMPAIGNS_DIR).is_dir() && dir.join(JOURNAL_FILE).is_file() {
                return Err(format!(
                    "--resume {}: its {JOURNAL_FILE} sits at the top, where tcmp-fig kept \
                     campaigns before they moved under {CAMPAIGNS_DIR}/: this build cannot \
                     resume it (use --out to start a fresh campaign)",
                    dir.display()
                ));
            }
            if !holds_campaigns(dir) {
                return Err(format!(
                    "--resume {}: no {CAMPAIGNS_DIR}/ found there — nothing to resume \
                     (use --out to start a fresh campaign)",
                    dir.display()
                ));
            }
        }
        if let Some(dir) = &self.out {
            if holds_campaigns(dir) || dir.join(JOURNAL_FILE).is_file() {
                return Err(format!(
                    "--out {}: already holds a campaign — \
                     use --resume {0} to continue it, or pick a fresh directory",
                    dir.display()
                ));
            }
            check_parent_exists(dir, "--out")?;
        }
        if let Some(csv) = &self.csv {
            check_parent_exists(Path::new(csv), "--csv")?;
        }
        Ok(())
    }

    /// What these flags ask of a figure sweep: the request the local
    /// door submits to its in-process service, and `--submit` sends to
    /// the daemon.
    pub fn request(&self, figure: Figure) -> CampaignRequest {
        CampaignRequest {
            figure,
            apps: self.apps.clone(),
            seed: self.seed,
            scale: self.scale,
            perfect: self.perfect,
            retries: self.retries,
            deadline_s: self.deadline_s,
            directory: self.directory_or_default(),
        }
    }

    /// The directory organisation to run with, defaulting to the
    /// machine default when `--directory` was not given.
    pub fn directory_or_default(&self) -> DirectoryConfig {
        self.directory.unwrap_or(CmpConfig::default().directory)
    }

    /// The selected application profiles (all 13 when no filter given).
    /// Parsing already rejected unknown names; in a hand-built `Options`
    /// they select nothing.
    pub fn selected_apps(&self) -> Vec<workloads::profile::AppProfile> {
        if self.apps.is_empty() {
            return workloads::apps::all_apps();
        }
        self.apps
            .iter()
            .filter_map(|name| workloads::apps::app_by_name(name))
            .collect()
    }
}

/// A path the run will write at the end must be creatable *now*: its
/// parent directory has to exist.
fn check_parent_exists(path: &Path, flag: &str) -> Result<(), String> {
    match path.parent() {
        None => Ok(()),
        Some(p) if p == Path::new("") => Ok(()),
        Some(parent) if parent.is_dir() => Ok(()),
        Some(parent) => Err(format!(
            "{flag} {}: parent directory {} does not exist",
            path.display(),
            parent.display()
        )),
    }
}

fn usage<T>() -> T {
    eprintln!(
        "usage: <bin> [--scale F] [--app NAME]... [--seed N] [--csv PATH] [--no-perfect] \
         [--jobs N] [--directory full-map|sparse|sparse:N] [--side N]... \
         [--out DIR | --resume DIR] [--retries N] [--deadline SECS] \
         [--submit SOCKET [--attach ID]]"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tcmp_serve::proto::{RejectReason, Response};
    use tcmp_serve::{CampaignPlan, ServeConfig, ServiceHandle};

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn rejects_zero_jobs_and_bad_numbers() {
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["--jobs", "x"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["--scale", "-1"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--scale"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--deadline", "0"])
            .unwrap_err()
            .contains("--deadline"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn unknown_app_is_rejected_at_parse_time_naming_the_known_ones() {
        let err = parse(&["--app", "FFT", "--app", "Nope"]).unwrap_err();
        assert!(err.starts_with("unknown app Nope; known: ["), "{err}");
        assert!(err.contains("\"MP3D\""), "{err}");
        let picked = parse(&["--app", "MP3D", "--app", "FFT"]).unwrap();
        let names: Vec<_> = picked.selected_apps().iter().map(|a| a.name).collect();
        assert_eq!(names, ["MP3D", "FFT"]);
        assert_eq!(parse(&[]).unwrap().selected_apps().len(), 13);
    }

    #[test]
    fn directory_flag_parses_and_validates() {
        assert_eq!(
            parse(&["--directory", "sparse:128"]).unwrap().directory,
            Some(DirectoryConfig::Sparse { dir_mshrs: 128 })
        );
        assert_eq!(
            parse(&["--directory", "full-map"]).unwrap().directory,
            Some(DirectoryConfig::FullMap)
        );
        assert_eq!(
            parse(&["--directory", "sparse"])
                .unwrap()
                .directory_or_default(),
            DirectoryConfig::sparse()
        );
        assert_eq!(
            parse(&[]).unwrap().directory_or_default(),
            CmpConfig::default().directory
        );
        let err = parse(&["--directory", "mesi"]).unwrap_err();
        assert!(err.contains("--directory"), "{err}");
        assert!(parse(&["--directory", "sparse:0"]).is_err());
    }

    fn command(args: &[&str]) -> Result<(Command, Options), String> {
        try_parse_command(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_first_argument_names_a_figure_a_table_or_all() {
        assert!(matches!(
            command(&["fig5", "--app", "FFT"]).unwrap().0,
            Command::Figure(Figure::Fig5)
        ));
        assert!(matches!(
            command(&["table2"]).unwrap().0,
            Command::Table(("table2", _))
        ));
        let dir = std::env::temp_dir().join("tcmp-fig-all-fresh");
        let all = ["all", "--out", dir.to_str().unwrap()];
        assert!(matches!(
            command(&all).unwrap().0,
            Command::Figure(Figure::All)
        ));
        let err = command(&["fig9"]).unwrap_err();
        assert!(
            err.contains(
                "fig2|fig5|fig6|fig7|ablation|sensitivity|faults|table1|table2|table3|all"
            ),
            "{err}"
        );
        assert!(command(&["all"]).unwrap_err().contains("--out DIR"));
        let err = command(&[&all[..], &["--csv", "x.csv"]].concat()).unwrap_err();
        assert!(err.contains("--csv"), "{err}");
    }

    /// `all` checks `--out` and `--resume` as a figure does: a directory
    /// holding a campaign is no fresh one, one holding none has nothing
    /// to resume, and one with a journal at its root (as `tcmp-fig` laid
    /// campaigns out before they moved under `campaigns/`) is refused
    /// both ways.
    #[test]
    fn all_checks_its_directory_as_a_figure_does() {
        let dir = std::env::temp_dir().join(format!("tcmp-all-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("fig6")).unwrap();
        std::fs::write(dir.join("fig6").join(JOURNAL_FILE), "").unwrap();
        let path = dir.to_str().unwrap();
        let err = command(&["all", "--resume", path]).unwrap_err();
        assert!(err.contains("nothing to resume"), "{err}");
        assert!(command(&["all", "--out", path]).is_ok());
        std::fs::write(dir.join(JOURNAL_FILE), "").unwrap();
        let err = command(&["all", "--resume", path]).unwrap_err();
        assert!(err.contains("cannot resume it"), "{err}");
        let err = command(&["all", "--out", path]).unwrap_err();
        assert!(err.contains("already holds a campaign"), "{err}");
        std::fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();
        std::fs::create_dir_all(dir.join(CAMPAIGNS_DIR).join("c0001")).unwrap();
        let err = command(&["all", "--out", path]).unwrap_err();
        assert!(err.contains("already holds a campaign"), "{err}");
        assert!(command(&["all", "--resume", path]).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_is_a_figure_command() {
        let (cmd, opts) = command(&["faults", "--app", "FFT", "--scale", "0.005"]).unwrap();
        assert!(matches!(cmd, Command::Figure(Figure::Faults)), "{cmd:?}");
        assert_eq!(opts.request(Figure::Faults).figure.label(), "faults");
    }

    #[test]
    fn side_flag_builds_the_sensitivity_side_set() {
        let (sensitivity, _) = command(&["sensitivity", "--side", "32", "--side", "16"]).unwrap();
        match sensitivity {
            Command::Figure(figure) => assert_eq!(figure.label(), "sensitivity:16,32"),
            other => panic!("parsed as {other:?}"),
        }
        for bad in ["0", "65", "x"] {
            let err = command(&["sensitivity", "--side", bad]).unwrap_err();
            assert!(err.contains("--side"), "{err}");
        }
        let err = command(&["fig6", "--side", "16"]).unwrap_err();
        assert!(err.contains("sensitivity only"), "{err}");
        assert!(parse(&["--side", "16"]).unwrap_err().contains("unknown"));
    }

    /// A mesh the directory cannot describe is a malformed request —
    /// refused by the plan before any cell runs, so the local door
    /// exits 2 and the daemon answers `Rejected`.
    #[test]
    fn a_mesh_the_directory_cannot_carry_is_refused_before_any_cell_runs() {
        let (cmd, opts) = command(&["sensitivity", "--side", "16", "--app", "FFT"]).unwrap();
        let Command::Figure(figure) = cmd else {
            panic!("parsed as {cmd:?}")
        };
        let why = match CampaignPlan::new(&opts.request(figure)) {
            Err(RejectReason::Malformed(why)) => why,
            Err(other) => panic!("refused as {other}"),
            Ok(_) => panic!("a 16x16 full-map machine planned"),
        };
        assert!(why.contains("16x16") && why.contains("full-map"), "{why}");
        assert_eq!(crate::matrix::run(cmd, &opts), 2);

        let root = std::env::temp_dir().join(format!("tcmp-cli-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let handle = ServiceHandle::start(ServeConfig {
            root: root.clone(),
            cell_limit: Some(0),
            ..ServeConfig::default()
        })
        .expect("start");
        assert_eq!(
            handle.service().submit(opts.request(figure)),
            Response::Rejected(RejectReason::Malformed(why))
        );
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rejects_conflicting_out_and_resume() {
        let dir = std::env::temp_dir();
        let err = parse(&[
            "--out",
            dir.join("a").to_str().unwrap(),
            "--resume",
            dir.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn rejects_missing_output_directories() {
        let err = parse(&["--csv", "/definitely/not/a/dir/out.csv"]).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        let err = parse(&["--out", "/definitely/not/a/dir/campaign"]).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn rejects_resume_of_nothing() {
        let err = parse(&["--resume", "/definitely/not/a/dir"]).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        // an existing directory with no journal is also not resumable
        let dir = std::env::temp_dir();
        let err = parse(&["--resume", dir.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("nothing to resume"), "{err}");
    }

    #[test]
    fn accepts_a_full_well_formed_command_line() {
        let dir = std::env::temp_dir();
        let out = dir.join("fresh-campaign-dir");
        let o = parse(&[
            "--scale",
            "0.05",
            "--app",
            "FFT",
            "--seed",
            "7",
            "--jobs",
            "2",
            "--retries",
            "3",
            "--deadline",
            "60",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(o.scale, 0.05);
        assert_eq!(o.retries, 3);
        assert_eq!(o.deadline_s, Some(60));
        assert_eq!(o.out, Some(out));
        let p = CampaignPlan::new(&o.request(Figure::Fig6))
            .expect("a parsed command line plans")
            .policy;
        assert_eq!(p.retries, 3);
        assert_eq!(p.wall_deadline, Some(Duration::from_secs(60)));
    }

    /// `--directory` reaches the machine a local figure run simulates:
    /// the request plans onto a sparse machine, its stamp differs from
    /// the full-map plan's, and it is the stamp the daemon gives the
    /// same request.
    #[test]
    fn directory_flag_reaches_the_planned_machine_and_the_stamp() {
        let args = ["--scale", "0.002", "--app", "FFT", "--no-perfect"];
        let full = parse(&args).unwrap();
        let sparse = parse(&[&args[..], &["--directory", "sparse"]].concat()).unwrap();
        let plan = |o: &Options| CampaignPlan::new(&o.request(Figure::Fig6)).expect("plans");
        let (full_plan, sparse_plan) = (plan(&full), plan(&sparse));
        assert_eq!(sparse_plan.cmp.directory, DirectoryConfig::sparse());
        assert!(sparse_plan
            .machines
            .iter()
            .all(|m| m.cmp == sparse_plan.cmp && m.probes.is_empty()));
        assert_ne!(sparse_plan.stamp(), full_plan.stamp());

        let root = std::env::temp_dir().join(format!("tcmp-cli-stamp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let handle = ServiceHandle::start(ServeConfig {
            root: root.clone(),
            // The stamp is fixed at submission; no cell needs to run.
            cell_limit: Some(0),
            ..ServeConfig::default()
        })
        .expect("start");
        let id = match handle.service().submit(sparse.request(Figure::Fig6)) {
            Response::Submitted { campaign, .. } => campaign,
            other => panic!("expected Submitted, got {other:?}"),
        };
        assert_eq!(
            handle
                .service()
                .attach(&id)
                .expect("campaign")
                .plan()
                .stamp(),
            sparse_plan.stamp()
        );
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }
}
