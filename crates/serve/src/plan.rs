//! What a figure campaign *is*: the one place a [`CampaignRequest`] —
//! the eight things a user can say about a sweep — becomes the cells
//! and the machine each runs on, the run policy, the journal identity,
//! the provenance stamp and the figure's tables.
//!
//! Every simulated figure is one entry of a table ([`FigureDef`]): the
//! cells each application runs, the applications it runs by default and
//! how its cells' outcomes render. The sweep around them — apps ×
//! cells, the journal, the supervised runner — is the same for all of
//! them, the fault campaigns included: a fault is cell data
//! ([`CellFault`]), and [`CampaignPlan::expected`] judges which
//! outcomes a figure expects.
//!
//! Both front doors plan here — `tcmp-fig`'s local run and
//! [`crate::service::Service`] — so a request means the same sweep and
//! renders the same bytes whichever door it came in by, and a knob
//! added to the request cannot be honoured by one door only.

use std::collections::HashSet;
use std::time::Duration;

use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::fault::FaultConfig;
use cmp_common::geometry::MeshShape;
use cmp_common::journal::CampaignMeta;
use cmp_common::types::MessageClass;
use tcmp_core::experiment::{
    figure6_configs, geomean, normalize_partial, ConfigSpec, NormalizedRow, RunSpec,
};
use tcmp_core::niface::InterconnectChoice;
use tcmp_core::report::{figure_table, fmt_pct, fmt_ratio, TableBuilder};
use tcmp_core::supervisor::{campaign_meta, cell_key, CellFault, CellMachine, RunPolicy};
use tcmp_core::{CompressionScheme, Invariant, SimError, SimResult, VlWidth};
use workloads::profile::AppProfile;

use crate::proto::{CampaignRequest, Figure, RejectReason, Sides};

/// The Table 4 machine under `directory`, on `mesh` when the caller
/// sweeps mesh sizes (`None` = the default 4×4), validated against the
/// mesh it will actually drive.
pub fn machine(directory: DirectoryConfig, mesh: Option<MeshShape>) -> Result<CmpConfig, String> {
    let default = CmpConfig::default();
    let cmp = CmpConfig {
        directory,
        mesh: mesh.unwrap_or(default.mesh),
        ..default
    };
    cmp.validate()?;
    Ok(cmp)
}

/// The tables of a figure as `(CSV file suffix, table)`.
pub type Tables = Vec<(&'static str, TableBuilder)>;

/// What became of one cell, as a figure renders it: its row, the error
/// it ended in, or `None` when it has not run.
pub type Outcome = Option<Result<SimResult, SimError>>;

type Cells = Result<Vec<(ConfigSpec, CellMachine)>, RejectReason>;

/// One simulated figure, as data.
struct FigureDef {
    /// The cells every application runs, in column order, each with the
    /// machine it runs on, given the request and its default machine.
    cells: fn(&CampaignRequest, &CmpConfig) -> Cells,
    /// The applications a request naming none runs.
    default_apps: fn() -> Vec<AppProfile>,
    /// The tables, from the outcomes index-aligned with the plan's
    /// cells. Every figure but the fault campaigns renders a cell that
    /// failed or has not run as `n/a`.
    render: fn(&CampaignPlan, &[Outcome]) -> Tables,
    /// What the paper (or the expectation) says, printed under the tables.
    landmarks: &'static str,
}

fn def(figure: Figure) -> &'static FigureDef {
    match figure {
        Figure::Fig2 => &FIG2,
        Figure::Fig5 => &FIG5,
        Figure::Fig6 => &FIG6,
        Figure::Fig7 => &FIG7,
        Figure::Ablation => &ABLATION,
        Figure::Sensitivity { .. } => &SENSITIVITY,
        Figure::Faults => &FAULTS,
    }
}

static FIG2: FigureDef = FigureDef {
    // One baseline run per application with all eight schemes attached
    // as passive probes on the same address streams — exactly the
    // measurement the paper plots.
    cells: |_, cmp| {
        let label = "coverage probes".to_string();
        let probes = CompressionScheme::paper_matrix();
        let machine = CellMachine {
            probes,
            ..CellMachine::plain(cmp)
        };
        Ok(vec![(
            ConfigSpec {
                label,
                ..ConfigSpec::baseline()
            },
            machine,
        )])
    },
    default_apps: workloads::apps::all_apps,
    render: |plan, outcomes| {
        let title = "Figure 2 — address compression coverage (16-core tiled CMP)";
        let schemes = CompressionScheme::paper_matrix();
        let headers = schemes.iter().map(|s| s.label()).collect();
        let coverages = |cell: &[Option<SimResult>]| match &cell[0] {
            Some(r) => r.probe_coverages.iter().map(|&(_, c)| Some(c)).collect(),
            None => vec![None; schemes.len()],
        };
        let geomean: fn(&[f64]) -> f64 = |c| geomean(c.iter().map(|x| x.max(1e-6)));
        let t = per_app(
            plan,
            outcomes,
            (title, headers),
            coverages,
            ("geomean", geomean, fmt_pct),
        );
        vec![("coverage.csv", t)]
    },
    landmarks: "paper landmarks: 1-byte Stride and 4-entry DBRC (1B LO) are low;\n\
         16-entry DBRC (1B LO), 2-byte Stride and 4-entry DBRC (2B LO) exceed 80%;\n\
         DBRC with 2-byte low order averages ~98%; Barnes and Radix lag in most\n\
         configurations.\n",
};

static FIG5: FigureDef = FigureDef {
    cells: |_, cmp| Ok(on(cmp, vec![ConfigSpec::baseline()])),
    default_apps: workloads::apps::all_apps,
    render: |plan, outcomes| {
        let title = "Figure 5 — interconnect message breakdown (baseline, 16-core CMP)";
        let classes = MessageClass::ALL;
        let headers = classes.iter().map(|c| c.label().into());
        let headers = headers.chain(["short w/ address".into()]).collect();
        let fractions = |cell: &[Option<SimResult>]| {
            let Some(r) = &cell[0] else {
                return vec![None; classes.len() + 1];
            };
            let short = classes
                .iter()
                .filter(|c| c.is_short() && c.carries_address());
            let short_addr = short.map(|&c| r.class_fraction(c)).sum();
            let all = classes.iter().map(|&c| r.class_fraction(c));
            all.chain([short_addr]).map(Some).collect()
        };
        let mean: fn(&[f64]) -> f64 = |c| c.iter().sum::<f64>() / c.len() as f64;
        let t = per_app(
            plan,
            outcomes,
            (title, headers),
            fractions,
            ("average", mean, fmt_pct),
        );
        vec![("breakdown.csv", t)]
    },
    landmarks: "paper landmarks: >60% of messages are a request or its reply, ~25%\n\
         coherence enforcement, ~15% replacements; more than 50% are short\n\
         messages carrying a compressible block address.\n",
};

static FIG6: FigureDef = FigureDef {
    cells: |request, cmp| Ok(on(cmp, figure6_configs(request.perfect))),
    default_apps: workloads::apps::all_apps,
    render: |_, outcomes| normalized(FIG6_TABLES, outcomes),
    landmarks: "paper landmarks: 4-entry DBRC (2B LO) averages ~0.92 execution time\n\
         (potential ~0.90), ranging from ~0.98-0.99 on Water/LU to ~0.75-0.78\n\
         on MP3D/Unstructured; link ED2P averages ~0.70, down to ~0.35 on the\n\
         communication-bound applications.\n",
};

static FIG7: FigureDef = FigureDef {
    render: |_, outcomes| normalized(FIG7_TABLES, outcomes),
    landmarks: "paper landmarks: average full-CMP ED2P improves 21% (2-byte Stride)\n\
         to 26% (4-entry DBRC); larger DBRC caches do WORSE at chip level\n\
         because their area/power overhead outgrows the execution-time gain.\n",
    ..FIG6
};

static ABLATION: FigureDef = FigureDef {
    cells: |_, cmp| Ok(on(cmp, ablation_configs())),
    default_apps: workloads::apps::all_apps,
    render: |plan, outcomes| {
        let title = "Ablation — component contributions";
        let configs = ablation_configs();
        let headers = configs[1..].iter().flat_map(|c| {
            [
                format!("{} (time)", c.label),
                format!("{} (link ED2P)", c.label),
            ]
        });
        // each application's block of cells starts with its baseline
        let ratios = |block: &[Option<SimResult>]| {
            let ratios = |r: &Option<SimResult>| match (&block[0], r) {
                (Some(base), Some(r)) => [
                    Some(r.cycles as f64 / base.cycles as f64),
                    Some(r.link_ed2p() / base.link_ed2p()),
                ],
                _ => [None; 2],
            };
            block[1..].iter().flat_map(ratios).collect()
        };
        let geomean: fn(&[f64]) -> f64 = |c| geomean(c.iter().copied());
        let summary = ("geomean", geomean, fmt_ratio as fn(f64) -> String);
        let t = per_app(plan, outcomes, (title, headers.collect()), ratios, summary);
        vec![("ablation.csv", t)]
    },
    landmarks: "",
};

static SENSITIVITY: FigureDef = FigureDef {
    cells: sensitivity_cells,
    default_apps: || vec![workloads::apps::mp3d(), workloads::apps::water_nsq()],
    render: render_sensitivity,
    landmarks: "expectation: bigger meshes mean more hops per message, so the\n\
         VL-Wire latency advantage compounds and the proposal's win grows.\n",
};

static FAULTS: FigureDef = FigureDef {
    cells: fault_cells,
    default_apps: workloads::apps::all_apps,
    render: render_faults,
    landmarks: "expectation: every detected desync is recovered (the NI falls back to\n\
         uncompressed B-Wires and resynchronises), a dropped message ends in a\n\
         structured deadlock, a corrupted address in a protocol rejection or a\n\
         deadlock, every planted violation is caught under both directory\n\
         organisations, and nothing panics.\n",
};

/// Every config of `configs` on `cmp`, without probes.
fn on(cmp: &CmpConfig, configs: Vec<ConfigSpec>) -> Vec<(ConfigSpec, CellMachine)> {
    configs
        .into_iter()
        .map(|config| (config, CellMachine::plain(cmp)))
        .collect()
}

/// The proposal: 4-entry DBRC (2B LO) over 5-byte VL-Wires.
fn proposal() -> CompressionScheme {
    CompressionScheme::Dbrc {
        entries: 4,
        low_bytes: 2,
    }
}

/// The ablation's columns after the baseline:
///
/// * `hetero only` — VL-Wires without compression: only 3-byte coherence
///   replies fit the fast channel, and data replies pay the narrower
///   (34-byte) B channel.
/// * `compression only` — DBRC over plain 75-byte links: smaller messages
///   save wire energy but nothing travels faster.
/// * `both` — the paper's proposal.
/// * `both (multicast cmds)` — the proposal with the coherence-command
///   stream switched to the multicast codec: one shared sender bank for
///   all destinations, so an invalidation fan-out pays at most one cold
///   miss (same storage as the per-destination DBRC it replaces).
/// * `reply partitioning` — the comparison point from the group's prior
///   work \[9\]: 11-byte L-Wires + 64-byte PW-Wires with split data replies.
/// * `both (perfect)` — the coverage upper bound.
fn ablation_configs() -> Vec<ConfigSpec> {
    let hetero = InterconnectChoice::Heterogeneous(VlWidth::FiveBytes);
    let config = |label: &str, interconnect, scheme| ConfigSpec {
        label: label.to_string(),
        interconnect,
        scheme,
    };
    let multicast = CompressionScheme::Multicast {
        entries: 4,
        low_bytes: 2,
    };
    let rp = InterconnectChoice::ReplyPartitioning;
    vec![
        ConfigSpec::baseline(),
        config("hetero only", hetero, CompressionScheme::None),
        config("compression only", InterconnectChoice::Baseline, proposal()),
        config("both (proposal)", hetero, proposal()),
        config("both (multicast cmds)", hetero, multicast),
        config("reply partitioning", rp, CompressionScheme::None),
        config(
            "both (perfect)",
            hetero,
            CompressionScheme::Perfect { low_bytes: 2 },
        ),
    ]
}

/// Baseline and proposal per mesh side, each side its own machine.
/// The full-map directory caps the default sweep at 8×8; sparse runs
/// on to 32×32. A side the directory cannot carry is refused before
/// any cell runs.
fn sensitivity_cells(request: &CampaignRequest, _: &CmpConfig) -> Cells {
    let Figure::Sensitivity { sides } = request.figure else {
        unreachable!("sensitivity cells planned for {:?}", request.figure)
    };
    let sides: Vec<u16> = match request.directory {
        _ if sides != Sides::EMPTY => sides.iter().collect(),
        DirectoryConfig::FullMap => vec![2, 4, 8],
        DirectoryConfig::Sparse { .. } => vec![2, 4, 8, 16, 32],
    };
    let mut cells = Vec::new();
    for side in sides {
        let cmp = machine(request.directory, Some(MeshShape::square(side))).map_err(|e| {
            let directory = request.directory.label();
            RejectReason::Malformed(format!(
                "a {side}x{side} mesh under the {directory} directory: {e}"
            ))
        })?;
        // DBRC's 2 low-order bytes ride 5-byte VL-Wires
        for config in [ConfigSpec::baseline(), ConfigSpec::compressed(proposal())] {
            let label = format!("{} @ {side}x{side}", config.label);
            cells.push((ConfigSpec { label, ..config }, CellMachine::plain(&cmp)));
        }
    }
    Ok(cells)
}

/// The invariant classes a fault campaign plants, one cell each per
/// directory organisation.
const INVARIANTS: [Invariant; 4] = [
    Invariant::SingleOwner,
    Invariant::SharerAgreement,
    Invariant::MshrConsistency,
    Invariant::DirectoryInclusion,
];

/// A fault campaign's cells, all on the proposal machine (16-entry DBRC
/// with one low-order byte over the 4-byte VL channel) and all seeded by
/// the request: codec desyncs (1 % of messages, at most 25), one dropped
/// message and one corrupted address on the request's directory, then a
/// planted violation of each invariant class on the full-map and on the
/// sparse directory — the sanitizer asserts through the directory seam,
/// so both organisations are swept whichever one the request names.
fn fault_cells(request: &CampaignRequest, cmp: &CmpConfig) -> Cells {
    let config = |label: String| ConfigSpec {
        label,
        interconnect: InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
        scheme: CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 1,
        },
    };
    let cell = |label: String, cmp: &CmpConfig, fault| {
        let machine = CellMachine {
            fault: Some(fault),
            ..CellMachine::plain(cmp)
        };
        (config(label), machine)
    };
    let once = FaultConfig {
        seed: request.seed,
        max_faults: Some(1),
        ..FaultConfig::none()
    };
    let injected = [
        ("desync", FaultConfig::desync_only(request.seed, 0.01, 25)),
        ("drop", FaultConfig { drop: 1.0, ..once }),
        (
            "corrupt",
            FaultConfig {
                corrupt: 1.0,
                ..once
            },
        ),
    ];
    let mut cells: Vec<_> = injected
        .into_iter()
        .map(|(label, faults)| cell(label.to_string(), cmp, CellFault::Inject(faults)))
        .collect();
    for directory in [DirectoryConfig::FullMap, DirectoryConfig::sparse()] {
        let cmp = machine(directory, None).map_err(RejectReason::Malformed)?;
        for class in INVARIANTS {
            let label = format!("sanitizer {class:?} {}", directory.label());
            cells.push(cell(label, &cmp, CellFault::Plant(class)));
        }
    }
    Ok(cells)
}

/// The fault campaigns' table — per application the desync counts
/// (injected / detected / recovered), how the drop and corrupt cells
/// ended, the planted violations caught and the panics — and their
/// totals.
fn render_faults(plan: &CampaignPlan, outcomes: &[Outcome]) -> Tables {
    let directory = plan.cmp.directory.label();
    let mut t = TableBuilder::new(
        format!(
            "Fault campaigns — proposal configuration (16-entry DBRC, 4B VL, {directory} directory)"
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
    // the desync cells' injected, detected, recovered and fallback
    // messages; then counts over every cell
    let mut desync = [0; 4];
    let (mut fatal, mut benign, mut caught, mut anomalies, mut panics) = (0, 0, 0, 0, 0);
    let block = outcomes.len() / plan.apps;
    for (first, cells) in (0..).step_by(block).zip(outcomes.chunks(block)) {
        let mut row = vec![plan.specs[first].app.name.to_string()];
        let (caught_before, panics_before) = (caught, panics);
        for (j, outcome) in cells.iter().enumerate() {
            let Some(outcome) = outcome else {
                row.extend((j < 3).then(|| "n/a".to_string()));
                continue;
            };
            let expected = plan.expected(first + j, outcome.as_ref());
            anomalies += u64::from(!expected && !matches!(outcome, Err(SimError::Panic { .. })));
            let text = match (j, outcome) {
                (_, Err(SimError::Panic { .. })) => {
                    panics += 1;
                    "PANIC".to_string()
                }
                (0, Ok(r)) => desync_counts(r, &mut desync),
                (0, Err(_)) => "ABORTED".to_string(),
                _ if !expected => "unexpected".to_string(),
                (1 | 2, Ok(_)) => {
                    benign += 1;
                    "benign".to_string()
                }
                (1 | 2, Err(e)) => {
                    fatal += 1;
                    match e {
                        SimError::Protocol { .. } => "rejected".to_string(),
                        _ => "deadlock(dump)".to_string(),
                    }
                }
                _ => {
                    caught += 1;
                    continue;
                }
            };
            row.extend((j < 3).then_some(text));
        }
        row.push(format!("{}/{} caught", caught - caught_before, block - 3));
        row.push((panics - panics_before).to_string());
        t.row(row);
    }
    let mut sums = TableBuilder::new(
        "Fault campaigns — totals",
        &[
            "desyncs injected",
            "detected",
            "recovered",
            "fallback messages",
            "structured fatal",
            "benign",
            "sanitizer catches",
            "anomalies",
            "panics",
        ],
    );
    let totals = desync
        .into_iter()
        .chain([fatal, benign, caught, anomalies, panics]);
    sums.row(totals.map(|n| n.to_string()).collect());
    vec![("faults.csv", t), ("fault_totals.csv", sums)]
}

/// A completed desync cell's `injected/detected/recovered`, its counts
/// and fallback messages added to `totals`.
fn desync_counts(r: &SimResult, totals: &mut [u64; 4]) -> String {
    let counts = [
        r.fault_stats.desyncs.get(),
        r.resync.desyncs_detected,
        r.resync.resyncs_completed,
        r.resync.fallback_msgs,
    ];
    for (total, n) in totals.iter_mut().zip(counts) {
        *total += n;
    }
    format!("{}/{}/{}", counts[0], counts[1], counts[2])
}

fn render_sensitivity(plan: &CampaignPlan, outcomes: &[Outcome]) -> Tables {
    let rows = rows(outcomes);
    let directory = plan.cmp.directory.label();
    let mut t = TableBuilder::new(
        format!(
            "Sensitivity — mesh size (proposal vs baseline, 4-entry DBRC 2B LO, {directory} directory)"
        ),
        &[
            "application",
            "mesh",
            "directory",
            "norm exec time",
            "norm link ED2P",
            "baseline cycles",
        ],
    );
    // cells come in (baseline, proposal) pairs, one pair per side
    for (i, pair) in rows.chunks(2).enumerate() {
        let side = plan.machines[2 * i].cmp.mesh.width;
        let mut cells = vec![
            plan.specs[2 * i].app.name.to_string(),
            format!("{side}x{side}"),
            directory.clone(),
        ];
        match (&pair[0], &pair[1]) {
            (Some(base), Some(prop)) => cells.extend([
                fmt_ratio(prop.cycles as f64 / base.cycles as f64),
                fmt_ratio(prop.link_ed2p() / base.link_ed2p()),
            ]),
            _ => cells.extend(["n/a".to_string(), "n/a".to_string()]),
        }
        cells.push(
            pair[0]
                .as_ref()
                .map_or("n/a".to_string(), |b| b.cycles.to_string()),
        );
        t.row(cells);
    }
    vec![("sensitivity.csv", t)]
}

/// One table of a figure: title, CSV file suffix, plotted ratio.
type FigureTable = (&'static str, &'static str, fn(&NormalizedRow) -> f64);

const FIG6_TABLES: &[FigureTable] = &[
    (
        "Figure 6 (top) — normalised execution time",
        "exec_time.csv",
        |r| r.exec_time,
    ),
    (
        "Figure 6 (bottom) — normalised link ED2P",
        "link_ed2p.csv",
        |r| r.link_ed2p,
    ),
];

const FIG7_TABLES: &[FigureTable] = &[(
    "Figure 7 — normalised full-CMP ED2P",
    "chip_ed2p.csv",
    |r| r.chip_ed2p,
)];

/// Figure 6/7 `tables` of the completed cells, normalised to each
/// application's baseline.
fn normalized(tables: &[FigureTable], outcomes: &[Outcome]) -> Tables {
    let completed = outcomes.iter().flatten().flatten().cloned();
    let n = normalize_partial(&completed.collect::<Vec<_>>());
    tables
        .iter()
        .map(|&(title, suffix, metric)| {
            let table = figure_table(title, &n.rows, &n.missing_baseline, metric);
            (suffix, table)
        })
        .collect()
}

/// How a per-application table ends and prints: the summary row's
/// label, the summary of a column, the format of a value.
type Summary = (&'static str, fn(&[f64]) -> f64, fn(f64) -> String);

/// The completed cells' rows (`None` where a cell failed or has not run).
fn rows(outcomes: &[Outcome]) -> Vec<Option<SimResult>> {
    let row = |outcome: &Outcome| outcome.as_ref()?.as_ref().ok().cloned();
    outcomes.iter().map(row).collect()
}

/// A table of one row per application — its name, then `values` of its
/// block of completed rows (`n/a` where missing) — and a last row
/// summarising each column (`n/a` where every value is).
fn per_app(
    plan: &CampaignPlan,
    outcomes: &[Outcome],
    (title, headers): (&str, Vec<String>),
    values: impl Fn(&[Option<SimResult>]) -> Vec<Option<f64>>,
    (label, summary, fmt): Summary,
) -> TableBuilder {
    let headers: Vec<&str> = std::iter::once("application")
        .chain(headers.iter().map(String::as_str))
        .collect();
    let mut t = TableBuilder::new(title, &headers);
    let block = outcomes.len() / plan.apps;
    let mut columns = vec![Vec::new(); headers.len() - 1];
    for (specs, cells) in plan.specs.chunks(block).zip(outcomes.chunks(block)) {
        let mut row = vec![specs[0].app.name.to_string()];
        for (column, value) in columns.iter_mut().zip(values(&rows(cells))) {
            column.extend(value);
            row.push(value.map_or("n/a".to_string(), fmt));
        }
        t.row(row);
    }
    let summaries = columns.iter().map(|c| match c.is_empty() {
        true => "n/a".to_string(),
        false => fmt(summary(c)),
    });
    t.row(
        std::iter::once(label.to_string())
            .chain(summaries)
            .collect(),
    );
    t
}

/// Everything a [`CampaignRequest`] determines about its sweep.
pub struct CampaignPlan {
    pub figure: Figure,
    /// The request's machine on the default 4×4 mesh: what the journal
    /// identity is fingerprinted with, and every cell's machine but
    /// those of a mesh sweep.
    pub cmp: CmpConfig,
    /// The cells, app-major over the figure's configurations: the order
    /// every journal, event index and CSV column goes by. Cell keys are
    /// unique.
    pub specs: Vec<RunSpec>,
    /// What each cell runs on, index-aligned with `specs`.
    pub machines: Vec<CellMachine>,
    /// How many applications the cells sweep.
    pub apps: usize,
    pub policy: RunPolicy,
    /// Journal identity; [`cmp_common::journal::Journal::resume`]
    /// refuses a directory written under another one.
    pub meta: CampaignMeta,
}

impl CampaignPlan {
    /// Plan `request`, refusing an application the suite does not know,
    /// a machine the directory organisation cannot carry, or a sweep
    /// that would run one cell twice.
    pub fn new(request: &CampaignRequest) -> Result<CampaignPlan, RejectReason> {
        let def = def(request.figure);
        let apps = if request.apps.is_empty() {
            (def.default_apps)()
        } else {
            request
                .apps
                .iter()
                .map(|name| {
                    workloads::apps::app_by_name(name)
                        .ok_or_else(|| RejectReason::UnknownApp(name.clone()))
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        let cmp = machine(request.directory, None).map_err(RejectReason::Malformed)?;
        let cells = (def.cells)(request, &cmp)?;
        let mut specs = Vec::with_capacity(apps.len() * cells.len());
        let mut machines = Vec::with_capacity(specs.capacity());
        for app in &apps {
            for (config, machine) in &cells {
                specs.push(RunSpec {
                    app: app.clone(),
                    config: config.clone(),
                    seed: request.seed,
                    scale: request.scale,
                });
                machines.push(machine.clone());
            }
        }
        // Journal replay and the daemon's cell events go by cell key.
        let mut keys = HashSet::new();
        if let Some(key) = specs.iter().map(cell_key).find(|k| !keys.insert(k.clone())) {
            return Err(RejectReason::Malformed(format!(
                "cell {key} would run twice in one sweep"
            )));
        }
        Ok(CampaignPlan {
            figure: request.figure,
            meta: campaign_meta(&cmp, &specs),
            cmp,
            specs,
            machines,
            apps: apps.len(),
            policy: RunPolicy {
                retries: request.retries,
                wall_deadline: request.deadline_s.map(Duration::from_secs),
                ..RunPolicy::default()
            },
        })
    }

    /// The provenance line stamped into every CSV of this sweep.
    pub fn stamp(&self) -> String {
        format!(
            "git_sha={} config_hash={} cells={}",
            self.meta.git_sha, self.meta.config_hash, self.meta.cells
        )
    }

    /// The figure's tables, rendered from `outcomes` — index-aligned
    /// with `specs`.
    pub fn render(&self, outcomes: &[Outcome]) -> Tables {
        (def(self.figure).render)(self, outcomes)
    }

    /// Whether cell `index` ended as its figure expects — what a sweep's
    /// exit code and its daemon's failure count go by. A cell without a
    /// fault must complete. A fault cell must end as its fault should:
    ///
    /// * injected desyncs: the run completes, every detected divergence
    ///   recovered;
    /// * a dropped message: benign (the run completes) or a structured
    ///   deadlock;
    /// * a corrupted address: benign, a protocol rejection or a
    ///   structured deadlock;
    /// * a planted violation: a sanitizer abort naming its class.
    ///
    /// A panic is never expected.
    pub fn expected(&self, index: usize, outcome: Result<&SimResult, &SimError>) -> bool {
        let inject = |f: &FaultConfig, outcome: Result<&SimResult, &SimError>| match outcome {
            Ok(r) if f.desync > 0.0 => r.resync.resyncs_completed == r.resync.desyncs_detected,
            Ok(_) => true,
            Err(_) if f.desync > 0.0 => false,
            Err(SimError::Deadlock { .. }) => true,
            Err(SimError::Protocol { .. }) => f.corrupt > 0.0,
            Err(_) => false,
        };
        match (&self.machines[index].fault, outcome) {
            (_, Err(SimError::Panic { .. })) => false,
            (None, outcome) => outcome.is_ok(),
            (Some(CellFault::Inject(f)), outcome) => inject(f, outcome),
            (Some(CellFault::Plant(class)), Err(SimError::Sanitizer { violations, .. })) => {
                violations.iter().any(|v| v.invariant == *class)
            }
            (Some(CellFault::Plant(_)), _) => false,
        }
    }

    /// The text printed under the figure's tables (may be empty).
    pub fn landmarks(&self) -> &'static str {
        def(self.figure).landmarks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Sides, FIGURES};

    fn request(figure: Figure, directory: DirectoryConfig) -> CampaignRequest {
        CampaignRequest {
            figure,
            apps: Vec::new(),
            seed: 1025041,
            scale: 0.002,
            perfect: true,
            retries: 0,
            deadline_s: None,
            directory,
        }
    }

    /// Journal replay and the daemon's cell events go by cell key, so
    /// every figure's cells have distinct keys — also where they differ
    /// only by mesh (sensitivity) — and figures whose cells differ only
    /// by probes (Figures 2 and 5) have distinct journal identities.
    #[test]
    fn every_figure_plans_with_unique_cell_keys_and_its_own_identity() {
        let five = Sides::of(&[2, 4, 8, 16, 32]).unwrap();
        let mut requests: Vec<_> = FIGURES
            .iter()
            .map(|&(_, figure)| request(figure, DirectoryConfig::FullMap))
            .collect();
        requests.push(request(
            Figure::Sensitivity { sides: five },
            DirectoryConfig::sparse(),
        ));
        let mut hashes = HashSet::new();
        for request in &requests {
            let plan = CampaignPlan::new(request)
                .unwrap_or_else(|e| panic!("{} does not plan: {e}", request.figure.label()));
            let keys: HashSet<_> = plan.specs.iter().map(cell_key).collect();
            assert_eq!(keys.len(), plan.specs.len(), "{}", request.figure.label());
            assert_eq!(plan.machines.len(), plan.specs.len());
            hashes.insert(plan.meta.config_hash);
        }
        // Figures 6 and 7 are one sweep rendered two ways.
        assert_eq!(hashes.len(), requests.len() - 1);

        let fig2 = CampaignPlan::new(&requests[0]).unwrap();
        assert!(fig2
            .machines
            .iter()
            .all(|m| m.probes == CompressionScheme::paper_matrix()));
        let sparse = CampaignPlan::new(requests.last().unwrap()).unwrap();
        let meshes: Vec<u16> = sparse.machines.iter().map(|m| m.cmp.mesh.width).collect();
        assert_eq!(meshes[..10], [2, 2, 4, 4, 8, 8, 16, 16, 32, 32]);
        let default = request(
            Figure::Sensitivity {
                sides: Sides::EMPTY,
            },
            DirectoryConfig::sparse(),
        );
        assert_eq!(
            CampaignPlan::new(&default).unwrap().meta.config_hash,
            sparse.meta.config_hash,
            "the sparse default sweep is the five sides"
        );
    }

    #[test]
    fn a_sweep_that_would_run_a_cell_twice_is_refused() {
        let twice = CampaignRequest {
            apps: vec!["FFT".into(), "FFT".into()],
            ..request(Figure::Fig5, DirectoryConfig::FullMap)
        };
        match CampaignPlan::new(&twice) {
            Err(RejectReason::Malformed(why)) => assert!(why.contains("twice"), "{why}"),
            Err(other) => panic!("refused as {other}"),
            Ok(_) => panic!("planned a sweep running FFT twice"),
        }
    }

    /// The judge, on synthetic outcomes of one application's fault
    /// cells: a planted violation must be caught naming its class, a
    /// dropped message may not end in a protocol rejection, a desync
    /// must be recovered, and a panic is never expected — it renders
    /// `PANIC` and is counted. A figure without faults expects its
    /// cells to complete.
    #[test]
    fn the_judge_expects_only_what_each_fault_explains() {
        use cmp_common::types::TileId;
        use coherence::error::ProtocolError;
        use coherence::sanitizer::Violation;
        use tcmp_core::{CmpSimulator, SimConfig, StateDump};

        let faults = CampaignPlan::new(&CampaignRequest {
            apps: vec!["FFT".into()],
            ..request(Figure::Faults, DirectoryConfig::FullMap)
        })
        .unwrap();
        let labels: Vec<&str> = faults
            .specs
            .iter()
            .map(|s| s.config.label.as_str())
            .collect();
        assert_eq!(labels.len(), 11);
        assert_eq!(
            labels[..4],
            [
                "desync",
                "drop",
                "corrupt",
                "sanitizer SingleOwner full-map"
            ]
        );
        assert_eq!(labels[10], "sanitizer DirectoryInclusion sparse(64)");

        let dump = || {
            Box::new(StateDump {
                cycle: 9,
                tiles: Vec::new(),
                mem_reads: Vec::new(),
                delayed_events: 0,
                held_messages: 0,
                live_messages: 0,
            })
        };
        let caught = |invariant| SimError::Sanitizer {
            cycle: 9,
            violations: vec![Violation {
                cycle: 9,
                tile: TileId(0),
                line: 0x40,
                invariant,
                detail: String::new(),
            }],
            dump: dump(),
        };
        let deadlock = SimError::Deadlock {
            cycle: 9,
            diagnostics: String::new(),
            dump: dump(),
        };
        let rejected = SimError::Protocol {
            cycle: 9,
            error: ProtocolError {
                tile: TileId(0),
                line: 0x40,
                kind: None,
                detail: String::new(),
            },
            dump: dump(),
        };
        let panic = SimError::Panic {
            message: "boom".into(),
        };
        let app = workloads::apps::fft();
        let row = CmpSimulator::new(SimConfig::baseline(), &app, 1, 0.002)
            .run()
            .expect("a tiny clean run");
        let (desync, drop, corrupt, single_owner) = (0, 1, 2, 3);

        assert!(faults.expected(single_owner, Err(&caught(Invariant::SingleOwner))));
        assert!(
            !faults.expected(single_owner, Ok(&row)),
            "a sanitizer cell that completes"
        );
        let other = caught(Invariant::SharerAgreement);
        assert!(
            !faults.expected(single_owner, Err(&other)),
            "another class caught"
        );
        assert!(faults.expected(drop, Ok(&row)) && faults.expected(drop, Err(&deadlock)));
        assert!(
            !faults.expected(drop, Err(&rejected)),
            "a drop cell rejected"
        );
        assert!(
            faults.expected(corrupt, Err(&rejected)) && faults.expected(corrupt, Err(&deadlock))
        );
        assert!(!faults.expected(desync, Err(&deadlock)));
        let mut unrecovered = row.clone();
        unrecovered.resync.desyncs_detected = 2;
        unrecovered.resync.resyncs_completed = 1;
        assert!(!faults.expected(desync, Ok(&unrecovered)));
        assert!(
            (0..11).all(|i| !faults.expected(i, Err(&panic))),
            "a panic anywhere"
        );

        let mut outcomes: Vec<Outcome> = vec![None; 11];
        outcomes[drop] = Some(Err(panic.clone()));
        outcomes[single_owner] = Some(Err(panic.clone()));
        let tables = faults.render(&outcomes);
        let csv = tables[0].1.to_csv();
        assert!(csv.contains("FFT,n/a,PANIC,n/a,0/8 caught,2"), "{csv}");
        let totals = tables[1].1.to_csv();
        assert!(
            totals.ends_with(",0,2\n"),
            "no anomalies, two panics: {totals}"
        );

        let fig6 = CampaignPlan::new(&request(Figure::Fig6, DirectoryConfig::FullMap)).unwrap();
        assert!(fig6.expected(0, Ok(&row)));
        assert!(!fig6.expected(0, Err(&deadlock)) && !fig6.expected(0, Err(&panic)));
    }

    /// Journals and stamps written by the Figure 6/7 binaries before
    /// every figure became a plan still match: same cell keys, same
    /// configuration fingerprint.
    #[test]
    fn figure_6_and_7_keep_their_journal_identity() {
        for (directory, hash) in [
            (DirectoryConfig::FullMap, "1e84fa49ad66a5a3"),
            (DirectoryConfig::sparse(), "7ae812e808a1ac5b"),
        ] {
            for figure in [Figure::Fig6, Figure::Fig7] {
                let plan = CampaignPlan::new(&CampaignRequest {
                    apps: vec!["FFT".into()],
                    perfect: false,
                    ..request(figure, directory)
                })
                .unwrap();
                assert_eq!(plan.meta.config_hash, hash);
                assert_eq!(
                    cell_key(&plan.specs[1]),
                    "FFT|2-byte Stride|seed=0xfa411|scale=0.002"
                );
            }
        }
    }
}
