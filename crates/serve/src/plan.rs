//! What a figure campaign *is*: the one place a [`CampaignRequest`] —
//! the eight things a user can say about a sweep — becomes the machine,
//! the cell list, the run policy, the journal identity, the provenance
//! stamp and the figure's tables.
//!
//! Both front doors plan here — the figure binaries' local run and
//! [`crate::service::Service`] — so a request means the same sweep and
//! renders the same bytes whichever door it came in by, and a knob
//! added to the request cannot be honoured by one door only.

use std::time::Duration;

use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::geometry::MeshShape;
use cmp_common::journal::CampaignMeta;
use tcmp_core::experiment::{figure6_configs, normalize_partial, NormalizedRow, RunSpec};
use tcmp_core::report::{figure_table, TableBuilder};
use tcmp_core::supervisor::{campaign_meta, RunPolicy};
use tcmp_core::SimResult;

use crate::proto::{CampaignRequest, Figure, RejectReason};

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

/// Everything a [`CampaignRequest`] determines about its sweep.
pub struct CampaignPlan {
    pub figure: Figure,
    /// The machine every cell simulates.
    pub cmp: CmpConfig,
    /// The cells, app-major over [`figure6_configs`]: the order every
    /// journal, event index and CSV column goes by.
    pub specs: Vec<RunSpec>,
    pub policy: RunPolicy,
    /// Journal identity; [`cmp_common::journal::Journal::resume`]
    /// refuses a directory written under another one.
    pub meta: CampaignMeta,
}

impl CampaignPlan {
    /// Plan `request`, refusing an application the suite does not know
    /// or a directory organisation the machine cannot carry.
    pub fn new(request: &CampaignRequest) -> Result<CampaignPlan, RejectReason> {
        let apps = if request.apps.is_empty() {
            workloads::apps::all_apps()
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
        let configs = figure6_configs(request.perfect);
        let mut specs = Vec::with_capacity(apps.len() * configs.len());
        for app in &apps {
            for config in &configs {
                specs.push(RunSpec {
                    app: app.clone(),
                    config: config.clone(),
                    seed: request.seed,
                    scale: request.scale,
                });
            }
        }
        Ok(CampaignPlan {
            figure: request.figure,
            meta: campaign_meta(&cmp, &specs),
            cmp,
            specs,
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

    /// The figure's tables as `(CSV file suffix, table)`, rendered from
    /// `results` — the completed rows, in spec order; failed or missing
    /// cells render as `n/a`.
    pub fn render(&self, results: &[SimResult]) -> Vec<(&'static str, TableBuilder)> {
        let n = normalize_partial(results);
        let tables = match self.figure {
            Figure::Fig6 => FIG6_TABLES,
            Figure::Fig7 => FIG7_TABLES,
        };
        tables
            .iter()
            .map(|&(title, suffix, metric)| {
                let table = figure_table(title, &n.rows, &n.missing_baseline, metric);
                (suffix, table)
            })
            .collect()
    }
}
