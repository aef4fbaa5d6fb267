//! The wire protocol of the campaign service: line-delimited JSON over
//! a local Unix socket, carried by the journal's lossless
//! [`Json`](cmp_common::journal::Json) value (the same one that makes
//! campaign journals round-trip bit-identically). No message has
//! encode or decode code of its own: each type is declared once, beside
//! its definition, as a [`cmp_common::json`] field table.
//!
//! A connection carries exactly one [`Request`] line from the client,
//! one [`Response`] line back, and — for `submit`/`attach` — a stream
//! of [`Event`] lines until the campaign finishes or the client goes
//! away. Every message is one self-describing JSON object with a
//! `"type"` tag; unknown or malformed input yields a structured
//! [`RejectReason::Malformed`] rather than a dropped connection, so a
//! confused client always learns *why*.

use cmp_common::config::DirectoryConfig;
use cmp_common::{json_as, json_record, json_tagged};

/// Which figure a campaign sweeps and renders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Figure 2: address-compression coverage of every scheme, probed
    /// passively on one baseline run per application.
    Fig2,
    /// Figure 5: the baseline's interconnect message breakdown.
    Fig5,
    /// Figure 6: normalised execution time + link ED²P.
    Fig6,
    /// Figure 7: normalised full-CMP ED²P.
    Fig7,
    /// Beyond the paper: where the proposal's win comes from.
    Ablation,
    /// Beyond the paper: the proposal against the baseline per mesh
    /// side (empty = the directory's default sweep).
    Sensitivity { sides: Sides },
    /// Beyond the paper: seeded fault campaigns on the proposal —
    /// codec desync, a dropped message, a corrupted address, and a
    /// planted violation of each sanitizer invariant.
    Faults,
    /// Every figure of [`FIGURES`] as one campaign, each distinct
    /// simulation run once.
    All,
}

/// Every figure's label, in the order `all` plans and renders them.
/// The one table labels are printed from and parsed against (`all`
/// aside).
pub const FIGURES: [(&str, Figure); 7] = [
    ("fig2", Figure::Fig2),
    ("fig5", Figure::Fig5),
    ("fig6", Figure::Fig6),
    ("fig7", Figure::Fig7),
    ("ablation", Figure::Ablation),
    (
        "sensitivity",
        Figure::Sensitivity {
            sides: Sides::EMPTY,
        },
    ),
    ("faults", Figure::Faults),
];

impl Figure {
    /// The figure's name without its sides (`"sensitivity"`).
    pub fn name(self) -> &'static str {
        if self == Figure::All {
            return "all";
        }
        let same =
            |f: &&(&str, Figure)| std::mem::discriminant(&f.1) == std::mem::discriminant(&self);
        FIGURES.iter().find(same).map_or("", |f| f.0)
    }

    /// Stable wire/directory label: the name, plus `:16,32` for a
    /// sensitivity sweep over explicit sides.
    pub fn label(self) -> String {
        match self {
            Figure::Sensitivity { sides } if sides != Sides::EMPTY => {
                let sides: Vec<String> = sides.iter().map(|s| s.to_string()).collect();
                format!("{}:{}", self.name(), sides.join(","))
            }
            _ => self.name().to_string(),
        }
    }

    /// Parse a wire/directory label, naming every known figure when it
    /// is not one.
    pub fn from_label(label: &str) -> Result<Figure, String> {
        let (name, sides) = label
            .split_once(':')
            .map_or((label, None), |(n, s)| (n, Some(s)));
        match (FIGURES.iter().find(|f| f.0 == name).map(|f| f.1), sides) {
            (None, None) if name == "all" => Ok(Figure::All),
            (Some(figure), None) => Ok(figure),
            (Some(Figure::Sensitivity { .. }), Some(list)) => {
                let sides: Result<Vec<u16>, _> = list.split(',').map(str::parse).collect();
                let sides = sides.map_err(|_| format!("mesh sides {list:?} are not integers"))?;
                Ok(Figure::Sensitivity {
                    sides: Sides::of(&sides)?,
                })
            }
            _ => {
                let names: Vec<_> = FIGURES.iter().map(|f| f.0).collect();
                Err(format!(
                    "unknown figure {label:?} (want {}|all, sensitivity:N,...)",
                    names.join("|")
                ))
            }
        }
    }
}

// On the wire a figure is its label.
json_as!(Figure as String, |f| f.label(), |label| Figure::from_label(
    &label
));

/// A set of mesh sides from 1 to 64 (bit `s - 1` is side `s`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sides(u64);

impl Sides {
    pub const EMPTY: Sides = Sides(0);

    /// The set of `sides`, refusing one outside `1..=64`.
    pub fn of(sides: &[u16]) -> Result<Sides, String> {
        sides
            .iter()
            .try_fold(Sides::EMPTY, |set, &side| match side {
                1..=64 => Ok(Sides(set.0 | 1 << (side - 1))),
                _ => Err(format!("mesh side {side} is outside 1..=64")),
            })
    }

    /// The sides, ascending.
    pub fn iter(self) -> impl Iterator<Item = u16> {
        (1..=64).filter(move |side| self.0 >> (side - 1) & 1 == 1)
    }
}

/// A campaign submission: the same knobs `tcmp-fig` exposes as
/// flags, minus execution-local ones (`--jobs` belongs to the service's
/// shared pool, not to any one campaign).
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignRequest {
    pub figure: Figure,
    /// Application names; empty = the full 13-app suite.
    pub apps: Vec<String>,
    /// Workload trace seed (part of every cell's identity).
    pub seed: u64,
    /// Reference-count scale factor.
    pub scale: f64,
    /// Include the perfect-compression bound configurations.
    pub perfect: bool,
    /// Per-cell retry budget.
    pub retries: u32,
    /// Per-cell wall-clock deadline in seconds.
    pub deadline_s: Option<u64>,
    /// L2 directory organisation for every cell in the campaign
    /// (`full-map` caps the mesh at 64 tiles; `sparse[:N]` unlocks
    /// 16×16 and beyond).
    pub directory: DirectoryConfig,
}

// `deadline_s` and `directory` may be absent: campaign.json files
// persisted before the directory became a campaign knob ran full-map.
json_record!(CampaignRequest {
    figure,
    apps,
    seed,
    scale,
    perfect,
    retries,
    deadline_s = None,
    directory = DirectoryConfig::FullMap,
});

/// What a client asks of the service.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Queue a new campaign; the connection then streams its events.
    Submit(CampaignRequest),
    /// Re-attach to an existing campaign (it outlived its submitter);
    /// the connection streams catch-up events for the cells already
    /// done, then live events. Clients deduplicate by cell index.
    Attach { campaign: String },
    /// One status snapshot: queue depth, campaigns, cache counters.
    Status,
}

json_tagged!(Request, "type" {
    "submit" => Submit(..request),
    "attach" => Attach { campaign },
    "status" => Status,
});

/// Why a request was refused. Every variant is a *structured* refusal:
/// overload, drain and bad input are expected operating conditions, not
/// crashes.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// Admission control: queueing this campaign would exceed the
    /// service's bounded cell queue. Back off and resubmit.
    Overloaded {
        /// Cells already queued.
        queued: usize,
        /// The queue bound.
        bound: usize,
        /// Cells this campaign would have added.
        requested: usize,
    },
    /// The service is draining (SIGTERM): finishing in-flight cells,
    /// accepting nothing new.
    Draining,
    /// An application name the workload suite does not know.
    UnknownApp(String),
    /// No such campaign id (attach).
    UnknownCampaign(String),
    /// The request line did not parse as a known request.
    Malformed(String),
    /// The service hit an I/O failure setting the campaign up (disk
    /// full, permissions); nothing was queued.
    Internal(String),
}

json_tagged!(RejectReason, "reason" {
    "overloaded" => Overloaded { queued, bound, requested },
    "draining" => Draining,
    "unknown_app" => UnknownApp(app),
    "unknown_campaign" => UnknownCampaign(campaign),
    "malformed" => Malformed(detail),
    "internal" => Internal(detail),
});

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Overloaded {
                queued,
                bound,
                requested,
            } => write!(
                f,
                "overloaded: {queued} cells queued of a {bound}-cell bound; \
                 this campaign would add {requested}"
            ),
            RejectReason::Draining => write!(f, "service is draining; resubmit after restart"),
            RejectReason::UnknownApp(app) => write!(f, "unknown application {app:?}"),
            RejectReason::UnknownCampaign(id) => write!(f, "no campaign {id:?}"),
            RejectReason::Malformed(d) => write!(f, "malformed request: {d}"),
            RejectReason::Internal(d) => write!(f, "internal service error: {d}"),
        }
    }
}

/// One campaign's progress in a status report.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignStatus {
    pub id: String,
    pub cells: usize,
    pub done: usize,
    pub failed: usize,
    pub finished: bool,
}

json_record!(CampaignStatus {
    id,
    cells,
    done,
    failed,
    finished,
});

/// Checkpoint-store counters in a status report, all from the one
/// store: the first four are the warm-start view, the `disk_*` fields
/// repeat stores, hits and quarantines beside evictions and residency.
/// All are zero when warm starts are off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub stores: u64,
    pub hits: u64,
    pub misses: u64,
    pub quarantined: u64,
    pub disk_stores: u64,
    pub disk_hits: u64,
    pub disk_quarantined: u64,
    pub disk_evicted: u64,
    pub disk_resident_bytes: u64,
}

// The `disk_*` fields are absent on reports from pre-disk-tier daemons:
// a newer client reads them as zero rather than refusing the report.
json_record!(CacheCounts {
    stores,
    hits,
    misses,
    quarantined,
    disk_stores = 0,
    disk_hits = 0,
    disk_quarantined = 0,
    disk_evicted = 0,
    disk_resident_bytes = 0,
});

/// What the service answers a request with.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The campaign is queued (and journaled); events follow.
    Submitted {
        campaign: String,
        cells: usize,
        /// Cells replayed as already complete from a resumed journal.
        resumed: usize,
    },
    /// Attached; catch-up events for `done` cells follow, then live
    /// ones.
    Attached {
        campaign: String,
        cells: usize,
        done: usize,
    },
    /// The request was refused, with a structured reason.
    Rejected(RejectReason),
    /// One status snapshot.
    StatusReport {
        /// Cells waiting to run: queued, or parked on a twin's run.
        queued: usize,
        draining: bool,
        campaigns: Vec<CampaignStatus>,
        cache: CacheCounts,
    },
}

json_tagged!(Response, "type" {
    "submitted" => Submitted { campaign, cells, resumed },
    "attached" => Attached { campaign, cells, done },
    "rejected" => Rejected(..reason),
    "status" => StatusReport { queued, draining, campaigns, cache },
});

/// Per-cell progress, streamed to submitters and attachers.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    CellStart {
        campaign: String,
        index: usize,
        cell: String,
    },
    CellFinish {
        campaign: String,
        index: usize,
        cell: String,
        cycles: u64,
        /// [`tcmp_core::supervisor::WarmStart`] label of how the cell
        /// crossed the warm point, or `"journal"` for a row it did not
        /// simulate: one replayed in the catch-up stream, or one taken
        /// from a cell another campaign finished.
        warm: String,
    },
    CellFail {
        campaign: String,
        index: usize,
        cell: String,
        attempts: u32,
        error: String,
    },
    CampaignDone {
        campaign: String,
        completed: usize,
        failed: usize,
    },
}

impl Event {
    /// The cell index for deduplication across catch-up + live streams
    /// (`None` for campaign-level events).
    pub fn index(&self) -> Option<usize> {
        match self {
            Event::CellStart { index, .. }
            | Event::CellFinish { index, .. }
            | Event::CellFail { index, .. } => Some(*index),
            Event::CampaignDone { .. } => None,
        }
    }
}

json_tagged!(Event, "type" {
    "cell_start" => CellStart { campaign, index, cell },
    "cell_finish" => CellFinish { campaign, index, cell, cycles, warm },
    "cell_fail" => CellFail { campaign, index, cell, attempts, error },
    "campaign_done" => CampaignDone { campaign, completed, failed },
});

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_common::journal::Json;
    use cmp_common::json::JsonCodec;

    fn round_trip_request(r: Request) {
        let line = r.to_json().render();
        let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Submit(CampaignRequest {
            figure: Figure::Fig6,
            apps: vec!["FFT".into(), "MP3D".into()],
            seed: 0xDEAD_BEEF,
            scale: 0.015,
            perfect: true,
            retries: 2,
            deadline_s: Some(300),
            directory: DirectoryConfig::Sparse { dir_mshrs: 32 },
        }));
        round_trip_request(Request::Attach {
            campaign: "c0003".into(),
        });
        round_trip_request(Request::Status);
    }

    #[test]
    fn old_requests_without_a_directory_field_default_to_full_map() {
        // campaign.json files persisted before the directory knob
        // existed must still resume (they all ran full-map).
        let j = Json::parse(
            r#"{"type":"submit","figure":"fig6","apps":[],"seed":1,
                "scale":0.01,"perfect":false,"retries":0,"deadline_s":null}"#,
        )
        .unwrap();
        match Request::from_json(&j).unwrap() {
            Request::Submit(req) => assert_eq!(req.directory, DirectoryConfig::FullMap),
            other => panic!("parsed as {other:?}"),
        }
        let j = Json::parse(
            r#"{"type":"submit","figure":"fig6","apps":[],"seed":1,
                "scale":0.01,"perfect":false,"retries":0,"deadline_s":null,
                "directory":"sparse:0"}"#,
        )
        .unwrap();
        let err = Request::from_json(&j).unwrap_err();
        assert!(err.contains("dir_mshrs"), "{err}");
    }

    #[test]
    fn responses_round_trip() {
        for r in [
            Response::Submitted {
                campaign: "c0001".into(),
                cells: 12,
                resumed: 3,
            },
            Response::Attached {
                campaign: "c0001".into(),
                cells: 12,
                done: 7,
            },
            Response::Rejected(RejectReason::Overloaded {
                queued: 90,
                bound: 100,
                requested: 24,
            }),
            Response::Rejected(RejectReason::Draining),
            Response::Rejected(RejectReason::UnknownApp("NotAnApp".into())),
            Response::Rejected(RejectReason::UnknownCampaign("c9999".into())),
            Response::Rejected(RejectReason::Malformed("no type field".into())),
            Response::StatusReport {
                queued: 5,
                draining: false,
                campaigns: vec![CampaignStatus {
                    id: "c0001".into(),
                    cells: 12,
                    done: 7,
                    failed: 1,
                    finished: false,
                }],
                cache: CacheCounts {
                    stores: 2,
                    hits: 9,
                    misses: 2,
                    quarantined: 1,
                    disk_stores: 4,
                    disk_hits: 3,
                    disk_quarantined: 1,
                    disk_evicted: 2,
                    disk_resident_bytes: 1 << 20,
                },
            },
        ] {
            let line = r.to_json().render();
            let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    /// A status report from a daemon predating the disk tier has no
    /// `disk_*` fields; a newer client reads them as zero instead of
    /// refusing the report.
    #[test]
    fn status_without_disk_fields_decodes_with_zeros() {
        let j = Json::parse(
            r#"{"type":"status","queued":0,"draining":false,"campaigns":[],
                "cache":{"stores":3,"hits":1,"misses":2,"quarantined":0}}"#,
        )
        .unwrap();
        match Response::from_json(&j).unwrap() {
            Response::StatusReport { cache, .. } => {
                assert_eq!((cache.stores, cache.hits), (3, 1));
                assert_eq!(cache.disk_stores, 0);
                assert_eq!(cache.disk_hits, 0);
                assert_eq!(cache.disk_resident_bytes, 0);
            }
            other => panic!("expected StatusReport, got {other:?}"),
        }
        // Absent reads as zero; present and mistyped is refused, not
        // read as zero.
        let j = Json::parse(
            r#"{"type":"status","queued":0,"draining":false,"campaigns":[],
                "cache":{"stores":3,"hits":1,"misses":2,"quarantined":0,"disk_stores":"x"}}"#,
        )
        .unwrap();
        let err = Response::from_json(&j).unwrap_err();
        assert!(err.contains("disk_stores"), "{err}");
    }

    #[test]
    fn events_round_trip() {
        for e in [
            Event::CellStart {
                campaign: "c0001".into(),
                index: 0,
                cell: "FFT|baseline".into(),
            },
            Event::CellFinish {
                campaign: "c0001".into(),
                index: 3,
                cell: "FFT|stride-2B".into(),
                cycles: 123_456,
                warm: "warmed".into(),
            },
            Event::CellFail {
                campaign: "c0001".into(),
                index: 4,
                cell: "MP3D|baseline".into(),
                attempts: 3,
                error: "watchdog: no forward progress".into(),
            },
            Event::CampaignDone {
                campaign: "c0001".into(),
                completed: 11,
                failed: 1,
            },
        ] {
            let line = e.to_json().render();
            let back = Event::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, e);
        }
    }

    /// Every wire line and `campaign.json`, byte for byte as the build
    /// before the field tables wrote them, and back.
    #[test]
    fn wire_bytes_are_pinned() {
        fn pinned<T: JsonCodec + PartialEq + std::fmt::Debug>(value: T, line: &str) {
            assert_eq!(value.to_json().render(), line);
            assert_eq!(T::from_json(&Json::parse(line).unwrap()), Ok(value));
        }
        let request = || CampaignRequest {
            figure: Figure::Fig7,
            apps: vec!["FFT".into(), "MP3D".into()],
            seed: (1 << 53) + 1,
            scale: 0.015,
            perfect: true,
            retries: 2,
            deadline_s: None,
            directory: DirectoryConfig::Sparse { dir_mshrs: 32 },
        };
        pinned(
            request(),
            r#"{"figure":"fig7","apps":["FFT","MP3D"],"seed":9007199254740993,"scale":0.015,"perfect":true,"retries":2,"deadline_s":null,"directory":"sparse:32"}"#,
        );
        pinned(
            Request::Submit(request()),
            r#"{"type":"submit","figure":"fig7","apps":["FFT","MP3D"],"seed":9007199254740993,"scale":0.015,"perfect":true,"retries":2,"deadline_s":null,"directory":"sparse:32"}"#,
        );
        let sides = Sides::of(&[32, 16]).unwrap();
        for (figure, line) in [
            (
                Figure::Fig2,
                r#"{"figure":"fig2","apps":["FFT","MP3D"],"seed":9007199254740993,"scale":0.015,"perfect":true,"retries":2,"deadline_s":null,"directory":"sparse:32"}"#,
            ),
            (
                Figure::Fig5,
                r#"{"figure":"fig5","apps":["FFT","MP3D"],"seed":9007199254740993,"scale":0.015,"perfect":true,"retries":2,"deadline_s":null,"directory":"sparse:32"}"#,
            ),
            (
                Figure::Ablation,
                r#"{"figure":"ablation","apps":["FFT","MP3D"],"seed":9007199254740993,"scale":0.015,"perfect":true,"retries":2,"deadline_s":null,"directory":"sparse:32"}"#,
            ),
            (
                Figure::Sensitivity {
                    sides: Sides::EMPTY,
                },
                r#"{"figure":"sensitivity","apps":["FFT","MP3D"],"seed":9007199254740993,"scale":0.015,"perfect":true,"retries":2,"deadline_s":null,"directory":"sparse:32"}"#,
            ),
            (
                Figure::Sensitivity { sides },
                r#"{"figure":"sensitivity:16,32","apps":["FFT","MP3D"],"seed":9007199254740993,"scale":0.015,"perfect":true,"retries":2,"deadline_s":null,"directory":"sparse:32"}"#,
            ),
        ] {
            pinned(
                CampaignRequest {
                    figure,
                    ..request()
                },
                line,
            );
        }
        pinned(
            Request::Attach {
                campaign: "c0003".into(),
            },
            r#"{"type":"attach","campaign":"c0003"}"#,
        );
        pinned(Request::Status, r#"{"type":"status"}"#);
        pinned(
            Response::Submitted {
                campaign: "c0001".into(),
                cells: 12,
                resumed: 3,
            },
            r#"{"type":"submitted","campaign":"c0001","cells":12,"resumed":3}"#,
        );
        pinned(
            Response::Attached {
                campaign: "c0001".into(),
                cells: 12,
                done: 7,
            },
            r#"{"type":"attached","campaign":"c0001","cells":12,"done":7}"#,
        );
        for (reason, line) in [
            (
                RejectReason::Overloaded {
                    queued: 90,
                    bound: 100,
                    requested: 24,
                },
                r#"{"type":"rejected","reason":"overloaded","queued":90,"bound":100,"requested":24}"#,
            ),
            (
                RejectReason::Draining,
                r#"{"type":"rejected","reason":"draining"}"#,
            ),
            (
                RejectReason::UnknownApp("NotAnApp".into()),
                r#"{"type":"rejected","reason":"unknown_app","app":"NotAnApp"}"#,
            ),
            (
                RejectReason::UnknownCampaign("c9999".into()),
                r#"{"type":"rejected","reason":"unknown_campaign","campaign":"c9999"}"#,
            ),
            (
                RejectReason::Malformed("no \"type\" field".into()),
                r#"{"type":"rejected","reason":"malformed","detail":"no \"type\" field"}"#,
            ),
            (
                RejectReason::Internal("disk full".into()),
                r#"{"type":"rejected","reason":"internal","detail":"disk full"}"#,
            ),
        ] {
            pinned(Response::Rejected(reason), line);
        }
        pinned(
            Response::StatusReport {
                queued: 5,
                draining: true,
                campaigns: vec![
                    CampaignStatus {
                        id: "c0001".into(),
                        cells: 12,
                        done: 7,
                        failed: 1,
                        finished: false,
                    },
                    CampaignStatus {
                        id: "c0002".into(),
                        cells: 6,
                        done: 6,
                        failed: 0,
                        finished: true,
                    },
                ],
                cache: CacheCounts {
                    stores: 2,
                    hits: 9,
                    misses: 2,
                    quarantined: 1,
                    disk_stores: 4,
                    disk_hits: 3,
                    disk_quarantined: 1,
                    disk_evicted: 2,
                    disk_resident_bytes: 1 << 20,
                },
            },
            r#"{"type":"status","queued":5,"draining":true,"campaigns":[{"id":"c0001","cells":12,"done":7,"failed":1,"finished":false},{"id":"c0002","cells":6,"done":6,"failed":0,"finished":true}],"cache":{"stores":2,"hits":9,"misses":2,"quarantined":1,"disk_stores":4,"disk_hits":3,"disk_quarantined":1,"disk_evicted":2,"disk_resident_bytes":1048576}}"#,
        );
        pinned(
            Event::CellStart {
                campaign: "c0001".into(),
                index: 0,
                cell: "FFT|baseline".into(),
            },
            r#"{"type":"cell_start","campaign":"c0001","index":0,"cell":"FFT|baseline"}"#,
        );
        pinned(
            Event::CellFinish {
                campaign: "c0001".into(),
                index: 3,
                cell: "FFT|stride-2B".into(),
                cycles: 123_456,
                warm: "warmed".into(),
            },
            r#"{"type":"cell_finish","campaign":"c0001","index":3,"cell":"FFT|stride-2B","cycles":123456,"warm":"warmed"}"#,
        );
        pinned(
            Event::CellFail {
                campaign: "c0001".into(),
                index: 4,
                cell: "MP3D|baseline".into(),
                attempts: 3,
                error: "watchdog: no forward progress".into(),
            },
            r#"{"type":"cell_fail","campaign":"c0001","index":4,"cell":"MP3D|baseline","attempts":3,"error":"watchdog: no forward progress"}"#,
        );
        pinned(
            Event::CampaignDone {
                campaign: "c0001".into(),
                completed: 11,
                failed: 1,
            },
            r#"{"type":"campaign_done","campaign":"c0001","completed":11,"failed":1}"#,
        );
    }

    #[test]
    fn malformed_inputs_are_structured_errors() {
        let j = Json::parse(r#"{"type":"submit","figure":"fig9"}"#).unwrap();
        let err = Request::from_json(&j).unwrap_err();
        assert!(err.contains("fig9"), "{err}");
        assert!(
            err.contains("fig2|fig5|fig6|fig7|ablation|sensitivity"),
            "{err}"
        );
        for forged in [
            "fig6:16",
            "sensitivity:",
            "sensitivity:0",
            "sensitivity:x,16",
        ] {
            assert!(Figure::from_label(forged).is_err(), "{forged}");
        }
        let j = Json::parse(r#"{"hello":1}"#).unwrap();
        assert!(Request::from_json(&j).is_err());
        // Out-of-range and mistyped numbers are refused naming the field.
        let good = r#"{"type":"submit","figure":"fig6","apps":[],"seed":1,"scale":0.01,"perfect":false,"retries":0,"deadline_s":null}"#;
        assert!(Request::from_json(&Json::parse(good).unwrap()).is_ok());
        for (field, was, forged) in [
            ("retries", r#""retries":0"#, r#""retries":4294967296"#),
            ("seed", r#""seed":1"#, r#""seed":-1"#),
            (
                "deadline_s",
                r#""deadline_s":null"#,
                r#""deadline_s":"soon""#,
            ),
        ] {
            let line = good.replace(was, forged);
            let err = Request::from_json(&Json::parse(&line).unwrap()).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        let j = Json::parse(
            r#"{"type":"cell_fail","campaign":"c1","index":0,"cell":"x","attempts":4294967296,"error":""}"#,
        )
        .unwrap();
        let err = Event::from_json(&j).unwrap_err();
        assert!(err.contains("attempts"), "{err}");
    }
}
