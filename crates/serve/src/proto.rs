//! The wire protocol of the campaign service: line-delimited JSON over
//! a local Unix socket, encoded with the journal's lossless [`Json`]
//! codec (the same one that makes campaign journals round-trip
//! bit-identically).
//!
//! A connection carries exactly one [`Request`] line from the client,
//! one [`Response`] line back, and — for `submit`/`attach` — a stream
//! of [`Event`] lines until the campaign finishes or the client goes
//! away. Every message is one self-describing JSON object with a
//! `"type"` tag; unknown or malformed input yields a structured
//! [`RejectReason::Malformed`] rather than a dropped connection, so a
//! confused client always learns *why*.

use cmp_common::config::DirectoryConfig;
use cmp_common::journal::Json;

/// Which figure's CSV set a campaign renders when it completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Figure 6: normalised execution time + link ED²P.
    Fig6,
    /// Figure 7: normalised full-CMP ED²P.
    Fig7,
}

impl Figure {
    /// Stable wire/directory label.
    pub fn label(self) -> &'static str {
        match self {
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
        }
    }

    /// Parse a wire/directory label.
    pub fn from_label(s: &str) -> Option<Figure> {
        match s {
            "fig6" => Some(Figure::Fig6),
            "fig7" => Some(Figure::Fig7),
            _ => None,
        }
    }
}

/// A campaign submission: the same knobs the figure binaries expose as
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

impl CampaignRequest {
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("figure", Json::str(self.figure.label())),
            ("apps", Json::Arr(self.apps.iter().map(Json::str).collect())),
            ("seed", Json::u64(self.seed)),
            ("scale", Json::f64(self.scale)),
            ("perfect", Json::Bool(self.perfect)),
            ("retries", Json::u64(u64::from(self.retries))),
            ("deadline_s", self.deadline_s.map_or(Json::Null, Json::u64)),
            ("directory", Json::str(self.directory.flag_label())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<CampaignRequest, String> {
        let figure = need_str(j, "figure")?;
        let figure = Figure::from_label(figure)
            .ok_or_else(|| format!("unknown figure {figure:?} (want fig6|fig7)"))?;
        let apps = j
            .get("apps")
            .and_then(Json::as_arr)
            .ok_or("missing apps array")?
            .iter()
            .map(|a| {
                a.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string app name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignRequest {
            figure,
            apps,
            seed: need_u64(j, "seed")?,
            scale: j
                .get("scale")
                .and_then(Json::as_f64)
                .ok_or("missing scale")?,
            perfect: need_bool(j, "perfect")?,
            retries: u32::try_from(need_u64(j, "retries")?)
                .map_err(|_| "retries out of range".to_string())?,
            deadline_s: match j.get("deadline_s") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("deadline_s must be a u64")?),
            },
            // Absent/null in campaign.json files persisted before the
            // directory became a campaign knob: those ran full-map.
            directory: match j.get("directory") {
                None | Some(Json::Null) => DirectoryConfig::FullMap,
                Some(v) => {
                    DirectoryConfig::parse_flag(v.as_str().ok_or("directory must be a string")?)?
                }
            },
        })
    }
}

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

impl Request {
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit(req) => {
                let mut o = vec![("type".to_string(), Json::str("submit"))];
                if let Json::Obj(fields) = req.to_json() {
                    o.extend(fields);
                }
                Json::Obj(o)
            }
            Request::Attach { campaign } => obj(vec![
                ("type", Json::str("attach")),
                ("campaign", Json::str(campaign)),
            ]),
            Request::Status => obj(vec![("type", Json::str("status"))]),
        }
    }

    pub fn from_json(j: &Json) -> Result<Request, String> {
        match need_str(j, "type")? {
            "submit" => Ok(Request::Submit(CampaignRequest::from_json(j)?)),
            "attach" => Ok(Request::Attach {
                campaign: need_str(j, "campaign")?.to_string(),
            }),
            "status" => Ok(Request::Status),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

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

impl RejectReason {
    fn to_json(&self) -> Json {
        match self {
            RejectReason::Overloaded {
                queued,
                bound,
                requested,
            } => obj(vec![
                ("reason", Json::str("overloaded")),
                ("queued", Json::u64(*queued as u64)),
                ("bound", Json::u64(*bound as u64)),
                ("requested", Json::u64(*requested as u64)),
            ]),
            RejectReason::Draining => obj(vec![("reason", Json::str("draining"))]),
            RejectReason::UnknownApp(app) => obj(vec![
                ("reason", Json::str("unknown_app")),
                ("app", Json::str(app)),
            ]),
            RejectReason::UnknownCampaign(id) => obj(vec![
                ("reason", Json::str("unknown_campaign")),
                ("campaign", Json::str(id)),
            ]),
            RejectReason::Malformed(detail) => obj(vec![
                ("reason", Json::str("malformed")),
                ("detail", Json::str(detail)),
            ]),
            RejectReason::Internal(detail) => obj(vec![
                ("reason", Json::str("internal")),
                ("detail", Json::str(detail)),
            ]),
        }
    }

    fn from_json(j: &Json) -> Result<RejectReason, String> {
        match need_str(j, "reason")? {
            "overloaded" => Ok(RejectReason::Overloaded {
                queued: need_u64(j, "queued")? as usize,
                bound: need_u64(j, "bound")? as usize,
                requested: need_u64(j, "requested")? as usize,
            }),
            "draining" => Ok(RejectReason::Draining),
            "unknown_app" => Ok(RejectReason::UnknownApp(need_str(j, "app")?.to_string())),
            "unknown_campaign" => Ok(RejectReason::UnknownCampaign(
                need_str(j, "campaign")?.to_string(),
            )),
            "malformed" => Ok(RejectReason::Malformed(need_str(j, "detail")?.to_string())),
            "internal" => Ok(RejectReason::Internal(need_str(j, "detail")?.to_string())),
            other => Err(format!("unknown reject reason {other:?}")),
        }
    }
}

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

/// Checkpoint-cache counters in a status report. The first four are
/// the merged warm-start view (memory + disk); the `disk_*` fields
/// break out the durable tier and stay zero on a memory-only daemon.
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
        queued: usize,
        draining: bool,
        campaigns: Vec<CampaignStatus>,
        cache: CacheCounts,
    },
}

impl Response {
    pub fn to_json(&self) -> Json {
        match self {
            Response::Submitted {
                campaign,
                cells,
                resumed,
            } => obj(vec![
                ("type", Json::str("submitted")),
                ("campaign", Json::str(campaign)),
                ("cells", Json::u64(*cells as u64)),
                ("resumed", Json::u64(*resumed as u64)),
            ]),
            Response::Attached {
                campaign,
                cells,
                done,
            } => obj(vec![
                ("type", Json::str("attached")),
                ("campaign", Json::str(campaign)),
                ("cells", Json::u64(*cells as u64)),
                ("done", Json::u64(*done as u64)),
            ]),
            Response::Rejected(reason) => {
                let mut o = vec![("type".to_string(), Json::str("rejected"))];
                if let Json::Obj(fields) = reason.to_json() {
                    o.extend(fields);
                }
                Json::Obj(o)
            }
            Response::StatusReport {
                queued,
                draining,
                campaigns,
                cache,
            } => obj(vec![
                ("type", Json::str("status")),
                ("queued", Json::u64(*queued as u64)),
                ("draining", Json::Bool(*draining)),
                (
                    "campaigns",
                    Json::Arr(
                        campaigns
                            .iter()
                            .map(|c| {
                                obj(vec![
                                    ("id", Json::str(&c.id)),
                                    ("cells", Json::u64(c.cells as u64)),
                                    ("done", Json::u64(c.done as u64)),
                                    ("failed", Json::u64(c.failed as u64)),
                                    ("finished", Json::Bool(c.finished)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "cache",
                    obj(vec![
                        ("stores", Json::u64(cache.stores)),
                        ("hits", Json::u64(cache.hits)),
                        ("misses", Json::u64(cache.misses)),
                        ("quarantined", Json::u64(cache.quarantined)),
                        ("disk_stores", Json::u64(cache.disk_stores)),
                        ("disk_hits", Json::u64(cache.disk_hits)),
                        ("disk_quarantined", Json::u64(cache.disk_quarantined)),
                        ("disk_evicted", Json::u64(cache.disk_evicted)),
                        ("disk_resident_bytes", Json::u64(cache.disk_resident_bytes)),
                    ]),
                ),
            ]),
        }
    }

    pub fn from_json(j: &Json) -> Result<Response, String> {
        match need_str(j, "type")? {
            "submitted" => Ok(Response::Submitted {
                campaign: need_str(j, "campaign")?.to_string(),
                cells: need_u64(j, "cells")? as usize,
                resumed: need_u64(j, "resumed")? as usize,
            }),
            "attached" => Ok(Response::Attached {
                campaign: need_str(j, "campaign")?.to_string(),
                cells: need_u64(j, "cells")? as usize,
                done: need_u64(j, "done")? as usize,
            }),
            "rejected" => Ok(Response::Rejected(RejectReason::from_json(j)?)),
            "status" => {
                let campaigns = j
                    .get("campaigns")
                    .and_then(Json::as_arr)
                    .ok_or("missing campaigns")?
                    .iter()
                    .map(|c| {
                        Ok(CampaignStatus {
                            id: need_str(c, "id")?.to_string(),
                            cells: need_u64(c, "cells")? as usize,
                            done: need_u64(c, "done")? as usize,
                            failed: need_u64(c, "failed")? as usize,
                            finished: need_bool(c, "finished")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let cache = j.get("cache").ok_or("missing cache")?;
                Ok(Response::StatusReport {
                    queued: need_u64(j, "queued")? as usize,
                    draining: need_bool(j, "draining")?,
                    campaigns,
                    cache: CacheCounts {
                        stores: need_u64(cache, "stores")?,
                        hits: need_u64(cache, "hits")?,
                        misses: need_u64(cache, "misses")?,
                        quarantined: need_u64(cache, "quarantined")?,
                        // Absent on reports from pre-disk-tier daemons:
                        // a newer client reads them as zero rather than
                        // refusing the whole report.
                        disk_stores: opt_u64(cache, "disk_stores"),
                        disk_hits: opt_u64(cache, "disk_hits"),
                        disk_quarantined: opt_u64(cache, "disk_quarantined"),
                        disk_evicted: opt_u64(cache, "disk_evicted"),
                        disk_resident_bytes: opt_u64(cache, "disk_resident_bytes"),
                    },
                })
            }
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

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
        /// crossed the warm point (`"journal"` for rows replayed from
        /// a resumed journal's catch-up stream).
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

    pub fn to_json(&self) -> Json {
        match self {
            Event::CellStart {
                campaign,
                index,
                cell,
            } => obj(vec![
                ("type", Json::str("cell_start")),
                ("campaign", Json::str(campaign)),
                ("index", Json::u64(*index as u64)),
                ("cell", Json::str(cell)),
            ]),
            Event::CellFinish {
                campaign,
                index,
                cell,
                cycles,
                warm,
            } => obj(vec![
                ("type", Json::str("cell_finish")),
                ("campaign", Json::str(campaign)),
                ("index", Json::u64(*index as u64)),
                ("cell", Json::str(cell)),
                ("cycles", Json::u64(*cycles)),
                ("warm", Json::str(warm)),
            ]),
            Event::CellFail {
                campaign,
                index,
                cell,
                attempts,
                error,
            } => obj(vec![
                ("type", Json::str("cell_fail")),
                ("campaign", Json::str(campaign)),
                ("index", Json::u64(*index as u64)),
                ("cell", Json::str(cell)),
                ("attempts", Json::u64(u64::from(*attempts))),
                ("error", Json::str(error)),
            ]),
            Event::CampaignDone {
                campaign,
                completed,
                failed,
            } => obj(vec![
                ("type", Json::str("campaign_done")),
                ("campaign", Json::str(campaign)),
                ("completed", Json::u64(*completed as u64)),
                ("failed", Json::u64(*failed as u64)),
            ]),
        }
    }

    pub fn from_json(j: &Json) -> Result<Event, String> {
        let campaign = need_str(j, "campaign")?.to_string();
        match need_str(j, "type")? {
            "cell_start" => Ok(Event::CellStart {
                campaign,
                index: need_u64(j, "index")? as usize,
                cell: need_str(j, "cell")?.to_string(),
            }),
            "cell_finish" => Ok(Event::CellFinish {
                campaign,
                index: need_u64(j, "index")? as usize,
                cell: need_str(j, "cell")?.to_string(),
                cycles: need_u64(j, "cycles")?,
                warm: need_str(j, "warm")?.to_string(),
            }),
            "cell_fail" => Ok(Event::CellFail {
                campaign,
                index: need_u64(j, "index")? as usize,
                cell: need_str(j, "cell")?.to_string(),
                attempts: u32::try_from(need_u64(j, "attempts")?)
                    .map_err(|_| "attempts out of range".to_string())?,
                error: need_str(j, "error")?.to_string(),
            }),
            "campaign_done" => Ok(Event::CampaignDone {
                campaign,
                completed: need_u64(j, "completed")? as usize,
                failed: need_u64(j, "failed")? as usize,
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn need_str<'j>(j: &'j Json, key: &str) -> Result<&'j str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn need_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

/// Lenient u64 read for fields added after the wire format shipped:
/// absent (old peer) decodes as zero.
fn opt_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn need_bool(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool field {key:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn malformed_inputs_are_structured_errors() {
        let j = Json::parse(r#"{"type":"submit","figure":"fig9"}"#).unwrap();
        let err = Request::from_json(&j).unwrap_err();
        assert!(err.contains("fig9"), "{err}");
        let j = Json::parse(r#"{"hello":1}"#).unwrap();
        assert!(Request::from_json(&j).is_err());
    }
}
