//! The per-layer ledger: replay microbenchmarks that drive each
//! crate's public functions from outside, on the address stream of the
//! workload's own generated traces, plus the per-cell overhead ratios
//! and state-capture costs of `tcmp-core`.
//!
//! Every replay number is the median over [`BATCHES`] timed batches
//! (after one untimed warm-up batch); batches are sized to run for a
//! millisecond or more so the clock's granularity is noise.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use addr_compression::{CompressionEngine, CompressionScheme};
use cmp_common::addrmap::AddrMap;
use cmp_common::fsx::Fs;
use cmp_common::geometry::MeshShape;
use cmp_common::journal::{Journal, Json};
use cmp_common::types::{Addr, CompressionStream, MessageClass, TileId};
use coherence::cache::VictimSlot;
use coherence::l1::home_of;
use coherence::{CacheArray, CoreAccess, L1Cache, L1Result, PKind, ProtocolMsg};
use cpu_model::trace::OpSource;
use mesh_noc::{ChannelKind, Message, Noc, NocConfig};
use tcmp_core::checkpoint::{CacheLoad, CheckpointCache, DiskConfig, DiskLoad, DiskStore};
use tcmp_core::experiment::run_matrix_jobs;
use tcmp_core::supervisor::{
    campaign_meta, cell_key, result_from_json, result_to_json, run_matrix_supervised,
    run_supervised, RunPolicy,
};
use tcmp_core::{CmpSimulator, RunSpec, SimResult};
use tcmp_serve::proto::{Event, Request, Response};
use wire_model::wires::VlWidth;
use workloads::generator::TraceGen;

use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{run_cell, sim_config, Workload};

/// Timed batches per replay metric.
const BATCHES: usize = 5;
/// Alternating pairs behind each overhead ratio.
const RATIO_PAIRS: usize = 2;
/// Alternating pairs behind `core.epoch_t2_ratio`.
const EPOCH_PAIRS: usize = 3;
/// Repetitions of each state-capture operation.
const CAPTURE_REPS: usize = 5;
/// Lines resident for the `AddrMap` sparse-directory pattern.
const RESIDENT_LINES: u64 = 64 * 1024;

pub type Named = Vec<(&'static str, f64)>;

/// Median cost per operation of `batch`, which runs on state that
/// `fresh` builds outside the timing before every batch, and returns
/// how many operations it performed. One warm-up batch is discarded.
fn ns_per_op_fresh<S>(mut fresh: impl FnMut() -> S, mut batch: impl FnMut(&mut S) -> u64) -> f64 {
    let samples: Vec<f64> = (0..=BATCHES)
        .map(|_| {
            let mut state = fresh();
            let t0 = Instant::now();
            let ops = batch(&mut state);
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples[1..])
}

/// [`ns_per_op_fresh`] for a batch that carries its state across calls.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    ns_per_op_fresh(|| (), |()| batch())
}

/// Median wall time of `f` in nanoseconds over `reps` calls.
fn median_ns<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            black_box(f(i));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The memory references the workload's first cell generates: per
/// core, and interleaved round-robin as `(core, line)` the way the
/// machine sees them.
pub struct Streams {
    pub tiles: usize,
    pub interleaved: Vec<(u16, Addr)>,
    /// `TraceGen::new` + drain of every core of the cell, per trace op.
    pub tracegen_ns_per_op: f64,
}

/// Most references kept for the replays (a bound on memory, not on
/// what is generated and timed).
const STREAM_CAP: usize = 200_000;

impl Streams {
    pub fn generate(w: &Workload, tr: &mut Tracer) -> Streams {
        let spec = &w.specs[0];
        let tiles = w.cmp.tiles();
        let span = tr.begin("TraceGen");
        let mut per_core: Vec<Vec<Addr>> = Vec::new();
        let tracegen_ns_per_op = median(
            &(0..3)
                .map(|_| {
                    per_core.clear();
                    let t0 = Instant::now();
                    let mut ops = 0u64;
                    for core in 0..tiles {
                        let mut gen = TraceGen::new(&spec.app, core, tiles, spec.seed, spec.scale);
                        let mut lines = Vec::new();
                        while let Some(op) = gen.next_op() {
                            ops += 1;
                            if let Some(line) = op.line() {
                                lines.push(line);
                            }
                        }
                        per_core.push(lines);
                    }
                    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
                })
                .collect::<Vec<_>>(),
        );
        tr.end(span);
        let longest = per_core.iter().map(Vec::len).max().unwrap_or(0);
        let mut interleaved = Vec::new();
        'fill: for i in 0..longest {
            for (core, lines) in per_core.iter().enumerate() {
                if let Some(&line) = lines.get(i) {
                    interleaved.push((core as u16, line));
                    if interleaved.len() >= STREAM_CAP {
                        break 'fill;
                    }
                }
            }
        }
        assert!(!interleaved.is_empty(), "the workload generates references");
        Streams {
            tiles,
            interleaved,
            tracegen_ns_per_op,
        }
    }

    fn home(&self, line: Addr) -> usize {
        home_of(line, self.tiles).index()
    }

    /// The interleaved stream without its core labels.
    fn lines(&self) -> Vec<Addr> {
        self.interleaved.iter().map(|&(_, line)| line).collect()
    }
}

// ---------------------------------------------------------------------------
// compression
// ---------------------------------------------------------------------------

/// One sender-side codec per (core, home) pair, fresh per batch so
/// every batch pays the same cold misses; only encode/decode is timed.
fn codec_ns(
    scheme: CompressionScheme,
    stream: CompressionStream,
    s: &Streams,
    decode: bool,
) -> f64 {
    let lanes = if scheme.shared_across_destinations(stream) {
        1
    } else {
        s.tiles
    };
    ns_per_op_fresh(
        || {
            (0..s.tiles * lanes)
                .map(|_| scheme.build_codec(stream))
                .collect::<Vec<_>>()
        },
        |codecs| {
            let mut hits = 0u64;
            for &(core, line) in &s.interleaved {
                let lane = if lanes == 1 { 0 } else { s.home(line) };
                let codec = &mut codecs[core as usize * lanes + lane];
                hits += u64::from(if decode {
                    codec.decode(line)
                } else {
                    codec.encode(line)
                });
            }
            black_box(hits);
            s.interleaved.len() as u64
        },
    )
}

fn compression(s: &Streams) -> Named {
    let dbrc = |entries| CompressionScheme::Dbrc {
        entries,
        low_bytes: 2,
    };
    let requests = CompressionStream::Requests;
    let engine_ns = ns_per_op_fresh(
        || {
            (0..s.tiles)
                .map(|_| CompressionEngine::new(dbrc(4), s.tiles))
                .collect::<Vec<_>>()
        },
        |engines| {
            let mut bytes = 0usize;
            for &(core, line) in &s.interleaved {
                let dest = TileId::from(s.home(line));
                bytes += engines[core as usize]
                    .process(dest, MessageClass::Request, line)
                    .wire_bytes;
            }
            black_box(bytes);
            s.interleaved.len() as u64
        },
    );
    vec![
        (
            "compression.dbrc4_encode_ns",
            codec_ns(dbrc(4), requests, s, false),
        ),
        (
            "compression.dbrc64_encode_ns",
            codec_ns(dbrc(64), requests, s, false),
        ),
        (
            "compression.stride_encode_ns",
            codec_ns(
                CompressionScheme::Stride { low_bytes: 2 },
                requests,
                s,
                false,
            ),
        ),
        (
            "compression.multicast_encode_ns",
            codec_ns(
                CompressionScheme::Multicast {
                    entries: 4,
                    low_bytes: 2,
                },
                CompressionStream::Commands,
                s,
                false,
            ),
        ),
        (
            "compression.dbrc4_decode_ns",
            codec_ns(dbrc(4), requests, s, true),
        ),
        ("compression.engine_process_ns", engine_ns),
    ]
}

// ---------------------------------------------------------------------------
// coherence
// ---------------------------------------------------------------------------

fn coherence(w: &Workload, s: &Streams) -> Named {
    let (sets, ways) = (w.cmp.l1.sets(), w.cmp.l1.ways);
    let lines = s.lines();

    // Hit stream: whatever of the stream fits an L1-shaped array.
    let mut array: CacheArray<u32> = CacheArray::new(sets, ways, 0);
    let mut resident = Vec::new();
    for &line in &lines {
        if array.peek(line).is_none() && array.insert(line, 0).is_ok() {
            resident.push(line);
        }
    }
    let rounds = (100_000 / resident.len()).max(1);
    let probe = ns_per_op(|| {
        let mut found = 0u64;
        for _ in 0..rounds {
            for &line in &resident {
                found += u64::from(array.peek(line).is_some());
                array.touch(line);
            }
        }
        black_box(found);
        (rounds * resident.len()) as u64
    });

    // Miss stream: consecutive lines from the stream's first address,
    // each new to the array, so every access evicts and fills.
    let mut array: CacheArray<u32> = CacheArray::new(sets, ways, 0);
    let mut next = lines[0];
    let fill = ns_per_op(|| {
        for _ in 0..100_000 {
            next += 1;
            if let VictimSlot::Evict(victim) = array.victim_for(next, |_, _| true) {
                black_box(array.remove(victim));
            }
            array.insert(next, 0).expect("a way was just freed");
        }
        100_000
    });

    // L1 hits: lines installed through the protocol (miss, then fill).
    let mut l1 = L1Cache::new(TileId(0), sets, ways, w.cmp.l1_mshrs, s.tiles);
    for &line in lines.iter().take(4 * sets * ways) {
        if l1.state_of(line).is_none() && !l1.mshr_pending(line) {
            if let L1Result::Miss { .. } = l1.core_access(line, CoreAccess::Read) {
                l1.handle(ProtocolMsg::new(PKind::DataE, line))
                    .expect("fill answers the miss just issued");
            }
        }
    }
    let resident: Vec<Addr> = l1.resident_lines().map(|(line, _)| line).collect();
    let rounds = (100_000 / resident.len()).max(1);
    let l1_hit = ns_per_op(|| {
        for _ in 0..rounds {
            for &line in &resident {
                black_box(l1.core_access(line, CoreAccess::Read));
            }
        }
        (rounds * resident.len()) as u64
    });

    vec![
        ("coherence.cache_probe_ns", probe),
        ("coherence.cache_fill_ns", fill),
        ("coherence.l1_hit_ns", l1_hit),
    ]
}

// ---------------------------------------------------------------------------
// common
// ---------------------------------------------------------------------------

fn journal_lines(results: &[SimResult], specs: &[RunSpec]) -> Vec<Json> {
    results
        .iter()
        .zip(specs)
        .map(|(r, spec)| {
            Json::Obj(vec![
                ("event".into(), Json::str("finish")),
                ("cell".into(), Json::str(cell_key(spec))),
                ("row".into(), result_to_json(r)),
            ])
        })
        .collect()
}

fn common(
    w: &Workload,
    s: &Streams,
    results: &[SimResult],
    scratch: &Path,
) -> Result<Named, String> {
    let io = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let lines = s.lines();

    // MSHR pattern: at most 16 live keys.
    let mut map: AddrMap<u32> = AddrMap::new();
    let churn = ns_per_op(|| {
        let mut live = std::collections::VecDeque::with_capacity(17);
        let mut ops = 0u64;
        for &line in lines.iter().cycle().take(100_000) {
            if map.insert(line, 1).is_none() {
                live.push_back(line);
            }
            black_box(map.get(line));
            ops += 2;
            if live.len() > 16 {
                black_box(map.remove(live.pop_front().expect("non-empty")));
                ops += 1;
            }
        }
        for line in live {
            map.remove(line);
        }
        ops
    });

    // Sparse-directory pattern: 64 k resident lines.
    let base = lines[0];
    let fill = |map: &mut AddrMap<u32>| {
        for i in 0..RESIDENT_LINES {
            map.insert(base + i, i as u32);
        }
        RESIDENT_LINES
    };
    let grow = ns_per_op_fresh(AddrMap::new, fill);
    let mut map = AddrMap::new();
    fill(&mut map);
    let get = ns_per_op(|| {
        let mut sum = 0u64;
        let mut i = 0u64;
        for _ in 0..RESIDENT_LINES {
            // an odd stride visits every resident line once, out of order
            i = (i + 40_503) % RESIDENT_LINES;
            sum += u64::from(*map.get(base + i).expect("resident"));
        }
        black_box(sum);
        RESIDENT_LINES
    });

    // Journal append + fsync, and a 4 KB atomic write.
    let dir = scratch.join("journal");
    let _ = std::fs::remove_dir_all(&dir);
    let meta = campaign_meta(&w.cmp, &w.specs);
    let mut journal = Journal::create(&dir, &meta).map_err(|e| io("creating a journal", &e))?;
    let row = result_to_json(&results[0]);
    let key = cell_key(&w.specs[0]);
    let mut failed = None;
    let append = median_ns(16, |i| {
        let r = journal
            .record_start(&key, i as u32 + 1)
            .and_then(|()| journal.record_finish(&key, row.clone()));
        if let Err(e) = r {
            failed = Some(e);
        }
    });
    let block = vec![b'x'; 4096];
    let atomic = median_ns(16, |_| {
        if let Err(e) = cmp_common::journal::write_atomic(dir.join("block.bin"), &block) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(io("journal append / atomic write", &e));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // JSON render / parse over the workload's own journal lines.
    let docs = journal_lines(results, &w.specs);
    let texts: Vec<String> = docs.iter().map(Json::render).collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let rounds = (2_000_000 / bytes).max(1);
    let mb = (rounds * bytes) as f64 / 1e6;
    let render_s = ns_per_op(|| {
        for _ in 0..rounds {
            for d in &docs {
                black_box(d.render());
            }
        }
        1
    }) / 1e9;
    let parse_s = ns_per_op(|| {
        for _ in 0..rounds {
            for t in &texts {
                black_box(Json::parse(t).expect("rendered JSON parses"));
            }
        }
        1
    }) / 1e9;

    Ok(vec![
        ("common.addrmap_churn_ns", churn),
        ("common.addrmap_grow_ns", grow),
        ("common.addrmap_get_ns", get),
        ("common.journal_append_us", append / 1e3),
        ("common.write_atomic_us", atomic / 1e3),
        ("common.json_render_mb_per_s", mb / render_s),
        ("common.json_parse_mb_per_s", mb / parse_s),
    ])
}

// ---------------------------------------------------------------------------
// noc
// ---------------------------------------------------------------------------

/// How a replay offers messages to the network.
struct Traffic {
    mesh: u16,
    config: NocConfig,
    channel: ChannelKind,
    /// `(class, wire bytes)` alternated per message.
    sizes: [(MessageClass, usize); 2],
    /// All sources target tile 0 instead of the line's home.
    to_one_home: bool,
    /// Inject while fewer than this many messages are in flight…
    in_flight_cap: usize,
    /// …and at most one message every this many cycles (0 = as many
    /// as the cap allows, every cycle).
    every_cycles: u64,
    /// Jump the clock to the next event instead of ticking each cycle
    /// (what the engine does when the network is nearly idle), and
    /// report the cost per tick instead of per flit-hop.
    nearly_idle: bool,
}

/// Cost of `inject` + `tick_into` under `traffic` over 20 000 ticks of
/// a fresh network, sources and destinations taken from the stream:
/// nanoseconds per flit-hop, or per tick for a nearly idle network.
fn noc_replay(traffic: &Traffic, s: &Streams) -> f64 {
    let mesh = MeshShape::square(traffic.mesh);
    let tiles = mesh.tiles();
    ns_per_op_fresh(
        || Noc::<u32>::new(mesh, traffic.config.clone()),
        |noc| {
            let mut out = Vec::new();
            let mut next = s.interleaved.iter().cycle();
            let (mut now, mut ticks, mut sent) = (0u64, 0u64, 0u32);
            while ticks < 20_000 {
                let due = traffic.every_cycles == 0 || now % traffic.every_cycles == 0;
                while due && noc.live_messages() < traffic.in_flight_cap {
                    let &(core, line) = next.next().expect("a cycled stream never ends");
                    let src = core as usize % tiles;
                    let dst = if traffic.to_one_home {
                        0
                    } else {
                        home_of(line, tiles).index()
                    };
                    if src == dst {
                        continue;
                    }
                    let (class, wire_bytes) = traffic.sizes[sent as usize % 2];
                    noc.inject(
                        now,
                        Message {
                            src: TileId::from(src),
                            dst: TileId::from(dst),
                            class,
                            wire_bytes,
                            channel: traffic.channel,
                            payload: sent,
                        },
                    )
                    .expect("the replay's channel is configured");
                    sent += 1;
                    if traffic.every_cycles != 0 {
                        break;
                    }
                }
                noc.tick_into(now, &mut out);
                black_box(out.len());
                out.clear();
                ticks += 1;
                now = match noc.next_event_cycle(now) {
                    Some(at) if traffic.nearly_idle => at.max(now + 1),
                    _ => now + 1,
                };
            }
            if traffic.nearly_idle {
                ticks
            } else {
                noc.stats().flit_hops.iter().map(|c| c.get()).sum()
            }
        },
    )
}

fn noc(w: &Workload, s: &Streams) -> Named {
    let net = &w.cmp.network;
    let clock = w.cmp.clock_hz;
    let request = (MessageClass::Request, 11);
    // Low uniform load on the baseline network; each replay overrides
    // what makes it different.
    let uniform = |mesh: u16| Traffic {
        mesh,
        config: NocConfig::baseline(net, clock),
        channel: ChannelKind::B,
        sizes: [request, request],
        to_one_home: false,
        in_flight_cap: usize::MAX,
        every_cycles: 4,
        nearly_idle: false,
    };
    let hotspot = Traffic {
        sizes: [request, (MessageClass::ResponseData, 67)],
        to_one_home: true,
        in_flight_cap: 64,
        every_cycles: 0,
        ..uniform(4)
    };
    let vl = Traffic {
        config: NocConfig::heterogeneous(net, clock, VlWidth::FiveBytes),
        channel: ChannelKind::Vl,
        sizes: [
            (MessageClass::CoherenceReply, 3),
            (MessageClass::Request, 5),
        ],
        every_cycles: 2,
        ..uniform(4)
    };
    let sparse16 = Traffic {
        in_flight_cap: 4,
        every_cycles: 0,
        nearly_idle: true,
        ..uniform(16)
    };
    vec![
        (
            "noc.replay_hotspot_ns_per_flit_hop",
            noc_replay(&hotspot, s),
        ),
        (
            "noc.replay_uniform_ns_per_flit_hop",
            noc_replay(&uniform(4), s),
        ),
        ("noc.replay_vl_ns_per_flit_hop", noc_replay(&vl, s)),
        ("noc.replay_sparse16_ns_per_tick", noc_replay(&sparse16, s)),
    ]
}

// ---------------------------------------------------------------------------
// core: per-cell overheads and state capture
// ---------------------------------------------------------------------------

/// The leading cells of the workload worth about a second of host
/// time (at least one): what the overhead ratios are taken over.
fn leading_cells(w: &Workload, run_ns: &[u64]) -> Vec<RunSpec> {
    let mut total = 0u64;
    let mut n = 0;
    for &ns in run_ns {
        n += 1;
        total += ns;
        if total >= 1_000_000_000 {
            break;
        }
    }
    w.specs[..n.max(1)].to_vec()
}

/// Wall-time ratio `loaded ÷ plain` of two sides run back to back.
/// Which side goes first alternates with `pair`, so drift within a
/// pair cancels over the pairs.
fn paired_ratio(
    pair: usize,
    mut plain: impl FnMut() -> Result<(), String>,
    mut loaded: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let timed = |side: &mut dyn FnMut() -> Result<(), String>| {
        let t0 = Instant::now();
        side().map(|()| t0.elapsed().as_secs_f64())
    };
    if pair % 2 == 0 {
        let base = timed(&mut plain)?;
        Ok(timed(&mut loaded)? / base)
    } else {
        let top = timed(&mut loaded)?;
        Ok(top / timed(&mut plain)?)
    }
}

fn overhead_ratios(w: &Workload, run_ns: &[u64], scratch: &Path) -> Result<Named, String> {
    let cells = leading_cells(w, run_ns);
    let policy = RunPolicy::default();
    let bare = |spec: &RunSpec, sim_threads| {
        run_cell(&w.cmp, spec, &mut Tracer::new(false), false, sim_threads).map(drop)
    };

    let mut supervised = Vec::new();
    let mut journaled = Vec::new();
    for pair in 0..RATIO_PAIRS {
        supervised.push(paired_ratio(
            pair,
            || cells.iter().try_for_each(|spec| bare(spec, 1)),
            || {
                cells.iter().try_for_each(|spec| {
                    run_supervised(
                        sim_config(&w.cmp, spec, 1),
                        &spec.app,
                        spec.seed,
                        spec.scale,
                        &policy,
                    )
                    .map(drop)
                    .map_err(|e| format!("supervised cell: {e}"))
                })
            },
        )?);

        let dir = scratch.join(format!("journaled{pair}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, &campaign_meta(&w.cmp, &cells))
            .map_err(|e| format!("creating a journal: {e}"))?;
        journaled.push(paired_ratio(
            pair,
            || {
                run_matrix_jobs(&w.cmp, &cells, Some(1))
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
            || {
                run_matrix_supervised(&w.cmp, &cells, Some(1), &policy, Some(&mut journal))
                    .is_complete()
                    .then_some(())
                    .ok_or_else(|| "journaled matrix left cells unfinished".to_string())
            },
        )?);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let epoch = (0..EPOCH_PAIRS)
        .map(|pair| paired_ratio(pair, || bare(&w.specs[0], 1), || bare(&w.specs[0], 2)))
        .collect::<Result<Vec<f64>, String>>()?;

    Ok(vec![
        ("core.supervised_ratio", median(&supervised)),
        ("core.journaled_ratio", median(&journaled)),
        ("core.epoch_t2_ratio", median(&epoch)),
    ])
}

fn result_json_us(results: &[SimResult]) -> f64 {
    let rounds = (200 / results.len()).max(1);
    ns_per_op(|| {
        for _ in 0..rounds {
            for r in results {
                let text = result_to_json(r).render();
                let row = Json::parse(&text).expect("rendered row parses");
                black_box(result_from_json(&row).expect("row decodes"));
            }
        }
        (rounds * results.len()) as u64
    }) / 1e3
}

/// Snapshot, digest, bytes, disk store and memory cache, all on the
/// workload's first cell stopped half-way through its run.
fn state_capture(
    w: &Workload,
    reference: &SimResult,
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Named, String> {
    let spec = &w.specs[0];
    let mut sim = CmpSimulator::new(
        sim_config(&w.cmp, spec, 1),
        &spec.app,
        spec.seed,
        spec.scale,
    );
    while sim.cycle() < reference.cycles / 2 {
        if !sim.step().map_err(|e| e.brief())? {
            break;
        }
    }
    let span = tr.begin("state_capture");
    let (snap, _) = tr.time("snapshot", || sim.snapshot());
    let snapshot_ns = median_ns(CAPTURE_REPS, |_| sim.snapshot());
    let (bytes, _) = tr.time("save_bytes", || snap.save_bytes());
    let mb = bytes.len() as f64 / 1e6;
    let save_ns = median_ns(CAPTURE_REPS, |_| snap.save_bytes());
    let (_, _) = tr.time("digest", || snap.digest());
    let digest_ns = median_ns(CAPTURE_REPS, |_| snap.digest());
    let mut template = sim.snapshot();
    let mut bad = None;
    let load_ns = median_ns(CAPTURE_REPS, |_| {
        if let Err(e) = template.load_bytes(&bytes) {
            bad = Some(e.to_string());
        }
    });
    let restore_ns = median_ns(CAPTURE_REPS, |_| sim.restore(&snap));

    let dir = scratch.join("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(Fs::real(), &dir, DiskConfig::default())
        .map_err(|e| format!("opening a disk store: {e}"))?;
    // Distinct warm cycles make distinct keys: a repeated key would be
    // deduplicated instead of written.
    let key = |i: usize| ("benchmark".to_string(), i as u64);
    let disk = tr.begin("DiskStore");
    let store_ns = median_ns(CAPTURE_REPS, |i| store.store(&key(i), &snap));
    let disk_load_ns = median_ns(CAPTURE_REPS, |i| {
        if !matches!(store.load_into(&key(i), &mut template), DiskLoad::Hit) {
            bad = Some(format!("disk checkpoint {i} did not load back"));
        }
    });
    tr.end(disk);
    let _ = std::fs::remove_dir_all(&dir);

    let cache = CheckpointCache::new(8);
    cache.store(key(0), snap.clone());
    let hit_ns = median_ns(CAPTURE_REPS, |_| {
        if !matches!(cache.load(&key(0)), CacheLoad::Hit(_)) {
            bad = Some("memory checkpoint did not load back".to_string());
        }
    });
    tr.end(span);
    if let Some(e) = bad {
        return Err(format!("state capture: {e}"));
    }
    if template.digest() != snap.digest() {
        return Err("state capture: bytes round trip changed the digest".to_string());
    }
    Ok(vec![
        ("core.snapshot_ms", snapshot_ns / 1e6),
        ("core.restore_ms", restore_ns / 1e6),
        ("core.snapshot_kb", bytes.len() as f64 / 1e3),
        ("core.digest_mb_per_s", mb / (digest_ns / 1e9)),
        ("core.save_bytes_mb_per_s", mb / (save_ns / 1e9)),
        ("core.load_bytes_mb_per_s", mb / (load_ns / 1e9)),
        ("core.diskstore_store_ms", store_ns / 1e6),
        ("core.diskstore_load_ms", disk_load_ns / 1e6),
        ("core.ckpt_mem_hit_us", hit_ns / 1e3),
    ])
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// `to_json` → render → parse → `from_json` of one message of each
/// wire type, per message.
pub fn proto_roundtrip_us(seed: u64) -> f64 {
    let event = Event::CellFinish {
        campaign: "c0001".to_string(),
        index: 7,
        cell: "FFT|baseline|seed=0xc0ffee|scale=0.05".to_string(),
        cycles: 1_058_331,
        warm: "stored".to_string(),
    };
    let request = Request::Submit(crate::serve::request(seed));
    let response = Response::Submitted {
        campaign: "c0001".to_string(),
        cells: 18,
        resumed: 0,
    };
    ns_per_op(|| {
        for _ in 0..500 {
            let j = Json::parse(&event.to_json().render()).expect("event parses");
            black_box(Event::from_json(&j).expect("event decodes"));
            let j = Json::parse(&request.to_json().render()).expect("request parses");
            black_box(Request::from_json(&j).expect("request decodes"));
            let j = Json::parse(&response.to_json().render()).expect("response parses");
            black_box(Response::from_json(&j).expect("response decodes"));
        }
        1500
    }) / 1e3
}

/// Every replay and outside-timing metric of the ledger for `w`.
/// `results` and `run_ns` are one direct pass of its cells.
pub fn ledger(
    w: &Workload,
    results: &[SimResult],
    run_ns: &[u64],
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Named, String> {
    let streams = Streams::generate(w, tr);
    let mut out = vec![("workloads.tracegen_ns_per_op", streams.tracegen_ns_per_op)];
    let span = tr.begin("replay");
    out.extend(noc(w, &streams));
    out.extend(coherence(w, &streams));
    out.extend(common(w, &streams, results, scratch)?);
    out.extend(compression(&streams));
    out.push(("core.result_json_us", result_json_us(results)));
    tr.end(span);
    let span = tr.begin("overhead_ratios");
    out.extend(overhead_ratios(w, run_ns, scratch)?);
    tr.end(span);
    out.extend(state_capture(w, &results[0], scratch, tr)?);
    Ok(out)
}
