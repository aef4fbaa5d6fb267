//! Switch arbitration under real contention, pinned bit for bit.
//!
//! The benchmark cells and the full-simulator goldens see about 1.01
//! requesters per arbitration, so they barely exercise round-robin
//! order, input-port exclusion or the credit wake-up of a parked
//! upstream router. The three seeded scenarios here keep several head
//! flits competing for the same output most cycles. Each run is hashed
//! whole — the delivery log `(src, dst, payload, delivered_at)`, every
//! link's flit counter and the bit patterns of both energy accumulators
//! — and compared with a recorded value.
//!
//! The recorded values were produced by running this file, unchanged, on
//! the commit before switch allocation moved to event-kept request words
//! and the ready-router bitmap (PR 14's parent, `5f041d4`): the test
//! drives only `Noc`'s public API, which that change left alone. A
//! mismatch means arbitration order, timing or energy accounting moved.

use cmp_common::geometry::MeshShape;
use cmp_common::hash::{fnv64, Fnv64};
use cmp_common::persist::{ByteReader, ByteWriter, PersistState};
use cmp_common::rng::SimRng;
use cmp_common::types::{Cycle, MessageClass, TileId};
use mesh_noc::{ChannelKind, ChannelSpec, Message, Noc, NocConfig};
use wire_model::link::Channel;
use wire_model::wires::WireClass;

const CLOCK: f64 = 4.0e9;

/// One contention scenario: a network shape and a seeded injection
/// schedule.
struct Scenario {
    /// Mesh width and height in tiles.
    dims: (u16, u16),
    virtual_channels: usize,
    vc_buffer_flits: usize,
    router_pipeline_cycles: u64,
    /// Cycles during which tiles inject.
    inject_cycles: Cycle,
    /// Injection probability per tile per cycle.
    rate: f64,
    /// Destination most messages go to, if any.
    hot: Option<usize>,
    /// Wire sizes drawn uniformly (flit count varies on the 34-byte link).
    sizes: &'static [usize],
    seed: u64,
}

/// Hot destination, minimum buffering: credits run out constantly, so
/// routers park grantless and are woken by 0→1 credit returns.
const HOT_2VC_1FLIT: Scenario = Scenario {
    dims: (4, 4),
    virtual_channels: 2,
    vc_buffer_flits: 1,
    router_pipeline_cycles: 3,
    inject_cycles: 400,
    rate: 0.2,
    hot: Some(5),
    sizes: &[11, 67, 67],
    seed: 0x5eed_0001,
};

/// Heavy uniform traffic on the default router: many armed VCs per
/// output, round-robin pointers all over the 20 candidates.
const UNIFORM_4VC_4FLIT: Scenario = Scenario {
    dims: (4, 4),
    virtual_channels: 4,
    vc_buffer_flits: 4,
    router_pipeline_cycles: 3,
    inject_cycles: 1_500,
    rate: 0.4,
    hot: None,
    sizes: &[11, 67],
    seed: 0x5eed_0002,
};

/// Single-stage routers on a line with one VC: heads arm the cycle they
/// arrive, and every message shares the same chain of links.
const LINE_1VC_EXPRESS: Scenario = Scenario {
    dims: (4, 1),
    virtual_channels: 1,
    vc_buffer_flits: 2,
    router_pipeline_cycles: 1,
    inject_cycles: 600,
    rate: 0.3,
    hot: None,
    sizes: &[11, 67, 150],
    seed: 0x5eed_0003,
};

impl Scenario {
    fn mesh(&self) -> MeshShape {
        MeshShape::new(self.dims.0, self.dims.1)
    }

    fn build(&self) -> Noc<u64> {
        Noc::new(
            self.mesh(),
            NocConfig {
                channels: vec![ChannelSpec {
                    kind: ChannelKind::B,
                    channel: Channel::new(WireClass::B8X, 34, 5.0),
                    virtual_channels: self.virtual_channels,
                    vc_buffer_flits: self.vc_buffer_flits,
                    router_pipeline_cycles: self.router_pipeline_cycles,
                }],
                clock_hz: CLOCK,
                switching_factor: 0.5,
            },
        )
    }

    /// The injection schedule, in cycle order; the payload is the
    /// message's serial number.
    fn schedule(&self) -> Vec<(Cycle, Message<u64>)> {
        let tiles = self.mesh().tiles();
        let mut rng = SimRng::new(self.seed);
        let mut out = Vec::new();
        for now in 0..self.inject_cycles {
            for src in 0..tiles {
                if !rng.chance(self.rate) {
                    continue;
                }
                let mut dst = (src + 1 + rng.index(tiles - 1)) % tiles;
                if let Some(hot) = self.hot {
                    if src != hot && rng.chance(0.8) {
                        dst = hot;
                    }
                }
                let wire_bytes = self.sizes[rng.index(self.sizes.len())];
                out.push((
                    now,
                    Message {
                        src: TileId::from(src),
                        dst: TileId::from(dst),
                        class: if wire_bytes > 11 {
                            MessageClass::ResponseData
                        } else {
                            MessageClass::Request
                        },
                        wire_bytes,
                        channel: ChannelKind::B,
                        payload: out.len() as u64,
                    },
                ));
            }
        }
        out
    }
}

type Log = Vec<(usize, usize, u64, Cycle)>;

/// Tick `noc` over `from..to`, injecting what the schedule holds for
/// each cycle first; stops early once the schedule is spent and the
/// network idle.
fn drive(
    noc: &mut Noc<u64>,
    schedule: &[(Cycle, Message<u64>)],
    from: Cycle,
    to: Cycle,
    log: &mut Log,
) {
    let mut next = schedule.partition_point(|(at, _)| *at < from);
    for now in from..to {
        while next < schedule.len() && schedule[next].0 == now {
            noc.inject(now, schedule[next].1.clone())
                .expect("B configured");
            next += 1;
        }
        for d in noc.tick(now) {
            log.push((
                d.message.src.index(),
                d.message.dst.index(),
                d.message.payload,
                d.delivered_at,
            ));
        }
        if next == schedule.len() && noc.is_idle() {
            return;
        }
    }
}

/// Hash of everything a run produced.
fn fingerprint(noc: &Noc<u64>, log: &Log) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(log.len() as u64);
    for &(src, dst, payload, at) in log {
        h.write_u64(src as u64);
        h.write_u64(dst as u64);
        h.write_u64(payload);
        h.write_u64(at);
    }
    for (tile, dir, flits) in noc.link_flit_counts(ChannelKind::B) {
        h.write_u64(tile as u64);
        h.write_u64(dir.index() as u64);
        h.write_u64(flits);
    }
    let energy = noc.energy();
    h.write_u64(energy.link_dynamic.value().to_bits());
    h.write_u64(energy.router_dynamic.value().to_bits());
    h.finish()
}

const LIMIT: Cycle = 2_000_000;

/// Run `sc` start to finish and compare its hash with the recorded one.
fn check(sc: &Scenario, expected: u64) {
    let schedule = sc.schedule();
    let mut noc = sc.build();
    let mut log = Log::new();
    drive(&mut noc, &schedule, 0, LIMIT, &mut log);
    assert!(noc.is_idle(), "traffic must drain");
    assert_eq!(log.len(), schedule.len(), "every message delivered once");
    let got = fingerprint(&noc, &log);
    assert_eq!(got, expected, "got {got:#018x}, recorded {expected:#018x}");
}

#[test]
fn hot_destination_with_two_single_flit_vcs_matches_the_parent() {
    check(&HOT_2VC_1FLIT, EXPECTED_HOT);
}

#[test]
fn heavy_uniform_traffic_matches_the_parent() {
    check(&UNIFORM_4VC_4FLIT, EXPECTED_UNIFORM);
}

#[test]
fn express_line_with_one_vc_matches_the_parent() {
    check(&LINE_1VC_EXPRESS, EXPECTED_LINE);
}

/// Every scenario with the hash its uninterrupted run records: 3- and
/// 1-stage routers, buffers of 1, 4 and 2 flits.
fn scenarios() -> [(&'static Scenario, u64); 3] {
    [
        (&HOT_2VC_1FLIT, EXPECTED_HOT),
        (&UNIFORM_4VC_4FLIT, EXPECTED_UNIFORM),
        (&LINE_1VC_EXPRESS, EXPECTED_LINE),
    ]
}

/// `noc`'s checkpoint bytes.
fn saved(noc: &Noc<u64>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    noc.save_state(&mut w);
    w.into_bytes()
}

/// Snapshot in the thick of each scenario's burst, by clone and by
/// bytes: both resumed networks must finish with the uninterrupted
/// run's hash. The derived masks (armed VCs, request words, the ready
/// bitmap) are not in the bytes, so this is what checks their rebuild.
#[test]
fn mid_burst_snapshots_resume_to_the_same_hash() {
    for (sc, expected) in scenarios() {
        let schedule = sc.schedule();
        for cut in [57, 200, 399] {
            let ctx = format!("{:?} at {cut}", sc.dims);
            let mut noc = sc.build();
            let mut log = Log::new();
            drive(&mut noc, &schedule, 0, cut, &mut log);
            assert!(!noc.is_idle(), "{ctx} must be mid-burst");

            let mut cloned = noc.clone();
            let mut cloned_log = log.clone();
            drive(&mut cloned, &schedule, cut, LIMIT, &mut cloned_log);
            assert_eq!(fingerprint(&cloned, &cloned_log), expected, "clone, {ctx}");

            // By bytes, loaded over the network they were taken from after
            // it has moved on: what it then holds in derived masks is stale
            // and must be rebuilt, not trusted.
            let bytes = saved(&noc);
            drive(&mut noc, &schedule, cut, cut + 41, &mut log.clone());
            let mut r = ByteReader::new(&bytes);
            // The state resumes at `cut`, where the next `drive` starts.
            r.set_cycle(cut);
            noc.load_state(&mut r).expect("checkpoint loads");
            r.finish().expect("no trailing bytes");
            drive(&mut noc, &schedule, cut, LIMIT, &mut log);
            assert_eq!(fingerprint(&noc, &log), expected, "bytes, {ctx}");
        }
    }
}

/// The checkpoint byte form, pinned: FNV-1a of `Noc::save_state` at
/// three cuts of every scenario, ticking every cycle, and each a fixed
/// point — loaded into a freshly built network, it saves back to the
/// same bytes. The recorded values are checkpoint layout 4's, produced
/// by running this file on the build that introduced that layout (input
/// rings written as held, flits on links included), once its behaviour
/// hashes above and the resume test had passed unedited; a mismatch
/// means a checkpoint no longer carries what a layout-4 build's would at
/// the same cycle.
#[test]
fn saved_bytes_at_three_cuts_match_the_parent() {
    let mut got = Vec::new();
    for (sc, _) in scenarios() {
        let schedule = sc.schedule();
        let mut noc = sc.build();
        let mut log = Log::new();
        let mut from = 0;
        for cut in [57, 200, 399] {
            drive(&mut noc, &schedule, from, cut, &mut log);
            from = cut;
            assert!(!noc.is_idle(), "cycle {cut} must be mid-burst");
            let bytes = saved(&noc);
            let mut fresh = sc.build();
            let mut r = ByteReader::new(&bytes);
            r.set_cycle(cut);
            fresh.load_state(&mut r).expect("checkpoint loads");
            r.finish().expect("no trailing bytes");
            assert_eq!(
                saved(&fresh),
                bytes,
                "{:?} at {cut}: a fixed point",
                sc.dims
            );
            got.push(fnv64(&bytes));
        }
    }
    assert_eq!(got, EXPECTED_BYTES, "got {got:#018x?}");
}

const EXPECTED_HOT: u64 = 0x7960_ca54_ae16_2629;
const EXPECTED_UNIFORM: u64 = 0x60e7_f4d8_d6c8_9c36;
const EXPECTED_LINE: u64 = 0x42b9_b9b2_318d_1e17;
const EXPECTED_BYTES: [u64; 9] = [
    0x76cd_ddaf_ed53_f96a,
    0xfd2c_dc81_5a2f_4209,
    0x31e1_d724_0c15_6590,
    0xaf18_e19e_f4cf_7ff7,
    0x48e9_4b1b_4255_7e03,
    0xa2cb_a961_2a28_3c7e,
    0x6074_a108_32a0_4b04,
    0xb5ef_6f1b_d4eb_9fd9,
    0xf460_5589_69e4_bf18,
];
