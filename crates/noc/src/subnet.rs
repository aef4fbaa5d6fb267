//! One physical sub-network: a complete flit-level mesh for a single
//! channel kind (B or VL).
//!
//! Timing model (zero load): a flit entering a router's input buffer at
//! cycle `t` traverses the switch at `t + pipeline − 1` (the router's
//! route-compute / allocate / traverse stages) and reaches the next
//! router's buffer `link_cycles` later. A message injected at cycle `T`
//! over `h` hops with `f` flits is therefore delivered at
//! `T + pipeline·(h+1) − (h+1) + ... ` — concretely, with the default
//! 3-cycle pipeline: `T + 2·(h+1) + link_cycles·h + (f−1)`.
//!
//! Wormhole switching with credit-based virtual-channel flow control and
//! XY dimension-order routing (deadlock-free on a mesh). All arbitration
//! is round-robin with deterministic iteration order, so a given injection
//! sequence always produces the same cycle-exact behaviour.

use std::collections::VecDeque;

use cmp_common::geometry::{Direction, MeshShape};
use cmp_common::types::{Cycle, MessageClass, TileId};
use cmp_common::units::Joules;

use crate::config::ChannelSpec;
use crate::energy::{NocEnergy, RouterEnergyModel};
use crate::message::{Delivered, Message};
use crate::router::{Flit, RouterArray, LOCAL, PORTS};
use crate::stats::NocStats;

/// An in-flight message: payload parked while its flits traverse the mesh.
#[derive(Clone)]
struct InFlight<P> {
    msg: Option<Message<P>>,
    injected_at: Cycle,
    flits_total: u32,
    flits_ejected: u32,
    dst: TileId,
    wire_bytes: usize,
}

/// A flit travelling on a link.
#[derive(Clone)]
struct WireFlit {
    flit: Flit,
    arrival: Cycle,
    dst_tile: usize,
    dst_port: usize,
    vc: usize,
}

/// Per-tile injection state: the message currently being serialised into
/// the local input port.
#[derive(Clone, Copy)]
struct InjProgress {
    slot: u32,
    vc: usize,
    next_seq: u32,
}

/// Port index of the opposite link direction (E↔W, N↔S), indexed by
/// [`Direction::index`]. The hot-path constant form of
/// [`Direction::opposite`].
const OPPOSITE: [usize; 4] = [1, 0, 3, 2];

/// Set bit `i` in a packed bitmap.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// Clear bit `i` in a packed bitmap.
#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1 << (i & 63));
}

/// One channel's mesh network.
#[derive(Clone)]
pub struct SubNet<P> {
    spec: ChannelSpec,
    mesh: MeshShape,
    /// Cycles a flit waits in a buffer before switch traversal
    /// (pipeline − 1).
    pipeline_wait: Cycle,
    link_cycles: Cycle,
    routers: RouterArray,
    /// Buffered-flit count per router: the switch-allocation activity
    /// gate (routers holding nothing are skipped entirely).
    flits_buffered: Vec<u32>,
    /// Bitmap of non-empty input VCs per router (bit = port·nvc + vc),
    /// so the allocation scan probes only occupied buffers.
    vc_occupied: Vec<u32>,
    // --- hot-path caches derived from `mesh` (configuration, never
    // persisted) ---
    /// Row-major (x, y) of every tile: `MeshShape::coord` without the
    /// per-call div/mod.
    coords: Vec<(u16, u16)>,
    /// `neighbors[tile][Direction::index()]` for the four link ports;
    /// `u32::MAX` at a mesh edge.
    neighbors: Vec<[u32; 4]>,
    /// Input port of each flat input VC (`flat = port·nvc + vc`): the
    /// allocator's `flat / nvc` without a runtime divide.
    flat_port: [u8; 32],
    /// Dynamic router energy of a flit by its byte count
    /// (`RouterEnergyModel::flit_energy`, tabulated for
    /// `0..=width_bytes` so the grant path indexes instead of
    /// multiplying; same function, same `f64`s).
    router_energy_by_bytes: Vec<Joules>,
    /// Dynamic link energy of a flit by its byte count
    /// (`Channel::dyn_energy_for_bytes(bytes, 0.5)`, tabulated likewise).
    link_energy_by_bytes: Vec<Joules>,
    // --- activity tracking derived from the state above (rebuilt on
    // restore, never persisted) ---
    /// Bitmap of tiles whose NI has injection work queued or in
    /// progress (bit = tile id).
    inj_active: Vec<u64>,
    /// Bitmap of *armed* input VCs per router (bit = port·nvc + vc):
    /// non-empty, head flit out of the router pipeline, route cached.
    /// Maintained incrementally — armed on head maturation (directly or
    /// via `mature_ring`), re-evaluated on every head pop — so switch
    /// allocation never probes buffers or compares arrival stamps.
    vc_armed: Vec<u32>,
    /// Request word per output port, `req[tile·PORTS + out]`: the armed
    /// input VCs (bit = port·nvc + vc) whose cached route is `out`.
    /// `vc_armed` split by route — set where a VC is armed, cleared
    /// where its armed bit is — so an output port arbitrates over one
    /// word and nothing is gathered per cycle.
    req: Vec<u32>,
    /// Bitmap of routers switch allocation must visit (bit = tile id):
    /// set when a VC is armed and when a 0→1 credit return reaches a
    /// router with a request for that output, cleared when a visit
    /// grants nothing or leaves nothing armed. A router off the bitmap
    /// cannot grant: its state only changes through those two events.
    router_ready: Vec<u64>,
    /// Head-maturation calendar: slot `cycle % len` holds the
    /// (tile, flat VC) pairs whose head flit leaves the router pipeline
    /// at `cycle`. Length `pipeline_wait + 1`, so every pending
    /// maturation (at most `pipeline_wait` cycles out) has a distinct
    /// slot. An immature head cannot pop or be displaced, so entries
    /// are never stale.
    mature_ring: Vec<Vec<(u32, u32)>>,
    /// False after a state restore until [`SubNet::tick`] has rebuilt
    /// `vc_armed`, `req`, `router_ready` and `mature_ring` (they depend
    /// on the clock, which `load_state` does not see).
    eligibility_fresh: bool,
    /// Flits in flight on links. Constant link latency makes this FIFO by
    /// arrival time.
    wire: VecDeque<WireFlit>,
    inj_queues: Vec<VecDeque<u32>>,
    inj_progress: Vec<Option<InjProgress>>,
    /// Flits sent per outgoing link: `link_flits[tile][direction]`.
    link_flits: Vec<[u64; 4]>,
    slab: Vec<Option<InFlight<P>>>,
    free_slots: Vec<u32>,
    live_msgs: usize,
    delivered: Vec<Delivered<P>>,
    /// Dynamic energy burned in this sub-network;
    /// [`crate::network::Noc::energy`] sums the per-sub-network
    /// accumulators in fixed sub-network order.
    energy: NocEnergy,
    /// Delivery/flit statistics, owned per sub-network like `energy`.
    stats: NocStats,
    /// Flits buffered across all routers (Σ `flits_buffered`): while any
    /// flit sits in a buffer the sub-network may act next cycle, so the
    /// next-event estimate never needs the per-router scan.
    buffered_total: u64,
    /// Messages queued or mid-serialisation at the network interfaces.
    inject_pending: usize,
}

impl<P> SubNet<P> {
    /// Build the sub-network for `spec` on `mesh`; `rem` is the router
    /// energy model its per-flit energy table is computed from.
    pub fn new(spec: ChannelSpec, mesh: MeshShape, clock_hz: f64, rem: &RouterEnergyModel) -> Self {
        let pipeline_cycles = spec.router_pipeline_cycles;
        assert!(pipeline_cycles >= 1, "router needs at least one stage");
        let link_cycles = spec.channel.timing(clock_hz).cycles;
        let tiles = mesh.tiles();
        assert!(
            PORTS * spec.virtual_channels <= 32,
            "occupancy bitmap supports at most 32 input VCs per router"
        );
        let coords: Vec<(u16, u16)> = (0..tiles)
            .map(|t| {
                let c = mesh.coord(TileId::from(t));
                (c.x, c.y)
            })
            .collect();
        let neighbors: Vec<[u32; 4]> = (0..tiles)
            .map(|t| {
                let mut row = [u32::MAX; 4];
                for dir in Direction::LINKS {
                    if let Some(n) = mesh.neighbor(TileId::from(t), dir) {
                        row[dir.index()] = n.index() as u32;
                    }
                }
                row
            })
            .collect();
        let bitmap_words = tiles.div_ceil(64);
        let mut flat_port = [0u8; 32];
        for (flat, port) in flat_port.iter_mut().enumerate() {
            *port = (flat / spec.virtual_channels) as u8;
        }
        let flit_sizes = 0..=spec.channel.width_bytes;
        SubNet {
            spec,
            mesh,
            pipeline_wait: pipeline_cycles - 1,
            link_cycles,
            routers: RouterArray::new(tiles, spec.virtual_channels, spec.vc_buffer_flits),
            flits_buffered: vec![0; tiles],
            vc_occupied: vec![0; tiles],
            coords,
            neighbors,
            flat_port,
            router_energy_by_bytes: flit_sizes.clone().map(|b| rem.flit_energy(b)).collect(),
            link_energy_by_bytes: flit_sizes
                .map(|b| spec.channel.dyn_energy_for_bytes(b, 0.5))
                .collect(),
            inj_active: vec![0; bitmap_words],
            vc_armed: vec![0; tiles],
            req: vec![0; tiles * PORTS],
            router_ready: vec![0; bitmap_words],
            mature_ring: vec![Vec::new(); pipeline_cycles as usize],
            eligibility_fresh: true,
            wire: VecDeque::new(),
            inj_queues: (0..tiles).map(|_| VecDeque::new()).collect(),
            inj_progress: vec![None; tiles],
            link_flits: vec![[0; 4]; tiles],
            slab: Vec::new(),
            free_slots: Vec::new(),
            live_msgs: 0,
            delivered: Vec::new(),
            energy: NocEnergy::default(),
            stats: NocStats::new(),
            buffered_total: 0,
            inject_pending: 0,
        }
    }

    /// The channel spec this sub-network implements.
    pub fn spec(&self) -> &ChannelSpec {
        &self.spec
    }

    /// Link traversal latency in cycles.
    pub fn link_cycles(&self) -> Cycle {
        self.link_cycles
    }

    /// Queue a message for injection at its source tile.
    pub fn inject(&mut self, now: Cycle, msg: Message<P>) {
        debug_assert!(msg.src != msg.dst, "self-messages bypass the network");
        let s = msg.src.index();
        let flits_total = self.spec.channel.flits(msg.wire_bytes) as u32;
        let entry = InFlight {
            injected_at: now,
            flits_total,
            flits_ejected: 0,
            dst: msg.dst,
            wire_bytes: msg.wire_bytes,
            msg: Some(msg),
        };
        let slot = match self.free_slots.pop() {
            Some(free) => {
                self.slab[free as usize] = Some(entry);
                free
            }
            None => {
                self.slab.push(Some(entry));
                (self.slab.len() - 1) as u32
            }
        };
        self.inj_queues[s].push_back(slot);
        self.live_msgs += 1;
        self.inject_pending += 1;
        set_bit(&mut self.inj_active, s);
    }

    /// XY route from `tile` towards `dst` via the precomputed coordinate
    /// table (no div/mod on the allocation path).
    #[inline]
    fn route_dir(&self, tile: usize, dst: usize) -> Direction {
        let (cx, cy) = self.coords[tile];
        let (dx, dy) = self.coords[dst];
        if dx > cx {
            Direction::East
        } else if dx < cx {
            Direction::West
        } else if dy > cy {
            Direction::South
        } else if dy < cy {
            Direction::North
        } else {
            Direction::Local
        }
    }

    /// Arm input VC `fvc` of `tile`: its head flit has cleared the
    /// router pipeline and may arbitrate from this cycle on. Computes
    /// the route on first need (wormhole: cached until the tail
    /// departs), files the request with that output port and readies
    /// the router.
    fn arm_vc(&mut self, tile: usize, fvc: usize) {
        let f = self.routers.vc_index(tile, 0, 0) + fvc;
        let out_dir = match self.routers.route(f) {
            Some(d) => d,
            None => {
                let msg = self
                    .routers
                    .front(f)
                    .expect("armed VC holds flits")
                    .flit
                    .msg;
                let entry = self.slab[msg as usize].as_ref().expect("live");
                let d = self.route_dir(tile, entry.dst.index());
                self.routers.set_route(f, d);
                d
            }
        };
        self.vc_armed[tile] |= 1 << fvc;
        self.req[tile * PORTS + out_dir.index()] |= 1 << fvc;
        set_bit(&mut self.router_ready, tile);
    }

    /// A freshly-exposed head flit of `(tile, fvc)` matures at `at`:
    /// arm immediately if already due, otherwise calendar it on the
    /// maturation ring.
    fn schedule_head(&mut self, tile: usize, fvc: usize, at: Cycle, now: Cycle) {
        if at <= now {
            self.arm_vc(tile, fvc);
        } else {
            debug_assert!(at - now < self.mature_ring.len() as u64);
            let slot = (at % self.mature_ring.len() as u64) as usize;
            self.mature_ring[slot].push((tile as u32, fvc as u32));
        }
    }

    /// Arm every VC whose head flit matures this cycle.
    fn drain_matured(&mut self, now: Cycle) {
        let slot = (now % self.mature_ring.len() as u64) as usize;
        if self.mature_ring[slot].is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.mature_ring[slot]);
        for &(tile, fvc) in &due {
            self.arm_vc(tile as usize, fvc as usize);
        }
        due.clear();
        self.mature_ring[slot] = due;
    }

    /// Rebuild `vc_armed`, `req`, `router_ready` and `mature_ring` from
    /// the buffered flits — the clock-dependent part of a state
    /// restore, run on the first tick after `load_state`. Every router
    /// with an armed VC comes back ready; one that was parked grantless
    /// is visited once more, grants nothing again and parks.
    fn rebuild_eligibility(&mut self, now: Cycle) {
        self.eligibility_fresh = true;
        for ring in &mut self.mature_ring {
            ring.clear();
        }
        self.vc_armed.fill(0);
        self.req.fill(0);
        self.router_ready.fill(0);
        for tile in 0..self.mesh.tiles() {
            let mut occ = self.vc_occupied[tile];
            while occ != 0 {
                let fvc = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let f = self.routers.vc_index(tile, 0, 0) + fvc;
                let at = self.routers.front(f).expect("occupied VC").arrived + self.pipeline_wait;
                self.schedule_head(tile, fvc, at, now);
            }
        }
    }

    /// Bytes of flit `seq` of a `wire_bytes` message on this channel.
    fn flit_bytes(&self, wire_bytes: usize, seq: u32) -> usize {
        let w = self.spec.channel.width_bytes;
        let consumed = seq as usize * w;
        wire_bytes.saturating_sub(consumed).min(w).max(1)
    }

    /// Advance one cycle. Delivered messages accumulate internally; drain
    /// them with [`SubNet::drain_delivered`]. Energy and statistics land
    /// in this sub-network's own accumulators ([`SubNet::energy`],
    /// [`SubNet::stats`]).
    // Out of line on purpose: `Noc::tick_into` is the only caller, and
    // with this body inlined through it into the engine's step loop the
    // saturated 4x4 hotspot ran ~4 % slower and the sparse 16x16 mesh
    // ~2.5 % slower (interleaved pairs, 10 of 11 and 6 of 6).
    #[inline(never)]
    pub fn tick(&mut self, now: Cycle) {
        if !self.eligibility_fresh {
            self.rebuild_eligibility(now);
        }
        self.deliver_wire_arrivals(now);
        self.inject_flits(now);
        self.drain_matured(now);
        self.switch_traversal(now);
        debug_assert_eq!(
            self.buffered_total,
            self.flits_buffered.iter().map(|&n| n as u64).sum::<u64>()
        );
        debug_assert_eq!(
            self.inject_pending,
            self.inj_queues.iter().map(|q| q.len()).sum::<usize>()
                + self.inj_progress.iter().filter(|p| p.is_some()).count()
        );
        debug_assert!(self.masks_consistent());
    }

    /// Whether the event-kept masks agree with the state they are
    /// derived from (debug builds check this after every tick): per
    /// tile the request words partition `vc_armed` by cached route, and
    /// a router that is armed yet off the ready bitmap has nothing it
    /// could grant — its last visit granted nothing and no event since
    /// changed that.
    fn masks_consistent(&self) -> bool {
        let nvc = self.spec.virtual_channels;
        (0..self.mesh.tiles()).all(|tile| {
            let base_tile = self.routers.vc_index(tile, 0, 0);
            let words = &self.req[tile * PORTS..(tile + 1) * PORTS];
            let ready = self.router_ready[tile >> 6] & (1 << (tile & 63)) != 0;
            let mut union = 0u32;
            let mut filed_by_route = true;
            let mut grantable = false;
            for (out_idx, &word) in words.iter().enumerate() {
                union |= word;
                let mut bits = word;
                while bits != 0 {
                    let fin = base_tile + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    filed_by_route &=
                        self.routers.route(fin).map(Direction::index) == Some(out_idx);
                    grantable |= self
                        .grantable_out_vc(fin, base_tile + out_idx * nvc, nvc)
                        .is_some();
                }
            }
            union == self.vc_armed[tile] && filed_by_route && (ready || !grantable)
        })
    }

    /// Phase (a): link arrivals land in downstream input buffers.
    fn deliver_wire_arrivals(&mut self, now: Cycle) {
        while let Some(front) = self.wire.front() {
            if front.arrival > now {
                break;
            }
            let wf = self.wire.pop_front().expect("front checked");
            let f = self.routers.vc_index(wf.dst_tile, wf.dst_port, wf.vc);
            self.routers.push(f, wf.flit, now);
            self.flits_buffered[wf.dst_tile] += 1;
            self.buffered_total += 1;
            let fvc = wf.dst_port * self.spec.virtual_channels + wf.vc;
            self.vc_occupied[wf.dst_tile] |= 1 << fvc;
            // Only a newly-exposed *head* changes what the switch can
            // do: a push onto a non-empty VC leaves every head flit —
            // hence every arbitration outcome — untouched.
            if self.routers.vc_len(f) == 1 {
                self.schedule_head(wf.dst_tile, fvc, now + self.pipeline_wait, now);
            }
        }
    }

    /// Phase (b): each tile's network interface feeds at most one flit per
    /// cycle into the local input port, serialising one message at a time.
    /// Only tiles on the `inj_active` bitmap are visited; per-tile work is
    /// independent (each touches only its own router's local port), so the
    /// skip cannot change behaviour.
    fn inject_flits(&mut self, now: Cycle) {
        if self.inject_pending == 0 {
            return;
        }
        for w in 0..self.inj_active.len() {
            let mut bits = self.inj_active[w];
            while bits != 0 {
                let tile = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.inject_tile(now, tile);
            }
        }
    }

    /// One tile's injection step (see [`SubNet::inject_flits`]).
    fn inject_tile(&mut self, now: Cycle, tile: usize) {
        if self.inj_progress[tile].is_none() {
            let Some(&slot) = self.inj_queues[tile].front() else {
                // Spurious activity bit (all queued work already done).
                clear_bit(&mut self.inj_active, tile);
                return;
            };
            // Pick the local input VC with the most free space that is
            // not mid-message (its last buffered flit, if any, was a
            // tail — guaranteed here because the NI serialises, so any
            // idle VC is message-aligned).
            let base = self.routers.vc_index(tile, LOCAL, 0);
            let vc = (0..self.spec.virtual_channels)
                .filter(|&v| self.routers.has_space(base + v))
                .max_by_key(|&v| self.routers.capacity() - self.routers.vc_len(base + v));
            let Some(vc) = vc else { return };
            self.inj_queues[tile].pop_front();
            self.inj_progress[tile] = Some(InjProgress {
                slot,
                vc,
                next_seq: 0,
            });
        }
        let Some(mut p) = self.inj_progress[tile] else {
            return;
        };
        let f = self.routers.vc_index(tile, LOCAL, p.vc);
        if !self.routers.has_space(f) {
            return;
        }
        let entry = self.slab[p.slot as usize].as_ref().expect("live slot");
        let tail = p.next_seq + 1 == entry.flits_total;
        self.routers.push(
            f,
            Flit {
                msg: p.slot,
                seq: p.next_seq,
                tail,
            },
            now,
        );
        self.flits_buffered[tile] += 1;
        self.buffered_total += 1;
        let fvc = LOCAL * self.spec.virtual_channels + p.vc;
        self.vc_occupied[tile] |= 1 << fvc;
        if self.routers.vc_len(f) == 1 {
            self.schedule_head(tile, fvc, now + self.pipeline_wait, now);
        }
        p.next_seq += 1;
        if tail {
            self.inj_progress[tile] = None;
            self.inject_pending -= 1;
            if self.inj_queues[tile].is_empty() {
                clear_bit(&mut self.inj_active, tile);
            }
        } else {
            self.inj_progress[tile] = Some(p);
        }
    }

    /// Phase (c): switch allocation and traversal at every router on
    /// the `router_ready` bitmap, in ascending tile order. The word is
    /// re-read after each router: a credit return that readies a
    /// higher-indexed router of the same word must still act this
    /// cycle, as it would under a scan of every router.
    fn switch_traversal(&mut self, now: Cycle) {
        for w in 0..self.router_ready.len() {
            let mut visited = 0u64;
            loop {
                let word = self.router_ready[w] & !visited;
                if word == 0 {
                    break;
                }
                let bit = word.trailing_zeros();
                visited = u64::MAX >> (63 - bit);
                self.traverse_router(now, (w << 6) + bit as usize);
            }
        }
    }

    /// The output VC of group `fout` that input VC `fin` may send its
    /// head flit to right now: the one its message already holds, or
    /// for a head flit the first free one — provided a downstream
    /// buffer slot (credit) is left.
    #[inline]
    fn grantable_out_vc(&self, fin: usize, fout: usize, nvc: usize) -> Option<usize> {
        let ovc = match self.routers.out_vc(fin) {
            Some(v) => v,
            None => (0..nvc).find(|&v| self.routers.owner(fout + v).is_none())?,
        };
        (self.routers.credits(fout + ovc) != 0).then_some(ovc)
    }

    /// Switch allocation and traversal at one router (see
    /// [`SubNet::switch_traversal`]).
    fn traverse_router(&mut self, now: Cycle, tile: usize) {
        let nvc = self.spec.virtual_channels;
        let candidates = PORTS * nvc;
        // Flat index of this tile's (port 0, VC 0); every input or
        // output VC of the tile is `base_tile + port·nvc + vc`.
        let base_tile = self.routers.vc_index(tile, 0, 0);
        let port_vcs = (1u32 << nvc) - 1;
        // Input VCs of every input port granted so far this cycle (one
        // flit per input port per cycle).
        let mut used_inputs = 0u32;
        for out_dir in Direction::ALL {
            let out_idx = out_dir.index();
            let requests = self.req[tile * PORTS + out_idx] & !used_inputs;
            if requests == 0 {
                continue; // no eligible flit heads this way
            }
            let downstream = if out_idx == LOCAL {
                None
            } else {
                match self.neighbors[tile][out_idx] {
                    u32::MAX => continue, // mesh edge: no such link
                    n => Some(TileId::from(n as usize)),
                }
            };

            // --- round-robin selection among this port's requests ---
            // The first request at or after the pointer that can be
            // granted, wrapping to the ones below it.
            let below_start = (1u32 << self.routers.rr(tile, out_idx)) - 1;
            let fout = base_tile + out_idx * nvc; // output VC group base
            let mut grant: Option<(usize, usize)> = None; // (input flat VC, out_vc)
            'scan: for mut half in [requests & !below_start, requests & below_start] {
                while half != 0 {
                    let fvc = half.trailing_zeros() as usize;
                    half &= half - 1;
                    if let Some(ovc) = self.grantable_out_vc(base_tile + fvc, fout, nvc) {
                        grant = Some((fvc, ovc));
                        break 'scan;
                    }
                }
            }

            // --- apply the grant ---
            let Some((fvc, ovc)) = grant else {
                continue;
            };
            let in_port = self.flat_port[fvc] as usize;
            let in_vc = fvc - in_port * nvc;
            let next_rr = fvc + 1;
            self.routers.set_rr(
                tile,
                out_idx,
                if next_rr == candidates { 0 } else { next_rr },
            );
            used_inputs |= port_vcs << (in_port * nvc);
            let fin = base_tile + fvc;
            if self.routers.out_vc(fin).is_none() {
                self.routers.set_out_vc(fin, ovc);
            }
            let bf = self.routers.pop_after_traversal(fin);
            // Re-derive the popped VC's armed bit from its new head:
            // emptied → disarm; same-message head still mature →
            // stays armed (route untouched); otherwise disarm and
            // reschedule (immediately if the new head is already
            // mature — a tail pop resets the route, so re-arming
            // recomputes it for the next message). The request bit
            // goes with the armed bit, and it sits in this output's
            // word: the granted output is the popped VC's route.
            if self.routers.vc_len(fin) == 0 {
                self.vc_occupied[tile] &= !(1 << fvc);
                self.vc_armed[tile] &= !(1 << fvc);
                self.req[tile * PORTS + out_idx] &= !(1 << fvc);
            } else {
                let head_ready =
                    self.routers.front(fin).expect("non-empty").arrived + self.pipeline_wait;
                if bf.flit.tail || head_ready > now {
                    self.vc_armed[tile] &= !(1 << fvc);
                    self.req[tile * PORTS + out_idx] &= !(1 << fvc);
                    self.schedule_head(tile, fvc, head_ready, now);
                }
            }
            self.flits_buffered[tile] -= 1;
            self.buffered_total -= 1;
            let flit = bf.flit;
            let (wire_bytes, flits_total) = {
                let e = self.slab[flit.msg as usize].as_ref().expect("live");
                (e.wire_bytes, e.flits_total)
            };
            debug_assert!(flit.seq < flits_total);
            let bytes = self.flit_bytes(wire_bytes, flit.seq);
            self.energy.router_dynamic += self.router_energy_by_bytes[bytes];

            // return the credit upstream (the flit freed a buffer slot)
            if in_port != LOCAL {
                let upstream = self.neighbors[tile][in_port] as usize;
                debug_assert_ne!(upstream, u32::MAX as usize, "flit from a real neighbor");
                let up_out = OPPOSITE[in_port];
                let fu = self.routers.vc_index(upstream, up_out, in_vc);
                // A 0→1 credit transition can unblock a parked upstream
                // router, and only through a request for that output:
                // ready it (a later-indexed upstream still acts this
                // very cycle, exactly like the full scan). A return
                // onto a non-empty credit pool cannot change any
                // arbitration outcome.
                if self.routers.credits(fu) == 0 && self.req[upstream * PORTS + up_out] != 0 {
                    set_bit(&mut self.router_ready, upstream);
                }
                self.routers.add_credit(fu);
            }

            if out_idx == LOCAL {
                // Ejection.
                if flit.is_head() {
                    self.routers.set_owner(fout + ovc, Some((in_port, in_vc)));
                }
                if flit.tail {
                    self.routers.set_owner(fout + ovc, None);
                }
                let entry = self.slab[flit.msg as usize].as_mut().expect("live");
                entry.flits_ejected += 1;
                if flit.tail {
                    debug_assert_eq!(entry.flits_ejected, entry.flits_total);
                    let message = entry.msg.take().expect("payload present");
                    let injected_at = entry.injected_at;
                    let msg_bytes = entry.wire_bytes;
                    self.stats
                        .record_delivery(message.class, msg_bytes, now - injected_at);
                    self.slab[flit.msg as usize] = None;
                    self.free_slots.push(flit.msg);
                    self.live_msgs -= 1;
                    self.delivered.push(Delivered {
                        message,
                        injected_at,
                        delivered_at: now,
                    });
                }
            } else {
                // Link traversal towards `downstream`.
                if flit.is_head() {
                    self.routers.set_owner(fout + ovc, Some((in_port, in_vc)));
                }
                self.routers.spend_credit(fout + ovc);
                if flit.tail {
                    self.routers.set_owner(fout + ovc, None);
                }
                let downstream = downstream.expect("non-local grant has a neighbor");
                self.link_flits[tile][out_idx] += 1;
                self.wire.push_back(WireFlit {
                    flit,
                    arrival: now + self.link_cycles,
                    dst_tile: downstream.index(),
                    dst_port: OPPOSITE[out_idx],
                    vc: ovc,
                });
                self.energy.link_dynamic += self.link_energy_by_bytes[bytes];
                self.stats.record_flit_hop(self.spec.kind);
            }
        }
        // A round with grants can enable more work next cycle (freed
        // ownership, advancing wormholes): stay ready while anything is
        // armed. A grantless round changed nothing in this router, so
        // it parks until an event — a VC armed by the maturation ring,
        // a wire arrival or an injection, or a 0→1 credit return —
        // readies it again.
        if used_inputs == 0 || self.vc_armed[tile] == 0 {
            clear_bit(&mut self.router_ready, tile);
        }
    }

    /// Dynamic energy burned in this sub-network so far.
    pub fn energy(&self) -> &NocEnergy {
        &self.energy
    }

    /// Delivery/flit statistics for this sub-network.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Take the messages delivered since the last drain.
    pub fn drain_delivered(&mut self) -> Vec<Delivered<P>> {
        std::mem::take(&mut self.delivered)
    }

    /// Append the messages delivered since the last drain to `out`
    /// (allocation-free drain for the simulator's hot loop).
    pub fn drain_delivered_into(&mut self, out: &mut Vec<Delivered<P>>) {
        out.append(&mut self.delivered);
    }

    /// Whether the sub-network holds no messages at all.
    pub fn is_idle(&self) -> bool {
        self.live_msgs == 0
    }

    /// Whether `tick(now)` can make any progress: a buffered or injecting
    /// flit can always act this cycle; otherwise only a link arrival due
    /// by `now`. O(1), so idle sub-networks can be skipped entirely.
    pub fn has_work(&self, now: Cycle) -> bool {
        self.buffered_total > 0
            || self.inject_pending > 0
            || self.wire.front().is_some_and(|f| f.arrival <= now)
    }

    /// A cycle at which calling `tick` next makes progress, given the
    /// current state (`None` when idle). O(1) from cached occupancy
    /// counters; *conservative* — it may report a cycle at which nothing
    /// happens yet (a buffered flit still in its router pipeline), but
    /// never one later than the true next event, so driving the clock by
    /// this estimate cannot skip work. Always returns > `now`.
    ///
    /// A per-router scan (earliest head arrival + pipeline delay over
    /// the occupancy bitmap) gives a tighter bound, but measured slower:
    /// under load some head is almost always eligible next cycle, so the
    /// scan price is paid every iteration for nearly zero skipped ticks.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle() {
            return None;
        }
        if self.buffered_total > 0 || self.inject_pending > 0 {
            return Some(now + 1);
        }
        // Only wire-flight traffic remains: jump to the first arrival.
        let next = self.wire.front().map(|f| f.arrival).unwrap_or(now + 1);
        Some(next.max(now + 1))
    }

    /// The exact next-event computation the cached estimate replaced: a
    /// full scan over wire flits, router buffers and injection queues.
    /// Kept as the brute-force reference the randomized tests compare
    /// [`SubNet::next_event_cycle`] against.
    #[cfg(test)]
    fn next_event_cycle_brute(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle() {
            return None;
        }
        let mut next = Cycle::MAX;
        if let Some(front) = self.wire.front() {
            next = next.min(front.arrival);
        }
        for tile in 0..self.mesh.tiles() {
            if self.flits_buffered[tile] > 0 {
                if let Some(arr) = self.routers.earliest_head_arrival(tile) {
                    next = next.min(arr + self.pipeline_wait);
                }
            }
            if self.inj_progress[tile].is_some() || !self.inj_queues[tile].is_empty() {
                next = next.min(now + 1);
            }
        }
        Some(next.max(now + 1))
    }

    /// Flits sent on the outgoing link of `tile` in `dir` so far.
    pub fn link_flits(&self, tile: usize, dir: Direction) -> u64 {
        self.link_flits[tile][dir.index()]
    }

    /// Messages queued or mid-serialisation at `tile`'s network
    /// interface (read-only diagnostic snapshot).
    pub fn inj_queue_depth(&self, tile: usize) -> usize {
        self.inj_queues[tile].len() + usize::from(self.inj_progress[tile].is_some())
    }

    /// Flits currently buffered in `tile`'s router (diagnostic snapshot).
    pub fn buffered_flits(&self, tile: usize) -> u32 {
        self.flits_buffered[tile]
    }

    /// Messages anywhere in this sub-network (diagnostic snapshot).
    pub fn live_messages(&self) -> usize {
        self.live_msgs
    }

    /// The longest-waiting in-flight message, as
    /// `(injected_at, src, dst, class)` — `None` when idle. Read-only
    /// diagnostic for stall reports; walks the slab, so call it only on
    /// failure paths.
    pub fn oldest_in_flight(&self) -> Option<(Cycle, TileId, TileId, MessageClass)> {
        self.slab
            .iter()
            .flatten()
            .filter_map(|e| {
                let m = e.msg.as_ref()?;
                Some((e.injected_at, m.src, m.dst, m.class))
            })
            .min_by_key(|&(at, src, dst, _)| (at, src.index(), dst.index()))
    }

    /// The flat router store (test hook).
    #[cfg(test)]
    pub(crate) fn routers(&self) -> &RouterArray {
        &self.routers
    }
}

use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistError, PersistState};

impl<P: Persist> Persist for InFlight<P> {
    fn save(&self, w: &mut ByteWriter) {
        self.msg.save(w);
        w.u64(self.injected_at);
        w.u32(self.flits_total);
        w.u32(self.flits_ejected);
        self.dst.save(w);
        self.wire_bytes.save(w);
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        Ok(InFlight {
            msg: Persist::load(r)?,
            injected_at: r.u64()?,
            flits_total: r.u32()?,
            flits_ejected: r.u32()?,
            dst: Persist::load(r)?,
            wire_bytes: Persist::load(r)?,
        })
    }
}

cmp_common::impl_persist!(WireFlit {
    flit,
    arrival,
    dst_tile,
    dst_port,
    vc,
});

cmp_common::impl_persist!(InjProgress { slot, vc, next_seq });

/// Spec, mesh and derived timing are configuration; everything that moves
/// — router buffers, wire flits, injection queues, the in-flight slab and
/// the accumulators — is checkpointed. Per-tile vectors load through the
/// slice helpers, so bytes from a different mesh shape are a structured
/// error, never a silently resized machine; stored tile, port and VC
/// indices are range-checked for the same reason.
impl<P: Persist> PersistState for SubNet<P> {
    fn save_state(&self, w: &mut ByteWriter) {
        self.routers.save_state(w);
        self.flits_buffered.save(w);
        self.vc_occupied.save(w);
        self.wire.save(w);
        w.u64(self.inj_queues.len() as u64);
        for q in &self.inj_queues {
            q.save(w);
        }
        self.inj_progress.save(w);
        self.link_flits.save(w);
        self.slab.save(w);
        self.free_slots.save(w);
        self.live_msgs.save(w);
        self.delivered.save(w);
        self.energy.save(w);
        self.stats.save_state(w);
        w.u64(self.buffered_total);
        self.inject_pending.save(w);
    }
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        let tiles = self.mesh.tiles();
        self.routers.load_state(r)?;
        let flits_buffered: Vec<u32> = Persist::load(r)?;
        if flits_buffered.len() != tiles {
            return Err(r.err("per-tile flit counts do not match machine shape"));
        }
        self.flits_buffered = flits_buffered;
        let vc_occupied: Vec<u32> = Persist::load(r)?;
        if vc_occupied.len() != tiles {
            return Err(r.err("VC occupancy bitmap count does not match machine shape"));
        }
        self.vc_occupied = vc_occupied;
        // The occupancy bitmap and per-tile counts steer the eligibility
        // rebuild and the allocator: they must describe the rings just
        // loaded, exactly.
        let nvc = self.spec.virtual_channels;
        for tile in 0..tiles {
            let base_tile = self.routers.vc_index(tile, 0, 0);
            let (mut occupied, mut buffered) = (0u32, 0usize);
            for fvc in 0..PORTS * nvc {
                let len = self.routers.vc_len(base_tile + fvc);
                occupied |= u32::from(len > 0) << fvc;
                buffered += len;
            }
            if self.vc_occupied[tile] != occupied {
                return Err(r.err("VC occupancy bitmap disagrees with buffered flits"));
            }
            if self.flits_buffered[tile] as usize != buffered {
                return Err(r.err("per-tile flit count disagrees with buffered flits"));
            }
        }
        self.wire = Persist::load(r)?;
        if self
            .wire
            .iter()
            .any(|wf| wf.dst_tile >= tiles || wf.dst_port >= LOCAL || wf.vc >= nvc)
        {
            return Err(r.err("wire flit destination out of range"));
        }
        let nq = r.len_prefix()?;
        if nq != tiles {
            return Err(r.err("injection queue count does not match machine shape"));
        }
        for q in &mut self.inj_queues {
            *q = Persist::load(r)?;
        }
        let inj_progress: Vec<Option<InjProgress>> = Persist::load(r)?;
        if inj_progress.len() != tiles {
            return Err(r.err("injection progress count does not match machine shape"));
        }
        if inj_progress.iter().flatten().any(|p| p.vc >= nvc) {
            return Err(r.err("injection VC out of range"));
        }
        self.inj_progress = inj_progress;
        let link_flits: Vec<[u64; 4]> = Persist::load(r)?;
        if link_flits.len() != tiles {
            return Err(r.err("link flit counter count does not match machine shape"));
        }
        self.link_flits = link_flits;
        self.slab = Persist::load(r)?;
        self.free_slots = Persist::load(r)?;
        self.live_msgs = Persist::load(r)?;
        self.delivered = Persist::load(r)?;
        self.energy = Persist::load(r)?;
        self.stats.load_state(r)?;
        self.buffered_total = r.u64()?;
        self.inject_pending = Persist::load(r)?;
        // Cross-checks mirroring the tick()-time debug assertions: corrupt
        // counters must surface here, not as a wedged simulation.
        if self.buffered_total != self.flits_buffered.iter().map(|&n| n as u64).sum::<u64>() {
            return Err(r.err("buffered-flit total disagrees with per-tile counts"));
        }
        if self.inject_pending
            != self.inj_queues.iter().map(|q| q.len()).sum::<usize>()
                + self.inj_progress.iter().filter(|p| p.is_some()).count()
        {
            return Err(r.err("inject-pending counter disagrees with queues"));
        }
        // Activity caches are derived, not persisted: rebuild the
        // injection bitmap from the restored queues. Eligibility (armed
        // VCs, request words, ready routers) depends on the clock,
        // which this layer does not know — defer it to the first tick
        // (see `rebuild_eligibility`).
        self.inj_active.fill(0);
        self.eligibility_fresh = false;
        for tile in 0..self.mesh.tiles() {
            if self.inj_progress[tile].is_some() || !self.inj_queues[tile].is_empty() {
                set_bit(&mut self.inj_active, tile);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelKind, ChannelSpec};
    use cmp_common::types::MessageClass;
    use wire_model::link::Channel;
    use wire_model::wires::WireClass;

    const CLOCK: f64 = 4.0e9;

    fn b_spec(width: usize) -> ChannelSpec {
        ChannelSpec {
            kind: ChannelKind::B,
            channel: Channel::new(WireClass::B8X, width, 5.0),
            virtual_channels: 4,
            vc_buffer_flits: 4,
            router_pipeline_cycles: 3,
        }
    }

    fn subnet(spec: ChannelSpec, mesh: MeshShape) -> SubNet<u64> {
        SubNet::new(spec, mesh, CLOCK, &RouterEnergyModel::default())
    }

    fn msg(src: usize, dst: usize, bytes: usize) -> Message<u64> {
        Message {
            src: TileId::from(src),
            dst: TileId::from(dst),
            class: MessageClass::Request,
            wire_bytes: bytes,
            channel: ChannelKind::B,
            payload: 0,
        }
    }

    fn run_until_delivered(net: &mut SubNet<u64>, limit: Cycle) -> Vec<Delivered<u64>> {
        let mut out = Vec::new();
        for now in 0..limit {
            net.tick(now);
            out.extend(net.drain_delivered());
            if net.is_idle() {
                break;
            }
        }
        out
    }

    /// Zero-load delivery latency: pipeline-1 cycles in each of (h+1)
    /// routers plus h link traversals plus serialisation.
    fn zero_load(h: u64, link: u64, flits: u64) -> u64 {
        2 * (h + 1) + link * h + (flits - 1)
    }

    #[test]
    fn single_hop_zero_load_latency() {
        let mesh = MeshShape::square(4);
        let mut net = subnet(b_spec(75), mesh);
        assert_eq!(net.link_cycles(), 2);
        net.inject(0, msg(0, 1, 11));
        let d = run_until_delivered(&mut net, 100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].latency(), zero_load(1, 2, 1));
    }

    #[test]
    fn corner_to_corner_latency() {
        let mesh = MeshShape::square(4);
        let mut net = subnet(b_spec(75), mesh);
        net.inject(0, msg(0, 15, 11)); // 6 hops
        let d = run_until_delivered(&mut net, 200);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].latency(), zero_load(6, 2, 1));
    }

    #[test]
    fn multi_flit_serialisation_adds_tail_cycles() {
        let mesh = MeshShape::square(4);
        let mut net = subnet(b_spec(34), mesh);
        net.inject(0, msg(0, 3, 67)); // 2 flits on a 34-byte channel
        let d = run_until_delivered(&mut net, 200);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].latency(), zero_load(3, 2, 2));
    }

    #[test]
    fn narrow_fast_channel_beats_wide_slow_one_for_short_messages() {
        let mesh = MeshShape::square(4);
        // VL-like channel: 4 bytes wide, 1-cycle links
        let vl = ChannelSpec {
            kind: ChannelKind::Vl,
            channel: Channel::new(WireClass::VL(wire_model::wires::VlWidth::FourBytes), 4, 5.0),
            virtual_channels: 4,
            vc_buffer_flits: 4,
            router_pipeline_cycles: 3,
        };
        let mut vl_net = subnet(vl, mesh);
        assert_eq!(vl_net.link_cycles(), 1);
        let mut m = msg(0, 15, 4);
        m.channel = ChannelKind::Vl;
        vl_net.inject(0, m);
        let d = run_until_delivered(&mut vl_net, 200);
        assert_eq!(d[0].latency(), zero_load(6, 1, 1));
        // 20 cycles vs 26 on the B network: the VL win on critical path
        assert!(d[0].latency() < zero_load(6, 2, 1));
    }

    #[test]
    fn contention_serialises_on_shared_link() {
        let mesh = MeshShape::square(4);
        let mut net = subnet(b_spec(75), mesh);
        // Two tiles (0 and 4) both send to tile 1; the 0->1 and 4->0->..
        // paths share no link, so use senders 0 and 1 -> 3 sharing 2->3.
        net.inject(0, msg(0, 3, 75));
        net.inject(0, msg(1, 3, 75));
        let d = run_until_delivered(&mut net, 300);
        assert_eq!(d.len(), 2);
        // both arrive, and not at the same cycle on the shared final link
        assert_ne!(d[0].delivered_at, d[1].delivered_at);
    }

    #[test]
    fn heavy_random_traffic_all_delivered() {
        let mesh = MeshShape::square(4);
        let mut net = subnet(b_spec(34), mesh);
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut rng = cmp_common::rng::SimRng::new(123);
        for now in 0..20_000u64 {
            if now < 5_000 {
                // every tile injects ~every 4 cycles
                for src in 0..16usize {
                    if rng.chance(0.25) {
                        let dst = (src + 1 + rng.index(15)) % 16;
                        let bytes = if rng.chance(0.5) { 67 } else { 11 };
                        net.inject(now, msg(src, dst, bytes));
                        injected += 1;
                    }
                }
            }
            net.tick(now);
            delivered += net.drain_delivered().len() as u64;
            if now >= 5_000 && net.is_idle() {
                break;
            }
        }
        assert!(injected > 3_000, "injected {injected}");
        assert_eq!(delivered, injected, "every message must be delivered");
        assert!(net.is_idle());
        assert!(net.energy().dynamic().value() > 0.0);
        assert_eq!(net.stats().delivered(), injected);
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        let run = || {
            let mesh = MeshShape::square(4);
            let mut net = subnet(b_spec(34), mesh);
            let mut rng = cmp_common::rng::SimRng::new(7);
            let mut log = Vec::new();
            for now in 0..5_000u64 {
                if now < 1_000 {
                    for src in 0..16usize {
                        if rng.chance(0.3) {
                            let dst = (src + 1 + rng.index(15)) % 16;
                            net.inject(now, msg(src, dst, 67));
                        }
                    }
                }
                net.tick(now);
                for d in net.drain_delivered() {
                    log.push((d.message.src, d.message.dst, d.delivered_at));
                }
                if now >= 1_000 && net.is_idle() {
                    break;
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn next_event_cycle_skips_link_flight_time() {
        let mesh = MeshShape::square(4);
        let mut net = subnet(b_spec(75), mesh);
        net.inject(0, msg(0, 15, 11));
        // run with fast-forward and check the result matches zero-load
        let mut now = 0;
        let mut delivered = Vec::new();
        while !net.is_idle() {
            net.tick(now);
            delivered.extend(net.drain_delivered());
            match net.next_event_cycle(now) {
                Some(next) => {
                    assert!(next > now);
                    now = next;
                }
                None => break,
            }
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].latency(), zero_load(6, 2, 1));
    }

    #[test]
    fn link_flit_counters_track_the_xy_path() {
        let mesh = MeshShape::square(4);
        let mut net = subnet(b_spec(75), mesh);
        net.inject(0, msg(0, 3, 11)); // pure-east path: 0 -> 1 -> 2 -> 3
        run_until_delivered(&mut net, 100);
        assert_eq!(net.link_flits(0, Direction::East), 1);
        assert_eq!(net.link_flits(1, Direction::East), 1);
        assert_eq!(net.link_flits(2, Direction::East), 1);
        assert_eq!(net.link_flits(3, Direction::East), 0);
        assert_eq!(net.link_flits(0, Direction::South), 0);
    }

    #[test]
    fn vc_backpressure_does_not_lose_flits() {
        // Tiny buffers + a hot destination: credits run out constantly,
        // yet every message must still arrive exactly once.
        let mesh = MeshShape::square(4);
        let spec = ChannelSpec {
            kind: ChannelKind::B,
            channel: Channel::new(WireClass::B8X, 34, 5.0),
            virtual_channels: 2,
            vc_buffer_flits: 1, // minimum legal buffering
            router_pipeline_cycles: 3,
        };
        let mut net = subnet(spec, mesh);
        let mut injected = 0u64;
        // every tile floods tile 5 with multi-flit messages
        for src in 0..16usize {
            if src == 5 {
                continue;
            }
            for _ in 0..20 {
                net.inject(0, msg(src, 5, 67));
                injected += 1;
            }
        }
        let d = run_until_delivered(&mut net, 1_000_000);
        assert_eq!(d.len() as u64, injected);
        assert!(net.is_idle());
    }

    #[test]
    fn wormhole_keeps_message_flits_contiguous_per_vc() {
        // With a single VC, two long messages through a shared link must
        // not interleave: delivery completes one tail before the other.
        let mesh = MeshShape::new(4, 1); // a 4-tile line
        let spec = ChannelSpec {
            kind: ChannelKind::B,
            channel: Channel::new(WireClass::B8X, 16, 5.0),
            virtual_channels: 1,
            vc_buffer_flits: 2,
            router_pipeline_cycles: 3,
        };
        let mut net = subnet(spec, mesh);
        net.inject(0, msg(0, 3, 67)); // 5 flits
        net.inject(0, msg(1, 3, 67)); // 5 flits, shares links 1->2->3
        let d = run_until_delivered(&mut net, 10_000);
        assert_eq!(d.len(), 2);
        // deliveries must be separated by at least the serialisation time
        // of a full message (no interleaved tails)
        let gap = d[0].delivered_at.abs_diff(d[1].delivered_at);
        assert!(gap >= 5, "tails only {gap} cycles apart");
    }

    #[test]
    fn single_stage_router_is_faster_per_hop() {
        let mesh = MeshShape::square(4);
        let mut express = b_spec(34);
        express.router_pipeline_cycles = 1;
        let mut fast = subnet(express, mesh);
        let mut slow = subnet(b_spec(34), mesh);
        fast.inject(0, msg(0, 15, 11));
        slow.inject(0, msg(0, 15, 11));
        let df = run_until_delivered(&mut fast, 200);
        let ds = run_until_delivered(&mut slow, 200);
        // 6 hops: express saves (pipeline-1) x (hops+1) = 2 x 7 cycles
        assert_eq!(ds[0].latency() - df[0].latency(), 14);
    }

    #[test]
    fn cached_next_event_agrees_with_brute_force_under_random_traffic() {
        use cmp_common::randtest::{run_cases, usize_in};
        // The cached estimate must be conservative: never later than the
        // exact full-scan recomputation (later would let the simulator
        // skip work and deadlock), and idle exactly when the scan is.
        run_cases("cached_next_event_brute_force", 12, |rng| {
            let mesh = MeshShape::square(4);
            let mut net = subnet(b_spec(34), mesh);
            let inject_until = usize_in(rng, 100, 1_200) as u64;
            let rate = 0.05 + rng.f64() * 0.4;
            let mut injected = 0u64;
            let mut delivered = 0u64;
            for now in 0..50_000u64 {
                if now < inject_until {
                    for src in 0..16usize {
                        if rng.chance(rate) {
                            let dst = (src + 1 + rng.index(15)) % 16;
                            let bytes = if rng.chance(0.5) { 67 } else { 11 };
                            net.inject(now, msg(src, dst, bytes));
                            injected += 1;
                        }
                    }
                }
                net.tick(now);
                delivered += net.drain_delivered().len() as u64;
                let cached = net.next_event_cycle(now);
                let brute = net.next_event_cycle_brute(now);
                match (cached, brute) {
                    (None, None) => {
                        if now >= inject_until {
                            break;
                        }
                    }
                    (Some(c), Some(b)) => {
                        assert!(c > now, "estimate must advance the clock");
                        assert!(c <= b, "cached {c} later than brute-force {b}");
                    }
                    other => panic!("idleness disagreement: {other:?}"),
                }
            }
            assert!(injected > 0);
            assert_eq!(delivered, injected, "traffic must drain");
        });
    }

    #[test]
    fn driving_the_clock_by_the_cached_estimate_loses_no_messages() {
        use cmp_common::randtest::{run_cases, usize_in};
        // Fast-forwarding `now` by next_event_cycle (as the simulator
        // does) must deliver every message despite the skipped cycles.
        run_cases("cached_next_event_drives_clock", 8, |rng| {
            let mesh = MeshShape::square(4);
            let mut net = subnet(b_spec(34), mesh);
            let n_msgs = usize_in(rng, 1, 60);
            let mut injected = 0u64;
            for _ in 0..n_msgs {
                let src = rng.index(16);
                let dst = (src + 1 + rng.index(15)) % 16;
                let bytes = if rng.chance(0.5) { 67 } else { 11 };
                net.inject(0, msg(src, dst, bytes));
                injected += 1;
            }
            let mut now = 0;
            let mut delivered = 0u64;
            for _ in 0..1_000_000 {
                net.tick(now);
                delivered += net.drain_delivered().len() as u64;
                match net.next_event_cycle(now) {
                    Some(next) => now = next,
                    None => break,
                }
            }
            assert_eq!(delivered, injected);
            assert!(net.is_idle());
        });
    }

    #[test]
    fn mid_flight_checkpoint_resumes_bit_identically() {
        use cmp_common::persist::{ByteReader, ByteWriter, PersistState};
        let mesh = MeshShape::square(4);
        let mut net = subnet(b_spec(34), mesh);
        let mut rng = cmp_common::rng::SimRng::new(99);
        // Load the network up and advance into the thick of it.
        for now in 0..40u64 {
            for src in 0..16usize {
                if rng.chance(0.4) {
                    let dst = (src + 1 + rng.index(15)) % 16;
                    net.inject(now, msg(src, dst, 67));
                }
            }
            net.tick(now);
        }
        assert!(!net.is_idle(), "checkpoint must capture in-flight traffic");
        let mut w = ByteWriter::new();
        net.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut resumed: SubNet<u64> = subnet(b_spec(34), mesh);
        let mut r = ByteReader::new(&bytes);
        resumed.load_state(&mut r).expect("load");
        r.finish().expect("no trailing bytes");
        // Both copies must now produce the same deliveries at the same
        // cycles, down to the drained payloads.
        let drain = |n: &mut SubNet<u64>| {
            let mut log = Vec::new();
            for now in 40..100_000u64 {
                n.tick(now);
                for d in n.drain_delivered() {
                    log.push((
                        d.message.src,
                        d.message.dst,
                        d.message.payload,
                        d.delivered_at,
                    ));
                }
                if n.is_idle() {
                    break;
                }
            }
            log
        };
        let (a, b) = (drain(&mut net), drain(&mut resumed));
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(net.stats().delivered(), resumed.stats().delivered());
    }

    #[test]
    fn corrupt_checkpoint_is_a_structured_error() {
        use cmp_common::persist::{ByteReader, ByteWriter, PersistState};
        let mesh = MeshShape::square(4);
        let mut net: SubNet<u64> = subnet(b_spec(34), mesh);
        net.inject(0, msg(0, 3, 67));
        net.tick(0);
        let mut w = ByteWriter::new();
        net.save_state(&mut w);
        let bytes = w.into_bytes();
        // A checkpoint from a different mesh shape must not load.
        let mut wrong: SubNet<u64> = subnet(b_spec(34), MeshShape::square(2));
        let err = wrong
            .load_state(&mut ByteReader::new(&bytes))
            .expect_err("shape mismatch must fail");
        assert!(err.to_string().contains("machine shape"), "{err}");
        // Truncation anywhere must be an error, never a panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut fresh: SubNet<u64> = subnet(b_spec(34), mesh);
            assert!(fresh
                .load_state(&mut ByteReader::new(&bytes[..cut]))
                .is_err());
        }
    }

    /// A network caught mid-burst: flits on the wire, in buffers and
    /// mid-injection, so every checkpointed field is populated.
    fn mid_burst_net() -> SubNet<u64> {
        let mut net = subnet(b_spec(34), MeshShape::square(4));
        for src in 0..16 {
            for hop in [5, 9, 3, 14] {
                net.inject(0, msg(src, (src + hop) % 16, 67));
            }
        }
        // Eight flits per tile, seven cycles: the last two-flit message
        // of every tile is half injected.
        for now in 0..7 {
            net.tick(now);
        }
        assert!(!net.wire.is_empty() && net.buffered_total > 0);
        assert!(net.inj_progress.iter().any(|p| p.is_some()));
        net
    }

    /// Save `patched` (a valid mid-burst state with one field set to a
    /// value no run produces) and load it into a fresh network: the
    /// error message, never a panic.
    fn load_error(patched: &SubNet<u64>) -> String {
        use cmp_common::persist::{ByteReader, ByteWriter, PersistState};
        let mut w = ByteWriter::new();
        patched.save_state(&mut w);
        let bytes = w.into_bytes();
        subnet(b_spec(34), MeshShape::square(4))
            .load_state(&mut ByteReader::new(&bytes))
            .expect_err("out-of-range field must be refused")
            .to_string()
    }

    #[test]
    fn wire_flit_with_out_of_range_tile_is_refused() {
        let mut net = mid_burst_net();
        net.wire[0].dst_tile = 16;
        let err = load_error(&net);
        assert!(err.contains("wire flit destination out of range"), "{err}");
    }

    #[test]
    fn wire_flit_with_out_of_range_port_is_refused() {
        let mut net = mid_burst_net();
        net.wire[0].dst_port = LOCAL; // links end at link ports only
        let err = load_error(&net);
        assert!(err.contains("wire flit destination out of range"), "{err}");
    }

    #[test]
    fn wire_flit_with_out_of_range_vc_is_refused() {
        let mut net = mid_burst_net();
        net.wire[0].vc = 4; // VCs 0..=3 exist
        let err = load_error(&net);
        assert!(err.contains("wire flit destination out of range"), "{err}");
    }

    #[test]
    fn injection_progress_with_out_of_range_vc_is_refused() {
        let mut net = mid_burst_net();
        net.inj_progress
            .iter_mut()
            .flatten()
            .next()
            .expect("mid-injection")
            .vc = 4;
        let err = load_error(&net);
        assert!(err.contains("injection VC out of range"), "{err}");
    }

    #[test]
    fn vc_occupancy_disagreeing_with_the_rings_is_refused() {
        // a set bit over an empty ring, a clear bit over a full one, and
        // a bit past the last VC
        let occupied = mid_burst_net().vc_occupied[0];
        assert!(occupied != 0 && occupied != (1 << 20) - 1);
        for patch in [(1u32 << 20) - 1, 0, occupied | 1 << 31] {
            let mut net = mid_burst_net();
            net.vc_occupied[0] = patch;
            let err = load_error(&net);
            assert!(
                err.contains("occupancy bitmap disagrees"),
                "{patch:#x}: {err}"
            );
        }
    }

    #[test]
    fn per_tile_flit_count_disagreeing_with_the_rings_is_refused() {
        // keep the total right, so only the per-tile check can object
        let mut net = mid_burst_net();
        net.flits_buffered[0] += 1;
        let donor = (1..16)
            .find(|&t| net.flits_buffered[t] > 0)
            .expect("another busy tile");
        net.flits_buffered[donor] -= 1;
        let err = load_error(&net);
        assert!(err.contains("per-tile flit count disagrees"), "{err}");
    }

    #[test]
    fn idle_network_reports_idle() {
        let mesh = MeshShape::square(2);
        let net: SubNet<u64> = subnet(b_spec(75), mesh);
        assert!(net.is_idle());
        assert_eq!(net.next_event_cycle(10), None);
        assert!(!(0..4).any(|t| net.routers().tile_has_flits(t)));
    }
}
