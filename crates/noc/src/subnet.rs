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
    // --- activity tracking derived from the state above (rebuilt on
    // restore, never persisted) ---
    /// Bitmap of routers holding any buffered flit (bit = tile id);
    /// the iteration-order-preserving form of scanning
    /// `flits_buffered` for non-zero entries.
    router_occupied: Vec<u64>,
    /// Bitmap of tiles whose NI has injection work queued or in
    /// progress (bit = tile id).
    inj_active: Vec<u64>,
    /// Per-router cycle before which the allocation scan provably
    /// finds no eligible head flit (every buffered flit still in its
    /// router pipeline). 0 = unknown, scan. Skipping a router while
    /// `now < next_ready` changes no state, so behaviour is
    /// bit-identical to the full scan.
    next_ready: Vec<Cycle>,
    /// Bitmap of *armed* input VCs per router (bit = port·nvc + vc):
    /// non-empty, head flit out of the router pipeline, route cached.
    /// Maintained incrementally — armed on head maturation (directly or
    /// via `mature_ring`), re-evaluated on every head pop — so the
    /// allocation scan never probes buffers or compares arrival stamps;
    /// armed ⟺ the old per-cycle gather would find the VC eligible.
    vc_armed: Vec<u32>,
    /// Head-maturation calendar: slot `cycle % len` holds the
    /// (tile, flat VC) pairs whose head flit leaves the router pipeline
    /// at `cycle`. Length `pipeline_wait + 1`, so every pending
    /// maturation (at most `pipeline_wait` cycles out) has a distinct
    /// slot. An immature head cannot pop or be displaced, so entries
    /// are never stale.
    mature_ring: Vec<Vec<(u32, u32)>>,
    /// False after a state restore until [`SubNet::tick`] has rebuilt
    /// `vc_armed` and `mature_ring` (they depend on the clock, which
    /// `load_state` does not see).
    eligibility_fresh: bool,
    /// Switch-allocation scratch, hoisted out of the per-tick loop:
    /// per output port, the eligible (in_port, in_vc) requesters in
    /// ascending flat order. Bucketing at gather time lets each output
    /// arbitrate over exactly its own requesters instead of rescanning
    /// one combined list per port.
    requesters_scratch: [Vec<(u8, u8)>; PORTS],
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
    /// Build the sub-network for `spec` on `mesh`.
    pub fn new(spec: ChannelSpec, mesh: MeshShape, clock_hz: f64) -> Self {
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
            router_occupied: vec![0; bitmap_words],
            inj_active: vec![0; bitmap_words],
            next_ready: vec![0; tiles],
            vc_armed: vec![0; tiles],
            mature_ring: vec![Vec::new(); pipeline_cycles as usize],
            eligibility_fresh: true,
            requesters_scratch: Default::default(),
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
    /// router pipeline and may arbitrate from cycle `now` on. Computes
    /// the route on first need (wormhole: cached until the tail
    /// departs) and wakes the router.
    fn arm_vc(&mut self, tile: usize, fvc: usize, now: Cycle) {
        let f = self.routers.vc_index(tile, 0, 0) + fvc;
        if self.routers.route(f).is_none() {
            let msg = self
                .routers
                .front(f)
                .expect("armed VC holds flits")
                .flit
                .msg;
            let entry = self.slab[msg as usize].as_ref().expect("live");
            let d = self.route_dir(tile, entry.dst.index());
            self.routers.set_route(f, d);
        }
        self.vc_armed[tile] |= 1 << fvc;
        self.next_ready[tile] = self.next_ready[tile].min(now);
    }

    /// A freshly-exposed head flit of `(tile, fvc)` matures at `at`:
    /// arm immediately if already due, otherwise calendar it on the
    /// maturation ring.
    fn schedule_head(&mut self, tile: usize, fvc: usize, at: Cycle, now: Cycle) {
        if at <= now {
            self.arm_vc(tile, fvc, now);
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
            self.arm_vc(tile as usize, fvc as usize, now);
        }
        due.clear();
        self.mature_ring[slot] = due;
    }

    /// Rebuild `vc_armed` and `mature_ring` from the buffered flits —
    /// the clock-dependent part of a state restore, run on the first
    /// tick after `load_state`.
    fn rebuild_eligibility(&mut self, now: Cycle) {
        self.eligibility_fresh = true;
        for ring in &mut self.mature_ring {
            ring.clear();
        }
        self.vc_armed.fill(0);
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
    pub fn tick(&mut self, now: Cycle, rem: &RouterEnergyModel) {
        if !self.eligibility_fresh {
            self.rebuild_eligibility(now);
        }
        self.deliver_wire_arrivals(now);
        self.inject_flits(now);
        self.drain_matured(now);
        self.switch_traversal(now, rem);
        debug_assert_eq!(
            self.buffered_total,
            self.flits_buffered.iter().map(|&n| n as u64).sum::<u64>()
        );
        debug_assert_eq!(
            self.inject_pending,
            self.inj_queues.iter().map(|q| q.len()).sum::<usize>()
                + self.inj_progress.iter().filter(|p| p.is_some()).count()
        );
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
            set_bit(&mut self.router_occupied, wf.dst_tile);
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
        set_bit(&mut self.router_occupied, tile);
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

    /// Phase (c): switch allocation and traversal at every router
    /// holding flits, in ascending tile order (the `router_occupied`
    /// bitmap iterates exactly the tiles the full scan would visit).
    /// Routers whose buffered flits are all still inside the router
    /// pipeline are skipped via `next_ready` — provably no-op cycles.
    fn switch_traversal(&mut self, now: Cycle, rem: &RouterEnergyModel) {
        let nvc = self.spec.virtual_channels;
        let candidates = PORTS * nvc;
        for w in 0..self.router_occupied.len() {
            let mut word = self.router_occupied[w];
            while word != 0 {
                let tile = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                if now < self.next_ready[tile] {
                    continue;
                }
                self.traverse_router(now, rem, tile, nvc, candidates);
            }
        }
    }

    /// Switch allocation and traversal at one router (see
    /// [`SubNet::switch_traversal`]).
    fn traverse_router(
        &mut self,
        now: Cycle,
        rem: &RouterEnergyModel,
        tile: usize,
        nvc: usize,
        candidates: usize,
    ) {
        // Flat index of this tile's (port 0, VC 0); every input or
        // output VC of the tile is `base_tile + port·nvc + vc`.
        let base_tile = self.routers.vc_index(tile, 0, 0);
        // Output directions some eligible flit wants (bit = port index).
        let mut wanted = 0u8;
        {
            // --- gather eligible head flits once per router ---
            // `vc_armed` already encodes eligibility (non-empty, head
            // out of the pipeline, route cached — see the field doc), so
            // the gather is a pure bit scan: no front-flit loads, no
            // maturity compares. Per-port submasks keep the ascending
            // flat order of a plain scan while avoiding `/ nvc`,`% nvc`
            // divides (`nvc` is runtime config, so the compiler cannot
            // strength-reduce them). Requesters land in their output
            // port's bucket, in ascending flat order — the order the
            // combined-list scan would visit them in.
            let armed = self.vc_armed[tile];
            if armed == 0 {
                // Nothing eligible: park until an event (maturation-ring
                // drain, wire arrival, injection, 0→1 credit return)
                // arms a VC and lowers `next_ready` again.
                self.next_ready[tile] = Cycle::MAX;
                return;
            }
            let mut requesters = std::mem::take(&mut self.requesters_scratch);
            for bucket in &mut requesters {
                bucket.clear();
            }
            for in_port in 0..PORTS {
                let mut sub = (armed >> (in_port * nvc)) & ((1u32 << nvc) - 1);
                while sub != 0 {
                    let in_vc = sub.trailing_zeros() as usize;
                    sub &= sub - 1;
                    let f = base_tile + in_port * nvc + in_vc;
                    let out_dir = self.routers.route(f).expect("armed VC has a cached route");
                    wanted |= 1 << out_dir.index();
                    requesters[out_dir.index()].push((in_port as u8, in_vc as u8));
                }
            }
            self.requesters_scratch = requesters;
        }
        let mut grants = 0u32;
        {
            let mut input_used = [false; PORTS];
            for out_dir in Direction::ALL {
                let out_idx = out_dir.index();
                if wanted & (1 << out_idx) == 0 {
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
                let start = self.routers.rr(tile, out_idx);
                let fout = base_tile + out_idx * nvc; // output VC group base
                let mut grant: Option<(usize, usize, usize)> = None; // (in_port, in_vc, out_vc)
                let mut best_key = usize::MAX;
                for &(in_port, in_vc) in &self.requesters_scratch[out_idx] {
                    let (in_port, in_vc) = (in_port as usize, in_vc as usize);
                    if input_used[in_port] {
                        continue;
                    }
                    let flat = in_port * nvc + in_vc;
                    // `(flat + candidates - start) % candidates` without
                    // the runtime divide: both terms are < candidates.
                    let mut key = flat + candidates - start;
                    if key >= candidates {
                        key -= candidates;
                    }
                    if key >= best_key {
                        continue;
                    }
                    let ovc = match self.routers.out_vc(base_tile + flat) {
                        Some(v) => v,
                        None => {
                            // head flit: allocate the first free output VC
                            match (0..nvc).find(|&v| self.routers.owner(fout + v).is_none()) {
                                Some(v) => v,
                                None => continue,
                            }
                        }
                    };
                    if self.routers.credits(fout + ovc) == 0 {
                        continue;
                    }
                    grant = Some((in_port, in_vc, ovc));
                    best_key = key;
                }

                // --- apply the grant ---
                let Some((in_port, in_vc, ovc)) = grant else {
                    continue;
                };
                let next_rr = in_port * nvc + in_vc + 1;
                self.routers.set_rr(
                    tile,
                    out_idx,
                    if next_rr == candidates { 0 } else { next_rr },
                );
                input_used[in_port] = true;
                grants += 1;
                let fin = base_tile + in_port * nvc + in_vc;
                if self.routers.out_vc(fin).is_none() {
                    self.routers.set_out_vc(fin, ovc);
                }
                let bf = self.routers.pop_after_traversal(fin);
                // Re-derive the popped VC's armed bit from its new head:
                // emptied → disarm; same-message head still mature →
                // stays armed (route untouched); otherwise disarm and
                // reschedule (immediately if the new head is already
                // mature — a tail pop resets the route, so re-arming
                // recomputes it for the next message).
                let fvc = in_port * nvc + in_vc;
                if self.routers.vc_len(fin) == 0 {
                    self.vc_occupied[tile] &= !(1 << fvc);
                    self.vc_armed[tile] &= !(1 << fvc);
                } else {
                    let head_ready =
                        self.routers.front(fin).expect("non-empty").arrived + self.pipeline_wait;
                    if bf.flit.tail || head_ready > now {
                        self.vc_armed[tile] &= !(1 << fvc);
                        self.schedule_head(tile, fvc, head_ready, now);
                    }
                }
                self.flits_buffered[tile] -= 1;
                self.buffered_total -= 1;
                if self.flits_buffered[tile] == 0 {
                    clear_bit(&mut self.router_occupied, tile);
                }
                let flit = bf.flit;
                let (wire_bytes, flits_total) = {
                    let e = self.slab[flit.msg as usize].as_ref().expect("live");
                    (e.wire_bytes, e.flits_total)
                };
                debug_assert!(flit.seq < flits_total);
                let bytes = self.flit_bytes(wire_bytes, flit.seq);
                self.energy.router_dynamic += rem.flit_energy(bytes);

                // return the credit upstream (the flit freed a buffer slot)
                if in_port != LOCAL {
                    let upstream = self.neighbors[tile][in_port] as usize;
                    debug_assert_ne!(upstream, u32::MAX as usize, "flit from a real neighbor");
                    let up_out = OPPOSITE[in_port];
                    let fu = self.routers.vc_index(upstream, up_out, in_vc);
                    // A 0→1 credit transition can unblock a parked
                    // upstream router: wake it (`now`, not `now + 1`,
                    // so a later-indexed upstream still acts this very
                    // cycle, exactly like the full scan). A return onto
                    // a non-empty credit pool cannot change any
                    // arbitration outcome, so no wake is needed.
                    if self.routers.credits(fu) == 0 {
                        self.next_ready[upstream] = self.next_ready[upstream].min(now);
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
                    self.energy.link_dynamic += self.spec.channel.dyn_energy_for_bytes(bytes, 0.5);
                    self.stats.record_flit_hop(self.spec.kind);
                }
            }
        }
        // A round with grants can enable more work next cycle (freed
        // ownership, advancing wormholes): revisit. A grantless round
        // changed nothing in this router, so it parks until an event —
        // maturation-ring drain, wire arrival, NI injection, downstream
        // credit return — lowers `next_ready` again.
        self.next_ready[tile] = if grants > 0 { now } else { Cycle::MAX };
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
/// error, never a silently resized machine.
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
        self.wire = Persist::load(r)?;
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
        // Activity caches are derived, not persisted: rebuild them from
        // the restored occupancy state (next_ready = 0 means "scan", so
        // a conservative reset is always safe). Eligibility depends on
        // the clock, which this layer does not know — defer it to the
        // first tick (see `rebuild_eligibility`).
        self.router_occupied.fill(0);
        self.inj_active.fill(0);
        self.next_ready.fill(0);
        self.eligibility_fresh = false;
        for tile in 0..self.mesh.tiles() {
            if self.flits_buffered[tile] > 0 {
                set_bit(&mut self.router_occupied, tile);
            }
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
        let rem = RouterEnergyModel::default();
        let mut out = Vec::new();
        for now in 0..limit {
            net.tick(now, &rem);
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
        let mut net = SubNet::new(b_spec(75), mesh, CLOCK);
        assert_eq!(net.link_cycles(), 2);
        net.inject(0, msg(0, 1, 11));
        let d = run_until_delivered(&mut net, 100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].latency(), zero_load(1, 2, 1));
    }

    #[test]
    fn corner_to_corner_latency() {
        let mesh = MeshShape::square(4);
        let mut net = SubNet::new(b_spec(75), mesh, CLOCK);
        net.inject(0, msg(0, 15, 11)); // 6 hops
        let d = run_until_delivered(&mut net, 200);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].latency(), zero_load(6, 2, 1));
    }

    #[test]
    fn multi_flit_serialisation_adds_tail_cycles() {
        let mesh = MeshShape::square(4);
        let mut net = SubNet::new(b_spec(34), mesh, CLOCK);
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
        let mut vl_net = SubNet::new(vl, mesh, CLOCK);
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
        let mut net = SubNet::new(b_spec(75), mesh, CLOCK);
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
        let mut net = SubNet::new(b_spec(34), mesh, CLOCK);
        let mut injected = 0u64;
        let rem = RouterEnergyModel::default();
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
            net.tick(now, &rem);
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
            let mut net = SubNet::new(b_spec(34), mesh, CLOCK);
            let mut rng = cmp_common::rng::SimRng::new(7);
            let mut log = Vec::new();
            let rem = RouterEnergyModel::default();
            for now in 0..5_000u64 {
                if now < 1_000 {
                    for src in 0..16usize {
                        if rng.chance(0.3) {
                            let dst = (src + 1 + rng.index(15)) % 16;
                            net.inject(now, msg(src, dst, 67));
                        }
                    }
                }
                net.tick(now, &rem);
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
        let mut net = SubNet::new(b_spec(75), mesh, CLOCK);
        net.inject(0, msg(0, 15, 11));
        let rem = RouterEnergyModel::default();
        // run with fast-forward and check the result matches zero-load
        let mut now = 0;
        let mut delivered = Vec::new();
        while !net.is_idle() {
            net.tick(now, &rem);
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
        let mut net = SubNet::new(b_spec(75), mesh, CLOCK);
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
        let mut net = SubNet::new(spec, mesh, CLOCK);
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
        let mut net = SubNet::new(spec, mesh, CLOCK);
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
        let mut fast = SubNet::new(express, mesh, CLOCK);
        let mut slow = SubNet::new(b_spec(34), mesh, CLOCK);
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
            let mut net = SubNet::new(b_spec(34), mesh, CLOCK);
            let rem = RouterEnergyModel::default();
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
                net.tick(now, &rem);
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
            let mut net = SubNet::new(b_spec(34), mesh, CLOCK);
            let rem = RouterEnergyModel::default();
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
                net.tick(now, &rem);
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
        let mut net = SubNet::new(b_spec(34), mesh, CLOCK);
        let rem = RouterEnergyModel::default();
        let mut rng = cmp_common::rng::SimRng::new(99);
        // Load the network up and advance into the thick of it.
        for now in 0..40u64 {
            for src in 0..16usize {
                if rng.chance(0.4) {
                    let dst = (src + 1 + rng.index(15)) % 16;
                    net.inject(now, msg(src, dst, 67));
                }
            }
            net.tick(now, &rem);
        }
        assert!(!net.is_idle(), "checkpoint must capture in-flight traffic");
        let mut w = ByteWriter::new();
        net.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut resumed: SubNet<u64> = SubNet::new(b_spec(34), mesh, CLOCK);
        let mut r = ByteReader::new(&bytes);
        resumed.load_state(&mut r).expect("load");
        r.finish().expect("no trailing bytes");
        // Both copies must now produce the same deliveries at the same
        // cycles, down to the drained payloads.
        let drain = |n: &mut SubNet<u64>| {
            let mut log = Vec::new();
            for now in 40..100_000u64 {
                n.tick(now, &rem);
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
        let mut net: SubNet<u64> = SubNet::new(b_spec(34), mesh, CLOCK);
        net.inject(0, msg(0, 3, 67));
        let rem = RouterEnergyModel::default();
        net.tick(0, &rem);
        let mut w = ByteWriter::new();
        net.save_state(&mut w);
        let bytes = w.into_bytes();
        // A checkpoint from a different mesh shape must not load.
        let mut wrong: SubNet<u64> = SubNet::new(b_spec(34), MeshShape::square(2), CLOCK);
        let err = wrong
            .load_state(&mut ByteReader::new(&bytes))
            .expect_err("shape mismatch must fail");
        assert!(err.to_string().contains("machine shape"), "{err}");
        // Truncation anywhere must be an error, never a panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut fresh: SubNet<u64> = SubNet::new(b_spec(34), mesh, CLOCK);
            assert!(fresh
                .load_state(&mut ByteReader::new(&bytes[..cut]))
                .is_err());
        }
    }

    #[test]
    fn idle_network_reports_idle() {
        let mesh = MeshShape::square(2);
        let net: SubNet<u64> = SubNet::new(b_spec(75), mesh, CLOCK);
        assert!(net.is_idle());
        assert_eq!(net.next_event_cycle(10), None);
        assert!(!(0..4).any(|t| net.routers().tile_has_flits(t)));
    }
}
