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
//!
//! ## Links as delay lines
//!
//! A link's latency is fixed and a granted flit already holds a credit
//! for its downstream slot, so a link needs no queue of its own: the
//! grant pushes the flit straight into the downstream input VC stamped
//! `arrived = now + link_cycles`. Nothing reads a flit before its stamp
//! plus the router pipeline — a VC is armed only by the head-maturation
//! ring, at `front.arrived + pipeline − 1` — so the early push is
//! invisible to arbitration. One tick is then three phases: (a) network
//! interface injection, (b) arming the VCs whose head matures now, (c)
//! switch allocation and traversal, link included.
//!
//! Checkpoints keep the byte form of the link queue this replaced (see
//! the [`PersistState`] impl): a flit stamped after `clock` — the last
//! cycle the caller's clock has passed — is written as a wire flit.

use std::collections::VecDeque;

use cmp_common::geometry::{Direction, MeshShape};
use cmp_common::types::{Cycle, MessageClass, TileId};
use cmp_common::units::Joules;

use crate::config::ChannelSpec;
use crate::energy::{NocEnergy, RouterEnergyModel};
use crate::message::{Delivered, Message};
use crate::router::{Flit, RouterArray, LOCAL, NO_OUT, NO_ROUTE, PORTS};
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

/// Bytes of flit `seq` of a `wire_bytes` message on a `width`-byte
/// channel.
fn flit_bytes(width: usize, wire_bytes: usize, seq: u32) -> usize {
    wire_bytes
        .saturating_sub(seq as usize * width)
        .min(width)
        .max(1)
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
    /// Input buffers, which double as the links' delay lines: a flit
    /// stamped after the current cycle is still on its link.
    routers: RouterArray,
    /// The cycle before the caller's next one: flits stamped after it
    /// are on a link. Set by [`SubNet::tick`] and by
    /// [`SubNet::set_clock`] (for a skipped cycle, or the caller's
    /// fast-forward); read only by checkpoints and diagnostics.
    clock: Cycle,
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
    /// Request word per output port, `req[tile·PORTS + out]`: the
    /// *armed* input VCs (bit = port·nvc + vc) — non-empty, head flit
    /// out of the router pipeline, route cached — whose route is `out`.
    /// Set on head maturation (directly or via `mature_ring`), cleared
    /// or kept on every head pop, so switch allocation never probes
    /// buffers or compares arrival stamps, and an output port
    /// arbitrates over one word.
    req: Vec<u32>,
    /// Per tile: bitmap of the output ports whose request word is
    /// non-zero, so allocation visits only requested outputs.
    out_req: Vec<u8>,
    /// Bitmap of routers switch allocation must visit (bit = tile id):
    /// set when a VC is armed and when a 0→1 credit return reaches a
    /// router with a request for that output, cleared when a visit
    /// grants nothing or leaves nothing armed. A router off the bitmap
    /// cannot grant: its state only changes through those two events.
    router_ready: Vec<u64>,
    /// Head-maturation calendar: slot `cycle % len` holds the
    /// (tile, flat VC) pairs whose head flit leaves the router pipeline
    /// at `cycle`. Length `pipeline + link_cycles`, so every pending
    /// maturation — at most a link traversal plus `pipeline_wait`
    /// cycles out — has a distinct slot. An immature head cannot pop or
    /// be displaced, so entries are never stale.
    mature_ring: Vec<Vec<(u32, u32)>>,
    /// False after a state restore until [`SubNet::tick`] has rebuilt
    /// `req`, `out_req`, `router_ready` and `mature_ring` (they depend
    /// on the clock, which `load_state` does not see).
    eligibility_fresh: bool,
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
        assert!(tiles <= 1 << 16, "flits carry their destination as a u16");
        assert!(
            spec.channel.width_bytes <= u8::MAX as usize,
            "flits carry their byte count as a u8"
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
            clock: 0,
            coords,
            neighbors,
            flat_port,
            router_energy_by_bytes: flit_sizes.clone().map(|b| rem.flit_energy(b)).collect(),
            link_energy_by_bytes: flit_sizes
                .map(|b| spec.channel.dyn_energy_for_bytes(b, 0.5))
                .collect(),
            inj_active: vec![0; bitmap_words],
            req: vec![0; tiles * PORTS],
            out_req: vec![0; tiles],
            router_ready: vec![0; bitmap_words],
            mature_ring: vec![Vec::new(); (pipeline_cycles + link_cycles) as usize],
            eligibility_fresh: true,
            inj_queues: (0..tiles).map(|_| VecDeque::new()).collect(),
            inj_progress: vec![None; tiles],
            link_flits: vec![[0; 4]; tiles],
            slab: Vec::new(),
            free_slots: Vec::new(),
            live_msgs: 0,
            delivered: Vec::new(),
            energy: NocEnergy::default(),
            stats: NocStats::new(),
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

    /// Record that the caller's clock has passed `clock` without a
    /// [`SubNet::tick`] (nothing was due): checkpoints from here on
    /// count a flit stamped at or before it as arrived.
    pub(crate) fn set_clock(&mut self, clock: Cycle) {
        self.clock = clock;
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

    /// XY route from `tile` towards `dst` as an output-port index
    /// ([`Direction::index`]: East 0, West 1, North 2, South 3, local
    /// 4), via the precomputed coordinate table.
    #[inline]
    fn route_port(&self, tile: usize, dst: usize) -> usize {
        let (cx, cy) = self.coords[tile];
        let (dx, dy) = self.coords[dst];
        if dx != cx {
            usize::from(dx < cx)
        } else if dy != cy {
            2 + usize::from(dy > cy)
        } else {
            LOCAL
        }
    }

    /// Arm input VC `fvc` of `tile`: its head flit has cleared the
    /// router pipeline and may arbitrate from this cycle on. Computes
    /// the route from the flit's own destination on first need
    /// (wormhole: cached until the tail departs), files the request
    /// with that output port and readies the router.
    fn arm_vc(&mut self, tile: usize, fvc: usize) {
        let f = self.routers.vc_index(tile, 0, 0) + fvc;
        let out = match self.routers.inputs[f].route {
            NO_ROUTE => {
                let dst = self
                    .routers
                    .front(f)
                    .expect("armed VC holds flits")
                    .flit
                    .dst;
                let port = self.route_port(tile, dst as usize);
                self.routers.inputs[f].route = port as u8;
                port
            }
            port => port as usize,
        };
        self.req[tile * PORTS + out] |= 1 << fvc;
        self.out_req[tile] |= 1 << out;
        set_bit(&mut self.router_ready, tile);
    }

    /// Withdraw input VC `fvc`'s request for output `out` of `tile`.
    #[inline]
    fn disarm(&mut self, tile: usize, fvc: usize, out: usize) {
        let word = &mut self.req[tile * PORTS + out];
        *word &= !(1 << fvc);
        if *word == 0 {
            self.out_req[tile] &= !(1 << out);
        }
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

    /// Rebuild `req`, `out_req`, `router_ready` and `mature_ring` from
    /// the buffered flits — the clock-dependent part of a state
    /// restore, run on the first tick after `load_state`. Every router
    /// with an armed VC comes back ready; one that was parked grantless
    /// is visited once more, grants nothing again and parks.
    fn rebuild_eligibility(&mut self, now: Cycle) {
        self.eligibility_fresh = true;
        for ring in &mut self.mature_ring {
            ring.clear();
        }
        self.req.fill(0);
        self.out_req.fill(0);
        self.router_ready.fill(0);
        for tile in 0..self.mesh.tiles() {
            for fvc in 0..PORTS * self.spec.virtual_channels {
                let f = self.routers.vc_index(tile, 0, 0) + fvc;
                if let Some(front) = self.routers.front(f) {
                    let at = front.arrived + self.pipeline_wait;
                    self.schedule_head(tile, fvc, at, now);
                }
            }
        }
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
        self.clock = now;
        if !self.eligibility_fresh {
            self.rebuild_eligibility(now);
        }
        self.inject_flits(now);
        self.drain_matured(now);
        self.switch_traversal(now);
        debug_assert_eq!(
            self.inject_pending,
            self.inj_queues.iter().map(|q| q.len()).sum::<usize>()
                + self.inj_progress.iter().filter(|p| p.is_some()).count()
        );
        debug_assert!(self.masks_consistent(now));
    }

    /// Whether the event-kept masks agree with the state they are
    /// derived from (debug builds check this after every tick): per
    /// tile the request words are disjoint, `out_req` marks exactly the
    /// non-zero ones, every requesting VC's cached route is that output
    /// and its head is out of the pipeline, and a router that requests
    /// yet is off the ready bitmap has nothing it could grant — its last
    /// visit granted nothing and no event since changed that.
    fn masks_consistent(&self, now: Cycle) -> bool {
        (0..self.mesh.tiles()).all(|tile| {
            let base_tile = self.routers.vc_index(tile, 0, 0);
            let ready = self.router_ready[tile >> 6] & (1 << (tile & 63)) != 0;
            let mut union = 0u32;
            let mut sound = true;
            let mut grantable = false;
            for out in 0..PORTS {
                let group = tile * PORTS + out;
                let word = self.req[group];
                sound &= (word != 0) == (self.out_req[tile] & (1 << out) != 0);
                sound &= union & word == 0;
                union |= word;
                let mut bits = word;
                while bits != 0 {
                    let fin = base_tile + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    sound &= self.routers.inputs[fin].route as usize == out
                        && self
                            .routers
                            .front(fin)
                            .is_some_and(|bf| bf.arrived + self.pipeline_wait <= now);
                    grantable |= self.grantable_out_vc(fin, group).is_some();
                }
            }
            sound && (ready || !grantable)
        })
    }

    /// Phase (a): each tile's network interface feeds at most one flit per
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

    /// One tile's injection step (see [`SubNet::inject_flits`]). The only
    /// slab read on a flit's way to its destination: the flit takes its
    /// message's destination and its own byte count with it.
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
                .max_by_key(|&v| {
                    self.routers.capacity() - self.routers.inputs[base + v].len as usize
                });
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
        let flit = Flit {
            msg: p.slot,
            seq: p.next_seq,
            dst: entry.dst.index() as u16,
            bytes: flit_bytes(self.spec.channel.width_bytes, entry.wire_bytes, p.next_seq) as u8,
            tail: p.next_seq + 1 == entry.flits_total,
        };
        self.routers.push(f, flit, now);
        if self.routers.inputs[f].len == 1 {
            let fvc = LOCAL * self.spec.virtual_channels + p.vc;
            self.schedule_head(tile, fvc, now + self.pipeline_wait, now);
        }
        p.next_seq += 1;
        if flit.tail {
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

    /// The output VC of port group `group` (`tile·PORTS + out`) that
    /// input VC `fin` may send its head flit to right now: the one its
    /// message already holds, or for a head flit the lowest free one —
    /// provided a downstream buffer slot (credit) is left.
    #[inline]
    fn grantable_out_vc(&self, fin: usize, group: usize) -> Option<usize> {
        let ovc = match self.routers.inputs[fin].out_vc {
            NO_OUT => match self.routers.ports[group].ovc_free {
                0 => return None,
                free => free.trailing_zeros() as usize,
            },
            v => v as usize,
        };
        let fout = group * self.spec.virtual_channels + ovc;
        (self.routers.outputs[fout].credits != 0).then_some(ovc)
    }

    /// Switch allocation and traversal at one router (see
    /// [`SubNet::switch_traversal`]).
    fn traverse_router(&mut self, now: Cycle, tile: usize) {
        let nvc = self.spec.virtual_channels;
        let candidates = PORTS * nvc;
        // Flat index of this tile's (port 0, VC 0); every input VC of
        // the tile is `base_tile + port·nvc + vc`.
        let base_tile = self.routers.vc_index(tile, 0, 0);
        let port_vcs = (1u32 << nvc) - 1;
        // Input VCs of every input port granted so far this cycle (one
        // flit per input port per cycle).
        let mut used_inputs = 0u32;
        // The outputs requested on entry, in port order. A grant can
        // re-arm its VC towards an output not in this set, but that
        // VC's input port is then used for the cycle, so the output
        // would have nothing to grant.
        let mut outs = self.out_req[tile];
        while outs != 0 {
            let out_idx = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let group = tile * PORTS + out_idx;
            let requests = self.req[group] & !used_inputs;
            if requests == 0 {
                continue; // every head this way sits on a used input
            }
            let downstream = if out_idx == LOCAL {
                tile
            } else {
                match self.neighbors[tile][out_idx] {
                    u32::MAX => continue, // mesh edge: no such link
                    n => n as usize,
                }
            };

            // --- round-robin selection among this port's requests ---
            // The first request at or after the pointer that can be
            // granted, wrapping to the ones below it.
            let below_start = (1u32 << self.routers.ports[group].rr) - 1;
            let mut grant: Option<(usize, usize)> = None; // (input flat VC, out_vc)
            'scan: for mut half in [requests & !below_start, requests & below_start] {
                while half != 0 {
                    let fvc = half.trailing_zeros() as usize;
                    half &= half - 1;
                    if let Some(ovc) = self.grantable_out_vc(base_tile + fvc, group) {
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
            let next_rr = if fvc + 1 == candidates { 0 } else { fvc + 1 };
            self.routers.ports[group].rr = next_rr as u32;
            used_inputs |= port_vcs << (in_port * nvc);
            let fin = base_tile + fvc;
            let flit = self.routers.pop_after_traversal(fin).flit;
            // Wormhole ownership: a head claims the output VC until its
            // tail leaves. A one-flit message (head = tail) would claim
            // and free it in this same grant, so it touches neither.
            match (flit.is_head(), flit.tail) {
                (true, false) => {
                    self.routers.inputs[fin].out_vc = ovc as u8;
                    self.routers.claim_out_vc(group, ovc, (in_port, in_vc));
                }
                (false, true) => self.routers.release_out_vc(group, ovc),
                _ => {}
            }
            // Re-derive the popped VC's request from its new head:
            // emptied → disarm; same-message head already mature →
            // stays armed (route untouched); otherwise disarm and
            // reschedule (immediately if the new head is already
            // mature — a tail pop resets the route, so re-arming
            // recomputes it for the next message). The request sits in
            // this output's word: the granted output is the popped VC's
            // route. A new head still on its link is simply immature.
            match self
                .routers
                .front(fin)
                .map(|bf| bf.arrived + self.pipeline_wait)
            {
                None => self.disarm(tile, fvc, out_idx),
                Some(head_ready) => {
                    if flit.tail || head_ready > now {
                        self.disarm(tile, fvc, out_idx);
                        self.schedule_head(tile, fvc, head_ready, now);
                    }
                }
            }
            self.energy.router_dynamic += self.router_energy_by_bytes[flit.bytes as usize];

            // return the credit upstream (the flit freed a buffer slot)
            if in_port != LOCAL {
                let upstream = self.neighbors[tile][in_port] as usize;
                debug_assert_ne!(upstream, u32::MAX as usize, "flit from a real neighbor");
                let up_group = upstream * PORTS + OPPOSITE[in_port];
                let fu = up_group * nvc + in_vc;
                // A 0→1 credit transition can unblock a parked upstream
                // router, and only through a request for that output:
                // ready it (a later-indexed upstream still acts this
                // very cycle, exactly like the full scan). A return
                // onto a non-empty credit pool cannot change any
                // arbitration outcome.
                if self.routers.outputs[fu].credits == 0 && self.req[up_group] != 0 {
                    set_bit(&mut self.router_ready, upstream);
                }
                self.routers.add_credit(fu);
            }

            if out_idx == LOCAL {
                // Ejection: the other slab access of a flit's life.
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
                // Link traversal: the flit enters the downstream buffer
                // now, stamped with the cycle it comes off the link (the
                // credit just spent reserved its slot). If it is that
                // VC's front, its head matures a link traversal plus the
                // pipeline from now.
                self.routers.spend_credit(group * nvc + ovc);
                self.link_flits[tile][out_idx] += 1;
                let fvc_down = OPPOSITE[out_idx] * nvc + ovc;
                let f_down = self.routers.vc_index(downstream, 0, 0) + fvc_down;
                let arrives = now + self.link_cycles;
                let exposed = self.routers.inputs[f_down].len == 0;
                self.routers.push(f_down, flit, arrives);
                if exposed {
                    self.schedule_head(downstream, fvc_down, arrives + self.pipeline_wait, now);
                }
                self.energy.link_dynamic += self.link_energy_by_bytes[flit.bytes as usize];
                self.stats.record_flit_hop(self.spec.kind);
            }
        }
        // A round with grants can enable more work next cycle (freed
        // ownership, advancing wormholes): stay ready while anything is
        // armed. A grantless round changed nothing in this router, so
        // it parks until an event — a VC armed by the maturation ring
        // or an injection, or a 0→1 credit return — readies it again.
        if used_inputs == 0 || self.out_req[tile] == 0 {
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

    /// Whether the next tick has work whatever the maturation ring
    /// holds: an NI is injecting, a router is ready, or a restore left
    /// the masks to rebuild.
    fn busy(&self) -> bool {
        self.inject_pending > 0
            || !self.eligibility_fresh
            || self.router_ready.iter().any(|&w| w != 0)
    }

    /// Whether `tick(now)` can make any progress: the sub-network is
    /// busy (an NI injecting, a router ready, masks to rebuild) or a
    /// head matures at `now`. O(1) in the
    /// flits held, so a sub-network that only waits — on its links or
    /// its router pipelines — is skipped entirely.
    pub fn has_work(&self, now: Cycle) -> bool {
        self.busy() || !self.mature_ring[(now % self.mature_ring.len() as u64) as usize].is_empty()
    }

    /// The next cycle at which `tick` makes progress, given the state
    /// after `tick(now)` (`None` when idle; always > `now`): the next
    /// cycle while busy, otherwise the next non-empty maturation slot —
    /// every flit still on a link or in a router pipeline is due there,
    /// so the cycles before it hold nothing to do and the caller may
    /// skip them. Flits held with nothing scheduled cannot occur in a
    /// running network (every blocked head waits on one that is ready
    /// or maturing); should it, the answer is the next cycle, which
    /// only costs a visit.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle() {
            return None;
        }
        if self.busy() {
            return Some(now + 1);
        }
        let len = self.mature_ring.len() as u64;
        let matures =
            (now + 1..now + len).find(|at| !self.mature_ring[(at % len) as usize].is_empty());
        Some(matures.unwrap_or(now + 1))
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

    /// Flits buffered in `tile`'s router — arrived, not on a link
    /// (diagnostic snapshot; walks the tile's buffers).
    pub fn buffered_flits(&self, tile: usize) -> u32 {
        let base = self.routers.vc_index(tile, 0, 0);
        (base..base + PORTS * self.spec.virtual_channels)
            .map(|f| self.routers.arrived_len(f, self.clock) as u32)
            .sum()
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

cmp_common::impl_persist!(InjProgress { slot, vc, next_seq });

/// A flit on a link in the checkpoint's byte form: `(flit, arrival,
/// dst_tile, dst_port, vc)` — the record of the link queue the buffers
/// replaced.
fn save_wire_flit(
    w: &mut ByteWriter,
    flit: &Flit,
    arrival: Cycle,
    (tile, port, vc): (usize, usize, usize),
) {
    flit.save(w);
    w.u64(arrival);
    w.usize(tile);
    w.usize(port);
    w.usize(vc);
}

/// Spec, mesh and derived timing are configuration; everything that moves
/// — router buffers, flits on links, injection queues, the in-flight slab
/// and the accumulators — is checkpointed. Per-tile vectors load through
/// the slice helpers, so bytes from a different mesh shape are a
/// structured error, never a silently resized machine; stored tile, port,
/// VC and slab indices are range-checked for the same reason, and the
/// counts, stamps and credits must agree with each other as in any run.
///
/// The byte form is that of the link queue the buffers replaced: router
/// queues hold the flits stamped at or before `clock`, followed by
/// per-tile buffered counts, occupancy bitmaps and the flits still on a
/// link as wire flits in that queue's order — by arrival, then sending
/// tile, then output port, which is the order one grant per output and
/// ascending router visits pushed them in.
impl<P: Persist> PersistState for SubNet<P> {
    fn save_state(&self, w: &mut ByteWriter) {
        let tiles = self.mesh.tiles();
        let nvc = self.spec.virtual_channels;
        self.routers.save_arrived(w, self.clock);
        let mut flits_buffered = vec![0u32; tiles];
        let mut vc_occupied = vec![0u32; tiles];
        // (arrival, sending tile, output port, flit, (tile, port, vc))
        let mut wire = Vec::new();
        for tile in 0..tiles {
            for fvc in 0..PORTS * nvc {
                let f = self.routers.vc_index(tile, 0, 0) + fvc;
                let arrived = self.routers.arrived_len(f, self.clock);
                flits_buffered[tile] += arrived as u32;
                vc_occupied[tile] |= u32::from(arrived > 0) << fvc;
                let port = self.flat_port[fvc] as usize;
                for bf in self.routers.flits(f).skip(arrived) {
                    let from = self.neighbors[tile][port];
                    let dst = (tile, port, fvc - port * nvc);
                    wire.push((bf.arrived, from, OPPOSITE[port], bf.flit, dst));
                }
            }
        }
        wire.sort_unstable_by_key(|&(arrival, from, out, ..)| (arrival, from, out));
        flits_buffered.save(w);
        vc_occupied.save(w);
        w.usize(wire.len());
        for (arrival, _, _, flit, dst) in &wire {
            save_wire_flit(w, flit, *arrival, *dst);
        }
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
        w.u64(flits_buffered.iter().map(|&n| n as u64).sum());
        self.inject_pending.save(w);
    }

    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        let tiles = self.mesh.tiles();
        let nvc = self.spec.virtual_channels;
        let vcs = tiles * PORTS * nvc;
        self.routers.load_arrived(r)?;
        let flits_buffered: Vec<u32> = Persist::load(r)?;
        if flits_buffered.len() != tiles {
            return Err(r.err("per-tile flit counts do not match machine shape"));
        }
        let vc_occupied: Vec<u32> = Persist::load(r)?;
        if vc_occupied.len() != tiles {
            return Err(r.err("VC occupancy bitmap count does not match machine shape"));
        }
        // The occupancy bitmap and per-tile counts must describe the
        // rings just loaded, exactly.
        for tile in 0..tiles {
            let base_tile = self.routers.vc_index(tile, 0, 0);
            let (mut occupied, mut buffered) = (0u32, 0usize);
            for fvc in 0..PORTS * nvc {
                let len = self.routers.inputs[base_tile + fvc].len as usize;
                occupied |= u32::from(len > 0) << fvc;
                buffered += len;
            }
            if vc_occupied[tile] != occupied {
                return Err(r.err("VC occupancy bitmap disagrees with buffered flits"));
            }
            if flits_buffered[tile] as usize != buffered {
                return Err(r.err("per-tile flit count disagrees with buffered flits"));
            }
        }
        // Flits on links go back into the buffers they are bound for,
        // in arrival order, after every flit that has arrived.
        let last_arrived = (0..vcs)
            .flat_map(|f| self.routers.flits(f))
            .map(|bf| bf.arrived)
            .max();
        let in_flight = r.len_prefix()?;
        let mut first_in_flight = None;
        // no flit comes off a link before cycle 1
        let mut prev_arrival = 1;
        for _ in 0..in_flight {
            let flit = Flit::load(r)?;
            let arrival = r.u64()?;
            let (tile, port, vc) = (r.usize()?, r.usize()?, r.usize()?);
            if tile >= tiles || port >= LOCAL || vc >= nvc {
                return Err(r.err("wire flit destination out of range"));
            }
            if arrival < prev_arrival {
                return Err(r.err("wire flits out of arrival order"));
            }
            if last_arrived.is_some_and(|a| a >= arrival) {
                return Err(r.err("buffered flit stamped after an in-flight one"));
            }
            prev_arrival = arrival;
            first_in_flight.get_or_insert(arrival);
            let f = self.routers.vc_index(tile, port, vc);
            if !self.routers.has_space(f) {
                return Err(r.err("wire flits overflow their input VC buffer"));
            }
            self.routers.push(f, flit, arrival);
        }
        self.clock = first_in_flight.map_or(Cycle::MAX, |a| a - 1);
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
        let buffered_total = r.u64()?;
        self.inject_pending = Persist::load(r)?;
        // Cross-checks mirroring the tick()-time invariants: corrupt
        // state must surface here, not as a panic or a wedged run.
        if buffered_total != flits_buffered.iter().map(|&n| n as u64).sum::<u64>() {
            return Err(r.err("buffered-flit total disagrees with per-tile counts"));
        }
        if self.inject_pending
            != self.inj_queues.iter().map(|q| q.len()).sum::<usize>()
                + self.inj_progress.iter().filter(|p| p.is_some()).count()
        {
            return Err(r.err("inject-pending counter disagrees with queues"));
        }
        self.check_slab(r)?;
        // Every held flit names a live message and a flit position in
        // it; take its route inputs from there.
        let width = self.spec.channel.width_bytes;
        for f in 0..vcs {
            for bf in self.routers.flits_mut(f) {
                let (seq, tail) = (bf.flit.seq, bf.flit.tail);
                let named = self
                    .slab
                    .get(bf.flit.msg as usize)
                    .and_then(Option::as_ref)
                    .filter(|e| seq < e.flits_total && tail == (seq + 1 == e.flits_total));
                let Some(e) = named else {
                    return Err(r.err("buffered flit names no in-flight message"));
                };
                bf.flit.dst = e.dst.index() as u16;
                bf.flit.bytes = flit_bytes(width, e.wire_bytes, seq) as u8;
            }
        }
        self.check_link_credits(r)?;
        // Activity caches are derived, not persisted: rebuild the
        // injection bitmap from the restored queues. Eligibility
        // (requests, ready routers, the maturation ring) depends on the
        // clock, which this layer does not know — defer it to the first
        // tick (see `rebuild_eligibility`).
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

impl<P> SubNet<P> {
    /// Load-time check of the in-flight slab against what refers to it:
    /// every live entry holds its payload and a destination on the mesh,
    /// the free list names each empty slot exactly once, the live count
    /// is the live entries', and the NI queues name live messages.
    fn check_slab(&self, r: &ByteReader) -> Result<(), PersistError> {
        let tiles = self.mesh.tiles();
        if self
            .slab
            .iter()
            .flatten()
            .any(|e| e.msg.is_none() || e.dst.index() >= tiles)
        {
            return Err(r.err("in-flight message without payload or destination"));
        }
        let mut free = vec![false; self.slab.len()];
        for &slot in &self.free_slots {
            match free.get_mut(slot as usize) {
                Some(seen) if !*seen && self.slab[slot as usize].is_none() => *seen = true,
                _ => return Err(r.err("free-slot list disagrees with the slab")),
            }
        }
        if self.live_msgs != self.slab.len() - self.free_slots.len()
            || free.iter().zip(&self.slab).any(|(&f, e)| !f && e.is_none())
        {
            return Err(r.err("live message count disagrees with the slab"));
        }
        let live = |slot: u32| self.slab.get(slot as usize).is_some_and(Option::is_some);
        let queued_ok = self.inj_queues.iter().flatten().all(|&slot| live(slot));
        let progress_ok = self.inj_progress.iter().flatten().all(|p| {
            live(p.slot)
                && self.slab[p.slot as usize]
                    .as_ref()
                    .is_some_and(|e| p.next_seq < e.flits_total)
        });
        if !queued_ok || !progress_ok {
            return Err(r.err("injection queue names no in-flight message"));
        }
        Ok(())
    }

    /// Load-time credit conservation: on every link VC, the upstream
    /// output VC's credits plus the flits buffered downstream or on the
    /// link equal the buffer depth (both sit in the downstream ring);
    /// an input VC at a mesh edge holds nothing.
    fn check_link_credits(&self, r: &ByteReader) -> Result<(), PersistError> {
        let depth = self.routers.capacity();
        for (tile, ups) in self.neighbors.iter().enumerate() {
            for (port, &up) in ups.iter().enumerate() {
                for vc in 0..self.spec.virtual_channels {
                    let held =
                        self.routers.inputs[self.routers.vc_index(tile, port, vc)].len as usize;
                    let conserved = match up {
                        u32::MAX => held == 0,
                        up => {
                            let fu = self.routers.vc_index(up as usize, OPPOSITE[port], vc);
                            self.routers.outputs[fu].credits as usize + held == depth
                        }
                    };
                    if !conserved {
                        return Err(
                            r.err("link credits disagree with buffered and in-flight flits")
                        );
                    }
                }
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
    use wire_model::wires::{VlWidth, WireClass};

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

    /// VL-like channel: 4 bytes wide, 1-cycle links.
    fn vl_spec() -> ChannelSpec {
        ChannelSpec {
            kind: ChannelKind::Vl,
            channel: Channel::new(WireClass::VL(VlWidth::FourBytes), 4, 5.0),
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

    fn saved(net: &SubNet<u64>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        net.save_state(&mut w);
        w.into_bytes()
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
        let mut vl_net = subnet(vl_spec(), mesh);
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
        let mut ticks = 0;
        let mut delivered = Vec::new();
        while !net.is_idle() {
            net.tick(now);
            ticks += 1;
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
        // one injection, then one grant per router on the path: link
        // flight and the router pipelines are skipped
        assert_eq!(ticks, 1 + 7, "ticked {ticks} times");
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
    fn next_event_driven_copy_matches_a_copy_ticked_every_cycle() {
        use cmp_common::randtest::{run_cases, usize_in};
        // Skipping what next_event_cycle says holds nothing — link
        // flight, router pipelines — and the ticks has_work declines
        // must not move a delivery, a link counter, a statistic or an
        // energy bit: on B (2-cycle links) and VL (1-cycle links), with
        // 1- and 3-stage routers.
        let mut skipped = 0;
        run_cases("next_event_equivalence", 16, |rng| {
            let mut spec = if rng.chance(0.5) {
                b_spec(34)
            } else {
                vl_spec()
            };
            spec.router_pipeline_cycles = if rng.chance(0.5) { 1 } else { 3 };
            let mesh = MeshShape::square(4);
            let inject_until = usize_in(rng, 50, 800) as u64;
            let rate = 0.01 + rng.f64() * 0.2;
            let mut schedule = Vec::new();
            for now in 0..inject_until {
                for src in 0..16usize {
                    if rng.chance(rate) {
                        let dst = (src + 1 + rng.index(15)) % 16;
                        let mut m = msg(src, dst, [4, 11, 67][rng.index(3)]);
                        m.payload = schedule.len() as u64;
                        schedule.push((now, m));
                    }
                }
            }
            type Log = Vec<(u64, Cycle)>;
            let log = |net: &mut SubNet<u64>, out: &mut Log| {
                out.extend(
                    net.drain_delivered()
                        .into_iter()
                        .map(|d| (d.message.payload, d.delivered_at)),
                );
            };

            let mut every = subnet(spec, mesh);
            let (mut every_log, mut next, mut last) = (Log::new(), 0, 0);
            for now in 0..1_000_000 {
                last = now;
                while next < schedule.len() && schedule[next].0 == now {
                    every.inject(now, schedule[next].1.clone());
                    next += 1;
                }
                every.tick(now);
                log(&mut every, &mut every_log);
                if next == schedule.len() && every.is_idle() {
                    break;
                }
            }

            let mut skip = subnet(spec, mesh);
            let (mut skip_log, mut next, mut now, mut ticks) = (Log::new(), 0, 0, 0u64);
            loop {
                while next < schedule.len() && schedule[next].0 == now {
                    skip.inject(now, schedule[next].1.clone());
                    next += 1;
                }
                if skip.has_work(now) {
                    skip.tick(now);
                    ticks += 1;
                } else {
                    skip.set_clock(now);
                }
                log(&mut skip, &mut skip_log);
                let injects = schedule.get(next).map(|&(at, _)| at);
                match skip.next_event_cycle(now).into_iter().chain(injects).min() {
                    Some(at) if at <= last => now = at,
                    _ => break,
                }
            }

            assert_eq!(every_log.len(), schedule.len(), "traffic must drain");
            assert_eq!(skip_log, every_log, "cycle-exact delivery log");
            assert_eq!(saved(&skip), saved(&every), "counters, stats, energy");
            skipped += every_log.iter().map(|&(_, at)| at + 1).max().unwrap_or(0) - ticks;
        });
        assert!(skipped > 0, "no case skipped a cycle");
    }

    #[test]
    fn mid_flight_checkpoint_resumes_bit_identically() {
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
        let bytes = saved(&net);
        let mut resumed: SubNet<u64> = subnet(b_spec(34), mesh);
        let mut r = ByteReader::new(&bytes);
        resumed.load_state(&mut r).expect("load");
        r.finish().expect("no trailing bytes");
        assert_eq!(saved(&resumed), bytes, "a restore re-encodes to its bytes");
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
        let mesh = MeshShape::square(4);
        let mut net: SubNet<u64> = subnet(b_spec(34), mesh);
        net.inject(0, msg(0, 3, 67));
        net.tick(0);
        let bytes = saved(&net);
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

    /// Input VCs of the 4×4 test networks.
    const VCS: usize = 16 * PORTS * 4;

    /// Flits of `net` stamped after its clock: on a link.
    fn on_links(net: &SubNet<u64>) -> usize {
        (0..VCS)
            .map(|f| net.routers.inputs[f].len as usize - net.routers.arrived_len(f, net.clock))
            .sum()
    }

    /// A network caught mid-burst: flits on links, in buffers and
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
        assert!(on_links(&net) > 0 && (0..16).any(|t| net.buffered_flits(t) > 0));
        assert!(net.inj_progress.iter().any(|p| p.is_some()));
        net
    }

    /// Load `bytes` (a valid mid-burst state with one field set to a
    /// value no run produces) into a fresh network: the error message,
    /// never a panic.
    fn bytes_error(bytes: &[u8]) -> String {
        subnet(b_spec(34), MeshShape::square(4))
            .load_state(&mut ByteReader::new(bytes))
            .expect_err("a state no run produces must be refused")
            .to_string()
    }

    /// [`bytes_error`] of `patched`'s saved state.
    fn load_error(patched: &SubNet<u64>) -> String {
        bytes_error(&saved(patched))
    }

    /// Byte offsets of the fields after the router queues in
    /// [`mid_burst_net`]'s saved state: the per-tile buffered counts and
    /// occupancy bitmaps (first value of each), and the first wire flit.
    struct Layout {
        flits_buffered: usize,
        vc_occupied: usize,
        wire: usize,
    }

    fn layout(net: &SubNet<u64>) -> Layout {
        let mut w = ByteWriter::new();
        net.routers.save_arrived(&mut w, net.clock);
        let flits_buffered = w.len() + 8; // past the length prefix
        let vc_occupied = flits_buffered + 4 * 16 + 8;
        Layout {
            flits_buffered,
            vc_occupied,
            wire: vc_occupied + 4 * 16 + 8,
        }
    }

    /// Wire flit record: msg u32, seq u32, tail u8, arrival u64, then
    /// tile, port and VC as u64s.
    const WIRE_ARRIVAL: usize = 9;
    const WIRE_TILE: usize = 17;
    const WIRE_PORT: usize = 25;
    const WIRE_VC: usize = 33;

    fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u32(bytes: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
    }

    fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn saved_bytes_keep_the_link_queue_form() {
        // the wire's length prefix counts the flits on links, and every
        // one of them reloads into the ring it is bound for
        let net = mid_burst_net();
        let bytes = saved(&net);
        let wire_len = u64::from_le_bytes(bytes[layout(&net).wire - 8..][..8].try_into().unwrap());
        assert_eq!(wire_len as usize, on_links(&net));
        let mut resumed = subnet(b_spec(34), MeshShape::square(4));
        resumed
            .load_state(&mut ByteReader::new(&bytes))
            .expect("load");
        assert!(
            resumed.clock >= net.clock,
            "clock set to the first arrival − 1"
        );
        assert_eq!(on_links(&resumed), on_links(&net));
        assert_eq!(saved(&resumed), bytes);
    }

    #[test]
    fn wire_flit_with_out_of_range_tile_is_refused() {
        let net = mid_burst_net();
        let mut bytes = saved(&net);
        put_u64(&mut bytes, layout(&net).wire + WIRE_TILE, 16);
        let err = bytes_error(&bytes);
        assert!(err.contains("wire flit destination out of range"), "{err}");
    }

    #[test]
    fn wire_flit_with_out_of_range_port_is_refused() {
        let net = mid_burst_net();
        let mut bytes = saved(&net);
        // links end at link ports only
        put_u64(&mut bytes, layout(&net).wire + WIRE_PORT, LOCAL as u64);
        let err = bytes_error(&bytes);
        assert!(err.contains("wire flit destination out of range"), "{err}");
    }

    #[test]
    fn wire_flit_with_out_of_range_vc_is_refused() {
        let net = mid_burst_net();
        let mut bytes = saved(&net);
        put_u64(&mut bytes, layout(&net).wire + WIRE_VC, 4); // VCs 0..=3 exist
        let err = bytes_error(&bytes);
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
        let net = mid_burst_net();
        let (bytes, at) = (saved(&net), layout(&net).vc_occupied);
        let occupied = get_u32(&bytes, at);
        assert!(occupied != 0 && occupied != (1 << 20) - 1);
        for patch in [(1u32 << 20) - 1, 0, occupied | 1 << 31] {
            let mut bytes = bytes.clone();
            put_u32(&mut bytes, at, patch);
            let err = bytes_error(&bytes);
            assert!(
                err.contains("occupancy bitmap disagrees"),
                "{patch:#x}: {err}"
            );
        }
    }

    #[test]
    fn per_tile_flit_count_disagreeing_with_the_rings_is_refused() {
        // keep the total right, so only the per-tile check can object
        let net = mid_burst_net();
        let (mut bytes, at) = (saved(&net), layout(&net).flits_buffered);
        let first = get_u32(&bytes, at);
        put_u32(&mut bytes, at, first + 1);
        let donor = (1..16)
            .map(|t| at + 4 * t)
            .find(|&d| get_u32(&bytes, d) > 0)
            .expect("another busy tile");
        let donated = get_u32(&bytes, donor);
        put_u32(&mut bytes, donor, donated - 1);
        let err = bytes_error(&bytes);
        assert!(err.contains("per-tile flit count disagrees"), "{err}");
    }

    #[test]
    fn flit_naming_no_in_flight_message_is_refused() {
        // an out-of-range slot, a freed slot and a position past the
        // message's last flit, on a link and in a link-port buffer
        for on_link in [true, false] {
            for patch in 0..3 {
                let mut net = mid_burst_net();
                let (clock, slots) = (net.clock, net.slab.len() as u32);
                let f = (0..VCS)
                    .filter(|f| (f / 4) % PORTS != LOCAL)
                    .find(|&f| {
                        net.routers
                            .flits(f)
                            .any(|bf| (bf.arrived > clock) == on_link)
                    })
                    .expect("a flit to patch");
                let bf = net
                    .routers
                    .flits_mut(f)
                    .find(|bf| (bf.arrived > clock) == on_link)
                    .expect("found above");
                let msg = bf.flit.msg as usize;
                match patch {
                    0 => bf.flit.msg = slots,
                    1 => {
                        net.slab[msg] = None;
                        net.free_slots.push(msg as u32);
                        net.live_msgs -= 1;
                    }
                    _ => bf.flit.seq = 2, // 67 bytes: two 34-byte flits
                }
                let err = load_error(&net);
                assert!(
                    err.contains("names no in-flight message"),
                    "link {on_link}, patch {patch}: {err}"
                );
            }
        }
    }

    #[test]
    fn wire_flit_stamps_out_of_order_are_refused() {
        let net = mid_burst_net();
        let at = layout(&net).wire + WIRE_ARRIVAL;
        // before cycle 1, and before a flit that has already arrived
        for (arrival, want) in [
            (0, "out of arrival order"),
            (1, "stamped after an in-flight one"),
        ] {
            let mut bytes = saved(&net);
            put_u64(&mut bytes, at, arrival);
            let err = bytes_error(&bytes);
            assert!(err.contains(want), "{arrival}: {err}");
        }
    }

    #[test]
    fn wire_flit_overflowing_its_buffer_is_refused() {
        // one-flit buffers: a VC holding an arrived flit is full
        let mut spec = b_spec(34);
        spec.vc_buffer_flits = 1;
        let mut net = subnet(spec, MeshShape::square(4));
        for src in 0..16 {
            for hop in [5, 9, 3, 14] {
                net.inject(0, msg(src, (src + hop) % 16, 67));
            }
        }
        let full_vc = |n: &SubNet<u64>| {
            (0..16)
                .flat_map(|t| (0..LOCAL).flat_map(move |p| (0..4).map(move |v| (t, p, v))))
                .find(|&(t, p, v)| n.routers.arrived_len(n.routers.vc_index(t, p, v), n.clock) == 1)
        };
        let mut now = 0;
        while full_vc(&net).is_none() || on_links(&net) == 0 {
            net.tick(now);
            now += 1;
        }
        let full = full_vc(&net).expect("loop condition");
        let mut bytes = saved(&net);
        let at = layout(&net).wire;
        put_u64(&mut bytes, at + WIRE_TILE, full.0 as u64);
        put_u64(&mut bytes, at + WIRE_PORT, full.1 as u64);
        put_u64(&mut bytes, at + WIRE_VC, full.2 as u64);
        let err = subnet(spec, MeshShape::square(4))
            .load_state(&mut ByteReader::new(&bytes))
            .expect_err("a wire flit into a full buffer")
            .to_string();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn slab_bookkeeping_disagreeing_with_the_slab_is_refused() {
        // an entry without payload or with an off-mesh destination, a
        // free list naming a live or missing slot, a wrong live count,
        // and an NI queue naming no message
        type Patch = fn(&mut SubNet<u64>);
        let patches: [(Patch, &str); 6] = [
            (
                |n| n.slab[0].as_mut().expect("live").msg = None,
                "without payload or destination",
            ),
            (
                |n| n.slab[0].as_mut().expect("live").dst = TileId::from(16),
                "without payload or destination",
            ),
            (|n| n.free_slots.push(0), "free-slot list disagrees"),
            (
                |n| n.free_slots.push(n.slab.len() as u32),
                "free-slot list disagrees",
            ),
            (|n| n.live_msgs += 1, "live message count disagrees"),
            (
                |n| {
                    let (tile, slot) = (3, n.slab.len() as u32);
                    n.inj_queues[tile].push_back(slot);
                    n.inject_pending += 1;
                },
                "injection queue names no in-flight message",
            ),
        ];
        for (patch, want) in patches {
            let mut net = mid_burst_net();
            patch(&mut net);
            let err = load_error(&net);
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn link_credits_forged_to_a_full_pool_are_refused() {
        let mut net = mid_burst_net();
        let depth = net.routers.capacity();
        // a link VC holding flits (buffered or on the link) regains its
        // whole credit pool upstream
        let (tile, port, vc) = (0..16)
            .flat_map(|t| (0..LOCAL).flat_map(move |p| (0..4).map(move |v| (t, p, v))))
            .find(|&(t, p, v)| net.routers.inputs[net.routers.vc_index(t, p, v)].len > 0)
            .expect("a busy link VC");
        let up = net.neighbors[tile][port] as usize;
        let fu = net.routers.vc_index(up, OPPOSITE[port], vc);
        while (net.routers.outputs[fu].credits as usize) < depth {
            net.routers.add_credit(fu);
        }
        let err = load_error(&net);
        assert!(err.contains("link credits disagree"), "{err}");
    }

    #[test]
    fn idle_network_reports_idle() {
        let mesh = MeshShape::square(2);
        let net: SubNet<u64> = subnet(b_spec(75), mesh);
        assert!(net.is_idle());
        assert!(!net.has_work(10));
        assert_eq!(net.next_event_cycle(10), None);
        assert!((0..4).all(|t| net.buffered_flits(t) == 0));
    }
}
