//! Wormhole router state: input virtual channels, output virtual channels
//! and credit tracking, one record per VC and per port for a whole
//! sub-network.
//!
//! The switching logic lives in [`crate::subnet`]; this module owns the
//! data structures and their invariants:
//!
//! * An **input VC** buffers flits in arrival order, each stamped with
//!   the cycle it arrives — which may still lie ahead: a flit granted
//!   onto a link is pushed straight into its downstream VC stamped
//!   `now + link_cycles`, so the buffer is also the link's delay line.
//!   The route (output-port index) and output VC of the *current head
//!   message* are cached on the input VC and reset when its tail flit
//!   departs — wormhole switching in the classic form.
//! * An **output VC** is owned by at most one (input port, input VC) at a
//!   time, from the head flit's allocation until the tail flit traverses
//!   the switch; a per-port `ovc_free` mask mirrors the unowned ones. Its
//!   credit counter mirrors the free buffer slots of the downstream input
//!   VC, counting flits still on the link as occupying their slot.
//!
//! ## Why one record per access pattern
//!
//! Switch allocation works per grant: request words name the armed input
//! VCs, so no loop walks the buffers every cycle. A grant reads one input
//! VC's ring position, route and output VC, one output VC's owner and
//! credits, and one port's free mask and round-robin pointer. Each group
//! is one small record — [`InVc`] (4 bytes), [`OutVc`] (6 bytes),
//! [`Port`] (8 bytes) — in a dense vector indexed by the flat
//! `(tile, port, vc)` coordinate (`(tile, port)` for ports), so a grant
//! touches three records rather than eight parallel vectors, and every
//! access is one bounds-checked index. The rings of all input VCs share
//! one contiguous allocation, `depth` slots each.
//!
//! Fields any caller may set — a route, an allocated output VC, a
//! round-robin pointer — are plain fields. Methods remain only where an
//! invariant lives: the ring ([`RouterArray::push`],
//! [`RouterArray::pop_after_traversal`]), ownership
//! ([`RouterArray::claim_out_vc`] / [`RouterArray::release_out_vc`] keep
//! [`Port::ovc_free`] in step with the owners) and credits
//! ([`RouterArray::spend_credit`] / [`RouterArray::add_credit`]).

use cmp_common::geometry::Direction;
use cmp_common::types::Cycle;

/// Router ports: the four mesh directions plus the local inject/eject
/// port. Indexed by [`Direction::index`].
pub const PORTS: usize = 5;

/// Index of the local port.
pub const LOCAL: usize = 4;

/// [`InVc::route`] sentinel: no route cached for the head message.
pub const NO_ROUTE: u8 = u8::MAX;

/// [`InVc::out_vc`] sentinel: no output VC allocated to the head message.
pub const NO_OUT: u8 = u8::MAX;

/// [`OutVc::credits`] of an ejection (local-port) output VC: the network
/// interface always drains, so its pool is never spent.
pub const EJECT_CREDITS: u16 = u16::MAX;

/// The checkpoint form of [`EJECT_CREDITS`].
const EJECT_CREDITS_SAVED: usize = usize::MAX / 2;

/// One flit. `msg` indexes the sub-network's in-flight message slab;
/// `dst` and `bytes` are copied from that message at injection, so
/// routing and energy accounting never look the message up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flit {
    /// In-flight message slot.
    pub msg: u32,
    /// Position within the message (0 = head).
    pub seq: u32,
    /// Destination tile of the message (the route input).
    pub dst: u16,
    /// Bytes of the message this flit carries on its channel (the
    /// energy-table index).
    pub bytes: u8,
    /// Whether this is the last flit of its message.
    pub tail: bool,
}

// The route inputs ride in what was padding: a flit is still 12 bytes.
const _: () = assert!(std::mem::size_of::<Flit>() == 12);

impl Flit {
    /// Head flits carry the routing information.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }
}

/// A buffered flit plus the cycle it enters (or entered) this router.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferedFlit {
    pub flit: Flit,
    pub arrived: Cycle,
}

/// One input VC: its ring within the shared ring storage and the
/// wormhole state of its head message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InVc {
    /// Ring start within the VC's `depth`-slot segment.
    head: u8,
    /// Buffered flits. Changes only through [`RouterArray::push`] and
    /// [`RouterArray::pop_after_traversal`].
    pub len: u8,
    /// Route of the head message as an output-port index ([`NO_ROUTE`]
    /// until computed). Reset when its tail departs.
    pub route: u8,
    /// Output VC allocated to the head message ([`NO_OUT`] until
    /// allocated). Reset when its tail departs.
    pub out_vc: u8,
}

/// One output VC: who sends through it and how many downstream slots
/// are free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutVc {
    /// The (input port, input VC) sending through it. Changes only
    /// through [`RouterArray::claim_out_vc`] and
    /// [`RouterArray::release_out_vc`].
    pub owner: Option<(u8, u8)>,
    /// Free buffer slots of the downstream input VC, or
    /// [`EJECT_CREDITS`] on the local port. Changes only through
    /// [`RouterArray::spend_credit`] and [`RouterArray::add_credit`].
    pub credits: u16,
}

/// One (tile, port): its output-VC free mask and its arbiter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Port {
    /// Bitmap of the port's output VCs that no input VC owns (bit =
    /// VC) — the candidates a head flit may claim. Changes only through
    /// [`RouterArray::claim_out_vc`] and [`RouterArray::release_out_vc`].
    pub ovc_free: u32,
    /// Round-robin pointer over the tile's flat (input port, input VC)
    /// candidates.
    pub rr: u32,
}

/// Every router of a sub-network. Input and output VCs share the flat
/// index `(tile * PORTS + port) * vcs + vc` (see
/// [`RouterArray::vc_index`]); ports are indexed `tile * PORTS + port`
/// (a *port group*: output VC `vc` of group `g` is `g * vcs + vc`).
#[derive(Clone, Debug)]
pub struct RouterArray {
    nvc: usize,
    depth: usize,
    /// Per input VC.
    pub inputs: Vec<InVc>,
    /// Ring storage, `depth` slots per input VC.
    buf: Vec<BufferedFlit>,
    /// Per output VC.
    pub outputs: Vec<OutVc>,
    /// Per (tile, port).
    pub ports: Vec<Port>,
}

impl RouterArray {
    /// Routers for `tiles` tiles with `vcs` virtual channels of
    /// `buf_flits` depth per port. Output credits start at the
    /// downstream buffer depth (`buf_flits`, since all routers are
    /// identical); the local ejection port gets [`EJECT_CREDITS`].
    pub fn new(tiles: usize, vcs: usize, buf_flits: usize) -> Self {
        assert!(vcs > 0 && buf_flits > 0);
        assert!(buf_flits <= u8::MAX as usize, "ring offsets are u8");
        assert!(PORTS * vcs <= 32, "per-tile VC bitmaps are u32");
        let vc_count = tiles * PORTS * vcs;
        let outputs = (0..vc_count)
            .map(|f| OutVc {
                owner: None,
                credits: if (f / vcs) % PORTS == LOCAL {
                    EJECT_CREDITS
                } else {
                    buf_flits as u16
                },
            })
            .collect();
        let idle = InVc {
            head: 0,
            len: 0,
            route: NO_ROUTE,
            out_vc: NO_OUT,
        };
        let port = Port {
            ovc_free: (1 << vcs) - 1,
            rr: 0,
        };
        RouterArray {
            nvc: vcs,
            depth: buf_flits,
            inputs: vec![idle; vc_count],
            buf: vec![BufferedFlit::default(); vc_count * buf_flits],
            outputs,
            ports: vec![port; tiles * PORTS],
        }
    }

    /// Flat VC index shared by `inputs` and `outputs`.
    #[inline]
    pub fn vc_index(&self, tile: usize, port: usize, vc: usize) -> usize {
        (tile * PORTS + port) * self.nvc + vc
    }

    /// Buffer capacity of every input VC, in flits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.depth
    }

    /// Whether another flit fits in input VC `f`.
    #[inline]
    pub fn has_space(&self, f: usize) -> bool {
        (self.inputs[f].len as usize) < self.depth
    }

    /// The oldest buffered flit of input VC `f`, if any.
    #[inline]
    pub fn front(&self, f: usize) -> Option<&BufferedFlit> {
        let vc = self.inputs[f];
        (vc.len != 0).then(|| &self.buf[f * self.depth + vc.head as usize])
    }

    /// Flits of input VC `f` stamped at or before `clock` — those that
    /// have arrived; the rest are still on the link. Stamps never
    /// decrease along a ring, so they are a prefix.
    pub fn arrived_len(&self, f: usize, clock: Cycle) -> usize {
        self.flits(f).take_while(|bf| bf.arrived <= clock).count()
    }

    /// Push a flit that arrives at `arrived` (now, or after a link
    /// traversal). Panics if the credit protocol was violated.
    #[inline]
    pub fn push(&mut self, f: usize, flit: Flit, arrived: Cycle) {
        assert!(self.has_space(f), "input VC overflow: credit protocol bug");
        let vc = &mut self.inputs[f];
        let mut slot = vc.head as usize + vc.len as usize;
        if slot >= self.depth {
            slot -= self.depth;
        }
        vc.len += 1;
        self.buf[f * self.depth + slot] = BufferedFlit { flit, arrived };
    }

    /// Pop the head flit of input VC `f` after it traversed the switch,
    /// resetting the per-message state when the tail leaves.
    #[inline]
    pub fn pop_after_traversal(&mut self, f: usize) -> BufferedFlit {
        let vc = &mut self.inputs[f];
        debug_assert!(vc.len > 0, "pop from empty VC");
        let bf = self.buf[f * self.depth + vc.head as usize];
        vc.head += 1;
        if vc.head as usize == self.depth {
            vc.head = 0;
        }
        vc.len -= 1;
        if bf.flit.tail {
            vc.route = NO_ROUTE;
            vc.out_vc = NO_OUT;
        }
        bf
    }

    /// Hand output VC `vc` of port group `group` (`tile·PORTS + port`)
    /// to `owner` (input port, input VC) until its message's tail
    /// leaves.
    #[inline]
    pub fn claim_out_vc(&mut self, group: usize, vc: usize, owner: (usize, usize)) {
        let out = &mut self.outputs[group * self.nvc + vc];
        debug_assert!(out.owner.is_none());
        out.owner = Some((owner.0 as u8, owner.1 as u8));
        self.ports[group].ovc_free &= !(1 << vc);
    }

    /// Free output VC `vc` of port group `group` (its owner's tail left).
    #[inline]
    pub fn release_out_vc(&mut self, group: usize, vc: usize) {
        self.outputs[group * self.nvc + vc].owner = None;
        self.ports[group].ovc_free |= 1 << vc;
    }

    /// Return one credit to output VC `f` (a downstream slot freed).
    #[inline]
    pub fn add_credit(&mut self, f: usize) {
        let credits = &mut self.outputs[f].credits;
        debug_assert!(*credits != EJECT_CREDITS, "credit returned to ejection");
        *credits += 1;
    }

    /// Spend one credit of output VC `f` (a flit left for downstream).
    #[inline]
    pub fn spend_credit(&mut self, f: usize) {
        let credits = &mut self.outputs[f].credits;
        debug_assert!(*credits != EJECT_CREDITS, "credit spent on ejection");
        debug_assert!(*credits > 0, "credit underflow");
        *credits -= 1;
    }

    /// The flits of input VC `f`, oldest first (cold paths).
    pub fn flits(&self, f: usize) -> impl Iterator<Item = &BufferedFlit> {
        let vc = self.inputs[f];
        let ring = &self.buf[f * self.depth..(f + 1) * self.depth];
        let (wrapped, from_head) = ring.split_at(vc.head as usize);
        from_head.iter().chain(wrapped).take(vc.len as usize)
    }

    /// Mutable form of [`RouterArray::flits`] (state restore only).
    pub fn flits_mut(&mut self, f: usize) -> impl Iterator<Item = &mut BufferedFlit> {
        let vc = self.inputs[f];
        let ring = &mut self.buf[f * self.depth..(f + 1) * self.depth];
        let (wrapped, from_head) = ring.split_at_mut(vc.head as usize);
        from_head.iter_mut().chain(wrapped).take(vc.len as usize)
    }
}

use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistError};

/// A flit's checkpoint form is `(msg, seq, tail)`: `dst` and `bytes` are
/// copies of its message's fields, so they load as zero and the owning
/// sub-network re-derives them from its slab.
impl Persist for Flit {
    fn save(&self, w: &mut ByteWriter) {
        w.u32(self.msg);
        w.u32(self.seq);
        w.bool(self.tail);
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        Ok(Flit {
            msg: r.u32()?,
            seq: r.u32()?,
            dst: 0,
            bytes: 0,
            tail: r.bool()?,
        })
    }
}

cmp_common::impl_persist!(BufferedFlit { flit, arrived });

/// Geometry (tiles × ports × VCs × depth) is configuration; the queues,
/// the per-message wormhole state, ownership, credits and round-robin
/// pointers are checkpointed, field by field in a byte form independent
/// of the in-memory records. Queues are encoded front-to-back, so the
/// restored ring layout (`head = 0`) is behaviourally identical even
/// when the captured ring was mid-wrap. The stored VC count doubles as
/// a shape check — a checkpoint from a differently-shaped network
/// refuses to load — and every stored index or count is range-checked.
impl RouterArray {
    /// Save the router state as of `clock`: each VC's queue holds only
    /// the flits that have arrived by then — those still on a link are
    /// the owning sub-network's to write (see `SubNet::save_state`).
    pub fn save_arrived(&self, w: &mut ByteWriter, clock: Cycle) {
        w.usize(self.inputs.len());
        for (f, (vc, out)) in self.inputs.iter().zip(&self.outputs).enumerate() {
            let arrived = self.arrived_len(f, clock);
            w.usize(arrived);
            for bf in self.flits(f).take(arrived) {
                bf.save(w);
            }
            // the route's byte form is an `Option<Direction>`
            let route = (vc.route != NO_ROUTE).then(|| Direction::ALL[vc.route as usize]);
            route.save(w);
            w.u8(vc.out_vc);
            out.owner.save(w);
            w.usize(match out.credits {
                EJECT_CREDITS => EJECT_CREDITS_SAVED,
                credits => credits as usize,
            });
        }
        // the round-robin pointers' byte form is a `Vec<u32>`
        w.usize(self.ports.len());
        for port in &self.ports {
            w.u32(port.rr);
        }
    }

    /// Load what [`RouterArray::save_arrived`] wrote (flits still on a
    /// link are pushed afterwards by the owner).
    pub fn load_arrived(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        let n = r.usize()?;
        if n != self.inputs.len() {
            return Err(r.err("router VC count does not match machine shape"));
        }
        for f in 0..n {
            let occ = r.usize()?;
            if occ > self.depth {
                return Err(r.err("input VC occupancy exceeds buffer capacity"));
            }
            for i in 0..occ {
                self.buf[f * self.depth + i] = Persist::load(r)?;
            }
            let route: Option<Direction> = Persist::load(r)?;
            // `out_vc`, `owner` and `credits` steer indexing and the
            // credit protocol: a value no run could have produced must
            // be refused here, not trusted there.
            let out_vc = r.u8()?;
            if out_vc != NO_OUT && out_vc as usize >= self.nvc {
                return Err(r.err("allocated output VC out of range"));
            }
            self.inputs[f] = InVc {
                head: 0,
                len: occ as u8,
                route: route.map_or(NO_ROUTE, |d| d.index() as u8),
                out_vc,
            };
            let owner: Option<(u8, u8)> = Persist::load(r)?;
            if owner.is_some_and(|(p, v)| p as usize >= PORTS || v as usize >= self.nvc) {
                return Err(r.err("output VC owner out of range"));
            }
            let credits = match (r.usize()?, (f / self.nvc) % PORTS == LOCAL) {
                (EJECT_CREDITS_SAVED, true) => EJECT_CREDITS,
                (_, true) => return Err(r.err("ejection credit count out of range")),
                (c, false) if c <= self.depth => c as u16,
                (_, false) => return Err(r.err("link-port credit count out of range")),
            };
            self.outputs[f] = OutVc { owner, credits };
        }
        let rr: Vec<u32> = Persist::load(r)?;
        if rr.len() != self.ports.len() {
            return Err(r.err("round-robin pointer count does not match machine shape"));
        }
        if rr.iter().any(|&p| p as usize >= PORTS * self.nvc) {
            return Err(r.err("round-robin pointer out of range"));
        }
        let nvc = self.nvc;
        for (group, (port, rr)) in self.ports.iter_mut().zip(rr).enumerate() {
            let owners = &self.outputs[group * nvc..(group + 1) * nvc];
            *port = Port {
                ovc_free: owners
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.owner.is_none())
                    .fold(0, |m, (v, _)| m | 1 << v),
                rr,
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    use cmp_common::randtest::{run_cases, usize_in};
    use cmp_common::rng::SimRng;

    fn flit(msg: u32, seq: u32, tail: bool) -> Flit {
        Flit {
            msg,
            seq,
            dst: 0,
            bytes: 0,
            tail,
        }
    }

    /// Save every flit (none is still on a link) and load into a fresh
    /// array of the same geometry.
    fn round_trip(r: &RouterArray, fresh: &mut RouterArray) -> Result<(), PersistError> {
        round_trip_at(r, fresh, Cycle::MAX)
    }

    /// Save the flits arrived by `clock` and load into `fresh`.
    fn round_trip_at(
        r: &RouterArray,
        fresh: &mut RouterArray,
        clock: Cycle,
    ) -> Result<(), PersistError> {
        let mut w = ByteWriter::new();
        r.save_arrived(&mut w, clock);
        let bytes = w.into_bytes();
        let mut rd = ByteReader::new(&bytes);
        fresh.load_arrived(&mut rd)?;
        rd.finish()
    }

    #[test]
    fn records_stay_small() {
        assert_eq!(std::mem::size_of::<InVc>(), 4);
        assert_eq!(std::mem::size_of::<OutVc>(), 6);
        assert_eq!(std::mem::size_of::<Port>(), 8);
    }

    #[test]
    fn input_vc_capacity_enforced() {
        let mut r = RouterArray::new(1, 2, 2);
        let f = r.vc_index(0, 0, 0);
        r.push(f, flit(0, 0, false), 1);
        assert!(r.has_space(f));
        r.push(f, flit(0, 1, true), 2);
        assert!(!r.has_space(f));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn input_vc_overflow_panics() {
        let mut r = RouterArray::new(1, 1, 1);
        let f = r.vc_index(0, 0, 0);
        r.push(f, flit(0, 0, false), 1);
        r.push(f, flit(0, 1, true), 1);
    }

    #[test]
    fn tail_pop_resets_message_state() {
        let mut r = RouterArray::new(1, 1, 4);
        let f = r.vc_index(0, 2, 0);
        r.push(f, flit(7, 0, false), 1);
        r.push(f, flit(7, 1, true), 2);
        r.inputs[f].route = Direction::East.index() as u8;
        r.inputs[f].out_vc = 1;
        r.pop_after_traversal(f);
        assert_eq!(r.inputs[f].route, 0, "body pop keeps state");
        r.pop_after_traversal(f);
        assert_eq!(r.inputs[f].route, NO_ROUTE, "tail pop clears route");
        assert_eq!(r.inputs[f].out_vc, NO_OUT);
    }

    #[test]
    fn ring_wraps_and_keeps_fifo_order() {
        let mut r = RouterArray::new(1, 1, 3);
        let f = r.vc_index(0, 1, 0);
        for seq in 0..3 {
            r.push(f, flit(1, seq, false), seq as Cycle);
        }
        assert_eq!(r.pop_after_traversal(f).flit.seq, 0);
        assert_eq!(r.pop_after_traversal(f).flit.seq, 1);
        r.push(f, flit(1, 3, false), 10); // wraps the ring
        r.push(f, flit(1, 4, true), 11);
        let seqs: Vec<u32> = r.flits(f).map(|bf| bf.flit.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(r.pop_after_traversal(f).flit.seq, 2);
        assert_eq!(r.pop_after_traversal(f).flit.seq, 3);
        assert_eq!(r.pop_after_traversal(f).flit.seq, 4);
        assert_eq!(r.inputs[f].len, 0);
    }

    #[test]
    fn router_reports_buffered_flits() {
        // flits stamped in the future are still on the link
        let mut r = RouterArray::new(2, 2, 4);
        let f = r.vc_index(0, 0, 1);
        assert_eq!(r.arrived_len(f, Cycle::MAX), 0);
        r.push(f, flit(0, 0, false), 42);
        r.push(f, flit(0, 1, true), 44);
        assert_eq!(r.arrived_len(f, 41), 0);
        assert_eq!(r.arrived_len(f, 43), 1);
        assert_eq!(r.arrived_len(f, 44), 2);
        assert_eq!(r.arrived_len(r.vc_index(1, 0, 1), Cycle::MAX), 0);
    }

    #[test]
    fn local_port_has_effectively_infinite_credits() {
        let r = RouterArray::new(2, 2, 4);
        assert_eq!(r.outputs[r.vc_index(1, LOCAL, 0)].credits, EJECT_CREDITS);
        assert_eq!(r.outputs[r.vc_index(1, 0, 0)].credits, 4);
    }

    #[test]
    fn claimed_out_vcs_leave_the_free_mask_until_released() {
        let mut r = RouterArray::new(2, 3, 2);
        let group = PORTS + 2; // tile 1, port 2
        assert_eq!(r.ports[group].ovc_free, 0b111);
        r.claim_out_vc(group, 0, (LOCAL, 1));
        r.claim_out_vc(group, 2, (0, 0));
        assert_eq!(r.ports[group].ovc_free, 0b010);
        let o = r.vc_index(1, 2, 0);
        assert_eq!(r.outputs[o].owner, Some((LOCAL as u8, 1)));
        r.release_out_vc(group, 0);
        assert_eq!(r.ports[group].ovc_free, 0b011);
        assert_eq!(r.outputs[o].owner, None);
        assert_eq!(r.ports[group - 1].ovc_free, 0b111, "other ports untouched");
    }

    #[test]
    fn persist_round_trips_a_mid_wrap_ring() {
        let mut r = RouterArray::new(2, 2, 3);
        let f = r.vc_index(1, 3, 1);
        for seq in 0..3 {
            r.push(f, flit(5, seq, false), 100 + seq as Cycle);
        }
        r.pop_after_traversal(f);
        r.push(f, flit(5, 3, true), 110); // ring is now wrapped
        r.inputs[f].route = Direction::South.index() as u8;
        r.inputs[f].out_vc = 1;
        let o = r.vc_index(0, 2, 1);
        r.claim_out_vc(2, 1, (3, 1));
        r.spend_credit(o);
        r.ports[PORTS + 2].rr = 7;
        let mut fresh = RouterArray::new(2, 2, 3);
        round_trip(&r, &mut fresh).expect("load");
        assert_eq!(fresh.inputs[f].route, Direction::South.index() as u8);
        for want_seq in [1, 2, 3] {
            assert_eq!(fresh.pop_after_traversal(f).flit.seq, want_seq);
        }
        assert_eq!(fresh.outputs[o].owner, Some((3, 1)));
        assert_eq!(
            fresh.ports[2].ovc_free, 0b01,
            "free mask rebuilt from owners"
        );
        assert_eq!(fresh.outputs[o].credits, 2);
        assert_eq!(fresh.ports[PORTS + 2].rr, 7);
        // and a geometry mismatch is a structured error
        let mut wrong = RouterArray::new(3, 2, 3);
        assert!(round_trip(&r, &mut wrong).is_err());
    }

    #[test]
    fn flits_on_the_link_are_left_out_of_the_saved_queues() {
        let mut r = RouterArray::new(1, 1, 4);
        let f = r.vc_index(0, 1, 0);
        r.push(f, flit(2, 0, false), 10);
        r.push(f, flit(2, 1, true), 12);
        let mut fresh = RouterArray::new(1, 1, 4);
        round_trip_at(&r, &mut fresh, 11).expect("load");
        let stamps: Vec<Cycle> = fresh.flits(f).map(|bf| bf.arrived).collect();
        assert_eq!(stamps, [10]);
    }

    /// Save `patched` (a valid router array with one field set to a
    /// value no run produces) and load it into a fresh array of the same
    /// geometry: the error message, never a panic.
    fn load_error(patched: &RouterArray) -> String {
        round_trip(patched, &mut RouterArray::new(2, 2, 3))
            .expect_err("out-of-range field must be refused")
            .to_string()
    }

    #[test]
    fn out_of_range_out_vc_is_refused() {
        let mut r = RouterArray::new(2, 2, 3);
        let f = r.vc_index(1, 0, 1);
        r.inputs[f].out_vc = 2; // only VCs 0 and 1 exist
        let err = load_error(&r);
        assert!(err.contains("output VC out of range"), "{err}");
    }

    #[test]
    fn out_of_range_owner_is_refused() {
        for owner in [(PORTS, 0), (0, 2)] {
            let mut r = RouterArray::new(2, 2, 3);
            r.claim_out_vc(3, 0, owner); // tile 0, port 3, VC 0
            let err = load_error(&r);
            assert!(err.contains("owner out of range"), "{owner:?}: {err}");
        }
    }

    #[test]
    fn link_port_credits_beyond_the_buffer_depth_are_refused() {
        let mut r = RouterArray::new(2, 2, 3);
        r.add_credit(r.vc_index(0, 1, 0)); // 4 credits for 3 slots
        let err = load_error(&r);
        assert!(err.contains("credit count out of range"), "{err}");
        // the local port's effectively infinite pool is legal
        round_trip(&RouterArray::new(2, 2, 3), &mut RouterArray::new(2, 2, 3))
            .expect("pristine array loads");
    }

    #[test]
    fn ejection_credits_other_than_the_sentinel_are_refused() {
        // an empty pool would wedge ejection until the watchdog fired;
        // a link-sized one is no less forged
        for credits in [0, 3] {
            let mut r = RouterArray::new(2, 2, 3);
            let f = r.vc_index(1, LOCAL, 1);
            r.outputs[f].credits = credits;
            let err = load_error(&r);
            assert!(
                err.contains("ejection credit count out of range"),
                "{credits}: {err}"
            );
        }
    }

    /// Naive model of [`RouterArray`], written from the module doc: a
    /// `VecDeque` per input VC, one plain field per VC and per port, and
    /// the free mask derived from the owners whenever it is read.
    #[derive(Clone)]
    struct Model {
        nvc: usize,
        depth: usize,
        queues: Vec<VecDeque<BufferedFlit>>,
        route: Vec<Option<usize>>,
        out_vc: Vec<Option<usize>>,
        owner: Vec<Option<(usize, usize)>>,
        /// `usize::MAX / 2` on the ejection port.
        credits: Vec<usize>,
        rr: Vec<usize>,
    }

    impl Model {
        fn new(tiles: usize, nvc: usize, depth: usize) -> Self {
            let vcs = tiles * PORTS * nvc;
            let eject = |f: usize| (f / nvc) % PORTS == LOCAL;
            Model {
                nvc,
                depth,
                queues: vec![VecDeque::new(); vcs],
                route: vec![None; vcs],
                out_vc: vec![None; vcs],
                owner: vec![None; vcs],
                credits: (0..vcs)
                    .map(|f| if eject(f) { usize::MAX / 2 } else { depth })
                    .collect(),
                rr: vec![0; tiles * PORTS],
            }
        }

        fn free_mask(&self, group: usize) -> u32 {
            (0..self.nvc)
                .filter(|&v| self.owner[group * self.nvc + v].is_none())
                .fold(0, |m, v| m | 1 << v)
        }

        fn is_link(&self, f: usize) -> bool {
            (f / self.nvc) % PORTS != LOCAL
        }

        /// The state a checkpoint taken at `clock` restores: each queue
        /// cut to its arrived prefix, flits without the fields their
        /// message supplies.
        fn as_saved(&self, clock: Cycle) -> Model {
            let mut m = self.clone();
            for q in &mut m.queues {
                q.retain(|bf| bf.arrived <= clock);
                for bf in q {
                    bf.flit.dst = 0;
                    bf.flit.bytes = 0;
                }
            }
            m
        }
    }

    /// Every observable of `r` equals the model's.
    fn assert_agrees(r: &RouterArray, m: &Model, clock: Cycle, ctx: &str) {
        let opt = |v: u8, none: u8| (v != none).then_some(v as usize);
        for (f, q) in m.queues.iter().enumerate() {
            let (vc, out) = (r.inputs[f], r.outputs[f]);
            assert_eq!(vc.len as usize, q.len(), "{ctx}: len of VC {f}");
            assert_eq!(r.has_space(f), q.len() < m.depth, "{ctx}: space of VC {f}");
            assert_eq!(r.front(f), q.front(), "{ctx}: front of VC {f}");
            assert!(r.flits(f).eq(q.iter()), "{ctx}: flits of VC {f}");
            let arrived = q.iter().take_while(|bf| bf.arrived <= clock).count();
            assert_eq!(r.arrived_len(f, clock), arrived, "{ctx}: arrived of VC {f}");
            assert_eq!(
                opt(vc.route, NO_ROUTE),
                m.route[f],
                "{ctx}: route of VC {f}"
            );
            assert_eq!(
                opt(vc.out_vc, NO_OUT),
                m.out_vc[f],
                "{ctx}: out VC of VC {f}"
            );
            let owner = out.owner.map(|(p, v)| (p as usize, v as usize));
            assert_eq!(owner, m.owner[f], "{ctx}: owner of VC {f}");
            let credits = match out.credits {
                EJECT_CREDITS => usize::MAX / 2,
                c => c as usize,
            };
            assert_eq!(credits, m.credits[f], "{ctx}: credits of VC {f}");
        }
        for (group, port) in r.ports.iter().enumerate() {
            assert_eq!(
                port.ovc_free,
                m.free_mask(group),
                "{ctx}: free mask {group}"
            );
            assert_eq!(port.rr as usize, m.rr[group], "{ctx}: rr of {group}");
        }
    }

    /// One random operation, applied to both sides; a precondition the
    /// callers uphold (space for a push, an owner-free VC to claim, a
    /// credit to spend or room for one to come back) is drawn from the
    /// model, so every step is one a run could take.
    fn random_op(
        rng: &mut SimRng,
        r: &mut RouterArray,
        m: &mut Model,
        stamp: &mut Cycle,
    ) -> String {
        let vcs = m.queues.len();
        let (f, group, vc) = (rng.index(vcs), rng.index(m.rr.len()), rng.index(m.nvc));
        match rng.index(9) {
            0 if m.queues[f].len() < m.depth => {
                *stamp += rng.below(3);
                let flit = Flit {
                    msg: rng.below(8) as u32,
                    seq: rng.below(4) as u32,
                    dst: rng.below(9) as u16,
                    bytes: rng.below(40) as u8,
                    tail: rng.chance(0.4),
                };
                r.push(f, flit, *stamp);
                m.queues[f].push_back(BufferedFlit {
                    flit,
                    arrived: *stamp,
                });
                format!("push VC {f} at {stamp}")
            }
            1 if !m.queues[f].is_empty() => {
                let want = m.queues[f].pop_front().expect("non-empty");
                if want.flit.tail {
                    m.route[f] = None;
                    m.out_vc[f] = None;
                }
                assert_eq!(r.pop_after_traversal(f), want, "pop VC {f}");
                format!("pop VC {f}")
            }
            2 if m.owner[group * m.nvc + vc].is_none() => {
                let owner = (rng.index(PORTS), rng.index(m.nvc));
                r.claim_out_vc(group, vc, owner);
                m.owner[group * m.nvc + vc] = Some(owner);
                format!("claim {group}.{vc} for {owner:?}")
            }
            3 => {
                r.release_out_vc(group, vc);
                m.owner[group * m.nvc + vc] = None;
                format!("release {group}.{vc}")
            }
            4 if m.is_link(f) && m.credits[f] > 0 => {
                r.spend_credit(f);
                m.credits[f] -= 1;
                format!("spend VC {f}")
            }
            5 if m.is_link(f) && m.credits[f] < m.depth => {
                r.add_credit(f);
                m.credits[f] += 1;
                format!("return VC {f}")
            }
            6 => {
                let port = rng.index(PORTS);
                r.inputs[f].route = port as u8;
                m.route[f] = Some(port);
                format!("route VC {f} to {port}")
            }
            7 => {
                r.inputs[f].out_vc = vc as u8;
                m.out_vc[f] = Some(vc);
                format!("out VC of VC {f} = {vc}")
            }
            8 => {
                let p = rng.index(PORTS * m.nvc);
                r.ports[group].rr = p as u32;
                m.rr[group] = p;
                format!("rr of {group} = {p}")
            }
            _ => "skip".to_string(),
        }
    }

    #[test]
    fn records_agree_with_a_naive_model_under_random_operations() {
        run_cases("router_records_vs_model", 64, |rng| {
            let (tiles, nvc, depth) = (
                usize_in(rng, 1, 4),
                usize_in(rng, 1, 5),
                usize_in(rng, 1, 5),
            );
            let mut r = RouterArray::new(tiles, nvc, depth);
            let mut m = Model::new(tiles, nvc, depth);
            let mut stamp: Cycle = 1;
            for step in 0..300 {
                let op = random_op(rng, &mut r, &mut m, &mut stamp);
                let clock = stamp.saturating_sub(rng.below(4));
                let ctx = format!("{tiles}x{nvc}x{depth} step {step} ({op})");
                assert_agrees(&r, &m, clock, &ctx);
                // restore over a fresh array, or over one whose rings
                // have moved on
                let mut loaded = if rng.chance(0.5) {
                    RouterArray::new(tiles, nvc, depth)
                } else {
                    r.clone()
                };
                round_trip_at(&r, &mut loaded, clock).expect("a reachable state loads");
                assert_agrees(
                    &loaded,
                    &m.as_saved(clock),
                    clock,
                    &format!("{ctx}, reloaded"),
                );
            }
        });
    }
}
