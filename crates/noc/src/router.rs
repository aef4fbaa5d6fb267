//! Wormhole router state: input virtual channels, output virtual channels
//! and credit tracking, stored struct-of-arrays for a whole sub-network.
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
//! ## Why flat arrays
//!
//! The previous shape — a `Vec` of per-tile routers, each holding nested
//! `Vec`s of VC structs, each VC owning a heap `VecDeque` — cost four
//! dependent pointer loads to reach a buffered flit, paid per occupied VC
//! per cycle in the switch-allocation scan (the sub-network's hottest
//! loop). [`RouterArray`] keeps every hot field in one dense vector
//! indexed by a flat `(tile, port, vc)` coordinate: a tile's per-VC
//! occupancy counters share a cache line, ring buffers live in one
//! contiguous allocation, and reaching a front flit is a single computed
//! load.

use cmp_common::geometry::Direction;
use cmp_common::types::Cycle;

/// Router ports: the four mesh directions plus the local inject/eject
/// port. Indexed by [`Direction::index`].
pub const PORTS: usize = 5;

/// Index of the local port.
pub const LOCAL: usize = 4;

/// `out_vc` sentinel: no output VC allocated to the head message.
const NO_OUT: u8 = u8::MAX;

/// `route` sentinel: no route cached for the head message.
const NO_ROUTE: u8 = u8::MAX;

/// One flit. `msg` indexes the sub-network's in-flight message slab;
/// `dst` and `bytes` are copied from that message at injection, so
/// routing and energy accounting never look the message up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug)]
pub struct BufferedFlit {
    pub flit: Flit,
    pub arrived: Cycle,
}

/// Every router of a sub-network, struct-of-arrays. Input and output
/// VCs share the flat index `(tile * PORTS + port) * vcs + vc` (see
/// [`RouterArray::vc_index`]); the round-robin pointers are per
/// `(tile, port)`.
#[derive(Clone, Debug)]
pub struct RouterArray {
    nvc: usize,
    depth: usize,
    /// Per input VC: ring start within its `depth`-sized `buf` segment.
    head: Vec<u8>,
    /// Per input VC: buffered flit count.
    len: Vec<u8>,
    /// Ring storage, `depth` slots per input VC.
    buf: Vec<BufferedFlit>,
    /// Per input VC: cached route of the current head message, as an
    /// output-port index ([`NO_ROUTE`] when none is cached).
    route: Vec<u8>,
    /// Per input VC: output VC allocated to the current head message
    /// ([`NO_OUT`] when unallocated).
    out_vc: Vec<u8>,
    /// Per output VC: the (input port, input VC) currently sending.
    owner: Vec<Option<(u8, u8)>>,
    /// Per (tile, output port): bitmap of the output VCs `owner` holds
    /// no owner for — the candidates a head flit may claim.
    ovc_free: Vec<u32>,
    /// Per output VC: free buffer slots downstream.
    credits: Vec<usize>,
    /// Per (tile, port): round-robin pointer over flat (input port,
    /// input VC) candidates.
    rr: Vec<u32>,
}

impl RouterArray {
    /// Routers for `tiles` tiles with `vcs` virtual channels of
    /// `buf_flits` depth per port. Output credits start at the
    /// downstream buffer depth (`buf_flits`, since all routers are
    /// identical); the local ejection port gets effectively infinite
    /// credits — the network interface always drains.
    pub fn new(tiles: usize, vcs: usize, buf_flits: usize) -> Self {
        assert!(vcs > 0 && buf_flits > 0);
        assert!(buf_flits <= u8::MAX as usize, "ring offsets are u8");
        assert!(PORTS * vcs <= 32, "per-tile VC bitmaps are u32");
        let vc_count = tiles * PORTS * vcs;
        let dead = BufferedFlit {
            flit: Flit {
                msg: 0,
                seq: 0,
                dst: 0,
                bytes: 0,
                tail: false,
            },
            arrived: 0,
        };
        let credits = (0..vc_count)
            .map(|f| {
                if (f / vcs) % PORTS == LOCAL {
                    usize::MAX / 2
                } else {
                    buf_flits
                }
            })
            .collect();
        RouterArray {
            nvc: vcs,
            depth: buf_flits,
            head: vec![0; vc_count],
            len: vec![0; vc_count],
            buf: vec![dead; vc_count * buf_flits],
            route: vec![NO_ROUTE; vc_count],
            out_vc: vec![NO_OUT; vc_count],
            owner: vec![None; vc_count],
            ovc_free: vec![(1 << vcs) - 1; tiles * PORTS],
            credits,
            rr: vec![0; tiles * PORTS],
        }
    }

    /// Flat VC index shared by the input- and output-side arrays.
    #[inline]
    pub fn vc_index(&self, tile: usize, port: usize, vc: usize) -> usize {
        (tile * PORTS + port) * self.nvc + vc
    }

    /// Buffer capacity of every input VC, in flits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.depth
    }

    // The accessors below use unchecked indexing (asserted in debug
    // builds): `f` always comes from [`RouterArray::vc_index`] with
    // in-range coordinates — the switch-allocation scan calls several
    // of these per occupied VC per cycle, and the bounds checks were
    // measurable there. All methods stay in-bounds for every `f <
    // tiles·PORTS·vcs`, which construction guarantees for indices built
    // through `vc_index`.

    /// Buffered flits in input VC `f`.
    #[inline]
    pub fn vc_len(&self, f: usize) -> usize {
        debug_assert!(f < self.len.len());
        unsafe { *self.len.get_unchecked(f) as usize }
    }

    /// Whether another flit fits in input VC `f`.
    #[inline]
    pub fn has_space(&self, f: usize) -> bool {
        self.vc_len(f) < self.depth
    }

    /// The oldest buffered flit of input VC `f`, if any.
    #[inline]
    pub fn front(&self, f: usize) -> Option<&BufferedFlit> {
        debug_assert!(f < self.len.len());
        if self.vc_len(f) == 0 {
            return None;
        }
        let i = f * self.depth + unsafe { *self.head.get_unchecked(f) } as usize;
        debug_assert!(i < self.buf.len());
        Some(unsafe { self.buf.get_unchecked(i) })
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
        let mut slot = unsafe { *self.head.get_unchecked(f) } as usize + self.vc_len(f);
        if slot >= self.depth {
            slot -= self.depth;
        }
        let i = f * self.depth + slot;
        debug_assert!(i < self.buf.len());
        unsafe {
            *self.buf.get_unchecked_mut(i) = BufferedFlit { flit, arrived };
            *self.len.get_unchecked_mut(f) += 1;
        }
    }

    /// Pop the head flit of input VC `f` after it traversed the switch,
    /// resetting the per-message state when the tail leaves.
    #[inline]
    pub fn pop_after_traversal(&mut self, f: usize) -> BufferedFlit {
        debug_assert!(self.vc_len(f) > 0, "pop from empty VC");
        let head = unsafe { *self.head.get_unchecked(f) };
        let i = f * self.depth + head as usize;
        debug_assert!(i < self.buf.len());
        let bf = unsafe { *self.buf.get_unchecked(i) };
        let next = head + 1;
        unsafe {
            *self.head.get_unchecked_mut(f) = if next as usize == self.depth { 0 } else { next };
            *self.len.get_unchecked_mut(f) -= 1;
        }
        if bf.flit.tail {
            unsafe {
                *self.route.get_unchecked_mut(f) = NO_ROUTE;
                *self.out_vc.get_unchecked_mut(f) = NO_OUT;
            }
        }
        bf
    }

    /// Cached route (output-port index) of input VC `f`'s head message.
    #[inline]
    pub fn route(&self, f: usize) -> Option<usize> {
        debug_assert!(f < self.route.len());
        let r = unsafe { *self.route.get_unchecked(f) };
        (r != NO_ROUTE).then_some(r as usize)
    }

    /// Cache the head message's route (output-port index `port`) on
    /// input VC `f`.
    #[inline]
    pub fn set_route(&mut self, f: usize, port: usize) {
        debug_assert!(f < self.route.len() && port < PORTS);
        unsafe { *self.route.get_unchecked_mut(f) = port as u8 };
    }

    /// Output VC allocated to input VC `f`'s head message.
    #[inline]
    pub fn out_vc(&self, f: usize) -> Option<usize> {
        debug_assert!(f < self.out_vc.len());
        let v = unsafe { *self.out_vc.get_unchecked(f) };
        (v != NO_OUT).then_some(v as usize)
    }

    /// Allocate output VC `v` to input VC `f`'s head message.
    #[inline]
    pub fn set_out_vc(&mut self, f: usize, v: usize) {
        debug_assert!(f < self.out_vc.len());
        unsafe { *self.out_vc.get_unchecked_mut(f) = v as u8 };
    }

    /// Owner of output VC `f`, as (input port, input VC).
    #[inline]
    pub fn owner(&self, f: usize) -> Option<(usize, usize)> {
        debug_assert!(f < self.owner.len());
        unsafe { *self.owner.get_unchecked(f) }.map(|(p, v)| (p as usize, v as usize))
    }

    /// Output VCs of port group `group` (`tile·PORTS + port`) that no
    /// input VC owns, as a bitmap (bit = VC).
    #[inline]
    pub fn free_out_vcs(&self, group: usize) -> u32 {
        self.ovc_free[group]
    }

    /// Hand output VC `vc` of port group `group` to `owner` (input
    /// port, input VC) until its message's tail leaves.
    #[inline]
    pub fn claim_out_vc(&mut self, group: usize, vc: usize, owner: (usize, usize)) {
        let f = group * self.nvc + vc;
        debug_assert!(self.owner[f].is_none());
        self.owner[f] = Some((owner.0 as u8, owner.1 as u8));
        self.ovc_free[group] &= !(1 << vc);
    }

    /// Free output VC `vc` of port group `group` (its owner's tail left).
    #[inline]
    pub fn release_out_vc(&mut self, group: usize, vc: usize) {
        self.owner[group * self.nvc + vc] = None;
        self.ovc_free[group] |= 1 << vc;
    }

    /// Free downstream buffer slots of output VC `f`.
    #[inline]
    pub fn credits(&self, f: usize) -> usize {
        debug_assert!(f < self.credits.len());
        unsafe { *self.credits.get_unchecked(f) }
    }

    /// Return one credit to output VC `f` (a downstream slot freed).
    #[inline]
    pub fn add_credit(&mut self, f: usize) {
        debug_assert!(f < self.credits.len());
        unsafe { *self.credits.get_unchecked_mut(f) += 1 };
    }

    /// Spend one credit of output VC `f` (a flit left for downstream).
    #[inline]
    pub fn spend_credit(&mut self, f: usize) {
        debug_assert!(self.credits(f) > 0, "credit underflow");
        unsafe { *self.credits.get_unchecked_mut(f) -= 1 };
    }

    /// Round-robin pointer of `(tile, port)`.
    #[inline]
    pub fn rr(&self, tile: usize, port: usize) -> usize {
        let i = tile * PORTS + port;
        debug_assert!(i < self.rr.len());
        unsafe { *self.rr.get_unchecked(i) as usize }
    }

    /// Advance the round-robin pointer of `(tile, port)`.
    #[inline]
    pub fn set_rr(&mut self, tile: usize, port: usize, v: usize) {
        let i = tile * PORTS + port;
        debug_assert!(i < self.rr.len());
        unsafe { *self.rr.get_unchecked_mut(i) = v as u32 };
    }

    /// The flits of input VC `f`, oldest first (cold paths).
    pub fn flits(&self, f: usize) -> impl Iterator<Item = &BufferedFlit> {
        let ring = &self.buf[f * self.depth..(f + 1) * self.depth];
        let (wrapped, from_head) = ring.split_at(self.head[f] as usize);
        from_head.iter().chain(wrapped).take(self.vc_len(f))
    }

    /// Mutable form of [`RouterArray::flits`] (state restore only).
    pub fn flits_mut(&mut self, f: usize) -> impl Iterator<Item = &mut BufferedFlit> {
        let n = self.vc_len(f);
        let ring = &mut self.buf[f * self.depth..(f + 1) * self.depth];
        let (wrapped, from_head) = ring.split_at_mut(self.head[f] as usize);
        from_head.iter_mut().chain(wrapped).take(n)
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
/// pointers are checkpointed. Queues are encoded front-to-back, so the
/// restored ring layout (`head = 0`) is behaviourally identical even
/// when the captured ring was mid-wrap. The stored VC count doubles as
/// a shape check — a checkpoint from a differently-shaped network
/// refuses to load — and every stored index or count is range-checked.
impl RouterArray {
    /// Save the router state as of `clock`: each VC's queue holds only
    /// the flits that have arrived by then — those still on a link are
    /// the owning sub-network's to write (see `SubNet::save_state`).
    pub fn save_arrived(&self, w: &mut ByteWriter, clock: Cycle) {
        w.usize(self.len.len());
        for f in 0..self.len.len() {
            let arrived = self.arrived_len(f, clock);
            w.usize(arrived);
            for bf in self.flits(f).take(arrived) {
                bf.save(w);
            }
            // the route's byte form is an `Option<Direction>`
            self.route(f).map(|port| Direction::ALL[port]).save(w);
            w.u8(self.out_vc[f]);
            self.owner[f].save(w);
            w.usize(self.credits[f]);
        }
        self.rr.save(w);
    }

    /// Load what [`RouterArray::save_arrived`] wrote (flits still on a
    /// link are pushed afterwards by the owner).
    pub fn load_arrived(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        let n = r.usize()?;
        if n != self.len.len() {
            return Err(r.err("router VC count does not match machine shape"));
        }
        for f in 0..n {
            let occ = r.usize()?;
            if occ > self.depth {
                return Err(r.err("input VC occupancy exceeds buffer capacity"));
            }
            self.head[f] = 0;
            self.len[f] = occ as u8;
            for i in 0..occ {
                self.buf[f * self.depth + i] = Persist::load(r)?;
            }
            let route: Option<Direction> = Persist::load(r)?;
            self.route[f] = route.map_or(NO_ROUTE, |d| d.index() as u8);
            // `out_vc`, `owner` and `credits` steer unchecked indexing
            // and the credit protocol: a value no run could have
            // produced must be refused here, not trusted there.
            let out_vc = r.u8()?;
            if out_vc != NO_OUT && out_vc as usize >= self.nvc {
                return Err(r.err("allocated output VC out of range"));
            }
            self.out_vc[f] = out_vc;
            let owner: Option<(u8, u8)> = Persist::load(r)?;
            if owner.is_some_and(|(p, v)| p as usize >= PORTS || v as usize >= self.nvc) {
                return Err(r.err("output VC owner out of range"));
            }
            self.owner[f] = owner;
            let credits = r.usize()?;
            if (f / self.nvc) % PORTS != LOCAL && credits > self.depth {
                return Err(r.err("link-port credit count out of range"));
            }
            self.credits[f] = credits;
        }
        let rr: Vec<u32> = Persist::load(r)?;
        if rr.len() != self.rr.len() {
            return Err(r.err("round-robin pointer count does not match machine shape"));
        }
        if rr.iter().any(|&p| p as usize >= PORTS * self.nvc) {
            return Err(r.err("round-robin pointer out of range"));
        }
        self.rr = rr;
        for (group, free) in self.ovc_free.iter_mut().enumerate() {
            let owners = &self.owner[group * self.nvc..(group + 1) * self.nvc];
            *free = owners
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_none())
                .fold(0, |m, (v, _)| m | 1 << v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut w = ByteWriter::new();
        r.save_arrived(&mut w, Cycle::MAX);
        let bytes = w.into_bytes();
        let mut rd = ByteReader::new(&bytes);
        fresh.load_arrived(&mut rd)?;
        rd.finish()
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
        r.set_route(f, Direction::East.index());
        r.set_out_vc(f, 1);
        r.pop_after_traversal(f);
        assert_eq!(r.route(f), Some(0), "body pop keeps state");
        r.pop_after_traversal(f);
        assert_eq!(r.route(f), None, "tail pop clears route");
        assert_eq!(r.out_vc(f), None);
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
        assert_eq!(r.vc_len(f), 0);
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
        assert!(r.credits(r.vc_index(1, LOCAL, 0)) > 1_000_000);
        assert_eq!(r.credits(r.vc_index(1, 0, 0)), 4);
    }

    #[test]
    fn claimed_out_vcs_leave_the_free_mask_until_released() {
        let mut r = RouterArray::new(2, 3, 2);
        let group = PORTS + 2; // tile 1, port 2
        assert_eq!(r.free_out_vcs(group), 0b111);
        r.claim_out_vc(group, 0, (LOCAL, 1));
        r.claim_out_vc(group, 2, (0, 0));
        assert_eq!(r.free_out_vcs(group), 0b010);
        assert_eq!(r.owner(r.vc_index(1, 2, 0)), Some((LOCAL, 1)));
        r.release_out_vc(group, 0);
        assert_eq!(r.free_out_vcs(group), 0b011);
        assert_eq!(r.owner(r.vc_index(1, 2, 0)), None);
        assert_eq!(r.free_out_vcs(group - 1), 0b111, "other ports untouched");
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
        r.set_route(f, Direction::South.index());
        r.set_out_vc(f, 1);
        let o = r.vc_index(0, 2, 1);
        r.claim_out_vc(2, 1, (3, 1));
        r.spend_credit(o);
        r.set_rr(1, 2, 7);
        let mut fresh = RouterArray::new(2, 2, 3);
        round_trip(&r, &mut fresh).expect("load");
        assert_eq!(fresh.route(f), Some(Direction::South.index()));
        for want_seq in [1, 2, 3] {
            assert_eq!(fresh.pop_after_traversal(f).flit.seq, want_seq);
        }
        assert_eq!(fresh.owner(o), Some((3, 1)));
        assert_eq!(fresh.free_out_vcs(2), 0b01, "free mask rebuilt from owners");
        assert_eq!(fresh.credits(o), 2);
        assert_eq!(fresh.rr(1, 2), 7);
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
        let mut w = ByteWriter::new();
        r.save_arrived(&mut w, 11);
        let bytes = w.into_bytes();
        let mut fresh = RouterArray::new(1, 1, 4);
        fresh
            .load_arrived(&mut ByteReader::new(&bytes))
            .expect("load");
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
        r.set_out_vc(r.vc_index(1, 0, 1), 2); // only VCs 0 and 1 exist
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
}
