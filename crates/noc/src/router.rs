//! Wormhole router state: input virtual channels, output virtual channels
//! and credit tracking, stored struct-of-arrays for a whole sub-network.
//!
//! The switching logic lives in [`crate::subnet`]; this module owns the
//! data structures and their invariants:
//!
//! * An **input VC** buffers flits in arrival order. The route and output
//!   VC of the *current head message* are cached on the input VC and reset
//!   when its tail flit departs — wormhole switching in the classic form.
//! * An **output VC** is owned by at most one (input port, input VC) at a
//!   time, from the head flit's allocation until the tail flit traverses
//!   the switch. Its credit counter mirrors the free buffer slots of the
//!   downstream input VC.
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

/// One flit. `msg` indexes the sub-network's in-flight message slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flit {
    /// In-flight message slot.
    pub msg: u32,
    /// Position within the message (0 = head).
    pub seq: u32,
    /// Whether this is the last flit of its message.
    pub tail: bool,
}

impl Flit {
    /// Head flits carry the routing information.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }
}

/// A buffered flit plus the cycle it entered this router.
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
    /// Per input VC: cached route of the current head message.
    route: Vec<Option<Direction>>,
    /// Per input VC: output VC allocated to the current head message
    /// ([`NO_OUT`] when unallocated).
    out_vc: Vec<u8>,
    /// Per output VC: the (input port, input VC) currently sending.
    owner: Vec<Option<(u8, u8)>>,
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
            route: vec![None; vc_count],
            out_vc: vec![NO_OUT; vc_count],
            owner: vec![None; vc_count],
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

    /// Push an arriving flit. Panics if the credit protocol was violated.
    #[inline]
    pub fn push(&mut self, f: usize, flit: Flit, now: Cycle) {
        assert!(self.has_space(f), "input VC overflow: credit protocol bug");
        let mut slot = unsafe { *self.head.get_unchecked(f) } as usize + self.vc_len(f);
        if slot >= self.depth {
            slot -= self.depth;
        }
        let i = f * self.depth + slot;
        debug_assert!(i < self.buf.len());
        unsafe {
            *self.buf.get_unchecked_mut(i) = BufferedFlit { flit, arrived: now };
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
                *self.route.get_unchecked_mut(f) = None;
                *self.out_vc.get_unchecked_mut(f) = NO_OUT;
            }
        }
        bf
    }

    /// Cached route of input VC `f`'s head message.
    #[inline]
    pub fn route(&self, f: usize) -> Option<Direction> {
        debug_assert!(f < self.route.len());
        unsafe { *self.route.get_unchecked(f) }
    }

    /// Cache the head message's route on input VC `f`.
    #[inline]
    pub fn set_route(&mut self, f: usize, d: Direction) {
        debug_assert!(f < self.route.len());
        unsafe { *self.route.get_unchecked_mut(f) = Some(d) };
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

    /// Set or clear the owner of output VC `f`.
    #[inline]
    pub fn set_owner(&mut self, f: usize, o: Option<(usize, usize)>) {
        debug_assert!(f < self.owner.len());
        unsafe { *self.owner.get_unchecked_mut(f) = o.map(|(p, v)| (p as u8, v as u8)) };
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

    /// Whether any input VC of `tile` holds flits.
    pub fn tile_has_flits(&self, tile: usize) -> bool {
        let base = self.vc_index(tile, 0, 0);
        self.len[base..base + PORTS * self.nvc]
            .iter()
            .any(|&n| n > 0)
    }

    /// Earliest arrival stamp among `tile`'s buffered head flits (for
    /// idle fast-forward).
    pub fn earliest_head_arrival(&self, tile: usize) -> Option<Cycle> {
        let base = self.vc_index(tile, 0, 0);
        (base..base + PORTS * self.nvc)
            .filter_map(|f| self.front(f).map(|bf| bf.arrived))
            .min()
    }
}

use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistError, PersistState};

cmp_common::impl_persist!(Flit { msg, seq, tail });
cmp_common::impl_persist!(BufferedFlit { flit, arrived });

/// Geometry (tiles × ports × VCs × depth) is configuration; the queues,
/// the per-message wormhole state, ownership, credits and round-robin
/// pointers are checkpointed. Queues are encoded front-to-back, so the
/// restored ring layout (`head = 0`) is behaviourally identical even
/// when the captured ring was mid-wrap. The stored VC count doubles as
/// a shape check — a checkpoint from a differently-shaped network
/// refuses to load — and every stored index or count is range-checked.
impl PersistState for RouterArray {
    fn save_state(&self, w: &mut ByteWriter) {
        w.usize(self.len.len());
        for f in 0..self.len.len() {
            w.usize(self.vc_len(f));
            for i in 0..self.vc_len(f) {
                let mut slot = self.head[f] as usize + i;
                if slot >= self.depth {
                    slot -= self.depth;
                }
                self.buf[f * self.depth + slot].save(w);
            }
            self.route[f].save(w);
            w.u8(self.out_vc[f]);
            self.owner[f].save(w);
            w.usize(self.credits[f]);
        }
        self.rr.save(w);
    }

    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
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
            self.route[f] = Persist::load(r)?;
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(msg: u32, seq: u32, tail: bool) -> Flit {
        Flit { msg, seq, tail }
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
        r.set_route(f, Direction::East);
        r.set_out_vc(f, 1);
        r.pop_after_traversal(f);
        assert_eq!(r.route(f), Some(Direction::East), "body pop keeps state");
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
        assert_eq!(r.pop_after_traversal(f).flit.seq, 2);
        assert_eq!(r.pop_after_traversal(f).flit.seq, 3);
        assert_eq!(r.pop_after_traversal(f).flit.seq, 4);
        assert_eq!(r.vc_len(f), 0);
    }

    #[test]
    fn router_reports_buffered_flits() {
        let mut r = RouterArray::new(2, 2, 4);
        assert!(!r.tile_has_flits(0));
        assert_eq!(r.earliest_head_arrival(0), None);
        let f = r.vc_index(0, 0, 1);
        r.push(f, flit(0, 0, true), 42);
        assert!(r.tile_has_flits(0));
        assert!(!r.tile_has_flits(1));
        assert_eq!(r.earliest_head_arrival(0), Some(42));
    }

    #[test]
    fn local_port_has_effectively_infinite_credits() {
        let r = RouterArray::new(2, 2, 4);
        assert!(r.credits(r.vc_index(1, LOCAL, 0)) > 1_000_000);
        assert_eq!(r.credits(r.vc_index(1, 0, 0)), 4);
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
        r.set_route(f, Direction::South);
        r.set_out_vc(f, 1);
        let o = r.vc_index(0, 2, 1);
        r.set_owner(o, Some((3, 1)));
        r.spend_credit(o);
        r.set_rr(1, 2, 7);
        let mut w = ByteWriter::new();
        r.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = RouterArray::new(2, 2, 3);
        let mut rd = ByteReader::new(&bytes);
        fresh.load_state(&mut rd).expect("load");
        rd.finish().expect("no trailing bytes");
        for want_seq in [1, 2, 3] {
            assert_eq!(fresh.pop_after_traversal(f).flit.seq, want_seq);
        }
        assert_eq!(fresh.owner(o), Some((3, 1)));
        assert_eq!(fresh.credits(o), 2);
        assert_eq!(fresh.rr(1, 2), 7);
        // and a geometry mismatch is a structured error
        let mut wrong = RouterArray::new(3, 2, 3);
        let mut rd = ByteReader::new(&bytes);
        assert!(wrong.load_state(&mut rd).is_err());
    }

    /// Save `patched` (a valid router array with one field set to a
    /// value no run produces) and load it into a fresh array of the same
    /// geometry: the error message, never a panic.
    fn load_error(patched: &RouterArray) -> String {
        let mut w = ByteWriter::new();
        patched.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = RouterArray::new(2, 2, 3);
        fresh
            .load_state(&mut ByteReader::new(&bytes))
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
            r.set_owner(r.vc_index(0, 3, 0), Some(owner));
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
        let mut w = ByteWriter::new();
        RouterArray::new(2, 2, 3).save_state(&mut w);
        let bytes = w.into_bytes();
        RouterArray::new(2, 2, 3)
            .load_state(&mut ByteReader::new(&bytes))
            .expect("pristine array loads");
    }
}
