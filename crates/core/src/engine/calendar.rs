//! The engine's event calendar: delayed protocol sends plus the
//! incremental core-readiness index.
//!
//! Two structures, both lazily maintained so the hot loop never scans:
//!
//! * a min-heap of [`DelayedEvent`]s — protocol messages charged a local
//!   array-access latency before injection/delivery, fired in
//!   `(cycle, sequence)` order so ties break deterministically;
//! * a lazily-invalidated min-heap over `(ready_at, tile)` with a cached
//!   `core_next` array as the source of truth — stale entries are
//!   discarded on pop, so re-scheduling a core is O(log n) with no
//!   delete-from-heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cmp_common::types::{Cycle, TileId};
use coherence::msg::ProtocolMsg;

/// A protocol message delayed by a local array-access latency before
/// injection/delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DelayedEvent {
    pub(crate) at: Cycle,
    pub(crate) seq: u64,
    pub(crate) src: TileId,
    pub(crate) dst: TileId,
    pub(crate) msg: ProtocolMsg,
}

impl Ord for DelayedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for DelayedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Delayed protocol sends plus the core-readiness index, extracted from
/// the old monolithic simulator so scheduling policy lives in one place.
#[derive(Clone, Debug)]
pub struct Calendar {
    delayed: BinaryHeap<Reverse<DelayedEvent>>,
    /// Monotonic tie-breaker: events due the same cycle fire in the order
    /// they were scheduled, which the determinism goldens depend on.
    seq: u64,
    /// Cached ready cycle per core (`Cycle::MAX` when blocked or done),
    /// the source of truth the heap entries are validated against.
    pub(crate) core_next: Vec<Cycle>,
    /// Lazily-invalidated min-heap over `(ready_at, tile)`: an entry is
    /// live iff it matches `core_next`; stale entries are discarded on pop.
    core_heap: BinaryHeap<Reverse<(Cycle, u32)>>,
}

impl Calendar {
    /// A calendar for `tiles` cores, all ready at cycle 0.
    pub(crate) fn new(tiles: usize) -> Self {
        Calendar {
            delayed: BinaryHeap::new(),
            seq: 0,
            core_next: vec![0; tiles],
            core_heap: (0..tiles as u32).map(|t| Reverse((0, t))).collect(),
        }
    }

    /// Schedule a protocol send to fire `delay` cycles after `now`.
    pub(crate) fn schedule(
        &mut self,
        now: Cycle,
        src: TileId,
        dst: TileId,
        msg: ProtocolMsg,
        delay: u64,
    ) {
        self.seq += 1;
        self.delayed.push(Reverse(DelayedEvent {
            at: now + delay,
            seq: self.seq,
            src,
            dst,
            msg,
        }));
    }

    /// Pop the next delayed event due at/before `now`, in
    /// `(cycle, sequence)` order.
    pub(crate) fn pop_delayed_due(&mut self, now: Cycle) -> Option<DelayedEvent> {
        let Reverse(ev) = self.delayed.peek()?;
        if ev.at > now {
            return None;
        }
        self.delayed.pop().map(|Reverse(ev)| ev)
    }

    /// Cycle of the earliest scheduled send (`None` when empty).
    pub(crate) fn next_delayed(&self) -> Option<Cycle> {
        self.delayed.peek().map(|Reverse(ev)| ev.at)
    }

    /// Scheduled sends not yet fired.
    pub fn delayed_len(&self) -> usize {
        self.delayed.len()
    }

    /// Re-cache core `t`'s ready cycle after its state may have changed.
    pub(crate) fn set_core_ready(&mut self, t: usize, ready: Cycle) {
        if ready != self.core_next[t] {
            self.core_next[t] = ready;
            if ready != Cycle::MAX {
                self.core_heap.push(Reverse((ready, t as u32)));
            }
        }
    }

    /// Earliest live core-ready cycle; pops stale heap entries on the way.
    pub(crate) fn earliest_ready_core(&mut self) -> Option<Cycle> {
        while let Some(&Reverse((at, t))) = self.core_heap.peek() {
            if self.core_next[t as usize] == at {
                return Some(at);
            }
            self.core_heap.pop();
        }
        None
    }

    /// Collect the tiles whose cores are due at/before `now` into `due`,
    /// deduplicated and in ascending tile order. Stale heap entries
    /// (cache mismatch) are dropped; live duplicates carry identical
    /// `(at, t)` pairs, so a sort + dedup leaves each due tile once.
    /// Ascending tile order — not heap order — reproduces the original
    /// full scan exactly, keeping delayed-event sequencing (and therefore
    /// the determinism goldens) bit-identical.
    pub(crate) fn drain_cores_due(&mut self, now: Cycle, due: &mut Vec<u32>) {
        due.clear();
        while let Some(&Reverse((at, t))) = self.core_heap.peek() {
            if at > now {
                break;
            }
            self.core_heap.pop();
            if self.core_next[t as usize] == at {
                due.push(t);
            }
        }
        due.sort_unstable();
        due.dedup();
    }
}

cmp_common::impl_persist!(DelayedEvent {
    at,
    seq,
    src,
    dst,
    msg,
});

/// Heaps are encoded as sorted vectors: [`DelayedEvent`]s are totally
/// ordered by `(at, seq)` and the core index entries by `(ready, tile)`,
/// so pop order — and therefore the replayed schedule — is independent of
/// the heap's internal layout. The core heap is re-derived from
/// `core_next` at load (stale entries are discarded on pop anyway, so the
/// canonical rebuild is behaviourally identical).
impl cmp_common::persist::PersistState for Calendar {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        let mut delayed: Vec<DelayedEvent> = self.delayed.iter().map(|Reverse(ev)| *ev).collect();
        delayed.sort_unstable_by_key(|ev| (ev.at, ev.seq));
        delayed.save(w);
        w.u64(self.seq);
        self.core_next.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        let delayed: Vec<DelayedEvent> = Persist::load(r)?;
        self.seq = r.u64()?;
        if delayed.iter().any(|ev| ev.seq > self.seq) {
            return Err(r.err("delayed event sequence exceeds the allocator"));
        }
        let core_next: Vec<Cycle> = Persist::load(r)?;
        if core_next.len() != self.core_next.len() {
            return Err(r.err("core count does not match machine shape"));
        }
        self.delayed = delayed.into_iter().map(Reverse).collect();
        self.core_next = core_next;
        self.core_heap = self
            .core_next
            .iter()
            .enumerate()
            .filter(|&(_, &at)| at != Cycle::MAX)
            .map(|(t, &at)| Reverse((at, t as u32)))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> ProtocolMsg {
        ProtocolMsg::new(coherence::msg::PKind::GetS, 0x40)
    }

    #[test]
    fn delayed_events_fire_in_cycle_then_sequence_order() {
        let mut cal = Calendar::new(2);
        cal.schedule(0, TileId(0), TileId(1), msg(), 5);
        cal.schedule(0, TileId(1), TileId(0), msg(), 5);
        cal.schedule(0, TileId(0), TileId(0), msg(), 2);
        assert_eq!(cal.next_delayed(), Some(2));
        assert!(cal.pop_delayed_due(1).is_none());
        assert_eq!(cal.pop_delayed_due(5).map(|e| e.at), Some(2));
        // same cycle → scheduling order
        assert_eq!(cal.pop_delayed_due(5).map(|e| e.src), Some(TileId(0)));
        assert_eq!(cal.pop_delayed_due(5).map(|e| e.src), Some(TileId(1)));
        assert_eq!(cal.delayed_len(), 0);
    }

    #[test]
    fn core_index_discards_stale_entries() {
        let mut cal = Calendar::new(3);
        assert_eq!(cal.earliest_ready_core(), Some(0));
        cal.set_core_ready(0, 10);
        cal.set_core_ready(1, 4);
        cal.set_core_ready(2, Cycle::MAX); // blocked
        assert_eq!(cal.earliest_ready_core(), Some(4));
        let mut due = Vec::new();
        cal.drain_cores_due(4, &mut due);
        assert_eq!(due, vec![1]);
        cal.set_core_ready(1, Cycle::MAX);
        assert_eq!(cal.earliest_ready_core(), Some(10));
    }
}
