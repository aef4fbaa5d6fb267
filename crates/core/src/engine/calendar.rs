//! The engine's event calendar: delayed protocol sends plus the
//! incremental core-readiness index.
//!
//! Two structures, neither scanned by the hot loop:
//!
//! * a timing wheel of [`DelayedEvent`]s — protocol messages charged a
//!   local array-access latency before injection/delivery, fired in
//!   `(cycle, sequence)` order so ties break deterministically. Every
//!   delay is below [`WHEEL_SLOTS`] (the longest, `L2_DATA_DELAY`, is
//!   8), and the scheduler never runs past a pending send, so the
//!   pending sends span fewer cycles than the wheel has slots: slot
//!   `at % WHEEL_SLOTS` holds the sends due at `at` alone, FIFO in
//!   sequence order;
//! * a lazily-invalidated min-heap over `(ready_at, tile)` with a cached
//!   `core_next` array as the source of truth — stale entries are
//!   discarded on pop, so re-scheduling a core is O(log n) with no
//!   delete-from-heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cmp_common::types::{Cycle, TileId};
use coherence::msg::ProtocolMsg;

/// Slots of the delayed-send wheel: a bound on every send's delay.
pub(crate) const WHEEL_SLOTS: usize = 16;

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

/// Delayed protocol sends plus the core-readiness index, extracted from
/// the old monolithic simulator so scheduling policy lives in one place.
#[derive(Clone, Debug)]
pub struct Calendar {
    /// The delayed-send wheel: slot `at % WHEEL_SLOTS` holds the sends
    /// due at `at`, in scheduling order.
    wheel: Vec<VecDeque<DelayedEvent>>,
    /// Sends on the wheel.
    delayed: usize,
    /// Cycle of the earliest send on the wheel (meaningless while it is
    /// empty).
    head: Cycle,
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
            wheel: vec![VecDeque::new(); WHEEL_SLOTS],
            delayed: 0,
            head: 0,
            seq: 0,
            core_next: vec![0; tiles],
            core_heap: (0..tiles as u32).map(|t| Reverse((0, t))).collect(),
        }
    }

    /// Schedule a protocol send to fire `delay` cycles after `now`.
    /// Panics unless `delay < WHEEL_SLOTS`.
    pub(crate) fn schedule(
        &mut self,
        now: Cycle,
        src: TileId,
        dst: TileId,
        msg: ProtocolMsg,
        delay: u64,
    ) {
        assert!(
            delay < WHEEL_SLOTS as u64,
            "protocol delay {delay} does not fit the {WHEEL_SLOTS}-slot calendar wheel"
        );
        self.seq += 1;
        let at = now + delay;
        self.push(DelayedEvent {
            at,
            seq: self.seq,
            src,
            dst,
            msg,
        });
    }

    /// Put `ev` on the wheel behind the sends already due at its cycle.
    fn push(&mut self, ev: DelayedEvent) {
        let slot = &mut self.wheel[ev.at as usize % WHEEL_SLOTS];
        debug_assert!(slot.front().is_none_or(|e| e.at == ev.at), "wheel overrun");
        slot.push_back(ev);
        if self.delayed == 0 || ev.at < self.head {
            self.head = ev.at;
        }
        self.delayed += 1;
    }

    /// Pop the next delayed event due at/before `now`, in
    /// `(cycle, sequence)` order.
    pub(crate) fn pop_delayed_due(&mut self, now: Cycle) -> Option<DelayedEvent> {
        if self.delayed == 0 || self.head > now {
            return None;
        }
        let slot = &mut self.wheel[self.head as usize % WHEEL_SLOTS];
        let ev = slot
            .pop_front()
            .expect("the head slot holds the earliest send");
        debug_assert_eq!(ev.at, self.head);
        self.delayed -= 1;
        if slot.is_empty() && self.delayed > 0 {
            // the next send is due within the wheel's span
            while self.wheel[self.head as usize % WHEEL_SLOTS].is_empty() {
                self.head += 1;
            }
        }
        Some(ev)
    }

    /// Cycle of the earliest scheduled send (`None` when empty).
    pub(crate) fn next_delayed(&self) -> Option<Cycle> {
        (self.delayed > 0).then_some(self.head)
    }

    /// Scheduled sends not yet fired.
    pub fn delayed_len(&self) -> usize {
        self.delayed
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

/// Both schedules are encoded as sorted vectors: [`DelayedEvent`]s by
/// `(at, seq)` and the core index entries by `(ready, tile)`, so pop
/// order — and therefore the replayed schedule — is independent of the
/// in-memory layout. The wheel is refilled in that order, and the core
/// heap is re-derived from `core_next` at load (stale entries are
/// discarded on pop anyway, so the canonical rebuild is behaviourally
/// identical).
impl cmp_common::persist::PersistState for Calendar {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        let mut delayed: Vec<DelayedEvent> = self.wheel.iter().flatten().copied().collect();
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
        let mut delayed: Vec<DelayedEvent> = Persist::load(r)?;
        self.seq = r.u64()?;
        if delayed.iter().any(|ev| ev.seq > self.seq) {
            return Err(r.err("delayed event sequence exceeds the allocator"));
        }
        delayed.sort_unstable_by_key(|ev| (ev.at, ev.seq));
        if let (Some(first), Some(last)) = (delayed.first(), delayed.last()) {
            if last.at - first.at >= WHEEL_SLOTS as u64 {
                return Err(r.err("delayed events span more cycles than the calendar wheel"));
            }
        }
        let core_next: Vec<Cycle> = Persist::load(r)?;
        if core_next.len() != self.core_next.len() {
            return Err(r.err("core count does not match machine shape"));
        }
        self.wheel.iter_mut().for_each(VecDeque::clear);
        self.delayed = 0;
        for ev in delayed {
            self.push(ev);
        }
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
    fn wheel_agrees_with_a_binary_heap_under_random_schedules() {
        use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistState};
        use cmp_common::randtest::{run_cases, u64_in, usize_in};
        // The reference is the `(cycle, sequence)` min-heap the wheel
        // replaced, driven as the engine drives the calendar: fire what
        // is due, schedule new sends (delays 0..16), jump ahead but never
        // past the earliest pending send. Pop order, the next-send cycle
        // and the saved bytes must agree throughout, also across a
        // save/load of the wheel.
        run_cases("calendar_wheel_vs_heap", 24, |rng| {
            let mut cal = Calendar::new(4);
            let mut heap: BinaryHeap<Reverse<(Cycle, u64, TileId)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = u64_in(rng, 0, 1_000);
            for _ in 0..usize_in(rng, 50, 400) {
                loop {
                    let want = heap.peek().filter(|r| r.0 .0 <= now).map(|r| r.0);
                    let got = cal.pop_delayed_due(now).map(|e| (e.at, e.seq, e.src));
                    assert_eq!(got, want);
                    match want {
                        Some(_) => heap.pop(),
                        None => break,
                    };
                }
                for _ in 0..usize_in(rng, 0, 6) {
                    let delay = u64_in(rng, 0, WHEEL_SLOTS as u64);
                    let src = TileId::from(rng.index(4));
                    cal.schedule(now, src, TileId(0), msg(), delay);
                    seq += 1;
                    heap.push(Reverse((now + delay, seq, src)));
                }
                assert_eq!(cal.next_delayed(), heap.peek().map(|r| r.0 .0));
                assert_eq!(cal.delayed_len(), heap.len());
                let mut sorted: Vec<_> = heap.iter().map(|r| r.0).collect();
                sorted.sort_unstable();
                let mut want = ByteWriter::new();
                w_events(&sorted, &mut want);
                want.u64(seq);
                cal.core_next.save(&mut want);
                let mut got = ByteWriter::new();
                cal.save_state(&mut got);
                let bytes = got.into_bytes();
                assert_eq!(bytes, want.into_bytes());
                if rng.chance(0.1) {
                    cal = Calendar::new(4);
                    cal.load_state(&mut ByteReader::new(&bytes)).expect("load");
                }
                let horizon = heap.peek().map_or(now + 40, |r| r.0 .0.max(now + 1));
                now = u64_in(rng, now + 1, horizon + 1);
            }
        });

        fn w_events(events: &[(Cycle, u64, TileId)], w: &mut ByteWriter) {
            w.usize(events.len());
            for &(at, seq, src) in events {
                DelayedEvent {
                    at,
                    seq,
                    src,
                    dst: TileId(0),
                    msg: msg(),
                }
                .save(w);
            }
        }
    }

    #[test]
    fn delayed_events_spanning_more_than_the_wheel_are_refused() {
        use cmp_common::persist::{ByteReader, ByteWriter, PersistState};
        let mut cal = Calendar::new(1);
        cal.schedule(0, TileId(0), TileId(0), msg(), 2);
        cal.schedule(0, TileId(0), TileId(0), msg(), 9);
        cal.wheel[9].front_mut().expect("scheduled").at = 2 + WHEEL_SLOTS as u64;
        let mut w = ByteWriter::new();
        cal.save_state(&mut w);
        let bytes = w.into_bytes();
        let err = Calendar::new(1)
            .load_state(&mut ByteReader::new(&bytes))
            .expect_err("no run spreads its sends over more than the wheel");
        assert!(err.to_string().contains("span more cycles"), "{err}");
    }

    #[test]
    #[should_panic(expected = "calendar wheel")]
    fn a_delay_beyond_the_wheel_panics() {
        Calendar::new(1).schedule(0, TileId(0), TileId(0), msg(), WHEEL_SLOTS as u64);
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
