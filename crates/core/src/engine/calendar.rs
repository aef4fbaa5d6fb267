//! The engine's event calendar: delayed protocol sends plus the
//! incremental core-readiness index.
//!
//! Two timing wheels, neither scanned by the hot loop:
//!
//! * a wheel of `DelayedEvent`s — protocol messages charged a local
//!   array-access latency before injection/delivery, fired in
//!   `(cycle, sequence)` order so ties break deterministically. Every
//!   delay is below `WHEEL_SLOTS` (the longest, `L2_DATA_DELAY`, is
//!   8), and the scheduler never runs past a pending send, so the
//!   pending sends span fewer cycles than the wheel has slots: slot
//!   `at % WHEEL_SLOTS` holds the sends due at `at` alone, FIFO in
//!   sequence order;
//! * a bitmap wheel of core wake-ups with a cached `core_next` array as
//!   the source of truth: slot `c % 64` is a tile bitmap of the cores
//!   ready at `c`, and a `u64` mask marks the occupied slots, so the
//!   earliest wake-up is a rotate and a `trailing_zeros`, and the cores
//!   due now come out of one slot in ascending tile order. Wake-ups 64
//!   or more cycles out (compute bursts reach 2,048) wait in a
//!   lazily-invalidated overflow heap and move onto the wheel once
//!   they come within its span.

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
    /// the source of truth the wake-up wheel is derived from.
    pub(crate) core_next: Vec<Cycle>,
    /// The core wake-up wheel: slot `s` is the `tile_words`-word tile
    /// bitmap at `core_wheel[s * tile_words..]` of the cores ready at
    /// the one cycle `c ≥ now` with `c % CORE_SLOTS == s`.
    core_wheel: Vec<u64>,
    /// Bit `s` set iff wheel slot `s` holds a core.
    core_slots: u64,
    /// Words per wheel slot: `tiles.div_ceil(64)`.
    tile_words: usize,
    /// Wake-ups at least [`CORE_SLOTS`] cycles out when scheduled, as
    /// `(ready_at, tile)`. An entry is live iff it matches `core_next`;
    /// stale ones are discarded when they reach the wheel's span.
    core_overflow: BinaryHeap<Reverse<(Cycle, u32)>>,
}

/// Slots of the core wake-up wheel: one per bit of its occupancy mask.
const CORE_SLOTS: u64 = 64;

impl Calendar {
    /// A calendar for `tiles` cores, all ready at cycle 0.
    pub(crate) fn new(tiles: usize) -> Self {
        let tile_words = tiles.div_ceil(64);
        let mut cal = Calendar {
            wheel: vec![VecDeque::new(); WHEEL_SLOTS],
            delayed: 0,
            head: 0,
            seq: 0,
            core_next: vec![0; tiles],
            core_wheel: vec![0; CORE_SLOTS as usize * tile_words],
            core_slots: 0,
            tile_words,
            core_overflow: BinaryHeap::new(),
        };
        cal.rederive_cores();
        cal
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

    /// Re-derive the wake-up wheel from `core_next`: every live entry
    /// goes to the overflow heap, which the next query moves onto the
    /// wheel. Used at construction and after a load, which does not
    /// see the clock.
    fn rederive_cores(&mut self) {
        self.core_wheel.fill(0);
        self.core_slots = 0;
        self.core_overflow = (self.core_next.iter().enumerate())
            .filter(|&(_, &at)| at != Cycle::MAX)
            .map(|(t, &at)| Reverse((at, t as u32)))
            .collect();
    }

    /// Re-cache core `t`'s ready cycle after its state may have changed.
    /// `ready` is `Cycle::MAX` or at least `now`; the clock never passes
    /// a pending wake-up without draining it (see
    /// [`Calendar::drain_cores_due`]).
    pub(crate) fn set_core_ready(&mut self, t: usize, ready: Cycle, now: Cycle) {
        let old = self.core_next[t];
        if ready == old {
            return;
        }
        debug_assert!(ready >= now, "core {t} wakes at {ready}, before {now}");
        self.core_next[t] = ready;
        if old != Cycle::MAX {
            // a no-op when the old wake-up is drained or still overflowed
            self.unmark_core(t, old);
        }
        if ready == Cycle::MAX {
            return;
        }
        if ready - now < CORE_SLOTS {
            self.mark_core(t, ready);
        } else {
            self.core_overflow.push(Reverse((ready, t as u32)));
        }
    }

    /// Index of tile `t`'s word in the wheel slot of cycle `at`, and
    /// its bit there.
    #[inline]
    fn core_bit(&self, t: usize, at: Cycle) -> (usize, u64) {
        let slot = (at % CORE_SLOTS) as usize;
        (slot * self.tile_words + t / 64, 1 << (t % 64))
    }

    fn mark_core(&mut self, t: usize, at: Cycle) {
        let (word, bit) = self.core_bit(t, at);
        self.core_wheel[word] |= bit;
        self.core_slots |= 1 << (at % CORE_SLOTS);
    }

    /// Clear `t`'s bit in the slot of `at`, if set, and the slot's
    /// occupancy bit once the slot is empty.
    fn unmark_core(&mut self, t: usize, at: Cycle) {
        let (word, bit) = self.core_bit(t, at);
        if self.core_wheel[word] & bit == 0 {
            return;
        }
        self.core_wheel[word] &= !bit;
        let slot = (at % CORE_SLOTS) as usize;
        let words = &self.core_wheel[slot * self.tile_words..][..self.tile_words];
        if words.iter().all(|&w| w == 0) {
            self.core_slots &= !(1 << slot);
        }
    }

    /// Move the live overflow wake-ups within the wheel's span of `now`
    /// onto the wheel, discarding stale ones. A core re-set to a cycle
    /// it had already overflowed to is on the heap twice; marking is
    /// idempotent, so it lands on the wheel once.
    fn promote_overflow(&mut self, now: Cycle) {
        while let Some(&Reverse((at, t))) = self.core_overflow.peek() {
            if at >= now + CORE_SLOTS {
                break;
            }
            self.core_overflow.pop();
            if self.core_next[t as usize] == at {
                debug_assert!(at >= now, "core {t} woke at {at}, passed at {now}");
                self.mark_core(t as usize, at);
            }
        }
    }

    /// Earliest pending core wake-up (`None` when every core is blocked
    /// or done).
    pub(crate) fn earliest_ready_core(&mut self, now: Cycle) -> Option<Cycle> {
        self.promote_overflow(now);
        if self.core_slots != 0 {
            let ahead = self.core_slots.rotate_right((now % CORE_SLOTS) as u32);
            return Some(now + Cycle::from(ahead.trailing_zeros()));
        }
        // the wheel is empty: the heap's first live entry is the answer
        while let Some(&Reverse((at, t))) = self.core_overflow.peek() {
            if self.core_next[t as usize] == at {
                return Some(at);
            }
            self.core_overflow.pop();
        }
        None
    }

    /// Collect the tiles whose cores are due at `now` into `due`, in
    /// ascending tile order: one wheel slot, walked bit by bit.
    /// Ascending tile order reproduces the original full scan exactly,
    /// keeping delayed-event sequencing (and therefore the determinism
    /// goldens) bit-identical. No pending wake-up may lie before `now`,
    /// which the engine guarantees by never jumping past
    /// [`Calendar::earliest_ready_core`].
    pub(crate) fn drain_cores_due(&mut self, now: Cycle, due: &mut Vec<u32>) {
        due.clear();
        self.promote_overflow(now);
        let slot = (now % CORE_SLOTS) as usize;
        if self.core_slots & 1 << slot == 0 {
            return;
        }
        self.core_slots &= !(1 << slot);
        let words = &mut self.core_wheel[slot * self.tile_words..][..self.tile_words];
        for (w, word) in words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                due.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

cmp_common::impl_persist!(DelayedEvent {
    at,
    seq,
    src,
    dst,
    msg,
});

/// The delayed sends are encoded as a vector sorted by `(at, seq)`, so
/// pop order — and therefore the replayed schedule — is independent of
/// the in-memory layout; the wheel is refilled in that order. Of the
/// core index only `core_next` is persisted: the wake-up wheel is
/// re-derived from it at load.
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
        self.rederive_cores();
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
        assert_eq!(cal.earliest_ready_core(0), Some(0));
        cal.set_core_ready(0, 100, 0); // overflowed
        cal.set_core_ready(1, 4, 0);
        cal.set_core_ready(2, Cycle::MAX, 0); // blocked
        assert_eq!(cal.earliest_ready_core(0), Some(4));
        let mut due = Vec::new();
        cal.drain_cores_due(4, &mut due);
        assert_eq!(due, vec![1]);
        cal.set_core_ready(1, Cycle::MAX, 4);
        assert_eq!(cal.earliest_ready_core(4), Some(100));
        cal.set_core_ready(0, 10, 4); // the overflow entry goes stale
        assert_eq!(cal.earliest_ready_core(4), Some(10));
        cal.drain_cores_due(10, &mut due);
        assert_eq!(due, vec![0]);
        cal.set_core_ready(0, Cycle::MAX, 10);
        assert_eq!(cal.earliest_ready_core(10), None);
    }

    /// The core index the wake-up wheel replaced: a min-heap over
    /// `(ready_at, tile)` validated against `core_next`, stale entries
    /// discarded on pop, re-derived from `core_next` on load.
    struct LazyHeap {
        core_next: Vec<Cycle>,
        heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    }

    impl LazyHeap {
        fn new(core_next: Vec<Cycle>) -> Self {
            let heap = (core_next.iter().enumerate())
                .filter(|&(_, &at)| at != Cycle::MAX)
                .map(|(t, &at)| Reverse((at, t as u32)))
                .collect();
            LazyHeap { core_next, heap }
        }

        fn set(&mut self, t: usize, ready: Cycle) {
            if ready != self.core_next[t] {
                self.core_next[t] = ready;
                if ready != Cycle::MAX {
                    self.heap.push(Reverse((ready, t as u32)));
                }
            }
        }

        fn earliest(&mut self) -> Option<Cycle> {
            while let Some(&Reverse((at, t))) = self.heap.peek() {
                if self.core_next[t as usize] == at {
                    return Some(at);
                }
                self.heap.pop();
            }
            None
        }

        fn drain(&mut self, now: Cycle) -> Vec<u32> {
            let mut due = Vec::new();
            while let Some(&Reverse((at, t))) = self.heap.peek() {
                if at > now {
                    break;
                }
                self.heap.pop();
                if self.core_next[t as usize] == at {
                    due.push(t);
                }
            }
            due.sort_unstable();
            due.dedup();
            due
        }
    }

    #[test]
    fn core_wheel_agrees_with_a_lazy_heap_under_random_schedules() {
        use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistState};
        use cmp_common::randtest::{run_cases, u64_in, usize_in};
        // Driven as the engine drives it: wake-ups set before the drain
        // (deliveries, at `now` or later), the drain, every drained core
        // re-set past `now`, more sets (barrier releases), then a jump
        // that never passes the earliest pending wake-up. Wake-ups land
        // 0..4,096 cycles out — on both sides of the wheel's 64-slot
        // span — and include equal re-sets and `Cycle::MAX`; tile counts
        // cross the bitmap's 64-tile words; a save/load lands mid-run.
        /// A wake-up at or after `now`; `current` is the core's cached
        /// one, re-set unchanged now and then.
        fn wake(rng: &mut cmp_common::rng::SimRng, now: Cycle, current: Cycle) -> Cycle {
            match rng.index(8) {
                0 => Cycle::MAX,
                1 if current != Cycle::MAX && current >= now => current,
                2 => now + [62, 63, 64, 65, 127, 128][rng.index(6)],
                3 => now + u64_in(rng, 2_048, 4_096),
                _ => now + u64_in(rng, 0, 12),
            }
        }
        run_cases("core_wheel_vs_lazy_heap", 24, |rng| {
            let tiles = [1, 3, 16, 64, 65, 130][rng.index(6)];
            let mut cal = Calendar::new(tiles);
            let mut heap = LazyHeap::new(vec![0; tiles]);
            let mut now = 0;
            let mut due = Vec::new();
            for _ in 0..usize_in(rng, 50, 400) {
                for _ in 0..usize_in(rng, 0, 3) {
                    let t = rng.index(tiles);
                    let ready = wake(rng, now, heap.core_next[t]);
                    cal.set_core_ready(t, ready, now);
                    heap.set(t, ready);
                }
                cal.drain_cores_due(now, &mut due);
                assert_eq!(due, heap.drain(now), "cores due at {now}");
                for &t in &due {
                    let ready = wake(rng, now + 1, Cycle::MAX);
                    cal.set_core_ready(t as usize, ready, now);
                    heap.set(t as usize, ready);
                }
                for _ in 0..usize_in(rng, 0, 3) {
                    let t = rng.index(tiles);
                    let ready = wake(rng, now + 1, heap.core_next[t]);
                    cal.set_core_ready(t, ready, now);
                    heap.set(t, ready);
                }
                assert_eq!(cal.core_next, heap.core_next);
                let earliest = heap.earliest();
                assert_eq!(cal.earliest_ready_core(now), earliest, "at {now}");
                if rng.chance(0.1) {
                    let mut w = ByteWriter::new();
                    cal.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut want = ByteWriter::new();
                    Vec::<DelayedEvent>::new().save(&mut want);
                    want.u64(0);
                    heap.core_next.save(&mut want);
                    assert_eq!(bytes, want.into_bytes());
                    cal = Calendar::new(tiles);
                    cal.load_state(&mut ByteReader::new(&bytes)).expect("load");
                    heap = LazyHeap::new(heap.core_next);
                }
                now = match earliest {
                    Some(at) if rng.chance(0.5) => at.max(now + 1),
                    Some(at) => u64_in(rng, now + 1, at.max(now + 1) + 1),
                    None => now + u64_in(rng, 1, 100),
                };
            }
        });
    }
}
