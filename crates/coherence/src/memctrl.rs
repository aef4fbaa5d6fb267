//! Fixed-latency off-chip memory interface (Table 4: 400 cycles).

use std::collections::VecDeque;

use cmp_common::stats::Counter;
use cmp_common::types::{Addr, Cycle, TileId};

/// One outstanding memory read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRead {
    /// Tile (L2 slice) that asked.
    pub tile: TileId,
    /// Line being fetched.
    pub line: Addr,
    /// Cycle the data is available.
    pub ready_at: Cycle,
}

/// Memory controller: constant-latency reads (FIFO by construction),
/// fire-and-forget writes.
pub struct MemCtrl {
    latency: Cycle,
    reads: VecDeque<MemRead>,
    pub reads_issued: Counter,
    pub writes_issued: Counter,
}

impl MemCtrl {
    /// Controller with the given access latency in cycles.
    pub fn new(latency: Cycle) -> Self {
        MemCtrl {
            latency,
            reads: VecDeque::new(),
            reads_issued: Counter::default(),
            writes_issued: Counter::default(),
        }
    }

    /// Start a read for `tile`; it completes `latency` cycles from `now`.
    pub fn read(&mut self, now: Cycle, tile: TileId, line: Addr) {
        self.reads_issued.inc();
        self.reads.push_back(MemRead {
            tile,
            line,
            ready_at: now + self.latency,
        });
    }

    /// Record a write (latency-irrelevant for the protocol).
    pub fn write(&mut self, _line: Addr) {
        self.writes_issued.inc();
    }

    /// Pop the next read that has completed by `now`, if any
    /// (allocation-free; the simulator's hot loop drains with this).
    pub fn pop_next_ready(&mut self, now: Cycle) -> Option<MemRead> {
        if self.reads.front().is_some_and(|r| r.ready_at <= now) {
            self.reads.pop_front()
        } else {
            None
        }
    }

    /// Pop every read that has completed by `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Vec<MemRead> {
        let mut done = Vec::new();
        while let Some(r) = self.pop_next_ready(now) {
            done.push(r);
        }
        done
    }

    /// Re-queue a read whose reply was held back in flight (fault
    /// campaigns delaying the off-chip response path). Inserted in
    /// completion order — after any read with the same `ready_at` — so
    /// the queue stays sorted and [`MemCtrl::next_ready`] /
    /// [`MemCtrl::pop_next_ready`] keep their front-of-queue contract.
    /// Does not touch `reads_issued`: the read was already issued once.
    pub fn requeue_delayed(&mut self, read: MemRead) {
        let pos = self.reads.partition_point(|q| q.ready_at <= read.ready_at);
        self.reads.insert(pos, read);
    }

    /// When the next read completes (`None` if none outstanding).
    pub fn next_ready(&self) -> Option<Cycle> {
        self.reads.front().map(|r| r.ready_at)
    }

    /// Outstanding read count.
    pub fn outstanding(&self) -> usize {
        self.reads.len()
    }

    /// Snapshot of every outstanding read, in issue order (read-only;
    /// used for deadlock/violation dumps).
    pub fn outstanding_reads(&self) -> impl Iterator<Item = &MemRead> {
        self.reads.iter()
    }
}

cmp_common::impl_persist!(MemRead {
    tile,
    line,
    ready_at,
});

/// The latency is configuration; the read queue and counters are state.
impl cmp_common::persist::PersistState for MemCtrl {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        self.reads.save(w);
        self.reads_issued.save(w);
        self.writes_issued.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        self.reads = Persist::load(r)?;
        self.reads_issued = Persist::load(r)?;
        self.writes_issued = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_complete_after_latency_in_order() {
        let mut m = MemCtrl::new(400);
        m.read(10, TileId(1), 0x100);
        m.read(12, TileId(2), 0x200);
        assert_eq!(m.next_ready(), Some(410));
        assert!(m.pop_ready(409).is_empty());
        let done = m.pop_ready(410);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].line, 0x100);
        let done = m.pop_ready(1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tile, TileId(2));
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.next_ready(), None);
        assert_eq!(m.reads_issued.get(), 2);
    }

    #[test]
    fn pop_next_ready_drains_one_at_a_time() {
        let mut m = MemCtrl::new(100);
        m.read(0, TileId(1), 0x100);
        m.read(5, TileId(2), 0x200);
        assert_eq!(m.pop_next_ready(99), None);
        assert_eq!(m.pop_next_ready(100).map(|r| r.line), Some(0x100));
        assert_eq!(m.pop_next_ready(100), None, "second read not due yet");
        assert_eq!(m.pop_next_ready(105).map(|r| r.line), Some(0x200));
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn requeue_delayed_keeps_completion_order() {
        let mut m = MemCtrl::new(100);
        m.read(0, TileId(1), 0x100); // ready at 100
        m.read(5, TileId(2), 0x200); // ready at 105
        let held = m.pop_next_ready(100).unwrap();
        // Delay the first reply past the second: it must re-queue behind.
        m.requeue_delayed(MemRead {
            ready_at: 110,
            ..held
        });
        assert_eq!(m.next_ready(), Some(105));
        assert_eq!(m.pop_next_ready(120).map(|r| r.line), Some(0x200));
        assert_eq!(m.pop_next_ready(120).map(|r| r.line), Some(0x100));
        assert_eq!(m.reads_issued.get(), 2, "a re-queue is not a new issue");
    }

    #[test]
    fn writes_are_counted() {
        let mut m = MemCtrl::new(400);
        m.write(0x40);
        m.write(0x80);
        assert_eq!(m.writes_issued.get(), 2);
    }
}
