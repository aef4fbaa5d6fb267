//! The in-order core state machine.

use cmp_common::types::{Addr, Cycle};

use crate::trace::{OpSource, TraceOp};

/// What the simulator should do for this core right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Probe the L1 for this access; then call exactly one of
    /// [`Core::mem_hit`], [`Core::mem_miss_started`] or
    /// [`Core::mem_retry`].
    Access { line: Addr, write: bool },
    /// The core arrived at barrier `id`; release it with
    /// [`Core::barrier_release`] when all cores have arrived.
    AtBarrier(u32),
    /// Nothing to do before `until` (computing, stalled or retrying).
    Idle { until: Cycle },
    /// The trace is exhausted.
    Done,
}

/// Execution statistics of one core.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Instructions retired (compute + memory ops).
    pub instructions: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Cycles spent blocked on L1 misses.
    pub mem_stall_cycles: u64,
    /// Cycles spent waiting at barriers.
    pub barrier_stall_cycles: u64,
    /// Cycle the core finished its trace (0 while running).
    pub finished_at: Cycle,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Ready to consume the next op at/after the stamped cycle.
    Ready { at: Cycle },
    /// Blocked on a miss since the stamped cycle.
    WaitingMem { since: Cycle, line: Addr },
    /// Parked at a barrier since the stamped cycle.
    AtBarrier { since: Cycle, id: u32 },
    /// Trace exhausted.
    Done,
}

/// L1 hit latency charged to the core (tag + data, Table 4).
pub const L1_HIT_LATENCY: Cycle = 2;

/// A trace-driven in-order core.
pub struct Core {
    source: Box<dyn OpSource>,
    issue_width: u32,
    state: State,
    /// A memory op that must be (re-)offered to the L1.
    pending: Option<TraceOp>,
    stats: CoreStats,
}

cmp_common::impl_persist!(CoreStats {
    instructions,
    mem_ops,
    mem_stall_cycles,
    barrier_stall_cycles,
    finished_at,
});

impl cmp_common::persist::Persist for State {
    fn save(&self, w: &mut cmp_common::persist::ByteWriter) {
        match *self {
            State::Ready { at } => {
                w.u8(0);
                w.u64(at);
            }
            State::WaitingMem { since, line } => {
                w.u8(1);
                w.u64(since);
                w.u64(line);
            }
            State::AtBarrier { since, id } => {
                w.u8(2);
                w.u64(since);
                w.u32(id);
            }
            State::Done => w.u8(3),
        }
    }
    fn load(
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<Self, cmp_common::persist::PersistError> {
        Ok(match r.u8()? {
            0 => State::Ready { at: r.u64()? },
            1 => State::WaitingMem {
                since: r.u64()?,
                line: r.u64()?,
            },
            2 => State::AtBarrier {
                since: r.u64()?,
                id: r.u32()?,
            },
            3 => State::Done,
            _ => return Err(r.err("invalid core State tag")),
        })
    }
}

/// The op source and issue width come from the configuration; the
/// source's *position* plus the execution state travel as bytes.
impl cmp_common::persist::PersistState for Core {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        self.source.save_state(w);
        self.state.save(w);
        self.pending.save(w);
        self.stats.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        self.source.load_state(r)?;
        self.state = State::load(r)?;
        self.pending = Persist::load(r)?;
        self.stats = CoreStats::load(r)?;
        Ok(())
    }
}

impl Core {
    /// A core with the given trace and issue width (2 in Table 4).
    pub fn new(source: Box<dyn OpSource>, issue_width: u32) -> Self {
        assert!(issue_width >= 1);
        Core {
            source,
            issue_width,
            state: State::Ready { at: 0 },
            pending: None,
            stats: CoreStats::default(),
        }
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the trace is exhausted.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// The earliest cycle this core can make progress on its own (`None`
    /// while blocked on an external event or when done).
    pub fn ready_at(&self) -> Option<Cycle> {
        match self.state {
            State::Ready { at } => Some(at),
            _ => None,
        }
    }

    /// Human-readable label of the core's current state, for
    /// deadlock/violation dumps.
    pub fn describe(&self) -> String {
        match self.state {
            State::Ready { at } => format!("ready at cycle {at}"),
            State::WaitingMem { since, line } => {
                format!("waiting on memory for line {line:#x} since cycle {since}")
            }
            State::AtBarrier { since, id } => {
                format!("parked at barrier {id} since cycle {since}")
            }
            State::Done => "done".to_string(),
        }
    }

    /// Ask the core what it needs at cycle `now`.
    pub fn next_action(&mut self, now: Cycle) -> Action {
        match self.state {
            State::Done => Action::Done,
            State::WaitingMem { .. } | State::AtBarrier { .. } => {
                Action::Idle { until: Cycle::MAX }
            }
            State::Ready { at } if at > now => Action::Idle { until: at },
            State::Ready { .. } => {
                if let Some(op) = self.pending {
                    // re-offer a previously blocked access
                    let (line, write) = match op {
                        TraceOp::Load(a) => (a, false),
                        TraceOp::Store(a) => (a, true),
                        _ => unreachable!("only memory ops pend"),
                    };
                    return Action::Access { line, write };
                }
                match self.source.next_op() {
                    None => {
                        self.state = State::Done;
                        self.stats.finished_at = now;
                        Action::Done
                    }
                    Some(TraceOp::Compute(n)) => {
                        self.stats.instructions += n as u64;
                        let cycles = (n.div_ceil(self.issue_width)).max(1) as Cycle;
                        self.state = State::Ready { at: now + cycles };
                        Action::Idle {
                            until: now + cycles,
                        }
                    }
                    Some(op @ (TraceOp::Load(a) | TraceOp::Store(a))) => {
                        self.pending = Some(op);
                        Action::Access {
                            line: a,
                            write: matches!(op, TraceOp::Store(_)),
                        }
                    }
                    Some(TraceOp::Barrier(id)) => {
                        self.state = State::AtBarrier { since: now, id };
                        Action::AtBarrier(id)
                    }
                }
            }
        }
    }

    fn retire_mem(&mut self) {
        self.stats.instructions += 1;
        self.stats.mem_ops += 1;
        self.pending = None;
    }

    /// The offered access hit in the L1.
    pub fn mem_hit(&mut self, now: Cycle) {
        debug_assert!(self.pending.is_some());
        self.retire_mem();
        self.state = State::Ready {
            at: now + L1_HIT_LATENCY,
        };
    }

    /// The offered access missed; an MSHR was allocated. The simulator
    /// calls [`Core::mem_complete`] when the fill/grant arrives.
    pub fn mem_miss_started(&mut self, now: Cycle) {
        let line = self
            .pending
            .and_then(|op| op.line())
            .expect("miss without a pending memory op");
        self.retire_mem();
        self.state = State::WaitingMem { since: now, line };
    }

    /// The L1 could not accept the access (MSHRs full / set conflict):
    /// retry next cycle.
    pub fn mem_retry(&mut self, now: Cycle) {
        debug_assert!(self.pending.is_some());
        self.state = State::Ready { at: now + 1 };
    }

    /// The outstanding miss completed.
    pub fn mem_complete(&mut self, now: Cycle) {
        let State::WaitingMem { since, .. } = self.state else {
            panic!("mem_complete while not waiting");
        };
        self.stats.mem_stall_cycles += now - since;
        self.state = State::Ready { at: now + 1 };
    }

    /// All cores reached the barrier: resume.
    pub fn barrier_release(&mut self, now: Cycle) {
        let State::AtBarrier { since, .. } = self.state else {
            panic!("barrier_release while not at a barrier");
        };
        self.stats.barrier_stall_cycles += now - since;
        self.state = State::Ready { at: now + 1 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SliceSource;

    fn core(ops: Vec<TraceOp>) -> Core {
        Core::new(Box::new(SliceSource::new(ops)), 2)
    }

    #[test]
    fn compute_burst_takes_half_the_instructions_in_cycles() {
        let mut c = core(vec![TraceOp::Compute(10)]);
        assert_eq!(c.next_action(0), Action::Idle { until: 5 });
        // not ready before cycle 5
        assert_eq!(c.next_action(3), Action::Idle { until: 5 });
        assert_eq!(c.next_action(5), Action::Done);
        assert_eq!(c.stats().instructions, 10);
    }

    #[test]
    fn load_hit_charges_l1_latency() {
        let mut c = core(vec![TraceOp::Load(7), TraceOp::Compute(2)]);
        assert_eq!(
            c.next_action(0),
            Action::Access {
                line: 7,
                write: false
            }
        );
        c.mem_hit(0);
        assert_eq!(c.next_action(0), Action::Idle { until: 2 });
        assert_eq!(c.next_action(2), Action::Idle { until: 3 });
        assert_eq!(c.stats().mem_ops, 1);
    }

    #[test]
    fn miss_blocks_until_completion() {
        let mut c = core(vec![TraceOp::Store(9)]);
        assert_eq!(
            c.next_action(0),
            Action::Access {
                line: 9,
                write: true
            }
        );
        c.mem_miss_started(0);
        assert_eq!(c.next_action(50), Action::Idle { until: Cycle::MAX });
        c.mem_complete(100);
        assert_eq!(c.stats().mem_stall_cycles, 100);
        assert_eq!(c.next_action(101), Action::Done);
    }

    #[test]
    fn blocked_access_is_reoffered() {
        let mut c = core(vec![TraceOp::Load(5)]);
        assert_eq!(
            c.next_action(0),
            Action::Access {
                line: 5,
                write: false
            }
        );
        c.mem_retry(0);
        assert_eq!(c.next_action(0), Action::Idle { until: 1 });
        // the same access comes back
        assert_eq!(
            c.next_action(1),
            Action::Access {
                line: 5,
                write: false
            }
        );
        c.mem_hit(1);
        assert_eq!(c.stats().mem_ops, 1, "retried op retires once");
    }

    #[test]
    fn barrier_parks_until_release() {
        let mut c = core(vec![TraceOp::Barrier(3), TraceOp::Compute(2)]);
        assert_eq!(c.next_action(10), Action::AtBarrier(3));
        assert_eq!(c.next_action(20), Action::Idle { until: Cycle::MAX });
        c.barrier_release(60);
        assert_eq!(c.stats().barrier_stall_cycles, 50);
        assert_eq!(c.next_action(61), Action::Idle { until: 62 });
    }

    #[test]
    fn done_when_trace_ends() {
        let mut c = core(vec![]);
        assert_eq!(c.next_action(0), Action::Done);
        assert!(c.is_done());
        assert_eq!(c.ready_at(), None);
        assert_eq!(c.describe(), "done");
    }

    #[test]
    fn describe_names_the_blocking_line_and_barrier() {
        let mut c = core(vec![TraceOp::Load(0x40), TraceOp::Barrier(7)]);
        assert!(c.describe().starts_with("ready at cycle"));
        c.next_action(0);
        c.mem_miss_started(3);
        assert_eq!(
            c.describe(),
            "waiting on memory for line 0x40 since cycle 3"
        );
        c.mem_complete(10);
        c.next_action(11);
        assert_eq!(c.describe(), "parked at barrier 7 since cycle 11");
    }
}
