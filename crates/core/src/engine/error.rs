//! Structured failure reporting: every abnormal end of a run carries a
//! machine snapshot instead of a panic.

use cmp_common::types::{Addr, Cycle, MessageClass, TileId};
use coherence::sanitizer::Violation;
use coherence::ProtocolError;

/// One tile's stall picture attached to a
/// [`SimError::NoForwardProgress`] report.
#[derive(Clone, Debug)]
pub struct TileStall {
    /// The tile.
    pub tile: TileId,
    /// What the core is doing (`Core::describe`).
    pub core: String,
    /// Outstanding L1 misses holding MSHRs.
    pub mshrs_in_use: usize,
    /// NoC congestion at this tile: `(messages queued at the NI, flits
    /// buffered in the router)`.
    pub ni_backlog: (usize, u32),
}

impl TileStall {
    /// Nothing stuck at this tile — omitted from the rendered report.
    pub fn is_quiet(&self) -> bool {
        self.mshrs_in_use == 0
            && self.ni_backlog == (0, 0)
            && (self.core.starts_with("ready") || self.core == "done")
    }
}

/// The longest-waiting message still traversing the NoC when the
/// watchdog fired (`None` when the network is empty — the livelock is
/// then purely core-side).
#[derive(Clone, Copy, Debug)]
pub struct OldestInFlight {
    /// Cycle the message entered the network.
    pub injected_at: Cycle,
    /// Sender tile.
    pub src: TileId,
    /// Destination tile.
    pub dst: TileId,
    /// Message class.
    pub class: MessageClass,
}

/// Snapshot of one tile's controllers at failure time.
#[derive(Clone, Debug)]
pub struct TileDump {
    /// The tile.
    pub tile: TileId,
    /// What the core is doing (`Core::describe`).
    pub core: String,
    /// Lines with an outstanding L1 miss.
    pub mshr_lines: Vec<Addr>,
    /// Lines mid-transaction at this home slice, with their busy state.
    pub l2_busy: Vec<(Addr, String)>,
    /// Lines awaiting an off-chip fill at this home slice.
    pub l2_fills: Vec<Addr>,
    /// Requests parked in this home slice's pending queues.
    pub l2_pending: usize,
    /// NoC congestion at this tile: `(messages queued at the NI, flits
    /// buffered in the router)`.
    pub ni_backlog: (usize, u32),
}

impl TileDump {
    /// Nothing in flight at this tile — omitted from the rendered dump.
    pub fn is_quiet(&self) -> bool {
        (self.core.starts_with("ready") || self.core == "done")
            && self.mshr_lines.is_empty()
            && self.l2_busy.is_empty()
            && self.l2_fills.is_empty()
            && self.l2_pending == 0
            && self.ni_backlog == (0, 0)
    }
}

/// Full machine snapshot attached to every structured failure: per-tile
/// queue depths, in-flight messages, MSHR and directory-busy state.
#[derive(Clone, Debug)]
pub struct StateDump {
    /// Cycle the snapshot was taken.
    pub cycle: Cycle,
    /// One entry per tile, quiet or not (the `Display` form prints only
    /// the busy ones).
    pub tiles: Vec<TileDump>,
    /// Outstanding off-chip reads as `(tile, line, ready_at)`.
    pub mem_reads: Vec<(TileId, Addr, Cycle)>,
    /// Protocol sends scheduled but not yet injected.
    pub delayed_events: usize,
    /// Messages parked by a fault-injected delay.
    pub held_messages: usize,
    /// Messages anywhere in the network.
    pub live_messages: usize,
}

fn hex_list(lines: &[Addr]) -> String {
    lines
        .iter()
        .map(|a| format!("{a:#x}"))
        .collect::<Vec<_>>()
        .join(", ")
}

impl std::fmt::Display for StateDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "state dump at cycle {}:", self.cycle)?;
        let mut quiet = 0usize;
        for t in &self.tiles {
            if t.is_quiet() {
                quiet += 1;
                continue;
            }
            write!(f, "  tile {}: core {}", t.tile.index(), t.core)?;
            if !t.mshr_lines.is_empty() {
                write!(f, "; MSHRs [{}]", hex_list(&t.mshr_lines))?;
            }
            if !t.l2_busy.is_empty() {
                let busy = t
                    .l2_busy
                    .iter()
                    .map(|(a, s)| format!("{a:#x} {s}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(f, "; L2 busy [{busy}]")?;
            }
            if !t.l2_fills.is_empty() {
                write!(f, "; L2 fills [{}]", hex_list(&t.l2_fills))?;
            }
            if t.l2_pending != 0 {
                write!(f, "; {} queued requests", t.l2_pending)?;
            }
            if t.ni_backlog != (0, 0) {
                write!(
                    f,
                    "; NI backlog {} msgs / {} flits",
                    t.ni_backlog.0, t.ni_backlog.1
                )?;
            }
            writeln!(f)?;
        }
        if quiet > 0 {
            writeln!(f, "  ({quiet} quiet tiles omitted)")?;
        }
        if !self.mem_reads.is_empty() {
            let reads = self
                .mem_reads
                .iter()
                .map(|(t, l, r)| format!("tile {} line {l:#x} ready at {r}", t.index()))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                f,
                "  memory: {} reads outstanding [{reads}]",
                self.mem_reads.len()
            )?;
        }
        writeln!(
            f,
            "  network: {} live messages ({} fault-held); {} delayed sends",
            self.live_messages, self.held_messages, self.delayed_events
        )
    }
}

/// Why a run failed.
#[derive(Clone, Debug)]
pub enum SimError {
    /// No component can make progress but the workload is unfinished.
    Deadlock {
        cycle: Cycle,
        diagnostics: String,
        dump: Box<StateDump>,
    },
    /// The watchdog fired.
    Watchdog { cycle: Cycle },
    /// The forward-progress watchdog fired: events kept firing (the
    /// clock advanced) but no instruction retired and no message was
    /// delivered for the configured budget — a livelock, caught long
    /// before the [`crate::sim::SimConfig::max_cycles`] cap.
    NoForwardProgress {
        /// Cycle at which the stall was diagnosed.
        cycle: Cycle,
        /// Cycles since the last observed progress.
        stalled_for: Cycle,
        /// One entry per tile (the `Display` form prints only the busy
        /// ones).
        tiles: Vec<TileStall>,
        /// Next delayed protocol send in the calendar, if any.
        calendar_head: Option<Cycle>,
        /// The longest-waiting message still in the network, if any.
        oldest_in_flight: Option<OldestInFlight>,
        dump: Box<StateDump>,
    },
    /// The supervisor's wall-clock deadline for this cell expired before
    /// the run finished (see `supervisor::RunPolicy::wall_deadline`).
    WallDeadline {
        /// Cycle the run had reached when the deadline expired.
        cycle: Cycle,
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// A controller rejected a protocol-illegal message (corrupted or
    /// duplicated traffic, or a genuine protocol bug).
    Protocol {
        cycle: Cycle,
        error: ProtocolError,
        dump: Box<StateDump>,
    },
    /// A sanitizer sweep found the coherence state inconsistent.
    Sanitizer {
        cycle: Cycle,
        violations: Vec<Violation>,
        dump: Box<StateDump>,
    },
    /// The run's worker thread panicked (a simulator bug): the matrix
    /// runner converts the unwind payload into this structured failure
    /// instead of poisoning the whole sweep.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl SimError {
    /// Cycle at which the run failed (0 for failures with no cycle, such
    /// as a worker panic).
    pub fn cycle(&self) -> Cycle {
        match self {
            SimError::Deadlock { cycle, .. }
            | SimError::Watchdog { cycle }
            | SimError::NoForwardProgress { cycle, .. }
            | SimError::WallDeadline { cycle, .. }
            | SimError::Protocol { cycle, .. }
            | SimError::Sanitizer { cycle, .. } => *cycle,
            SimError::Panic { .. } => 0,
        }
    }

    /// The attached machine snapshot (`None` for the cycle-cap watchdog,
    /// wall-clock deadlines and worker panics).
    pub fn dump(&self) -> Option<&StateDump> {
        match self {
            SimError::Deadlock { dump, .. }
            | SimError::NoForwardProgress { dump, .. }
            | SimError::Protocol { dump, .. }
            | SimError::Sanitizer { dump, .. } => Some(dump),
            SimError::Watchdog { .. } | SimError::WallDeadline { .. } | SimError::Panic { .. } => {
                None
            }
        }
    }

    /// Stable one-word classification of the failure, used by the run
    /// journal (the full `Display` form can run to hundreds of lines of
    /// state dump).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::Watchdog { .. } => "cycle-cap",
            SimError::NoForwardProgress { .. } => "no-forward-progress",
            SimError::WallDeadline { .. } => "wall-deadline",
            SimError::Protocol { .. } => "protocol",
            SimError::Sanitizer { .. } => "sanitizer",
            SimError::Panic { .. } => "panic",
        }
    }

    /// A one-line summary (kind, cycle, and the panic message when there
    /// is one) suitable for journal fail records.
    pub fn brief(&self) -> String {
        match self {
            SimError::Panic { message } => format!("panic: {message}"),
            other => format!("{} at cycle {}", other.kind(), other.cycle()),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock {
                cycle,
                diagnostics,
                dump,
            } => {
                writeln!(f, "deadlock at cycle {cycle}: {diagnostics}")?;
                write!(f, "{dump}")
            }
            SimError::Watchdog { cycle } => write!(f, "watchdog at cycle {cycle}"),
            SimError::NoForwardProgress {
                cycle,
                stalled_for,
                tiles,
                calendar_head,
                oldest_in_flight,
                dump,
            } => {
                writeln!(
                    f,
                    "no forward progress for {stalled_for} cycles at cycle {cycle}: \
                     no instruction retired, no message delivered"
                )?;
                let mut quiet = 0usize;
                for t in tiles {
                    if t.is_quiet() {
                        quiet += 1;
                        continue;
                    }
                    writeln!(
                        f,
                        "  tile {}: core {}; {} MSHRs in use; NI backlog {} msgs / {} flits",
                        t.tile.index(),
                        t.core,
                        t.mshrs_in_use,
                        t.ni_backlog.0,
                        t.ni_backlog.1
                    )?;
                }
                if quiet > 0 {
                    writeln!(f, "  ({quiet} quiet tiles omitted)")?;
                }
                match calendar_head {
                    Some(at) => writeln!(f, "  calendar head: delayed send at cycle {at}")?,
                    None => writeln!(f, "  calendar head: no delayed sends")?,
                }
                match oldest_in_flight {
                    Some(m) => writeln!(
                        f,
                        "  oldest in-flight message: {:?} {} -> {} injected at cycle {}",
                        m.class,
                        m.src.index(),
                        m.dst.index(),
                        m.injected_at
                    )?,
                    None => writeln!(f, "  network is empty")?,
                }
                write!(f, "{dump}")
            }
            SimError::WallDeadline { cycle, limit_ms } => write!(
                f,
                "wall-clock deadline of {limit_ms} ms expired at cycle {cycle}"
            ),
            SimError::Protocol { cycle, error, dump } => {
                writeln!(f, "protocol error at cycle {cycle}: {error}")?;
                write!(f, "{dump}")
            }
            SimError::Sanitizer {
                cycle,
                violations,
                dump,
            } => {
                writeln!(
                    f,
                    "sanitizer found {} violation(s) at cycle {cycle}:",
                    violations.len()
                )?;
                for v in violations {
                    writeln!(f, "  {v}")?;
                }
                write!(f, "{dump}")
            }
            SimError::Panic { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl std::error::Error for SimError {}
