//! Typed ports: how a tile's controllers hand traffic to the rest of the
//! machine.
//!
//! The coherence controllers are pure state machines returning
//! [`OutVec`]s of side effects; a [`TilePorts`] routes those effects to
//! their destinations — protocol sends onto the event calendar (charged
//! their local array-access latency), memory reads/writes straight to
//! the controller. The port is a zero-cost borrow over the engine's
//! calendar and memory controller, so routing compiles down to exactly
//! the match the monolithic simulator used to inline.

use cmp_common::types::{Addr, Cycle, TileId};
use coherence::memctrl::MemCtrl;
use coherence::msg::{OutVec, Outgoing, ProtocolMsg};

use super::calendar::Calendar;

/// The outbound ports of one tile (or L2 bank) at one instant.
pub struct TilePorts<'a> {
    src: TileId,
    now: Cycle,
    calendar: &'a mut Calendar,
    mem: &'a mut MemCtrl,
}

impl<'a> TilePorts<'a> {
    /// Ports for `src`, routing into `calendar` and `mem` at cycle `now`.
    pub(crate) fn new(
        src: TileId,
        now: Cycle,
        calendar: &'a mut Calendar,
        mem: &'a mut MemCtrl,
    ) -> Self {
        TilePorts {
            src,
            now,
            calendar,
            mem,
        }
    }

    /// Send a protocol message, charged `delay` cycles of local latency
    /// before it is injected (remote) or delivered (local).
    pub fn send(&mut self, dst: TileId, msg: ProtocolMsg, delay: u64) {
        self.calendar.schedule(self.now, self.src, dst, msg, delay);
    }

    /// Start an off-chip read on behalf of this tile's L2 bank.
    pub fn mem_read(&mut self, line: Addr) {
        self.mem.read(self.now, self.src, line);
    }

    /// Record an off-chip write (latency-irrelevant for the protocol).
    pub fn mem_write(&mut self, line: Addr) {
        self.mem.write(line);
    }

    /// Route a controller's whole side-effect vector.
    pub fn route(&mut self, outs: OutVec) {
        for &o in &outs {
            match o {
                Outgoing::Send { dst, msg, delay } => self.send(dst, msg, delay),
                Outgoing::MemRead { line } => self.mem_read(line),
                Outgoing::MemWrite { line } => self.mem_write(line),
            }
        }
    }
}
