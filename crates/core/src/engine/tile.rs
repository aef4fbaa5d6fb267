//! The per-tile component: core + private L1 + network interface, with
//! the shared-L2 bank as its sibling.
//!
//! A [`Tile`] owns everything private to one node of the mesh; an
//! [`L2Bank`] owns one slice of the shared NUCA L2 plus its cached
//! busy flag. Each describes its mutable state once, as
//! [`PersistState`]; the machine-level snapshot is the concatenation.

use addr_compression::CompressionEngine;
use cmp_common::persist::{
    load_state_slice, save_state_slice, ByteReader, ByteWriter, PersistError, PersistState,
};
use cmp_common::types::{Addr, Cycle, MessageClass, TileId};
use coherence::l1::L1Cache;
use coherence::l2::L2Slice;
use cpu_model::core::Core;

use crate::niface::ResyncTracker;

/// One tile's network interface: the sender-side compression hardware of
/// the proposal (Section 4.3) plus its resynchronisation bookkeeping and
/// any passive coverage probes riding the same address stream.
pub struct NetIface {
    /// The live codec deciding each message's wire size.
    pub(crate) codec: CompressionEngine,
    /// Passive observers, one per probed scheme (Figure 2 measures all
    /// schemes in a single run); they never influence the wire.
    pub(crate) probes: Vec<CompressionEngine>,
    /// Codec-resynchronisation windows (consulted only when the fault
    /// subsystem is live).
    pub(crate) tracker: ResyncTracker,
}

impl NetIface {
    /// Size a remote message on the wire: probes observe the address,
    /// divergence handling may force an uncompressed fallback, otherwise
    /// the codec compresses. `faults_live` gates the divergence path so
    /// the clean run pays a single branch.
    pub(crate) fn wire_size(
        &mut self,
        now: Cycle,
        dst: TileId,
        class: MessageClass,
        line: Addr,
        faults_live: bool,
    ) -> usize {
        for probe in &mut self.probes {
            probe.process(dst, class, line);
        }
        // Codec-divergence handling: a pair whose receiver mirror has
        // diverged is detected via the sequence/checksum tag at the next
        // compressible send; detection resets the sender codec, opens the
        // resynchronisation window and falls back to uncompressed B-Wire
        // transmission for the window's duration.
        let mut fallback = false;
        if faults_live {
            if self.tracker.in_window(now, dst, class) {
                fallback = true;
            } else if self.codec.divergence(dst, class) {
                self.codec.resync(dst, class);
                self.tracker.begin_resync(now, dst, class);
                // the detecting message itself rides uncompressed
                fallback = self.tracker.in_window(now, dst, class);
            }
        }
        if fallback {
            class.uncompressed_bytes()
        } else {
            self.codec.process(dst, class, line).wire_bytes
        }
    }
}

/// One tile: trace-driven core, private L1 controller and the network
/// interface that compresses its outbound coherence traffic.
pub struct Tile {
    /// The in-order core consuming this tile's trace.
    pub(crate) core: Core,
    /// The private-cache (MESI L1) controller.
    pub(crate) l1: L1Cache,
    /// The compression/resync network interface.
    pub(crate) ni: NetIface,
    /// Parked at the current barrier epoch.
    pub(crate) parked: bool,
}

/// One bank of the shared NUCA L2 (home slice + full-map directory),
/// with its busy flag cached so the engine's completion check stays O(1).
pub struct L2Bank {
    /// The home-slice controller.
    pub(crate) slice: L2Slice,
    /// Mirror of `!slice.is_quiescent()`, kept by [`L2Bank::sync`].
    pub(crate) busy: bool,
}

impl L2Bank {
    /// Re-cache the busy flag after the slice handled work. Returns the
    /// change in busy-bank count (−1, 0 or +1) for the engine's counter.
    pub(crate) fn sync(&mut self) -> i32 {
        let busy = !self.slice.is_quiescent();
        if busy == self.busy {
            return 0;
        }
        self.busy = busy;
        if busy {
            1
        } else {
            -1
        }
    }
}

impl PersistState for NetIface {
    fn save_state(&self, w: &mut ByteWriter) {
        self.codec.save_state(w);
        save_state_slice(&self.probes, w);
        self.tracker.save_state(w);
    }
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        self.codec.load_state(r)?;
        load_state_slice(&mut self.probes, r)?;
        self.tracker.load_state(r)
    }
}

impl PersistState for Tile {
    fn save_state(&self, w: &mut ByteWriter) {
        self.core.save_state(w);
        self.l1.save_state(w);
        self.ni.save_state(w);
        w.bool(self.parked);
    }
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        self.core.load_state(r)?;
        self.l1.load_state(r)?;
        self.ni.load_state(r)?;
        self.parked = r.bool()?;
        Ok(())
    }
}

impl PersistState for L2Bank {
    fn save_state(&self, w: &mut ByteWriter) {
        self.slice.save_state(w);
        w.bool(self.busy);
    }
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        self.slice.load_state(r)?;
        self.busy = r.bool()?;
        Ok(())
    }
}
