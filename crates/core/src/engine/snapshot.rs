//! Whole-machine checkpointing: capture every mutable component at an
//! iteration boundary and resume bit-identically.
//!
//! There is one description of the machine's mutable state — the
//! [`PersistState`] impl on [`CmpSimulator`]: tiles (core + L1 + network
//! interface), L2 banks, NoC, memory controller, barrier, event
//! calendar, the engine's cached counters and the robustness layer's
//! seeded state — and a [`MachineSnapshot`] is that encoding behind a
//! small header. Rewind and the checkpoint store both hold the same
//! bytes. Restoring into a simulator built from the same
//! configuration — fresh, or one that has since run on — reproduces the
//! exact machine, so the remaining schedule is bit-identical to the
//! uncheckpointed run's: same cycles, message counts and energy.
//!
//! Snapshots are taken between scheduler iterations (the only boundary
//! the public API exposes), where the scratch buffers are empty by
//! construction — nothing transient needs to be captured.
//!
//! A snapshot's checksum is checked exactly once, where its bytes are
//! parsed: [`MachineSnapshot`]'s [`Persist::load`] refuses a mismatch,
//! and the only other way to get one is to capture it. So every
//! `MachineSnapshot` value is intact by construction, and
//! [`CmpSimulator::try_restore`] checks only that it fits the machine.

use cmp_common::config::DirectoryConfig;
use cmp_common::hash::Fnv64;
use cmp_common::persist::{
    load_state_slice, save_state_slice, ByteReader, ByteWriter, Persist, PersistError, PersistState,
};
use cmp_common::types::Cycle;

use super::identity::{key_hash, Key};
use super::CmpSimulator;

/// A checkpoint of the whole machine at an iteration boundary: a header
/// saying which machine it fits, the encoded state, and a checksum over
/// both. Opaque: capture with [`CmpSimulator::snapshot`], apply with
/// [`CmpSimulator::try_restore`]. Sealed at capture and verified when
/// parsed, so a value of this type always holds what was captured.
#[derive(Clone)]
pub struct MachineSnapshot {
    now: Cycle,
    tiles: usize,
    directory: DirectoryConfig,
    /// [`CmpSimulator::shape_fingerprint`] of the captured machine.
    shape: u64,
    /// [`MachineSnapshot::digest`] at capture time.
    checksum: u64,
    /// [`CmpSimulator::encode_state`] at capture time. Private, like
    /// every field: the checksum must keep matching.
    state: Vec<u8>,
}

/// Why a [`MachineSnapshot`] refuses to restore into a simulator. Every
/// variant but [`RestoreError::Decode`] is decided from the snapshot's
/// header, before the simulator is touched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot captured a machine with a different tile count.
    TileCountMismatch {
        /// Tiles in the simulator being restored into.
        simulator: usize,
        /// Tiles in the captured machine.
        snapshot: usize,
    },
    /// The snapshot captured L2 slices running a different directory
    /// representation — transplanting sparse-directory state into a
    /// full-map machine (or vice versa) would silently swap the
    /// simulator's capacity-metering semantics mid-run.
    DirectoryMismatch {
        /// Organisation the simulator was configured with.
        simulator: DirectoryConfig,
        /// Organisation the snapshot was captured under.
        snapshot: DirectoryConfig,
    },
    /// Same tile count and directory, but some other structure-defining
    /// choice differs: cache geometry, latencies, interconnect, codec
    /// scheme, coverage probes, or which robustness components are
    /// armed. The two values are the machines' shape fingerprints.
    ConfigMismatch {
        /// Fingerprint of the simulator being restored into.
        simulator: u64,
        /// Fingerprint recorded in the snapshot.
        snapshot: u64,
    },
    /// The header fits, yet the state did not decode into this machine
    /// (a decoder bug, a hash collision). Decoding
    /// overwrites the machine as it goes, so the simulator is now
    /// **partly restored and must be rebuilt**.
    Decode(PersistError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::TileCountMismatch {
                simulator,
                snapshot,
            } => write!(
                f,
                "snapshot captured a {snapshot}-tile machine but this simulator has \
                 {simulator} tiles"
            ),
            RestoreError::DirectoryMismatch {
                simulator,
                snapshot,
            } => write!(
                f,
                "snapshot captured {} directory state but this simulator runs a {} \
                 directory; rebuild the simulator with a matching `CmpConfig::directory`",
                snapshot.label(),
                simulator.label()
            ),
            RestoreError::ConfigMismatch {
                simulator,
                snapshot,
            } => write!(
                f,
                "snapshot captured a machine of shape {snapshot:016x} but this simulator \
                 has shape {simulator:016x}: machine description, interconnect, scheme, \
                 coverage probes and armed robustness components must all match"
            ),
            RestoreError::Decode(e) => {
                write!(
                    f,
                    "{e}; the simulator is partly restored and must be rebuilt"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl MachineSnapshot {
    /// The cycle at which the checkpoint was taken.
    pub fn cycle(&self) -> Cycle {
        self.now
    }

    /// Number of tiles in the captured machine.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// The captured machine's encoded state.
    pub(crate) fn state(&self) -> &[u8] {
        &self.state
    }

    fn save_header(&self, w: &mut ByteWriter) {
        w.u64(self.now);
        w.usize(self.tiles);
        w.str(&self.directory.flag_label());
        w.u64(self.shape);
    }

    /// Content digest of the snapshot: FNV-1a 64 over the header and
    /// every state byte. Recorded at capture and recomputed once, when
    /// the snapshot's bytes are parsed, so a checkpoint torn, bit-rotted
    /// or deliberately corrupted in between is refused instead of
    /// fast-forwarding a cell into wrong numbers. Not cryptographic: it
    /// guards against corruption, not an adversary.
    pub fn digest(&self) -> u64 {
        let mut header = ByteWriter::new();
        self.save_header(&mut header);
        let mut h = Fnv64::new();
        h.write_bytes(&header.into_bytes());
        h.write_bytes(&self.state);
        h.finish()
    }

    /// Record the checksum of the header and state as they are now.
    fn sealed(mut self) -> MachineSnapshot {
        self.checksum = self.digest();
        self
    }

    /// The snapshot as bytes (header, checksum, state), as the disk
    /// store writes it. Only mutable state is in there: immutable
    /// structure — mesh shape, codec schemes, latencies — is rebuilt by
    /// the target simulator's constructor and pinned by the header's
    /// shape fingerprint.
    pub fn save_bytes(&self) -> Vec<u8> {
        // Sized to the snapshot: four header words and the directory
        // label, the checksum, the state and its length.
        let header = 48 + self.directory.flag_label().len();
        let mut w = ByteWriter::with_capacity(header + self.state.len());
        self.save(&mut w);
        w.into_bytes()
    }

    /// Replace this snapshot with one parsed from
    /// [`MachineSnapshot::save_bytes`] output. Truncated input, trailing
    /// bytes, an unreadable header and a checksum mismatch are
    /// structured errors, never a panic; on `Err` this snapshot is
    /// unchanged.
    pub fn load_bytes(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = ByteReader::new(bytes);
        let parsed = MachineSnapshot::load(&mut r)?;
        r.finish()?;
        *self = parsed;
        Ok(())
    }
}

#[cfg(test)]
impl MachineSnapshot {
    /// This snapshot's header over other state bytes, checksummed as if
    /// it had been captured that way: what a hash collision or a
    /// decoder bug would look like to the layers above.
    pub(crate) fn with_state(&self, state: Vec<u8>) -> MachineSnapshot {
        MachineSnapshot {
            state,
            ..self.clone()
        }
        .sealed()
    }
}

impl Persist for MachineSnapshot {
    fn save(&self, w: &mut ByteWriter) {
        self.save_header(w);
        w.u64(self.checksum);
        w.bytes(&self.state);
    }
    /// Parse a snapshot and verify its checksum: the one place a
    /// snapshot's digest is recomputed.
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        let now = r.u64()?;
        let tiles = r.usize()?;
        let directory = DirectoryConfig::parse_flag(&r.string()?)
            .map_err(|_| r.err("unknown directory organisation"))?;
        let snap = MachineSnapshot {
            now,
            tiles,
            directory,
            shape: r.u64()?,
            checksum: r.u64()?,
            state: r.bytes()?.to_vec(),
        };
        if snap.digest() != snap.checksum {
            return Err(r.err("snapshot checksum mismatch: torn, truncated or bit-rotted"));
        }
        Ok(snap)
    }
}

/// The machine's mutable state, field by field: the only such list.
impl PersistState for CmpSimulator {
    fn save_state(&self, w: &mut ByteWriter) {
        w.u64(self.now);
        save_state_slice(&self.tiles, w);
        save_state_slice(&self.l2s, w);
        self.noc.save_state(w);
        self.mem.save_state(w);
        self.barrier.save_state(w);
        self.calendar.save_state(w);
        self.cores_unfinished.save(w);
        self.busy_l2_count.save(w);
        // Optional robustness components: presence is *arming shape* (a
        // config decision), their contents are state.
        w.bool(self.injector.is_some());
        if let Some(inj) = &self.injector {
            inj.save_state(w);
        }
        w.bool(self.sanitizer.is_some());
        if let Some(s) = &self.sanitizer {
            s.save_state(w);
        }
        w.u64(self.next_sweep);
        w.bool(self.watchdog.is_some());
        if let Some(wd) = &self.watchdog {
            wd.save_state(w);
        }
        w.u64(self.iters);
    }
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        self.now = r.u64()?;
        r.set_cycle(self.now);
        load_state_slice(&mut self.tiles, r)?;
        load_state_slice(&mut self.l2s, r)?;
        self.noc.load_state(r)?;
        self.mem.load_state(r)?;
        self.barrier.load_state(r)?;
        self.calendar.load_state(r)?;
        self.cores_unfinished = Persist::load(r)?;
        self.busy_l2_count = Persist::load(r)?;
        if r.bool()? != self.injector.is_some() {
            return Err(r.err("fault injector arming does not match machine shape"));
        }
        if let Some(inj) = &mut self.injector {
            inj.load_state(r)?;
        }
        if r.bool()? != self.sanitizer.is_some() {
            return Err(r.err("sanitizer arming does not match machine shape"));
        }
        if let Some(s) = &mut self.sanitizer {
            s.load_state(r)?;
        }
        self.next_sweep = r.u64()?;
        if r.bool()? != self.watchdog.is_some() {
            return Err(r.err("watchdog arming does not match machine shape"));
        }
        if let Some(wd) = &mut self.watchdog {
            wd.load_state(r)?;
        }
        self.iters = r.u64()?;
        if self.cores_unfinished > self.tiles.len() {
            return Err(r.err("unfinished core count exceeds machine size"));
        }
        if self.busy_l2_count > self.l2s.len() {
            return Err(r.err("busy L2 count exceeds machine size"));
        }
        Ok(())
    }
}

impl CmpSimulator {
    /// The shape key of the configuration ([`super::identity`]): state
    /// encoded on a machine of one shape decodes only into a machine of
    /// the same shape.
    fn shape_fingerprint(&self) -> u64 {
        key_hash(&self.cfg.inputs(), Key::Shape)
    }

    /// The machine's mutable state as bytes.
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.save_state(&mut w);
        // The writer grew by doubling: a held snapshot keeps no slack.
        let mut state = w.into_bytes();
        state.shrink_to_fit();
        state
    }

    /// Checkpoint the whole machine at the current iteration boundary.
    ///
    /// Restoring the snapshot — into this simulator, however far it has
    /// run since, or into another one built from the same configuration
    /// and application — resumes the run bit-identically: the remaining
    /// schedule, message counts and energy are exactly those of an
    /// uncheckpointed run.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            now: self.now,
            tiles: self.tiles.len(),
            directory: self.cfg.cmp.directory,
            shape: self.shape_fingerprint(),
            checksum: 0,
            state: self.encode_state(),
        }
        .sealed()
    }

    /// Rewind the machine to a previously captured [`MachineSnapshot`].
    ///
    /// The snapshot must come from a simulator with the same
    /// configuration (panics otherwise; see
    /// [`CmpSimulator::try_restore`] for the non-panicking form).
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        self.try_restore(snap)
            .expect("snapshot matches this machine");
    }

    /// Rewind the machine to `snap`, refusing with a structured error
    /// when it does not fit: the header's tile count, directory
    /// organisation and shape fingerprint are checked first, and a
    /// refusal on any of them leaves the machine untouched; only then is
    /// the state decoded in place ([`RestoreError::Decode`] past that
    /// point). The checksum is not recomputed: it was checked when the
    /// snapshot was parsed.
    pub fn try_restore(&mut self, snap: &MachineSnapshot) -> Result<(), RestoreError> {
        if snap.tiles != self.tiles.len() {
            return Err(RestoreError::TileCountMismatch {
                simulator: self.tiles.len(),
                snapshot: snap.tiles,
            });
        }
        if snap.directory != self.cfg.cmp.directory {
            return Err(RestoreError::DirectoryMismatch {
                simulator: self.cfg.cmp.directory,
                snapshot: snap.directory,
            });
        }
        let shape = self.shape_fingerprint();
        if snap.shape != shape {
            return Err(RestoreError::ConfigMismatch {
                simulator: shape,
                snapshot: snap.shape,
            });
        }
        let mut r = ByteReader::new(&snap.state);
        self.load_state(&mut r)
            .and_then(|()| r.finish())
            .map_err(RestoreError::Decode)?;
        // Scratch buffers are empty at every iteration boundary; clear
        // them anyway so a restore from any state is self-consistent.
        self.delivered_scratch.clear();
        self.due_scratch.clear();
        Ok(())
    }
}
