//! Runtime protocol sanitizer: a periodic, read-only sweep over every
//! L1 and home-slice directory validating the MESI invariants.
//!
//! The sweep runs between scheduler iterations, so some lines are
//! mid-transaction; every check is therefore phrased to be *sound at
//! iteration boundaries* — a line whose home reports it in flight
//! ([`crate::L2Slice::line_in_flight`]) is exempt from the agreement
//! checks, because the directory legitimately lags the L1s while a
//! transaction serialises at the home. What remains is invariant at
//! every boundary of a correct run:
//!
//! * **Single owner** — at most one L1 holds a line Modified/Exclusive,
//!   in-flight or not (ownership is handed over strictly serially).
//! * **Sharer agreement** — an idle home's directory entry covers every
//!   L1 copy: an M/E holder is the recorded owner, a Shared holder is in
//!   the sharer mask (the converse — a mask bit with no L1 copy — is
//!   legal, since Shared evictions are silent).
//! * **MSHR / pending-queue consistency** — no L1 exceeds its MSHR
//!   capacity or tracks one line twice; no home queues requests for a
//!   line with no transaction to drain them.
//! * **Directory inclusion** — every L1-resident line is resident (or
//!   being filled/recalled) at its home L2 slice, and — dually — every
//!   line the home's directory tracks is resident or in flight there.
//!
//! The sweep reads directory state only through the [`DirState`] view
//! and [`crate::L2Slice::directory_entries`], so all four invariant
//! classes run unchanged against either directory organisation
//! (full-map or sparse), which keep the same
//! [`crate::directory::DirectoryStore`].
//!
//! Violations are returned as structured [`Violation`] findings naming
//! the cycle, tile, line and invariant class; the simulator aborts the
//! run with a full state dump on the first non-empty sweep.

use std::borrow::Borrow;

use cmp_common::types::{Addr, Cycle, TileId};

use crate::l1::{home_of, L1Cache, L1State};
use crate::l2::{DirState, L2Slice};

/// When and how often the sanitizer sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Sweep every `period` cycles (measured against the scheduler's
    /// monotonically increasing `now`).
    pub period: Cycle,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        // Frequent enough to catch injected corruption within one memory
        // round-trip, cheap enough to leave throughput unchanged.
        SanitizerConfig { period: 512 }
    }
}

/// The invariant class a violation falls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// More than one L1 holds a line in an ownership state.
    SingleOwner,
    /// An idle home's directory entry disagrees with an L1 copy.
    SharerAgreement,
    /// MSHR overflow/duplication, or an orphaned home pending queue.
    MshrConsistency,
    /// An L1 caches a line its inclusive home slice does not hold.
    DirectoryInclusion,
}

/// One structured sanitizer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the sweep observed the state.
    pub cycle: Cycle,
    /// Tile whose controller holds the inconsistent state.
    pub tile: TileId,
    /// Line address concerned.
    pub line: Addr,
    /// Invariant class violated.
    pub invariant: Invariant,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[cycle {}] {:?} violated at tile {}, line {:#x}: {}",
            self.cycle,
            self.invariant,
            self.tile.index(),
            self.line,
            self.detail
        )
    }
}

/// The sweep driver. Holds only bookkeeping; all machine state is
/// borrowed read-only at sweep time.
#[derive(Clone, Debug, Default)]
pub struct Sanitizer {
    cfg: SanitizerConfig,
    sweeps: u64,
}

/// The period is configuration; only the sweep count is state.
impl cmp_common::persist::PersistState for Sanitizer {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        w.u64(self.sweeps);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        self.sweeps = r.u64()?;
        Ok(())
    }
}

impl Sanitizer {
    /// A sanitizer sweeping every `cfg.period` cycles.
    pub fn new(cfg: SanitizerConfig) -> Self {
        Sanitizer { cfg, sweeps: 0 }
    }

    /// The configured sweep period.
    pub fn period(&self) -> Cycle {
        self.cfg.period
    }

    /// How many sweeps have run.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Validate every invariant across all tiles. Read-only: a sweep
    /// never perturbs simulated state, so enabling the sanitizer cannot
    /// change a run's outcome — only observe it. Generic over [`Borrow`]
    /// so callers can pass owned rows (`&[L1Cache]`) or rows of
    /// references borrowed out of larger per-tile components.
    pub fn sweep<A, B>(&mut self, cycle: Cycle, l1s: &[A], l2s: &[B]) -> Vec<Violation>
    where
        A: Borrow<L1Cache>,
        B: Borrow<L2Slice>,
    {
        self.sweeps += 1;
        let tiles = l1s.len();
        let mut found = Vec::new();

        // Pass 1: per-line owner census across all L1s.
        let mut owners: std::collections::HashMap<Addr, Vec<TileId>> =
            std::collections::HashMap::new();
        for l1 in l1s {
            let l1 = l1.borrow();
            for (line, state) in l1.resident_lines() {
                if matches!(state, L1State::Exclusive | L1State::Modified) {
                    owners.entry(line).or_default().push(l1.tile());
                }
            }
        }
        for (line, holders) in &owners {
            if holders.len() > 1 {
                found.push(Violation {
                    cycle,
                    tile: holders[1],
                    line: *line,
                    invariant: Invariant::SingleOwner,
                    detail: format!(
                        "{} tiles hold the line in an ownership state: {:?}",
                        holders.len(),
                        holders.iter().map(|t| t.index()).collect::<Vec<_>>()
                    ),
                });
            }
        }

        // Pass 2: per-L1 copies vs the home directory + inclusion.
        for l1 in l1s {
            let l1 = l1.borrow();
            let tile = l1.tile();
            for (line, state) in l1.resident_lines() {
                let home = l2s[home_of(line, tiles).index()].borrow();
                let dir = home.dir_state(line);
                if dir.is_none() && !home.line_in_flight(line) {
                    found.push(Violation {
                        cycle,
                        tile,
                        line,
                        invariant: Invariant::DirectoryInclusion,
                        detail: format!(
                            "L1 holds the line {state:?} but the inclusive home slice \
                             (tile {}) has neither a copy nor a transaction for it",
                            home_of(line, tiles).index()
                        ),
                    });
                    continue;
                }
                if home.line_in_flight(line) {
                    continue; // directory legitimately in motion
                }
                let agree = match (state, &dir) {
                    (L1State::Exclusive | L1State::Modified, Some(DirState::Owned(o))) => {
                        *o == tile
                    }
                    (L1State::Exclusive | L1State::Modified, _) => false,
                    (L1State::Shared, Some(DirState::Shared(sharers))) => sharers.contains(tile),
                    // A Shared copy under Owned(tile) is the silent-
                    // downgrade window closed at the next revision; any
                    // other combination is impossible while idle.
                    (L1State::Shared, Some(DirState::Owned(o))) => *o == tile,
                    (L1State::Shared, _) => false,
                };
                if !agree {
                    found.push(Violation {
                        cycle,
                        tile,
                        line,
                        invariant: Invariant::SharerAgreement,
                        detail: format!(
                            "L1 holds the line {state:?} but the idle home directory \
                             records {dir:?}"
                        ),
                    });
                }
            }

            // MSHR capacity and duplication.
            if l1.mshrs_in_use() > l1.max_mshrs() {
                found.push(Violation {
                    cycle,
                    tile,
                    line: l1.mshr_lines().next().unwrap_or(0),
                    invariant: Invariant::MshrConsistency,
                    detail: format!(
                        "{} MSHRs in use, capacity {}",
                        l1.mshrs_in_use(),
                        l1.max_mshrs()
                    ),
                });
            }
            let mut seen = std::collections::HashSet::new();
            for line in l1.mshr_lines() {
                if !seen.insert(line) {
                    found.push(Violation {
                        cycle,
                        tile,
                        line,
                        invariant: Invariant::MshrConsistency,
                        detail: "two MSHRs track the same line".to_string(),
                    });
                }
            }
        }

        // Pass 3: home-slice queue bookkeeping.
        for (idx, l2) in l2s.iter().enumerate() {
            let l2 = l2.borrow();
            let tile = TileId::from(idx);
            if l2.queued_requests() != l2.pending_total() {
                found.push(Violation {
                    cycle,
                    tile,
                    line: 0,
                    invariant: Invariant::MshrConsistency,
                    detail: format!(
                        "queued-request counter {} disagrees with pending queues totalling {}",
                        l2.queued_requests(),
                        l2.pending_total()
                    ),
                });
            }
            if let Some(line) = l2.orphaned_pending_line() {
                found.push(Violation {
                    cycle,
                    tile,
                    line,
                    invariant: Invariant::MshrConsistency,
                    detail: "requests queued for a line with no transaction to drain them"
                        .to_string(),
                });
            }
            // The directory must not track lines the slice no longer
            // hosts (repr/array drift — e.g. a leaked sparse tag).
            for (line, state) in l2.directory_entries() {
                if l2.dir_state(line).is_none() && !l2.line_in_flight(line) {
                    found.push(Violation {
                        cycle,
                        tile,
                        line,
                        invariant: Invariant::DirectoryInclusion,
                        detail: format!(
                            "directory tracks the line as {state:?} but the slice \
                             has neither a copy nor a transaction for it"
                        ),
                    });
                }
            }
        }

        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PKind;

    const TILES: usize = 16;

    fn machine() -> (Vec<L1Cache>, Vec<L2Slice>) {
        machine_with(cmp_common::config::DirectoryConfig::FullMap)
    }

    fn machine_with(dir: cmp_common::config::DirectoryConfig) -> (Vec<L1Cache>, Vec<L2Slice>) {
        let l1s = (0..TILES)
            .map(|t| L1Cache::new(TileId::from(t), 128, 4, 8, TILES))
            .collect();
        let l2s = (0..TILES)
            .map(|t| L2Slice::with_directory(TileId::from(t), 1024, 4, TILES, dir))
            .collect();
        (l1s, l2s)
    }

    /// Run a line through home 0 so L1 `t` owns it coherently.
    fn grant_exclusive(l1s: &mut [L1Cache], l2s: &mut [L2Slice], t: usize, line: Addr) {
        let out = l2s[0]
            .handle_request(TileId::from(t), PKind::GetS, line)
            .unwrap();
        assert!(!out.is_empty());
        let _ = l2s[0].mem_fill_done(line).unwrap();
        l1s[t].fault_set_state(line, L1State::Exclusive);
    }

    #[test]
    fn clean_machine_passes_every_sweep() {
        let (mut l1s, mut l2s) = machine();
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        let mut san = Sanitizer::new(SanitizerConfig::default());
        assert_eq!(san.sweep(100, &l1s, &l2s), vec![]);
        assert_eq!(san.sweeps(), 1);
    }

    #[test]
    fn two_owners_trip_single_owner() {
        let (mut l1s, mut l2s) = machine();
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        l1s[5].fault_set_state(16, L1State::Modified);
        let mut san = Sanitizer::new(SanitizerConfig::default());
        let v = san.sweep(7, &l1s, &l2s);
        assert!(
            v.iter()
                .any(|v| v.invariant == Invariant::SingleOwner && v.line == 16),
            "{v:?}"
        );
        let s = v
            .iter()
            .find(|v| v.invariant == Invariant::SingleOwner)
            .unwrap()
            .to_string();
        assert!(s.contains("cycle 7") && s.contains("0x10"), "{s}");
    }

    #[test]
    fn directory_disagreement_trips_sharer_agreement() {
        let (mut l1s, mut l2s) = machine();
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        // corrupt the directory entry: owner forgotten while idle
        l2s[0].fault_set_dir(16, DirState::Invalid);
        let mut san = Sanitizer::new(SanitizerConfig::default());
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::SharerAgreement
                && v.tile == TileId(3)
                && v.line == 16),
            "{v:?}"
        );
    }

    #[test]
    fn missing_home_copy_trips_inclusion() {
        let (mut l1s, mut l2s) = machine();
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        l2s[0].fault_evict_line(16);
        let mut san = Sanitizer::new(SanitizerConfig::default());
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter()
                .any(|v| v.invariant == Invariant::DirectoryInclusion && v.line == 16),
            "{v:?}"
        );
    }

    #[test]
    fn duplicate_and_overflowing_mshrs_trip_consistency() {
        let (mut l1s, l2s) = machine();
        l1s[2].fault_push_mshr(16, false);
        l1s[2].fault_push_mshr(16, true);
        let mut san = Sanitizer::new(SanitizerConfig::default());
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter().any(
                |v| v.invariant == Invariant::MshrConsistency && v.detail.contains("same line")
            ),
            "{v:?}"
        );
        // overflow
        let (mut l1s, l2s) = machine();
        for i in 0..9 {
            l1s[2].fault_push_mshr(16 * (i + 1) + 2 * 16 * 128, false);
        }
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter()
                .any(|v| v.invariant == Invariant::MshrConsistency
                    && v.detail.contains("capacity")),
            "{v:?}"
        );
    }

    #[test]
    fn orphaned_pending_queue_trips_consistency() {
        let (l1s, mut l2s) = machine();
        l2s[4].fault_enqueue_pending(16 * 100 + 4, TileId(1), PKind::GetS);
        let mut san = Sanitizer::new(SanitizerConfig::default());
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::MshrConsistency
                && v.tile == TileId(4)
                && v.detail.contains("no transaction")),
            "{v:?}"
        );
    }

    #[test]
    fn all_four_invariant_classes_trip_on_a_sparse_directory() {
        // The same sweeps, unchanged, against the sparse representation:
        // one manufactured fault per invariant class.
        let sparse = cmp_common::config::DirectoryConfig::sparse();
        let mut san = Sanitizer::new(SanitizerConfig::default());

        let (mut l1s, mut l2s) = machine_with(sparse);
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        l1s[5].fault_set_state(16, L1State::Modified);
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::SingleOwner),
            "{v:?}"
        );

        let (mut l1s, mut l2s) = machine_with(sparse);
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        l2s[0].fault_set_dir(16, DirState::Invalid);
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::SharerAgreement),
            "{v:?}"
        );

        let (mut l1s, mut l2s) = machine_with(sparse);
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        l2s[0].fault_evict_line(16);
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter()
                .any(|v| v.invariant == Invariant::DirectoryInclusion),
            "{v:?}"
        );

        let (l1s, mut l2s) = machine_with(sparse);
        l2s[4].fault_enqueue_pending(16 * 100 + 4, TileId(1), PKind::GetS);
        let v = san.sweep(0, &l1s, &l2s);
        assert!(
            v.iter().any(|v| v.invariant == Invariant::MshrConsistency),
            "{v:?}"
        );

        // and a clean sparse machine stays clean
        let (mut l1s, mut l2s) = machine_with(sparse);
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        assert_eq!(san.sweep(100, &l1s, &l2s), vec![]);
    }

    #[test]
    fn in_flight_lines_are_exempt_from_agreement() {
        let (mut l1s, mut l2s) = machine();
        grant_exclusive(&mut l1s, &mut l2s, 3, 16);
        // tile 5 requests: home goes busy forwarding to owner 3; the
        // directory will briefly disagree with L1 3's state — exempt.
        let _ = l2s[0].handle_request(TileId(5), PKind::GetS, 16).unwrap();
        l1s[3].fault_set_state(16, L1State::Shared);
        let mut san = Sanitizer::new(SanitizerConfig::default());
        assert_eq!(san.sweep(0, &l1s, &l2s), vec![]);
    }
}
