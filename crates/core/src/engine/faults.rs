//! Fault-campaign hooks: deterministic corruption of live coherence
//! metadata so sanitizer sweeps and structured-error paths can be
//! exercised against real violations. Never touched on the clean path.

use cmp_common::types::{Addr, TileId};
use coherence::l1::L1State;
use coherence::l2::DirState;
use coherence::sanitizer::Invariant;

use super::CmpSimulator;

impl CmpSimulator {
    /// Deterministically corrupt live coherence metadata so a sanitizer
    /// sweep (or the structured-error path) has a real violation of the
    /// given class to catch. Returns the `(tile, line)` it corrupted, or
    /// `None` when the machine holds no suitable line yet — the caller
    /// steps on and asks again, as a fault-campaign cell planting a
    /// violation does after every step. Campaign/test hook; never
    /// called on the clean path.
    #[doc(hidden)]
    pub fn fault_inject_violation(&mut self, class: Invariant) -> Option<(TileId, Addr)> {
        let tiles = self.cfg.cmp.tiles();
        // A line is a safe target only while its home transaction machinery
        // is idle — otherwise the sweep's in-flight exemption hides it.
        let candidate = |want_owned: bool| -> Option<(usize, Addr)> {
            for (t, tile) in self.tiles.iter().enumerate() {
                for (line, state) in tile.l1.resident_lines() {
                    if want_owned && state == L1State::Shared {
                        continue;
                    }
                    let home = coherence::l1::home_of(line, tiles);
                    if !self.l2s[home.index()].slice.line_in_flight(line) {
                        return Some((t, line));
                    }
                }
            }
            None
        };
        match class {
            Invariant::SingleOwner => {
                let (t, line) = candidate(true)?;
                let forged = (t + 1) % tiles;
                self.tiles[forged]
                    .l1
                    .fault_set_state(line, L1State::Exclusive);
                // forging is a no-op when the forged tile's set is full
                (self.tiles[forged].l1.state_of(line) == Some(L1State::Exclusive))
                    .then(|| (TileId::from(forged), line))
            }
            Invariant::SharerAgreement => {
                let (t, line) = candidate(false)?;
                let home = coherence::l1::home_of(line, tiles);
                self.l2s[home.index()]
                    .slice
                    .fault_set_dir(line, DirState::Invalid);
                Some((TileId::from(t), line))
            }
            Invariant::DirectoryInclusion => {
                let (t, line) = candidate(false)?;
                let home = coherence::l1::home_of(line, tiles);
                self.l2s[home.index()].slice.fault_evict_line(line);
                Some((TileId::from(t), line))
            }
            Invariant::MshrConsistency => {
                let (t, line) = candidate(false)?;
                // two MSHRs tracking the same line
                self.tiles[t].l1.fault_push_mshr(line, false);
                self.tiles[t].l1.fault_push_mshr(line, false);
                Some((TileId::from(t), line))
            }
        }
    }
}
