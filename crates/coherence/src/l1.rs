//! The private L1 cache controller: MESI states, MSHRs and the message
//! handling of the requestor/owner side of the protocol.
//!
//! The controller is deliberately tolerant of the reorderings a
//! heterogeneous network introduces (a 3-byte command on fast VL-Wires can
//! overtake a 67-byte data response on B-Wires):
//!
//! * An invalidation for a line with a miss outstanding sets the MSHR's
//!   `inv_pending` flag: the fill is then used to complete the core's
//!   access but a *shared/exclusive* copy is not kept (the invalidation
//!   belonged to a transaction ordered before our grant). A modified
//!   grant (`DataM`) is kept — ownership transfers explicitly, so a
//!   crossing `Inv` is always from the pre-grant epoch.
//! * A forward/recall for a line with a miss outstanding is *deferred* in
//!   the MSHR and served right after the fill arrives (the directory
//!   ordered it after our grant).
//! * A forward/recall for an absent line without an MSHR means our
//!   writeback is in flight: answer `FwdFailed`/`RecallAckClean` and let
//!   the home serialise on the writeback.

use cmp_common::addrmap::AddrMap;
use cmp_common::stats::Counter;
use cmp_common::types::{Addr, TileId};

use crate::cache::CacheArray;
use crate::error::ProtocolError;
use crate::msg::{OutVec, Outgoing, PKind, ProtocolMsg};

/// L1 line states (I is represented by absence).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L1State {
    Shared,
    Exclusive,
    Modified,
}

/// The kind of access a core performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoreAccess {
    Read,
    Write,
}

/// Outcome of a core access.
#[derive(Debug)]
pub enum L1Result {
    /// Served locally; the core pays the L1 hit latency.
    Hit,
    /// A miss was issued; `out` holds the request (and any writeback).
    /// The core blocks until [`L1Cache::handle`] reports completion.
    Miss { out: OutVec },
    /// No MSHR available or a conflicting miss is outstanding: retry.
    Blocked,
}

/// One outstanding miss.
#[derive(Clone, Copy, Debug)]
struct Mshr {
    line: Addr,
    write: bool,
    /// An `Inv` arrived while the miss was outstanding.
    inv_pending: bool,
    /// A forward/recall arrived while the miss was outstanding; serve it
    /// right after the fill.
    deferred: Option<PKind>,
    /// A partial reply already completed the core's access (Reply
    /// Partitioning): the eventual full-line fill installs silently.
    partial_served: bool,
}

/// A completed core access, reported back to the core model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompletedAccess {
    pub line: Addr,
    pub write: bool,
}

/// Event counters for one L1.
#[derive(Clone, Debug, Default)]
pub struct L1Stats {
    pub hits: Counter,
    pub misses: Counter,
    pub upgrades: Counter,
    pub writebacks_data: Counter,
    pub writebacks_hint: Counter,
    pub invalidations: Counter,
    pub forwards_served: Counter,
    pub forwards_failed: Counter,
    pub accesses: Counter,
}

/// L1 access latency charged before a remote response is injected
/// (tag + data, Table 4: 1+1 cycles).
pub const L1_DELAY: u64 = 2;

/// The private-cache controller of one tile.
pub struct L1Cache {
    tile: TileId,
    tiles: usize,
    /// Whether data responses arrive split (Reply Partitioning): fills
    /// without a preceding partial then mark the late partial stale.
    expects_partial: bool,
    array: CacheArray<L1State>,
    mshrs: Vec<Mshr>,
    /// line → position in `mshrs`, so the per-access pending checks are
    /// O(1) instead of scanning the vector. Points at the *first*
    /// occurrence when the fault hook manufactures duplicates.
    mshr_index: AddrMap<u32>,
    max_mshrs: usize,
    /// Lines whose ordinary reply overtook its partial reply: the late
    /// partial must be dropped, not matched against a future miss.
    stale_partials: Vec<Addr>,
    stats: L1Stats,
}

impl cmp_common::persist::Persist for L1State {
    fn save(&self, w: &mut cmp_common::persist::ByteWriter) {
        w.u8(match self {
            L1State::Shared => 0,
            L1State::Exclusive => 1,
            L1State::Modified => 2,
        });
    }
    fn load(
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<Self, cmp_common::persist::PersistError> {
        Ok(match r.u8()? {
            0 => L1State::Shared,
            1 => L1State::Exclusive,
            2 => L1State::Modified,
            _ => return Err(r.err("invalid L1State tag")),
        })
    }
}

cmp_common::impl_persist!(Mshr {
    line,
    write,
    inv_pending,
    deferred,
    partial_served,
});

cmp_common::impl_persist!(L1Stats {
    hits,
    misses,
    upgrades,
    writebacks_data,
    writebacks_hint,
    invalidations,
    forwards_served,
    forwards_failed,
    accesses,
});

/// tile/tiles/expects_partial/max_mshrs come from the configuration; the
/// array contents, outstanding misses, stale-partial list and counters
/// travel as bytes.
impl cmp_common::persist::PersistState for L1Cache {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        self.array.save_state(w);
        self.mshrs.save(w);
        self.stale_partials.save(w);
        self.stats.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        self.array.load_state(r)?;
        let mshrs: Vec<Mshr> = Persist::load(r)?;
        if mshrs.len() > self.max_mshrs {
            return Err(r.err("MSHR count exceeds machine capacity"));
        }
        self.mshr_index = AddrMap::new();
        for (i, m) in mshrs.iter().enumerate() {
            if !self.mshr_index.contains_key(m.line) {
                self.mshr_index.insert(m.line, i as u32);
            }
        }
        self.mshrs = mshrs;
        self.stale_partials = Persist::load(r)?;
        self.stats = Persist::load(r)?;
        Ok(())
    }
}

/// Home slice of a line: block-interleaved across tiles. Must agree with
/// `CmpConfig::home_tile` (tested in the integration suite).
#[inline]
pub fn home_of(line: Addr, tiles: usize) -> TileId {
    TileId::from((line as usize) % tiles)
}

impl L1Cache {
    /// An L1 with `sets` × `ways` lines and `max_mshrs` outstanding
    /// misses, on a machine with `tiles` tiles.
    pub fn new(tile: TileId, sets: usize, ways: usize, max_mshrs: usize, tiles: usize) -> Self {
        assert!(max_mshrs >= 1);
        L1Cache {
            tile,
            tiles,
            expects_partial: false,
            array: CacheArray::new(sets, ways, 0),
            mshrs: Vec::with_capacity(max_mshrs),
            mshr_index: AddrMap::new(),
            max_mshrs,
            stale_partials: Vec::new(),
            stats: L1Stats::default(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// Declare that the interconnect splits data responses into
    /// partial + ordinary replies (Reply Partitioning).
    pub fn set_expects_partial(&mut self, v: bool) {
        self.expects_partial = v;
    }

    /// The tile this cache belongs to.
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// State of a line (test/diagnostic hook).
    pub fn state_of(&self, line: Addr) -> Option<L1State> {
        self.array.peek(line).copied()
    }

    /// Whether a miss is outstanding for `line`.
    #[inline]
    pub fn mshr_pending(&self, line: Addr) -> bool {
        self.mshr_index.contains_key(line)
    }

    /// Mutable view of the outstanding MSHR for `line`, through the
    /// address index.
    #[inline]
    fn mshr_mut(&mut self, line: Addr) -> Option<&mut Mshr> {
        let idx = *self.mshr_index.get(line)? as usize;
        Some(&mut self.mshrs[idx])
    }

    /// Allocate an MSHR, keeping the address index in sync.
    fn push_mshr(&mut self, m: Mshr) {
        debug_assert!(!self.mshr_index.contains_key(m.line));
        self.mshr_index.insert(m.line, self.mshrs.len() as u32);
        self.mshrs.push(m);
    }

    /// Number of outstanding misses.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// MSHR capacity.
    pub fn max_mshrs(&self) -> usize {
        self.max_mshrs
    }

    /// Resident lines and their states (sanitizer/diagnostic sweep).
    pub fn resident_lines(&self) -> impl Iterator<Item = (Addr, L1State)> + '_ {
        self.array.iter().map(|(line, &state)| (line, state))
    }

    /// Lines with an outstanding miss (sanitizer/diagnostic sweep).
    pub fn mshr_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        self.mshrs.iter().map(|m| m.line)
    }

    /// Fault hook: force a line into `state`, bypassing the protocol.
    /// Inserts the line if absent (no-op when its set is full). Used by
    /// the fault-injection harness to manufacture invariant violations.
    pub fn fault_set_state(&mut self, line: Addr, state: L1State) {
        if let Some(s) = self.array.get_mut(line) {
            *s = state;
        } else {
            let _ = self.array.insert(line, state);
        }
    }

    /// Fault hook: silently drop a resident line, bypassing the protocol.
    pub fn fault_drop_line(&mut self, line: Addr) {
        self.array.remove(line);
    }

    /// Fault hook: allocate an MSHR without issuing a request (used to
    /// manufacture duplicate/overflowing MSHR states for the sanitizer).
    pub fn fault_push_mshr(&mut self, line: Addr, write: bool) {
        let pos = self.mshrs.len() as u32;
        self.mshrs.push(Mshr {
            line,
            write,
            inv_pending: false,
            deferred: None,
            partial_served: false,
        });
        // A deliberate duplicate keeps the index at its first occurrence.
        if !self.mshr_index.contains_key(line) {
            self.mshr_index.insert(line, pos);
        }
    }

    fn home(&self, line: Addr) -> TileId {
        home_of(line, self.tiles)
    }

    /// A core access to `line`. Hits are served locally; misses allocate
    /// an MSHR and emit a request (plus a writeback when a dirty/exclusive
    /// victim must leave).
    pub fn core_access(&mut self, line: Addr, access: CoreAccess) -> L1Result {
        self.stats.accesses.inc();
        let write = access == CoreAccess::Write;
        if let Some(state) = self.array.get_mut(line) {
            match (*state, write) {
                (L1State::Modified, _) | (L1State::Exclusive, false) | (L1State::Shared, false) => {
                    self.stats.hits.inc();
                    return L1Result::Hit;
                }
                (L1State::Exclusive, true) => {
                    *state = L1State::Modified; // silent E->M
                    self.stats.hits.inc();
                    return L1Result::Hit;
                }
                (L1State::Shared, true) => {
                    // write to a shared line: upgrade
                    if self.mshr_pending(line) || self.mshrs.len() >= self.max_mshrs {
                        return L1Result::Blocked;
                    }
                    self.stats.upgrades.inc();
                    self.push_mshr(Mshr {
                        line,
                        write: true,
                        inv_pending: false,
                        deferred: None,
                        partial_served: false,
                    });
                    let mut out = OutVec::new();
                    out.push(Outgoing::Send {
                        dst: self.home(line),
                        msg: ProtocolMsg::new(PKind::Upgrade, line),
                        delay: L1_DELAY,
                    });
                    return L1Result::Miss { out };
                }
            }
        }

        // Miss.
        if self.mshr_pending(line) || self.mshrs.len() >= self.max_mshrs {
            return L1Result::Blocked;
        }
        self.stats.misses.inc();
        let mut out = OutVec::new();
        // Make room now: a way must stay free until our fill arrives.
        // Other outstanding misses to the same set have already reserved
        // one free way each (possible once partial replies let the core
        // run ahead of its fills), so eviction is needed whenever the free
        // ways are all spoken for. Lines with outstanding MSHRs are not
        // evictable.
        let reserved = self
            .mshrs
            .iter()
            .filter(|m| self.array.same_set(m.line, line) && self.array.peek(m.line).is_none())
            .count();
        if self.array.free_ways(line) <= reserved {
            let index = &self.mshr_index;
            let victim = self.array.lru_resident(line, |a, _| !index.contains_key(a));
            let Some(victim) = victim else {
                return L1Result::Blocked; // every way mid-miss
            };
            let state = self.array.remove(victim).expect("victim resident");
            match state {
                L1State::Modified => {
                    self.stats.writebacks_data.inc();
                    out.push(Outgoing::Send {
                        dst: self.home(victim),
                        msg: ProtocolMsg::new(PKind::WbData, victim),
                        delay: L1_DELAY,
                    });
                }
                L1State::Exclusive => {
                    self.stats.writebacks_hint.inc();
                    out.push(Outgoing::Send {
                        dst: self.home(victim),
                        msg: ProtocolMsg::new(PKind::WbHint, victim),
                        delay: L1_DELAY,
                    });
                }
                L1State::Shared => {} // silent (Section 4.2)
            }
        }
        self.push_mshr(Mshr {
            line,
            write,
            inv_pending: false,
            deferred: None,
            partial_served: false,
        });
        out.push(Outgoing::Send {
            dst: self.home(line),
            msg: ProtocolMsg::new(if write { PKind::GetX } else { PKind::GetS }, line),
            delay: L1_DELAY,
        });
        L1Result::Miss { out }
    }

    fn take_mshr(&mut self, line: Addr, kind: PKind) -> Result<Mshr, ProtocolError> {
        let Some(idx) = self.mshr_index.remove(line) else {
            return Err(ProtocolError::on_msg(
                self.tile,
                line,
                kind,
                "fill for a line without an outstanding MSHR",
            ));
        };
        let idx = idx as usize;
        let taken = self.mshrs.swap_remove(idx);
        if idx < self.mshrs.len() {
            self.mshr_index.insert(self.mshrs[idx].line, idx as u32);
        }
        // Fault-manufactured duplicates: re-point at the survivor so it
        // stays reachable (never taken on the clean path).
        if let Some(pos) = self.mshrs.iter().position(|m| m.line == line) {
            self.mshr_index.insert(line, pos as u32);
        }
        Ok(taken)
    }

    /// Serve a deferred forward/recall right after filling in state
    /// `filled` (Exclusive or Modified — the directory only forwards to
    /// owners).
    fn serve_deferred(&mut self, line: Addr, filled: L1State, deferred: PKind, out: &mut OutVec) {
        let dirty = filled == L1State::Modified;
        match deferred {
            PKind::FwdGetS { requestor } => {
                self.stats.forwards_served.inc();
                out.push(Outgoing::Send {
                    dst: requestor,
                    msg: ProtocolMsg::new(PKind::DataS, line),
                    delay: L1_DELAY,
                });
                out.push(Outgoing::Send {
                    dst: self.home(line),
                    msg: ProtocolMsg::new(
                        if dirty {
                            PKind::RevisionDirty
                        } else {
                            PKind::RevisionClean
                        },
                        line,
                    ),
                    delay: L1_DELAY,
                });
                *self.array.get_mut(line).expect("just filled") = L1State::Shared;
            }
            PKind::FwdGetX { requestor } => {
                self.stats.forwards_served.inc();
                out.push(Outgoing::Send {
                    dst: requestor,
                    msg: ProtocolMsg::new(PKind::DataM, line),
                    delay: L1_DELAY,
                });
                out.push(Outgoing::Send {
                    dst: self.home(line),
                    msg: ProtocolMsg::new(PKind::FwdDone, line),
                    delay: L1_DELAY,
                });
                self.array.remove(line);
            }
            PKind::RecallData => {
                out.push(Outgoing::Send {
                    dst: self.home(line),
                    msg: ProtocolMsg::new(
                        if dirty {
                            PKind::RecallAckData
                        } else {
                            PKind::RecallAckClean
                        },
                        line,
                    ),
                    delay: L1_DELAY,
                });
                self.array.remove(line);
            }
            other => unreachable!("only commands defer, got {other:?}"),
        }
    }

    /// Handle a delivered protocol message. Returns the messages to emit
    /// and, for fills/grants, the completed core access; a message the
    /// state machine cannot legally accept yields a [`ProtocolError`]
    /// instead of wedging or killing the simulation.
    pub fn handle(
        &mut self,
        msg: ProtocolMsg,
    ) -> Result<(OutVec, Option<CompletedAccess>), ProtocolError> {
        let line = msg.line;
        let mut out = OutVec::new();
        match msg.kind {
            PKind::DataS | PKind::DataE | PKind::DataM => {
                let mshr = self.take_mshr(line, msg.kind)?;
                let fill_state = match msg.kind {
                    PKind::DataS => L1State::Shared,
                    PKind::DataE => L1State::Exclusive,
                    // a write completes against an M fill; a read that was
                    // answered with DataM (upgrade-as-GetX path) also owns
                    // the line
                    _ => L1State::Modified,
                };
                // A write makes any fill Modified.
                let final_state = if mshr.write {
                    L1State::Modified
                } else {
                    fill_state
                };
                // A crossing Inv belongs to the pre-grant epoch. Dropping
                // the copy after use is only legal for *shared* fills
                // (equivalent to a silent S eviction); ownership grants
                // (DataE/DataM) must be kept — the directory records us
                // as the owner and will forward to us.
                let keep = !(mshr.inv_pending && msg.kind == PKind::DataS && !mshr.write);
                if keep {
                    if self.array.peek(line).is_some() {
                        // upgrade path: line was Shared and stayed resident
                        *self.array.get_mut(line).expect("resident") = final_state;
                    } else if self.array.insert(line, final_state).is_err() {
                        return Err(ProtocolError::on_msg(
                            self.tile,
                            line,
                            msg.kind,
                            "fill arrived with no way reserved in its set",
                        ));
                    }
                    if let Some(deferred) = mshr.deferred {
                        let actual = *self.array.peek(line).expect("resident");
                        self.serve_deferred(line, actual, deferred, &mut out);
                    }
                } else {
                    debug_assert!(
                        mshr.deferred.is_none(),
                        "directory cannot both invalidate and forward to us"
                    );
                }
                let completion = if mshr.partial_served {
                    None // the partial reply already resumed the core
                } else {
                    if self.expects_partial {
                        // the ordinary reply overtook its partial: the
                        // late partial must be ignored when it lands
                        self.stale_partials.push(line);
                    }
                    Some(CompletedAccess {
                        line,
                        write: mshr.write,
                    })
                };
                Ok((out, completion))
            }

            PKind::PartialReply { .. } => {
                // Reply Partitioning: the critical word arrives ahead of
                // the line. Resume the core now; the ordinary reply will
                // install the line. A partial whose full line overtook it
                // is stale and must be dropped.
                if let Some(pos) = self.stale_partials.iter().position(|&l| l == line) {
                    self.stale_partials.swap_remove(pos);
                    return Ok((out, None));
                }
                match self.mshr_mut(line) {
                    Some(m) if !m.partial_served => {
                        m.partial_served = true;
                        let write = m.write;
                        Ok((out, Some(CompletedAccess { line, write })))
                    }
                    _ => Ok((out, None)),
                }
            }

            PKind::UpgradeAck => {
                let mshr = self.take_mshr(line, msg.kind)?;
                debug_assert!(mshr.write && !mshr.inv_pending);
                let Some(state) = self.array.get_mut(line) else {
                    return Err(ProtocolError::on_msg(
                        self.tile,
                        line,
                        msg.kind,
                        "upgrade acknowledged for a line we no longer hold",
                    ));
                };
                debug_assert_eq!(*state, L1State::Shared);
                *state = L1State::Modified;
                if let Some(deferred) = mshr.deferred {
                    self.serve_deferred(line, L1State::Modified, deferred, &mut out);
                }
                Ok((out, Some(CompletedAccess { line, write: true })))
            }

            PKind::Inv => {
                self.stats.invalidations.inc();
                if let Some(state) = self.array.peek(line) {
                    if *state == L1State::Modified {
                        return Err(ProtocolError::on_msg(
                            self.tile,
                            line,
                            msg.kind,
                            "invalidation addressed to the modified owner",
                        ));
                    }
                    self.array.remove(line);
                }
                if let Some(m) = self.mshr_mut(line) {
                    m.inv_pending = true;
                }
                out.push(Outgoing::Send {
                    dst: self.home(line),
                    msg: ProtocolMsg::new(PKind::InvAck, line),
                    delay: L1_DELAY,
                });
                Ok((out, None))
            }

            PKind::FwdGetS { requestor } => {
                match self.array.peek(line).copied() {
                    Some(state @ (L1State::Modified | L1State::Exclusive)) => {
                        self.serve_deferred(line, state, PKind::FwdGetS { requestor }, &mut out);
                    }
                    _ => {
                        if let Some(m) = self.mshr_mut(line) {
                            debug_assert!(m.deferred.is_none());
                            m.deferred = Some(PKind::FwdGetS { requestor });
                        } else {
                            self.stats.forwards_failed.inc();
                            out.push(Outgoing::Send {
                                dst: self.home(line),
                                msg: ProtocolMsg::new(PKind::FwdFailed, line),
                                delay: L1_DELAY,
                            });
                        }
                    }
                }
                Ok((out, None))
            }

            PKind::FwdGetX { requestor } => {
                match self.array.peek(line).copied() {
                    Some(L1State::Modified | L1State::Exclusive) => {
                        // state argument unused for GetX (always transfers
                        // ownership); pass what we have
                        let s = *self.array.peek(line).expect("resident");
                        self.serve_deferred(line, s, PKind::FwdGetX { requestor }, &mut out);
                    }
                    _ => {
                        if let Some(m) = self.mshr_mut(line) {
                            debug_assert!(m.deferred.is_none());
                            m.deferred = Some(PKind::FwdGetX { requestor });
                        } else {
                            self.stats.forwards_failed.inc();
                            out.push(Outgoing::Send {
                                dst: self.home(line),
                                msg: ProtocolMsg::new(PKind::FwdFailed, line),
                                delay: L1_DELAY,
                            });
                        }
                    }
                }
                Ok((out, None))
            }

            PKind::RecallData => {
                match self.array.peek(line).copied() {
                    Some(state @ (L1State::Modified | L1State::Exclusive)) => {
                        self.serve_deferred(line, state, PKind::RecallData, &mut out);
                    }
                    _ => {
                        if let Some(m) = self.mshr_mut(line) {
                            debug_assert!(m.deferred.is_none());
                            m.deferred = Some(PKind::RecallData);
                        } else {
                            // writeback in flight: the home will see it
                            out.push(Outgoing::Send {
                                dst: self.home(line),
                                msg: ProtocolMsg::new(PKind::RecallAckClean, line),
                                delay: L1_DELAY,
                            });
                        }
                    }
                }
                Ok((out, None))
            }

            other => Err(ProtocolError::on_msg(
                self.tile,
                line,
                other,
                "message kind is never addressed to an L1",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        // 128 sets x 4 ways (32 KB of 64 B lines), 8 MSHRs, 16 tiles
        L1Cache::new(TileId(2), 128, 4, 8, 16)
    }

    /// Handle a message that must be protocol-legal.
    fn h(l1: &mut L1Cache, msg: ProtocolMsg) -> (OutVec, Option<CompletedAccess>) {
        l1.handle(msg).expect("protocol-legal message")
    }

    fn send_kinds(out: &[Outgoing]) -> Vec<PKind> {
        out.iter()
            .map(|o| match o {
                Outgoing::Send { msg, .. } => msg.kind,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn read_miss_issues_gets_to_home() {
        let mut l1 = l1();
        let line = 0x35; // home = 0x35 % 16 = tile 5
        match l1.core_access(line, CoreAccess::Read) {
            L1Result::Miss { out } => {
                assert_eq!(send_kinds(&out), vec![PKind::GetS]);
                match out[0] {
                    Outgoing::Send { dst, .. } => assert_eq!(dst, TileId(5)),
                    _ => unreachable!(),
                }
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(l1.mshr_pending(line));
    }

    #[test]
    fn fill_completes_and_subsequent_access_hits() {
        let mut l1 = l1();
        let line = 0x10;
        let _ = l1.core_access(line, CoreAccess::Read);
        let (out, done) = h(&mut l1, ProtocolMsg::new(PKind::DataE, line));
        assert!(out.is_empty());
        assert_eq!(done, Some(CompletedAccess { line, write: false }));
        assert_eq!(l1.state_of(line), Some(L1State::Exclusive));
        assert!(matches!(
            l1.core_access(line, CoreAccess::Read),
            L1Result::Hit
        ));
        // silent E->M on write hit
        assert!(matches!(
            l1.core_access(line, CoreAccess::Write),
            L1Result::Hit
        ));
        assert_eq!(l1.state_of(line), Some(L1State::Modified));
    }

    #[test]
    fn write_fill_is_modified_regardless_of_grant() {
        let mut l1 = l1();
        let _ = l1.core_access(7, CoreAccess::Write);
        let (_, done) = h(&mut l1, ProtocolMsg::new(PKind::DataM, 7));
        assert!(done.unwrap().write);
        assert_eq!(l1.state_of(7), Some(L1State::Modified));
    }

    #[test]
    fn shared_write_hit_issues_upgrade() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Read);
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataS, 3));
        match l1.core_access(3, CoreAccess::Write) {
            L1Result::Miss { out } => assert_eq!(send_kinds(&out), vec![PKind::Upgrade]),
            other => panic!("expected upgrade miss, got {other:?}"),
        }
        let (_, done) = h(&mut l1, ProtocolMsg::new(PKind::UpgradeAck, 3));
        assert_eq!(
            done,
            Some(CompletedAccess {
                line: 3,
                write: true
            })
        );
        assert_eq!(l1.state_of(3), Some(L1State::Modified));
    }

    #[test]
    fn dirty_eviction_writes_back_clean_exclusive_hints() {
        let mut l1 = l1();
        // fill four ways of set 0 (lines 0, 128, 256, 384 with 128 sets)
        for (i, state) in [PKind::DataM, PKind::DataE, PKind::DataS, PKind::DataS]
            .iter()
            .enumerate()
        {
            let line = (i as u64) * 128;
            let _ = l1.core_access(line, CoreAccess::Read);
            let _ = h(&mut l1, ProtocolMsg::new(*state, line));
        }
        // Write-fill state: the DataM line is Modified even for reads? No:
        // reads fill with the granted state. line 0 = Modified grant to a
        // read: treated as owned. Next miss in set 0 evicts LRU = line 0.
        match l1.core_access(512, CoreAccess::Read) {
            L1Result::Miss { out } => {
                let kinds = send_kinds(&out);
                assert_eq!(kinds, vec![PKind::WbData, PKind::GetS]);
            }
            other => panic!("{other:?}"),
        }
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataE, 512));
        // now evict the Exclusive line (128): hint only
        match l1.core_access(640, CoreAccess::Read) {
            L1Result::Miss { out } => {
                assert_eq!(send_kinds(&out), vec![PKind::WbHint, PKind::GetS]);
            }
            other => panic!("{other:?}"),
        }
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataE, 640));
        // and a Shared victim leaves silently
        match l1.core_access(768, CoreAccess::Read) {
            L1Result::Miss { out } => assert_eq!(send_kinds(&out), vec![PKind::GetS]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inv_removes_line_and_acks_home() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Read);
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataS, 3));
        let (out, done) = h(&mut l1, ProtocolMsg::new(PKind::Inv, 3));
        assert!(done.is_none());
        assert_eq!(send_kinds(&out), vec![PKind::InvAck]);
        assert_eq!(l1.state_of(3), None);
    }

    #[test]
    fn inv_crossing_a_shared_fill_drops_the_copy_after_use() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Read);
        // Inv overtakes the DataS on the fast channel
        let (out, _) = h(&mut l1, ProtocolMsg::new(PKind::Inv, 3));
        assert_eq!(send_kinds(&out), vec![PKind::InvAck]);
        let (_, done) = h(&mut l1, ProtocolMsg::new(PKind::DataS, 3));
        assert!(done.is_some(), "the read still completes");
        assert_eq!(l1.state_of(3), None, "but no stale copy is kept");
    }

    #[test]
    fn inv_crossing_an_exclusive_grant_keeps_ownership() {
        // The directory granted us E (it thinks we own the line); dropping
        // it would strand a later forward. The crossing Inv was for our
        // stale sharer bit, i.e. the pre-grant epoch.
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Read);
        let (out, _) = h(&mut l1, ProtocolMsg::new(PKind::Inv, 3));
        assert_eq!(send_kinds(&out), vec![PKind::InvAck]);
        let (_, done) = h(&mut l1, ProtocolMsg::new(PKind::DataE, 3));
        assert!(done.is_some());
        assert_eq!(l1.state_of(3), Some(L1State::Exclusive));
        // and a later forward is served, not failed
        let (out, _) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::FwdGetS {
                    requestor: TileId(9),
                },
                3,
            ),
        );
        assert_eq!(send_kinds(&out), vec![PKind::DataS, PKind::RevisionClean]);
    }

    #[test]
    fn inv_crossing_a_modified_grant_keeps_ownership() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Write);
        let (out, _) = h(&mut l1, ProtocolMsg::new(PKind::Inv, 3));
        assert_eq!(send_kinds(&out), vec![PKind::InvAck]);
        let (_, done) = h(&mut l1, ProtocolMsg::new(PKind::DataM, 3));
        assert!(done.is_some());
        assert_eq!(
            l1.state_of(3),
            Some(L1State::Modified),
            "DataM is a fresh ownership epoch"
        );
    }

    #[test]
    fn forward_served_from_modified_owner() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Write);
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataM, 3));
        let (out, _) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::FwdGetS {
                    requestor: TileId(9),
                },
                3,
            ),
        );
        let kinds = send_kinds(&out);
        assert_eq!(kinds, vec![PKind::DataS, PKind::RevisionDirty]);
        match out[0] {
            Outgoing::Send { dst, .. } => assert_eq!(dst, TileId(9)),
            _ => unreachable!(),
        }
        assert_eq!(l1.state_of(3), Some(L1State::Shared));
    }

    #[test]
    fn forward_served_from_exclusive_owner_is_clean() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Read);
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataE, 3));
        let (out, _) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::FwdGetS {
                    requestor: TileId(9),
                },
                3,
            ),
        );
        assert_eq!(send_kinds(&out), vec![PKind::DataS, PKind::RevisionClean]);
        assert_eq!(l1.state_of(3), Some(L1State::Shared));
    }

    #[test]
    fn fwd_getx_transfers_ownership_and_invalidates() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Write);
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataM, 3));
        let (out, _) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::FwdGetX {
                    requestor: TileId(1),
                },
                3,
            ),
        );
        assert_eq!(send_kinds(&out), vec![PKind::DataM, PKind::FwdDone]);
        assert_eq!(l1.state_of(3), None);
    }

    #[test]
    fn forward_for_absent_line_without_mshr_fails() {
        let mut l1 = l1();
        let (out, _) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::FwdGetS {
                    requestor: TileId(1),
                },
                3,
            ),
        );
        assert_eq!(send_kinds(&out), vec![PKind::FwdFailed]);
        assert_eq!(l1.stats().forwards_failed.get(), 1);
    }

    #[test]
    fn forward_with_mshr_pending_is_deferred_until_fill() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Read);
        // forward overtakes our DataE grant
        let (out, _) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::FwdGetS {
                    requestor: TileId(9),
                },
                3,
            ),
        );
        assert!(out.is_empty(), "deferred, not failed");
        let (out, done) = h(&mut l1, ProtocolMsg::new(PKind::DataE, 3));
        assert!(done.is_some());
        assert_eq!(send_kinds(&out), vec![PKind::DataS, PKind::RevisionClean]);
        assert_eq!(l1.state_of(3), Some(L1State::Shared));
    }

    #[test]
    fn recall_returns_dirty_data() {
        let mut l1 = l1();
        let _ = l1.core_access(3, CoreAccess::Write);
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataM, 3));
        let (out, _) = h(&mut l1, ProtocolMsg::new(PKind::RecallData, 3));
        assert_eq!(send_kinds(&out), vec![PKind::RecallAckData]);
        assert_eq!(l1.state_of(3), None);
    }

    #[test]
    fn recall_of_absent_line_acks_clean() {
        let mut l1 = l1();
        let (out, _) = h(&mut l1, ProtocolMsg::new(PKind::RecallData, 3));
        assert_eq!(send_kinds(&out), vec![PKind::RecallAckClean]);
    }

    #[test]
    fn partial_reply_resumes_core_before_the_line_arrives() {
        use crate::msg::PartialOf;
        let mut l1 = l1();
        l1.set_expects_partial(true);
        let _ = l1.core_access(3, CoreAccess::Read);
        // the critical word arrives on the fast wires
        let (out, done) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::PartialReply {
                    of: PartialOf::Exclusive,
                },
                3,
            ),
        );
        assert!(out.is_empty());
        assert_eq!(
            done,
            Some(CompletedAccess {
                line: 3,
                write: false
            })
        );
        assert_eq!(l1.state_of(3), None, "line not installed yet");
        assert!(l1.mshr_pending(3), "ordinary reply still outstanding");
        // the ordinary reply installs silently (no double completion)
        let (_, done) = h(&mut l1, ProtocolMsg::new(PKind::DataE, 3));
        assert_eq!(done, None);
        assert_eq!(l1.state_of(3), Some(L1State::Exclusive));
        assert!(!l1.mshr_pending(3));
    }

    #[test]
    fn ordinary_reply_overtaking_partial_is_handled() {
        use crate::msg::PartialOf;
        let mut l1 = l1();
        l1.set_expects_partial(true);
        let _ = l1.core_access(3, CoreAccess::Read);
        // pathological order: the full line lands first
        let (_, done) = h(&mut l1, ProtocolMsg::new(PKind::DataE, 3));
        assert!(done.is_some(), "fill completes the access");
        // the late partial is stale and must not complete anything
        let (_, done) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::PartialReply {
                    of: PartialOf::Exclusive,
                },
                3,
            ),
        );
        assert_eq!(done, None);
        assert_eq!(l1.state_of(3), Some(L1State::Exclusive));
    }

    #[test]
    fn deferred_forward_still_served_after_partial_completion() {
        use crate::msg::PartialOf;
        let mut l1 = l1();
        l1.set_expects_partial(true);
        let _ = l1.core_access(3, CoreAccess::Write);
        let (_, done) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::PartialReply {
                    of: PartialOf::Modified,
                },
                3,
            ),
        );
        assert!(done.is_some());
        // a forward arrives between partial and ordinary: defers
        let (out, _) = h(
            &mut l1,
            ProtocolMsg::new(
                PKind::FwdGetS {
                    requestor: TileId(9),
                },
                3,
            ),
        );
        assert!(out.is_empty());
        // the ordinary reply installs M, then immediately serves the fwd
        let (out, done) = h(&mut l1, ProtocolMsg::new(PKind::DataM, 3));
        assert_eq!(done, None, "core already resumed by the partial");
        assert_eq!(send_kinds(&out), vec![PKind::DataS, PKind::RevisionDirty]);
        assert_eq!(l1.state_of(3), Some(L1State::Shared));
    }

    #[test]
    fn blocked_when_mshrs_exhausted() {
        let mut l1 = L1Cache::new(TileId(0), 128, 4, 1, 16);
        assert!(matches!(
            l1.core_access(1, CoreAccess::Read),
            L1Result::Miss { .. }
        ));
        assert!(matches!(
            l1.core_access(2, CoreAccess::Read),
            L1Result::Blocked
        ));
        // same-line re-access also blocks
        assert!(matches!(
            l1.core_access(1, CoreAccess::Read),
            L1Result::Blocked
        ));
    }

    #[test]
    fn stats_count_events() {
        let mut l1 = l1();
        let _ = l1.core_access(1, CoreAccess::Read); // miss
        let _ = h(&mut l1, ProtocolMsg::new(PKind::DataE, 1));
        let _ = l1.core_access(1, CoreAccess::Read); // hit
        assert_eq!(l1.stats().misses.get(), 1);
        assert_eq!(l1.stats().hits.get(), 1);
        assert_eq!(l1.stats().accesses.get(), 2);
    }
}
