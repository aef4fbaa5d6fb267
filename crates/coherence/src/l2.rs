//! The home L2 slice: inclusive shared-cache bank plus its directory.
//!
//! Sharer bookkeeping lives in one packed [`DirectoryStore`] whatever
//! the [`DirectoryConfig`]; the protocol below manipulates only its
//! [`DirState`] view. The organisations differ only in transaction
//! metering: a sparse directory's `dir_mshrs` bound the busy lines and
//! fills a slice may hold at once, a full map has no bound. Both
//! therefore produce byte-identical message schedules.
//!
//! The directory is *blocking per line*: while a transaction is in flight
//! (waiting for a revision, invalidation acks, a racing writeback or an
//! inclusion recall) any new request for that line queues at the home and
//! is replayed in arrival order. This serialisation, together with the
//! L1-side deferral of overtaking commands, makes the protocol correct on
//! a network that does not preserve ordering across channels.
//!
//! L2 misses allocate through `Fill` records: memory is read (400
//! cycles away), a victim way is chosen when the data returns, and — the
//! L2 being inclusive — a victim still cached above is first *recalled*
//! (`Inv` to sharers, `RecallData` to an owner).

use std::collections::VecDeque;

use cmp_common::addrmap::AddrMap;
use cmp_common::config::DirectoryConfig;
use cmp_common::stats::Counter;
use cmp_common::types::{Addr, TileId};

use crate::cache::{CacheArray, VictimSlot};
use crate::directory::DirectoryStore;
use crate::error::ProtocolError;
use crate::msg::{OutVec, Outgoing, PKind, ProtocolMsg};

pub use crate::directory::{DirState, SharerSet};

/// Cache payload of an L2 line (sharer tracking lives in the
/// directory store, not the cache array).
#[derive(Clone, Copy, Debug)]
pub struct L2Line {
    /// Dirty with respect to memory.
    pub dirty: bool,
}

/// In-flight transaction state for one busy line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the Await prefix is descriptive
enum Busy {
    /// Forwarded to the owner; waiting for its revision / completion /
    /// failure notice. `wb_seen` records a writeback that arrived before
    /// the failure notice (the two race on different channels).
    AwaitRevision {
        requestor: TileId,
        original: PKind,
        wb_seen: bool,
    },
    /// Invalidations outstanding; the grant goes out when the last ack
    /// lands.
    AwaitInvAcks {
        requestor: TileId,
        pending: u32,
        is_upgrade: bool,
    },
    /// A forward found the owner gone: its writeback is in flight; replay
    /// the original request once it lands.
    AwaitWbRace { requestor: TileId, original: PKind },
    /// Inclusion recall of a victim line in progress.
    AwaitRecall { pending: u32 },
}

/// An L2 miss being filled from memory.
#[derive(Clone, Debug, Default)]
struct Fill {
    mem_done: bool,
    /// Requests that arrived while the fill was outstanding, replayed in
    /// order after installation.
    waiters: Vec<(TileId, PKind)>,
}

/// Event counters for one slice.
#[derive(Clone, Debug, Default)]
pub struct L2Stats {
    pub requests: Counter,
    pub l2_misses: Counter,
    pub forwards: Counter,
    pub invalidations_sent: Counter,
    pub recalls: Counter,
    pub writebacks: Counter,
    pub mem_reads: Counter,
    pub mem_writes: Counter,
    pub data_served: Counter,
}

/// L2 tag-probe latency before a command/ack goes out (Table 4: 6 cycles).
pub const L2_TAG_DELAY: u64 = 6;
/// Tag + data-array latency before a data response goes out (6+2 cycles).
pub const L2_DATA_DELAY: u64 = 8;

/// One tile's L2 slice + directory controller.
pub struct L2Slice {
    tile: TileId,
    tiles: usize,
    array: CacheArray<L2Line>,
    dir: DirectoryStore,
    /// Transaction slots a sparse directory meters; `None` for a full
    /// map, whose transaction state is co-located with its lines.
    dir_mshrs: Option<usize>,
    busy: AddrMap<Busy>,
    pending: AddrMap<VecDeque<(TileId, PKind)>>,
    fills: AddrMap<Fill>,
    /// victim line → fill line waiting on its recall.
    recall_for: AddrMap<Addr>,
    /// Fills whose victim choice found every way busy; retried on `pump`.
    stalled: Vec<Addr>,
    /// Total requests queued across all `pending` lines, so
    /// [`L2Slice::is_quiescent`] is O(1) on the simulator's idle check.
    queued: usize,
    stats: L2Stats,
}

cmp_common::impl_persist!(L2Line { dirty });

impl cmp_common::persist::Persist for Busy {
    fn save(&self, w: &mut cmp_common::persist::ByteWriter) {
        match *self {
            Busy::AwaitRevision {
                requestor,
                original,
                wb_seen,
            } => {
                w.u8(0);
                requestor.save(w);
                original.save(w);
                w.bool(wb_seen);
            }
            Busy::AwaitInvAcks {
                requestor,
                pending,
                is_upgrade,
            } => {
                w.u8(1);
                requestor.save(w);
                w.u32(pending);
                w.bool(is_upgrade);
            }
            Busy::AwaitWbRace {
                requestor,
                original,
            } => {
                w.u8(2);
                requestor.save(w);
                original.save(w);
            }
            Busy::AwaitRecall { pending } => {
                w.u8(3);
                w.u32(pending);
            }
        }
    }
    fn load(
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<Self, cmp_common::persist::PersistError> {
        Ok(match r.u8()? {
            0 => Busy::AwaitRevision {
                requestor: TileId::load(r)?,
                original: PKind::load(r)?,
                wb_seen: r.bool()?,
            },
            1 => Busy::AwaitInvAcks {
                requestor: TileId::load(r)?,
                pending: r.u32()?,
                is_upgrade: r.bool()?,
            },
            2 => Busy::AwaitWbRace {
                requestor: TileId::load(r)?,
                original: PKind::load(r)?,
            },
            3 => Busy::AwaitRecall { pending: r.u32()? },
            _ => return Err(r.err("invalid Busy tag")),
        })
    }
}

cmp_common::impl_persist!(Fill { mem_done, waiters });

cmp_common::impl_persist!(L2Stats {
    requests,
    l2_misses,
    forwards,
    invalidations_sent,
    recalls,
    writebacks,
    mem_reads,
    mem_writes,
    data_served,
});

/// tile/tiles, the array geometry and the transaction budget are
/// configuration; the resident lines, directory contents, transaction
/// state and counters travel as bytes.
impl cmp_common::persist::PersistState for L2Slice {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        self.array.save_state(w);
        self.dir.save_state(w);
        self.busy.save(w);
        self.pending.save(w);
        self.fills.save(w);
        self.recall_for.save(w);
        self.stalled.save(w);
        w.usize(self.queued);
        self.stats.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        self.array.load_state(r)?;
        self.dir.load_state(r)?;
        self.busy = Persist::load(r)?;
        self.pending = Persist::load(r)?;
        self.fills = Persist::load(r)?;
        self.recall_for = Persist::load(r)?;
        self.stalled = Persist::load(r)?;
        self.queued = r.usize()?;
        if self.queued != self.pending.values().map(|q| q.len()).sum::<usize>() {
            return Err(r.err("queued counter disagrees with pending queues"));
        }
        self.stats = Persist::load(r)?;
        Ok(())
    }
}

impl L2Slice {
    /// A full-map slice with `sets` × `ways` lines on a `tiles`-tile
    /// machine (the paper's configuration and the determinism-golden
    /// default).
    pub fn new(tile: TileId, sets: usize, ways: usize, tiles: usize) -> Self {
        Self::with_directory(tile, sets, ways, tiles, DirectoryConfig::FullMap)
    }

    /// A slice of the given directory organisation, which decides
    /// whether its transactions are metered. Set selection skips the
    /// `log2(tiles)` home-interleave bits.
    pub fn with_directory(
        tile: TileId,
        sets: usize,
        ways: usize,
        tiles: usize,
        directory: DirectoryConfig,
    ) -> Self {
        assert!(tiles.is_power_of_two(), "interleaving needs 2^n tiles");
        L2Slice {
            tile,
            tiles,
            array: CacheArray::new(sets, ways, tiles.trailing_zeros()),
            dir: DirectoryStore::new(tiles),
            dir_mshrs: match directory {
                DirectoryConfig::FullMap => None,
                DirectoryConfig::Sparse { dir_mshrs } => Some(dir_mshrs),
            },
            busy: AddrMap::new(),
            pending: AddrMap::new(),
            fills: AddrMap::new(),
            recall_for: AddrMap::new(),
            stalled: Vec::new(),
            queued: 0,
            stats: L2Stats::default(),
        }
    }

    /// Every line the directory tracks in a non-`Invalid` state, sorted
    /// by address (sanitizer cross-check against the cache array).
    pub fn directory_entries(&self) -> Vec<(Addr, DirState)> {
        self.dir.entries()
    }

    /// Directory transaction slots currently claimed (busy lines plus
    /// outstanding fills — the quantity metered against `dir_mshrs`).
    pub fn transaction_slots_in_use(&self) -> usize {
        self.busy.len() + self.fills.len()
    }

    /// Event counters.
    pub fn stats(&self) -> &L2Stats {
        &self.stats
    }

    /// Directory state of a line (test/diagnostic hook). `None` when
    /// the line is not resident in this slice.
    pub fn dir_state(&self, line: Addr) -> Option<DirState> {
        self.array.peek(line).map(|_| self.dir.lookup(line))
    }

    /// Whether `line` has an in-flight transaction, fill or pending
    /// recall at this home. While true, the directory entry may lag the
    /// L1s' states — the sanitizer must not flag the disagreement.
    pub fn line_in_flight(&self, line: Addr) -> bool {
        self.busy.contains_key(line)
            || self.fills.contains_key(line)
            || self.recall_for.contains_key(line)
    }

    /// Resident lines with their directory state (sanitizer sweep).
    pub fn resident_lines(&self) -> impl Iterator<Item = (Addr, DirState)> + '_ {
        self.array
            .iter()
            .map(|(line, _)| (line, self.dir.lookup(line)))
    }

    /// Lines mid-transaction with a label of the busy state (dumps).
    pub fn busy_lines(&self) -> impl Iterator<Item = (Addr, String)> + '_ {
        self.busy.iter().map(|(&line, b)| (line, format!("{b:?}")))
    }

    /// Lines with an outstanding memory fill (dumps).
    pub fn fill_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        self.fills.keys().copied()
    }

    /// Requests queued behind busy lines (dumps + sanitizer).
    pub fn queued_requests(&self) -> usize {
        self.queued
    }

    /// Sum of per-line pending-queue lengths (O(lines); sanitizer
    /// cross-check against the O(1) `queued` counter).
    pub fn pending_total(&self) -> usize {
        self.pending.values().map(|q| q.len()).sum()
    }

    /// Whether any pending queue is non-empty for a line that is neither
    /// busy nor filling — such a queue would never drain.
    pub fn orphaned_pending_line(&self) -> Option<Addr> {
        self.pending
            .iter()
            .find(|(line, q)| {
                !q.is_empty() && !self.busy.contains_key(**line) && !self.fills.contains_key(**line)
            })
            .map(|(&line, _)| line)
    }

    /// Fault hook: overwrite the directory state of a resident line.
    /// Only for manufacturing sanitizer test states — never simulation.
    #[doc(hidden)]
    pub fn fault_set_dir(&mut self, line: Addr, dir: DirState) {
        if self.array.get_mut(line).is_some() {
            self.dir.update(line, dir);
        }
    }

    /// The slice's directory store, for store tests that build it the
    /// way each organisation does.
    #[cfg(test)]
    pub(crate) fn into_directory(self) -> DirectoryStore {
        self.dir
    }

    /// Fault hook: silently drop a resident line (inclusion violation).
    #[doc(hidden)]
    pub fn fault_evict_line(&mut self, line: Addr) {
        let _ = self.array.remove(line);
        self.dir.evict(line);
    }

    /// Fault hook: enqueue a pending request for an idle line (orphaned
    /// queue / counter-mismatch violation).
    #[doc(hidden)]
    pub fn fault_enqueue_pending(&mut self, line: Addr, src: TileId, kind: PKind) {
        self.pending.get_or_default(line).push_back((src, kind));
        self.queued += 1;
    }

    /// Whether the slice has no transaction, fill or queued request.
    /// O(1): the simulator polls this on every scheduler iteration.
    pub fn is_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.queued,
            self.pending.values().map(|q| q.len()).sum::<usize>()
        );
        self.busy.is_empty() && self.fills.is_empty() && self.queued == 0 && self.stalled.is_empty()
    }

    fn send(out: &mut OutVec, dst: TileId, kind: PKind, line: Addr, delay: u64) {
        out.push(Outgoing::Send {
            dst,
            msg: ProtocolMsg::new(kind, line),
            delay,
        });
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    /// Handle a request (`GetS`/`GetX`/`Upgrade`) from tile `src`.
    pub fn handle_request(
        &mut self,
        src: TileId,
        kind: PKind,
        line: Addr,
    ) -> Result<OutVec, ProtocolError> {
        debug_assert!(matches!(kind, PKind::GetS | PKind::GetX | PKind::Upgrade));
        if line as usize % self.tiles != self.tile.index() {
            // A request for a line this slice does not home can only be a
            // corrupted address: the interleaving is a pure function of
            // the line, so a correct NI never misroutes.
            return Err(ProtocolError::on_msg(
                self.tile,
                line,
                kind,
                format!(
                    "request routed to the wrong home (line homes at tile {})",
                    line as usize % self.tiles
                ),
            ));
        }
        self.stats.requests.inc();
        let mut out = OutVec::new();
        self.request_inner(src, kind, line, &mut out)?;
        Ok(out)
    }

    fn request_inner(
        &mut self,
        src: TileId,
        kind: PKind,
        line: Addr,
        out: &mut OutVec,
    ) -> Result<(), ProtocolError> {
        if self.busy.contains_key(line) {
            self.pending.get_or_default(line).push_back((src, kind));
            self.queued += 1;
            return Ok(());
        }
        if let Some(fill) = self.fills.get_mut(line) {
            fill.waiters.push((src, kind));
            return Ok(());
        }
        if self.array.peek(line).is_none() {
            // L2 miss: start the fill.
            self.reserve_slot(line)?;
            self.stats.l2_misses.inc();
            self.stats.mem_reads.inc();
            self.fills.insert(
                line,
                Fill {
                    mem_done: false,
                    waiters: vec![(src, kind)],
                },
            );
            out.push(Outgoing::MemRead { line });
            return Ok(());
        }
        self.dispatch(src, kind, line, out)
    }

    /// Core of the directory: line resident, not busy.
    fn dispatch(
        &mut self,
        src: TileId,
        kind: PKind,
        line: Addr,
        out: &mut OutVec,
    ) -> Result<(), ProtocolError> {
        let dir = self.dir.lookup(line);
        self.array.touch(line);
        match (kind, dir) {
            // ---- GetS ----
            (PKind::GetS, DirState::Invalid) => {
                self.set_dir(line, DirState::Owned(src));
                self.stats.data_served.inc();
                Self::send(out, src, PKind::DataE, line, L2_DATA_DELAY);
            }
            (PKind::GetS, DirState::Shared(mut s)) => {
                s.insert(src);
                self.set_dir(line, DirState::Shared(s));
                self.stats.data_served.inc();
                Self::send(out, src, PKind::DataS, line, L2_DATA_DELAY);
            }
            (PKind::GetS, DirState::Owned(owner)) if owner == src => {
                // Owner lost the line to a replacement whose writeback is
                // still in flight; replay once it lands.
                self.reserve_slot(line)?;
                self.busy.insert(
                    line,
                    Busy::AwaitWbRace {
                        requestor: src,
                        original: kind,
                    },
                );
            }
            (PKind::GetS, DirState::Owned(owner)) => {
                self.reserve_slot(line)?;
                self.stats.forwards.inc();
                self.busy.insert(
                    line,
                    Busy::AwaitRevision {
                        requestor: src,
                        original: kind,
                        wb_seen: false,
                    },
                );
                Self::send(
                    out,
                    owner,
                    PKind::FwdGetS { requestor: src },
                    line,
                    L2_TAG_DELAY,
                );
            }

            // ---- GetX (and Upgrade degraded to GetX) ----
            (PKind::GetX | PKind::Upgrade, DirState::Invalid) => {
                self.set_dir(line, DirState::Owned(src));
                self.stats.data_served.inc();
                Self::send(out, src, PKind::DataM, line, L2_DATA_DELAY);
            }
            (PKind::GetX | PKind::Upgrade, DirState::Shared(s)) => {
                let is_upgrade = kind == PKind::Upgrade && s.contains(src);
                let others = s.without(src);
                if others.is_empty() {
                    self.set_dir(line, DirState::Owned(src));
                    if is_upgrade {
                        Self::send(out, src, PKind::UpgradeAck, line, L2_TAG_DELAY);
                    } else {
                        self.stats.data_served.inc();
                        Self::send(out, src, PKind::DataM, line, L2_DATA_DELAY);
                    }
                } else {
                    self.reserve_slot(line)?;
                    let mut pending = 0;
                    for t in others.iter() {
                        pending += 1;
                        self.stats.invalidations_sent.inc();
                        Self::send(out, t, PKind::Inv, line, L2_TAG_DELAY);
                    }
                    self.set_dir(line, DirState::Shared(others));
                    self.busy.insert(
                        line,
                        Busy::AwaitInvAcks {
                            requestor: src,
                            pending,
                            is_upgrade,
                        },
                    );
                }
            }
            (PKind::GetX | PKind::Upgrade, DirState::Owned(owner)) if owner == src => {
                self.reserve_slot(line)?;
                self.busy.insert(
                    line,
                    Busy::AwaitWbRace {
                        requestor: src,
                        original: kind,
                    },
                );
            }
            (PKind::GetX | PKind::Upgrade, DirState::Owned(owner)) => {
                self.reserve_slot(line)?;
                self.stats.forwards.inc();
                self.busy.insert(
                    line,
                    Busy::AwaitRevision {
                        requestor: src,
                        original: kind,
                        wb_seen: false,
                    },
                );
                Self::send(
                    out,
                    owner,
                    PKind::FwdGetX { requestor: src },
                    line,
                    L2_TAG_DELAY,
                );
            }

            (k, d) => unreachable!("dispatch({k:?}, {d:?})"),
        }
        Ok(())
    }

    /// Claim a directory transaction slot for `line` before creating a
    /// new busy or fill record. Full-map state is co-located with the
    /// lines (no limit); the sparse directory meters `dir_mshrs` slots
    /// per slice and exhaustion is a hard, knob-naming error rather
    /// than silent misbehaviour.
    fn reserve_slot(&mut self, line: Addr) -> Result<(), ProtocolError> {
        let Some(cap) = self.dir_mshrs else {
            return Ok(());
        };
        if self.busy.contains_key(line) || self.fills.contains_key(line) {
            return Ok(()); // the line already holds its slot
        }
        let used = self.busy.len() + self.fills.len();
        if used < cap {
            return Ok(());
        }
        Err(ProtocolError::internal(
            self.tile,
            line,
            format!(
                "sparse directory out of transaction slots at home tile {} \
                 ({used} of {cap} in use); raise `dir_mshrs` in \
                 `CmpConfig::directory` (DirectoryConfig::Sparse {{ dir_mshrs }})",
                self.tile.index()
            ),
        ))
    }

    fn set_dir(&mut self, line: Addr, dir: DirState) {
        // The presence vector used to live in the cache payload, so
        // every directory write made the line the most recent; keep
        // that recency schedule repr-independent — the determinism
        // goldens encode it.
        self.array.touch(line);
        self.dir.update(line, dir);
    }

    // ------------------------------------------------------------------
    // Replies
    // ------------------------------------------------------------------

    /// Handle a coherence reply / revision from tile `src`.
    pub fn handle_reply(
        &mut self,
        src: TileId,
        kind: PKind,
        line: Addr,
    ) -> Result<OutVec, ProtocolError> {
        let mut out = OutVec::new();
        match kind {
            PKind::InvAck => self.inv_ack(line, &mut out)?,
            PKind::RevisionDirty | PKind::RevisionClean => {
                let Some(&busy) = self.busy.get(line) else {
                    return Err(self.reply_err(kind, line, "revision for an idle line"));
                };
                let Busy::AwaitRevision {
                    requestor,
                    original,
                    ..
                } = busy
                else {
                    return Err(self.reply_err(kind, line, format!("revision while {busy:?}")));
                };
                debug_assert_eq!(original, PKind::GetS);
                if kind == PKind::RevisionDirty {
                    self.array.get_mut(line).expect("resident").dirty = true;
                }
                self.set_dir(line, DirState::Shared(SharerSet::pair(src, requestor)));
                self.unbusy(line, &mut out)?;
            }
            PKind::FwdDone => {
                let Some(&busy) = self.busy.get(line) else {
                    return Err(self.reply_err(kind, line, "forward completion for an idle line"));
                };
                let Busy::AwaitRevision { requestor, .. } = busy else {
                    return Err(self.reply_err(kind, line, format!("FwdDone while {busy:?}")));
                };
                self.set_dir(line, DirState::Owned(requestor));
                self.unbusy(line, &mut out)?;
            }
            PKind::FwdFailed => {
                let Some(&busy) = self.busy.get(line) else {
                    return Err(self.reply_err(kind, line, "forward failure for an idle line"));
                };
                let Busy::AwaitRevision {
                    requestor,
                    original,
                    wb_seen,
                } = busy
                else {
                    return Err(self.reply_err(kind, line, format!("FwdFailed while {busy:?}")));
                };
                if wb_seen {
                    // writeback already applied: replay now
                    self.busy.remove(line);
                    let mut chain = OutVec::new();
                    self.request_inner(requestor, original, line, &mut chain)?;
                    out.extend(chain);
                    // `request_inner` may have left the line un-busy
                    // (immediate grant): drain any queued requests too
                    if !self.busy.contains_key(line) {
                        self.drain_pending(line, &mut out)?;
                    }
                } else {
                    self.busy.insert(
                        line,
                        Busy::AwaitWbRace {
                            requestor,
                            original,
                        },
                    );
                }
            }
            PKind::RecallAckData | PKind::RecallAckClean => {
                if kind == PKind::RecallAckData {
                    if let Some(l) = self.array.get_mut(line) {
                        l.dirty = true;
                    }
                }
                self.recall_ack(kind, line, &mut out)?;
            }
            other => {
                return Err(self.reply_err(
                    other,
                    line,
                    "message kind is never a reply to the home",
                ))
            }
        }
        Ok(out)
    }

    /// A [`ProtocolError`] for a reply this slice cannot legally accept.
    #[cold]
    #[inline(never)]
    fn reply_err(&self, kind: PKind, line: Addr, detail: impl Into<String>) -> ProtocolError {
        ProtocolError::on_msg(self.tile, line, kind, detail)
    }

    fn inv_ack(&mut self, line: Addr, out: &mut OutVec) -> Result<(), ProtocolError> {
        match self.busy.get_mut(line) {
            Some(Busy::AwaitInvAcks {
                requestor,
                pending,
                is_upgrade,
            }) => {
                *pending -= 1;
                if *pending == 0 {
                    let (req, upgrade) = (*requestor, *is_upgrade);
                    self.set_dir(line, DirState::Owned(req));
                    if upgrade {
                        Self::send(out, req, PKind::UpgradeAck, line, L2_TAG_DELAY);
                    } else {
                        self.stats.data_served.inc();
                        Self::send(out, req, PKind::DataM, line, L2_DATA_DELAY);
                    }
                    self.unbusy(line, out)?;
                }
                Ok(())
            }
            Some(Busy::AwaitRecall { .. }) => self.recall_ack(PKind::InvAck, line, out),
            other => {
                let detail = format!("invalidation ack while {other:?}");
                Err(self.reply_err(PKind::InvAck, line, detail))
            }
        }
    }

    // ------------------------------------------------------------------
    // Writebacks
    // ------------------------------------------------------------------

    /// Handle a replacement (`WbData`/`WbHint`) from tile `src`.
    pub fn handle_writeback(
        &mut self,
        src: TileId,
        kind: PKind,
        line: Addr,
    ) -> Result<OutVec, ProtocolError> {
        debug_assert!(matches!(kind, PKind::WbData | PKind::WbHint));
        self.stats.writebacks.inc();
        let with_data = kind == PKind::WbData;
        let mut out = OutVec::new();

        if self.array.peek(line).is_none() {
            // The line was recalled/evicted while the writeback flew:
            // dirty data goes straight to memory.
            if with_data {
                self.stats.mem_writes.inc();
                out.push(Outgoing::MemWrite { line });
            }
            return Ok(out);
        }
        if with_data {
            self.array.get_mut(line).expect("resident").dirty = true;
        }
        match self.busy.get_mut(line) {
            None => {
                // normal replacement: the sender must be the tracked owner
                // (a duplicated writeback trips this — its first copy
                // already cleared the directory)
                if self.dir_state(line) != Some(DirState::Owned(src)) {
                    let detail = format!(
                        "writeback from tile {} but the directory records {:?}",
                        src.index(),
                        self.dir_state(line)
                    );
                    return Err(self.reply_err(kind, line, detail));
                }
                self.set_dir(line, DirState::Invalid);
            }
            Some(Busy::AwaitRevision { wb_seen, .. }) => {
                // forward in flight crossed this writeback; remember the
                // data, drop the stale owner, and wait for the FwdFailed
                // notice before replaying
                *wb_seen = true;
                self.set_dir(line, DirState::Invalid);
            }
            Some(Busy::AwaitWbRace {
                requestor,
                original,
            }) => {
                let (req, orig) = (*requestor, *original);
                self.busy.remove(line);
                self.set_dir(line, DirState::Invalid);
                let mut chain = OutVec::new();
                self.request_inner(req, orig, line, &mut chain)?;
                out.extend(chain);
                if !self.busy.contains_key(line) {
                    self.drain_pending(line, &mut out)?;
                }
            }
            Some(Busy::AwaitRecall { .. }) => {
                // owner wrote back while we recalled: data recorded above;
                // the RecallAckClean that follows finishes the recall
            }
            Some(other) => {
                let detail = format!("writeback while {other:?}");
                return Err(self.reply_err(kind, line, detail));
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Fills and inclusion recalls
    // ------------------------------------------------------------------

    /// Memory finished reading `line` (called by the simulator
    /// `mem_latency` cycles after the `MemRead` effect).
    pub fn mem_fill_done(&mut self, line: Addr) -> Result<OutVec, ProtocolError> {
        let mut out = OutVec::new();
        let Some(fill) = self.fills.get_mut(line) else {
            return Err(ProtocolError::internal(
                self.tile,
                line,
                "memory fill completed for a line with no fill record",
            ));
        };
        fill.mem_done = true;
        self.try_install(line, &mut out)?;
        Ok(out)
    }

    /// Retry fills that could not find an evictable victim. Call after
    /// handling any message (cheap when nothing is stalled).
    pub fn pump(&mut self) -> Result<OutVec, ProtocolError> {
        let mut out = OutVec::new();
        if self.stalled.is_empty() {
            return Ok(out);
        }
        let stalled = std::mem::take(&mut self.stalled);
        for line in stalled {
            self.try_install(line, &mut out)?;
        }
        Ok(out)
    }

    fn try_install(&mut self, line: Addr, out: &mut OutVec) -> Result<(), ProtocolError> {
        if !self.fills.get(line).map(|f| f.mem_done).unwrap_or(false) {
            return Ok(());
        }
        // A recall for this fill may already be running.
        if self.recall_for.values().any(|&l| l == line) {
            return Ok(());
        }
        let busy = &self.busy;
        let recall_for = &self.recall_for;
        match self.array.victim_for(line, |a, _| {
            !busy.contains_key(a) && !recall_for.contains_key(a)
        }) {
            VictimSlot::Free => self.install(line, out)?,
            VictimSlot::Evict(victim) => {
                debug_assert!(self.array.peek(victim).is_some(), "victim resident");
                match self.dir.lookup(victim) {
                    DirState::Invalid => {
                        self.evict(victim, out);
                        self.install(line, out)?;
                    }
                    DirState::Shared(s) => {
                        self.reserve_slot(victim)?;
                        self.stats.recalls.inc();
                        let mut pending = 0;
                        for t in s.iter() {
                            pending += 1;
                            self.stats.invalidations_sent.inc();
                            Self::send(out, t, PKind::Inv, victim, L2_TAG_DELAY);
                        }
                        debug_assert!(pending > 0, "Shared dir with no sharers");
                        self.busy.insert(victim, Busy::AwaitRecall { pending });
                        self.recall_for.insert(victim, line);
                    }
                    DirState::Owned(owner) => {
                        self.reserve_slot(victim)?;
                        self.stats.recalls.inc();
                        Self::send(out, owner, PKind::RecallData, victim, L2_TAG_DELAY);
                        self.busy.insert(victim, Busy::AwaitRecall { pending: 1 });
                        self.recall_for.insert(victim, line);
                    }
                }
            }
            VictimSlot::None => self.stalled.push(line),
        }
        Ok(())
    }

    fn recall_ack(
        &mut self,
        kind: PKind,
        victim: Addr,
        out: &mut OutVec,
    ) -> Result<(), ProtocolError> {
        let Some(Busy::AwaitRecall { pending }) = self.busy.get_mut(victim) else {
            let detail = format!(
                "recall ack for a line not being recalled (state {:?})",
                self.busy.get(victim)
            );
            return Err(self.reply_err(kind, victim, detail));
        };
        *pending -= 1;
        if *pending > 0 {
            return Ok(());
        }
        self.busy.remove(victim);
        self.evict(victim, out);
        // requests that queued for the victim during the recall now miss
        self.drain_pending(victim, out)?;
        if let Some(fill_line) = self.recall_for.remove(victim) {
            self.try_install(fill_line, out)?;
        }
        Ok(())
    }

    fn evict(&mut self, line: Addr, out: &mut OutVec) {
        let l = self.array.remove(line).expect("evicting resident line");
        self.dir.evict(line);
        debug_assert!(!self.busy.contains_key(line));
        if l.dirty {
            self.stats.mem_writes.inc();
            out.push(Outgoing::MemWrite { line });
        }
    }

    fn install(&mut self, line: Addr, out: &mut OutVec) -> Result<(), ProtocolError> {
        let fill = self.fills.remove(line).expect("fill record");
        debug_assert!(fill.mem_done);
        if self.array.insert(line, L2Line { dirty: false }).is_err() {
            return Err(ProtocolError::internal(
                self.tile,
                line,
                "fill into a full set: victim selection was skipped",
            ));
        }
        debug_assert_eq!(self.dir.lookup(line), DirState::Invalid);
        for (src, kind) in fill.waiters {
            self.request_inner(src, kind, line, out)?;
        }
        Ok(())
    }

    /// Clear the busy state and replay queued requests (in order; the
    /// first may re-busy the line, leaving the rest queued).
    fn unbusy(&mut self, line: Addr, out: &mut OutVec) -> Result<(), ProtocolError> {
        self.busy.remove(line);
        self.drain_pending(line, out)
    }

    fn drain_pending(&mut self, line: Addr, out: &mut OutVec) -> Result<(), ProtocolError> {
        while let Some((src, kind)) = self.pending.get_mut(line).and_then(|q| q.pop_front()) {
            self.queued -= 1;
            self.request_inner(src, kind, line, out)?;
            if self.busy.contains_key(line) || self.fills.contains_key(line) {
                break; // the rest stay queued behind the new transaction
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1024 sets x 4 ways slice for tile 0 of 16.
    fn slice() -> L2Slice {
        L2Slice::new(TileId(0), 1024, 4, 16)
    }

    /// Same geometry, sparse directory with `mshrs` transaction slots.
    fn sparse_slice(mshrs: usize) -> L2Slice {
        L2Slice::with_directory(
            TileId(0),
            1024,
            4,
            16,
            DirectoryConfig::Sparse { dir_mshrs: mshrs },
        )
    }

    /// A line homed at tile 0 (multiples of 16).
    const L: Addr = 16 * 100;

    fn sends(out: &[Outgoing]) -> Vec<(TileId, PKind)> {
        out.iter()
            .filter_map(|o| match o {
                Outgoing::Send { dst, msg, .. } => Some((*dst, msg.kind)),
                _ => None,
            })
            .collect()
    }

    /// Fill line `l` into the slice by running a request through memory.
    fn warm(s: &mut L2Slice, src: TileId, kind: PKind, l: Addr) -> OutVec {
        let out = s.handle_request(src, kind, l).expect("legal request");
        assert!(matches!(out[..], [Outgoing::MemRead { .. }]));
        s.mem_fill_done(l).expect("fill outstanding")
    }

    #[test]
    fn cold_gets_fetches_memory_then_grants_exclusive() {
        let mut s = slice();
        let out = s.handle_request(TileId(3), PKind::GetS, L).unwrap();
        assert!(matches!(out[..], [Outgoing::MemRead { line: L }]));
        let out = s.mem_fill_done(L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(3), PKind::DataE)]);
        assert_eq!(s.dir_state(L), Some(DirState::Owned(TileId(3))));
        assert!(s.is_quiescent());
    }

    #[test]
    fn second_reader_triggers_forward_and_revision() {
        let mut s = slice();
        warm(&mut s, TileId(3), PKind::GetS, L);
        // reader 5 arrives: owner 3 must be forwarded
        let out = s.handle_request(TileId(5), PKind::GetS, L).unwrap();
        assert_eq!(
            sends(&out),
            vec![(
                TileId(3),
                PKind::FwdGetS {
                    requestor: TileId(5)
                }
            )]
        );
        assert!(!s.is_quiescent());
        // owner had it clean: revision without data
        let out = s.handle_reply(TileId(3), PKind::RevisionClean, L).unwrap();
        assert!(out.is_empty());
        assert_eq!(
            s.dir_state(L),
            Some(DirState::Shared(SharerSet::pair(TileId(3), TileId(5))))
        );
        assert!(s.is_quiescent());
    }

    #[test]
    fn third_reader_is_served_from_l2() {
        let mut s = slice();
        warm(&mut s, TileId(3), PKind::GetS, L);
        let _ = s.handle_request(TileId(5), PKind::GetS, L).unwrap();
        let _ = s.handle_reply(TileId(3), PKind::RevisionClean, L).unwrap();
        let out = s.handle_request(TileId(7), PKind::GetS, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(7), PKind::DataS)]);
    }

    #[test]
    fn getx_invalidates_sharers_then_grants() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetS, L);
        let _ = s.handle_request(TileId(2), PKind::GetS, L).unwrap();
        let _ = s.handle_reply(TileId(1), PKind::RevisionClean, L).unwrap();
        // now Shared{1,2}; tile 3 writes
        let out = s.handle_request(TileId(3), PKind::GetX, L).unwrap();
        let mut invs = sends(&out);
        invs.sort_by_key(|(t, _)| t.index());
        assert_eq!(invs, vec![(TileId(1), PKind::Inv), (TileId(2), PKind::Inv)]);
        let out = s.handle_reply(TileId(1), PKind::InvAck, L).unwrap();
        assert!(out.is_empty(), "one ack still missing");
        let out = s.handle_reply(TileId(2), PKind::InvAck, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(3), PKind::DataM)]);
        assert_eq!(s.dir_state(L), Some(DirState::Owned(TileId(3))));
    }

    #[test]
    fn upgrade_with_sole_sharer_acks_without_data() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetS, L);
        let _ = s.handle_request(TileId(2), PKind::GetS, L).unwrap();
        let _ = s.handle_reply(TileId(1), PKind::RevisionClean, L).unwrap();
        // invalidate tile 1 via tile 2's GetX? No - test upgrade from 2
        // with sharers {1,2}: Inv to 1 then UpgradeAck to 2.
        let out = s.handle_request(TileId(2), PKind::Upgrade, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(1), PKind::Inv)]);
        let out = s.handle_reply(TileId(1), PKind::InvAck, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(2), PKind::UpgradeAck)]);
    }

    #[test]
    fn upgrade_from_nonsharer_degrades_to_getx() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetX, L);
        // owner 1 writes back normally
        let _ = s.handle_writeback(TileId(1), PKind::WbData, L).unwrap();
        assert_eq!(s.dir_state(L), Some(DirState::Invalid));
        // tile 2 sends Upgrade for a line the directory no longer shares:
        // it must receive data
        let out = s.handle_request(TileId(2), PKind::Upgrade, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(2), PKind::DataM)]);
    }

    #[test]
    fn writeback_from_owner_clears_directory_and_marks_dirty() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetX, L);
        let out = s.handle_writeback(TileId(1), PKind::WbData, L).unwrap();
        assert!(out.is_empty());
        assert_eq!(s.dir_state(L), Some(DirState::Invalid));
        assert!(s.array.peek(L).unwrap().dirty);
        // a hint (clean-exclusive eviction) leaves data clean
        let _ = s.handle_request(TileId(2), PKind::GetS, L).unwrap();
        let out = s.handle_writeback(TileId(2), PKind::WbHint, L).unwrap();
        assert!(out.is_empty());
        assert_eq!(s.dir_state(L), Some(DirState::Invalid));
    }

    #[test]
    fn forward_writeback_race_replays_request() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetS, L); // Owned(1)
                                                 // tile 2 reads; forward goes to 1
        let out = s.handle_request(TileId(2), PKind::GetS, L).unwrap();
        assert_eq!(
            sends(&out),
            vec![(
                TileId(1),
                PKind::FwdGetS {
                    requestor: TileId(2)
                }
            )]
        );
        // but tile 1 had evicted: FwdFailed arrives first...
        let out = s.handle_reply(TileId(1), PKind::FwdFailed, L).unwrap();
        assert!(out.is_empty());
        // ...then the writeback hint lands and the request replays
        let out = s.handle_writeback(TileId(1), PKind::WbHint, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(2), PKind::DataE)]);
        assert_eq!(s.dir_state(L), Some(DirState::Owned(TileId(2))));
        assert!(s.is_quiescent());
    }

    #[test]
    fn forward_writeback_race_other_order() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetX, L); // Owned(1), will be dirty
        let out = s.handle_request(TileId(2), PKind::GetX, L).unwrap();
        assert_eq!(
            sends(&out),
            vec![(
                TileId(1),
                PKind::FwdGetX {
                    requestor: TileId(2)
                }
            )]
        );
        // writeback data arrives BEFORE the failure notice
        let out = s.handle_writeback(TileId(1), PKind::WbData, L).unwrap();
        assert!(out.is_empty());
        let out = s.handle_reply(TileId(1), PKind::FwdFailed, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(2), PKind::DataM)]);
        assert_eq!(s.dir_state(L), Some(DirState::Owned(TileId(2))));
    }

    #[test]
    fn owner_rerequest_after_own_writeback() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetX, L); // Owned(1)
                                                 // tile 1 evicted and re-requests before its writeback landed
        let out = s.handle_request(TileId(1), PKind::GetS, L).unwrap();
        assert!(out.is_empty(), "home waits for the in-flight writeback");
        let out = s.handle_writeback(TileId(1), PKind::WbData, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(1), PKind::DataE)]);
    }

    #[test]
    fn requests_queue_behind_busy_line_in_order() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetS, L); // Owned(1)
        let _ = s.handle_request(TileId(2), PKind::GetS, L).unwrap(); // busy: fwd to 1
                                                                      // two more requests queue
        assert!(s
            .handle_request(TileId(3), PKind::GetS, L)
            .unwrap()
            .is_empty());
        assert!(s
            .handle_request(TileId(4), PKind::GetX, L)
            .unwrap()
            .is_empty());
        // revision completes the first; tile 3 is served from L2 (now
        // Shared{1,2}), then tile 4's GetX starts invalidations
        let out = s.handle_reply(TileId(1), PKind::RevisionDirty, L).unwrap();
        let all = sends(&out);
        assert!(all.contains(&(TileId(3), PKind::DataS)), "{all:?}");
        // tile 4's GetX follows: Invs to 1, 2, 3
        let invs: Vec<_> = all.iter().filter(|(_, k)| *k == PKind::Inv).collect();
        assert_eq!(invs.len(), 3, "{all:?}");
        for t in [1, 2, 3] {
            let _ = s.handle_reply(TileId(t), PKind::InvAck, L).unwrap();
        }
        assert_eq!(s.dir_state(L), Some(DirState::Owned(TileId(4))));
        assert!(s.is_quiescent());
    }

    #[test]
    fn inclusion_recall_of_owned_victim() {
        // tiny slice: 1 set x 1 way -> every second fill recalls
        let mut s = L2Slice::new(TileId(0), 1, 1, 16);
        let a = 16;
        let b = 32;
        warm(&mut s, TileId(1), PKind::GetX, a); // Owned(1) in the only way
                                                 // a request for b must evict a, which requires recalling it
        let out = s.handle_request(TileId(2), PKind::GetS, b).unwrap();
        assert!(matches!(out[..], [Outgoing::MemRead { line }] if line == b));
        let out = s.mem_fill_done(b).unwrap();
        assert_eq!(sends(&out), vec![(TileId(1), PKind::RecallData)]);
        // owner returns dirty data; a is written to memory; b installs
        let out = s.handle_reply(TileId(1), PKind::RecallAckData, a).unwrap();
        let kinds = sends(&out);
        assert_eq!(kinds, vec![(TileId(2), PKind::DataE)]);
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::MemWrite { line } if *line == a)));
        assert_eq!(s.dir_state(b), Some(DirState::Owned(TileId(2))));
        assert_eq!(s.dir_state(a), None);
        assert!(s.is_quiescent());
    }

    #[test]
    fn inclusion_recall_of_shared_victim() {
        let mut s = L2Slice::new(TileId(0), 1, 1, 16);
        let a = 16;
        let b = 32;
        warm(&mut s, TileId(1), PKind::GetS, a); // Owned(1)
        let _ = s.handle_request(TileId(2), PKind::GetS, a).unwrap();
        let _ = s.handle_reply(TileId(1), PKind::RevisionClean, a).unwrap(); // Shared{1,2}
        let _ = s.handle_request(TileId(3), PKind::GetS, b).unwrap();
        let out = s.mem_fill_done(b).unwrap();
        let mut invs = sends(&out);
        invs.sort_by_key(|(t, _)| t.index());
        assert_eq!(invs, vec![(TileId(1), PKind::Inv), (TileId(2), PKind::Inv)]);
        let _ = s.handle_reply(TileId(1), PKind::InvAck, a).unwrap();
        let out = s.handle_reply(TileId(2), PKind::InvAck, a).unwrap();
        assert_eq!(sends(&out), vec![(TileId(3), PKind::DataE)]);
        assert!(s.is_quiescent());
    }

    #[test]
    fn writeback_for_evicted_line_goes_to_memory() {
        let mut s = slice();
        let out = s.handle_writeback(TileId(1), PKind::WbData, L).unwrap();
        assert!(matches!(out[..], [Outgoing::MemWrite { line: L }]));
        // a hint for an absent line is simply dropped
        let out = s.handle_writeback(TileId(1), PKind::WbHint, L).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn concurrent_fills_to_different_lines() {
        let mut s = slice();
        let line_a = 16 * 16;
        let line_b = 2 * 16 * 16;
        let o1 = s.handle_request(TileId(1), PKind::GetS, line_a).unwrap();
        let o2 = s.handle_request(TileId(2), PKind::GetS, line_b).unwrap();
        assert!(matches!(o1[..], [Outgoing::MemRead { .. }]));
        assert!(matches!(o2[..], [Outgoing::MemRead { .. }]));
        // waiters pile on existing fills without extra memory reads
        assert!(s
            .handle_request(TileId(3), PKind::GetS, line_a)
            .unwrap()
            .is_empty());
        let out = s.mem_fill_done(line_a).unwrap();
        let k = sends(&out);
        assert_eq!(k[0], (TileId(1), PKind::DataE));
        // the second waiter hits the now-busy... no: DataE granted to 1,
        // line not busy; waiter 3 forwarded to owner 1
        assert_eq!(
            k[1],
            (
                TileId(1),
                PKind::FwdGetS {
                    requestor: TileId(3)
                }
            )
        );
        let _ = s.mem_fill_done(line_b).unwrap();
        let _ = s
            .handle_reply(TileId(1), PKind::RevisionClean, line_a)
            .unwrap();
        assert!(s.is_quiescent());
        assert_eq!(s.stats().mem_reads.get(), 2);
    }

    #[test]
    fn sparse_directory_runs_the_same_protocol() {
        // Replays `getx_invalidates_sharers_then_grants` against the
        // sparse organisation: identical messages, identical dir views.
        let mut s = sparse_slice(64);
        warm(&mut s, TileId(1), PKind::GetS, L);
        let _ = s.handle_request(TileId(2), PKind::GetS, L).unwrap();
        let _ = s.handle_reply(TileId(1), PKind::RevisionClean, L).unwrap();
        let out = s.handle_request(TileId(3), PKind::GetX, L).unwrap();
        assert_eq!(
            sends(&out),
            vec![(TileId(1), PKind::Inv), (TileId(2), PKind::Inv)],
            "invalidations go out in ascending tile order"
        );
        let _ = s.handle_reply(TileId(1), PKind::InvAck, L).unwrap();
        let out = s.handle_reply(TileId(2), PKind::InvAck, L).unwrap();
        assert_eq!(sends(&out), vec![(TileId(3), PKind::DataM)]);
        assert_eq!(s.dir_state(L), Some(DirState::Owned(TileId(3))));
        assert!(s.is_quiescent());
    }

    #[test]
    fn sparse_mshr_exhaustion_names_the_knob() {
        let mut s = sparse_slice(1);
        // first fill claims the only transaction slot...
        let out = s.handle_request(TileId(1), PKind::GetS, L).unwrap();
        assert!(matches!(out[..], [Outgoing::MemRead { .. }]));
        assert_eq!(s.transaction_slots_in_use(), 1);
        // ...a waiter on the same line needs no new slot...
        assert!(s
            .handle_request(TileId(2), PKind::GetS, L)
            .unwrap()
            .is_empty());
        // ...but a miss on a second line does, and must fail loudly
        let err = s
            .handle_request(TileId(3), PKind::GetS, L + 16)
            .expect_err("second concurrent transaction must exhaust 1 MSHR");
        let msg = err.to_string();
        assert!(msg.contains("dir_mshrs"), "error must name the knob: {msg}");
        assert!(msg.contains("1 of 1"), "error reports occupancy: {msg}");
    }

    /// Transaction metering is what the organisations differ in: 64
    /// concurrent fills exhaust a default sparse slice, never a full map.
    #[test]
    fn capacity_is_a_sparse_only_concept() {
        for (mut s, bounded) in [(slice(), false), (sparse_slice(64), true)] {
            for i in 0..64u64 {
                s.handle_request(TileId(1), PKind::GetS, L + 16 * i)
                    .expect("within any budget");
            }
            let more = s.handle_request(TileId(1), PKind::GetS, L + 16 * 64);
            assert_eq!(more.is_err(), bounded, "{:?}", more.err());
        }
    }

    #[test]
    fn full_map_never_meters_transaction_slots() {
        let mut s = slice();
        for i in 0..200u64 {
            let _ = s
                .handle_request(TileId(1), PKind::GetS, L + 16 * i)
                .unwrap();
        }
        assert_eq!(s.transaction_slots_in_use(), 200);
    }

    #[test]
    fn directory_entries_mirror_residency() {
        let mut s = slice();
        warm(&mut s, TileId(1), PKind::GetX, L);
        let entries = s.directory_entries();
        assert_eq!(entries, vec![(L, DirState::Owned(TileId(1)))]);
        let _ = s.handle_writeback(TileId(1), PKind::WbData, L).unwrap();
        assert!(
            s.directory_entries().is_empty(),
            "Invalid lines are not reported as tracked entries"
        );
    }
}
