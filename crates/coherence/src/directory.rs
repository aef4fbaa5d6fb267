//! Pluggable directory representations: the strategy seam behind the
//! home slice's sharer bookkeeping.
//!
//! The protocol in [`crate::l2`] manipulates directory state only
//! through the repr-independent [`DirState`] view and the
//! [`DirectoryRepr`] trait, so the *organisation* of that state is a
//! configuration choice ([`DirectoryConfig`]):
//!
//! * [`FullMapDir`] — the paper's machine: one presence vector per
//!   L2-resident line, kept exactly (64-bit wide here, so at most 64
//!   tiles). Transaction state is co-located with the line, so the
//!   number of in-flight directory transactions is unbounded.
//! * [`SparseDir`] — tagged entries allocated only for lines with a
//!   tracked L1 copy, plus a *bounded* budget of in-flight transaction
//!   slots per home slice ("directory MSHRs"). Sharer sets are exact
//!   (unbounded tag lists), so protocol behaviour — and therefore every
//!   simulated outcome — is identical to the full map; only capacity
//!   metering and storage scaling differ. This is the representation
//!   that unlocks 16×16 and 32×32 meshes.
//!
//! Invariants every implementation must keep:
//!
//! * `lookup` returns [`DirState::Invalid`] for untracked lines — the
//!   caller cannot distinguish "no entry" from "entry with no sharers",
//!   and the protocol never needs to.
//! * Sharer iteration is **ascending by tile id**. Invalidation fan-out
//!   sends in iteration order, so this is part of the determinism
//!   contract: both representations must produce byte-identical message
//!   schedules.
//! * `load_state` overwrites all state — into a fresh representation
//!   or one that has since moved on — so a machine restored from
//!   `save_state` bytes replays bit-identically.

use cmp_common::addrmap::AddrMap;
use cmp_common::config::{DirectoryConfig, FULL_MAP_MAX_TILES};
use cmp_common::types::{Addr, TileId};

/// An exact set of sharer tiles, iterated in ascending tile order.
///
/// This is the *view* type both representations translate to and from;
/// protocol code never sees masks or tag lists directly.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SharerSet {
    /// Sorted ascending, no duplicates.
    tiles: Vec<u16>,
}

impl SharerSet {
    /// The empty set.
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// A one-tile set.
    pub fn singleton(t: TileId) -> Self {
        SharerSet { tiles: vec![t.0] }
    }

    /// A two-tile set (revision completion: old owner + requestor).
    pub fn pair(a: TileId, b: TileId) -> Self {
        let mut s = SharerSet::singleton(a);
        s.insert(b);
        s
    }

    /// Add a tile (idempotent).
    pub fn insert(&mut self, t: TileId) {
        if let Err(at) = self.tiles.binary_search(&t.0) {
            self.tiles.insert(at, t.0);
        }
    }

    /// Remove a tile if present.
    pub fn remove(&mut self, t: TileId) {
        if let Ok(at) = self.tiles.binary_search(&t.0) {
            self.tiles.remove(at);
        }
    }

    /// Whether `t` is a sharer.
    pub fn contains(&self, t: TileId) -> bool {
        self.tiles.binary_search(&t.0).is_ok()
    }

    /// Number of sharers.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Sharers in ascending tile order (the invalidation send order).
    pub fn iter(&self) -> impl Iterator<Item = TileId> + '_ {
        self.tiles.iter().map(|&t| TileId(t))
    }

    /// The set minus one tile (the "everyone but the requestor" fan-out).
    pub fn without(&self, t: TileId) -> SharerSet {
        let mut s = self.clone();
        s.remove(t);
        s
    }
}

impl FromIterator<TileId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = TileId>>(iter: I) -> Self {
        let mut s = SharerSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

/// Directory state of one L2-resident line, as the protocol sees it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DirState {
    /// No L1 holds the line.
    Invalid,
    /// Tiles holding shared copies.
    Shared(SharerSet),
    /// One L1 holds the line in Exclusive or Modified state.
    Owned(TileId),
}

/// The strategy seam over a home slice's sharer bookkeeping.
///
/// One instance per L2 slice. The slice guarantees `update`/`evict` are
/// called only for lines it actually hosts, mirroring residency: a line
/// gets an `update(line, Invalid)` when installed and an `evict(line)`
/// when it leaves the slice.
pub trait DirectoryRepr: std::fmt::Debug + Send {
    /// The tracked state of `line` (`Invalid` when untracked).
    fn lookup(&self, line: Addr) -> DirState;

    /// Record a new state for a resident line.
    fn update(&mut self, line: Addr, state: DirState);

    /// The line left the slice entirely: forget it.
    fn evict(&mut self, line: Addr);

    /// Every line tracked in a non-`Invalid` state, sorted by address
    /// (sanitizer sweeps and state dumps — never the protocol hot path).
    fn entries(&self) -> Vec<(Addr, DirState)>;

    /// In-flight transaction slots this organisation provides, or
    /// `None` when transaction state is co-located with the lines and
    /// therefore unbounded (full map).
    fn transaction_capacity(&self) -> Option<usize>;

    /// Append this representation's tracked entries to a whole-machine
    /// snapshot. The matching [`DirectoryRepr::load_state`] always runs
    /// on a representation built from the same configuration.
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter);

    /// Overwrite *all* of this representation's tracked entries from
    /// snapshot bytes, whatever it held before.
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError>;
}

/// An owned, dynamically-dispatched directory representation.
#[derive(Debug)]
pub struct DirBox(Box<dyn DirectoryRepr + Send>);

impl DirBox {
    /// Box a representation.
    pub fn new(repr: impl DirectoryRepr + 'static) -> Self {
        DirBox(Box::new(repr))
    }
}

impl std::ops::Deref for DirBox {
    type Target = dyn DirectoryRepr + Send;
    fn deref(&self) -> &Self::Target {
        self.0.as_ref()
    }
}

impl std::ops::DerefMut for DirBox {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.0.as_mut()
    }
}

impl cmp_common::persist::PersistState for DirBox {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        self.0.save_state(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        self.0.load_state(r)
    }
}

/// Build the representation a configuration asks for.
pub fn build_directory(cfg: DirectoryConfig, tiles: usize) -> DirBox {
    match cfg {
        DirectoryConfig::FullMap => DirBox::new(FullMapDir::new(tiles)),
        DirectoryConfig::Sparse { dir_mshrs } => DirBox::new(SparseDir::new(dir_mshrs)),
    }
}

// ----------------------------------------------------------------------
// Full map
// ----------------------------------------------------------------------

/// One full-map entry: a presence vector or an owner pointer.
#[derive(Clone, Copy, Debug)]
enum FmEntry {
    Invalid,
    Shared(u64),
    Owned(u16),
}

/// The paper's full-map directory: an exact 64-bit presence vector per
/// resident line (one entry per line, `Invalid` included — the vector
/// is co-located with the tag in hardware).
#[derive(Clone, Debug)]
pub struct FullMapDir {
    tiles: usize,
    entries: AddrMap<FmEntry>,
}

impl FullMapDir {
    /// A full map for a `tiles`-tile machine. Panics past the vector
    /// width — [`cmp_common::config::CmpConfig::validate`] refuses such
    /// machines before any slice is built.
    pub fn new(tiles: usize) -> Self {
        assert!(
            tiles <= FULL_MAP_MAX_TILES,
            "full-map directory is limited to {FULL_MAP_MAX_TILES} tiles, got {tiles}"
        );
        FullMapDir {
            tiles,
            entries: AddrMap::new(),
        }
    }

    fn to_state(&self, e: FmEntry) -> DirState {
        match e {
            FmEntry::Invalid => DirState::Invalid,
            FmEntry::Owned(t) => DirState::Owned(TileId(t)),
            FmEntry::Shared(mask) => DirState::Shared(
                (0..self.tiles as u16)
                    .filter(|t| mask & (1u64 << t) != 0)
                    .map(TileId)
                    .collect(),
            ),
        }
    }
}

impl DirectoryRepr for FullMapDir {
    fn lookup(&self, line: Addr) -> DirState {
        self.entries
            .get(line)
            .map(|&e| self.to_state(e))
            .unwrap_or(DirState::Invalid)
    }

    fn update(&mut self, line: Addr, state: DirState) {
        let entry = match state {
            DirState::Invalid => FmEntry::Invalid,
            DirState::Owned(t) => FmEntry::Owned(t.0),
            DirState::Shared(s) => {
                let mut mask = 0u64;
                for t in s.iter() {
                    debug_assert!(t.index() < self.tiles);
                    mask |= 1u64 << t.index();
                }
                FmEntry::Shared(mask)
            }
        };
        self.entries.insert(line, entry);
    }

    fn evict(&mut self, line: Addr) {
        self.entries.remove(line);
    }

    fn entries(&self) -> Vec<(Addr, DirState)> {
        let mut v: Vec<(Addr, DirState)> = self
            .entries
            .iter()
            .filter(|(_, e)| !matches!(e, FmEntry::Invalid))
            .map(|(&line, &e)| (line, self.to_state(e)))
            .collect();
        v.sort_by_key(|&(line, _)| line);
        v
    }

    fn transaction_capacity(&self) -> Option<usize> {
        None
    }

    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        cmp_common::persist::Persist::save(&self.entries, w);
    }

    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        self.entries = cmp_common::persist::Persist::load(r)?;
        Ok(())
    }
}

impl cmp_common::persist::Persist for FmEntry {
    fn save(&self, w: &mut cmp_common::persist::ByteWriter) {
        match *self {
            FmEntry::Invalid => w.u8(0),
            FmEntry::Shared(mask) => {
                w.u8(1);
                w.u64(mask);
            }
            FmEntry::Owned(t) => {
                w.u8(2);
                w.u16(t);
            }
        }
    }
    fn load(
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<Self, cmp_common::persist::PersistError> {
        Ok(match r.u8()? {
            0 => FmEntry::Invalid,
            1 => FmEntry::Shared(r.u64()?),
            2 => FmEntry::Owned(r.u16()?),
            _ => return Err(r.err("invalid full-map entry tag")),
        })
    }
}

// ----------------------------------------------------------------------
// Sparse tagged entries
// ----------------------------------------------------------------------

/// One sparse entry: allocated only while the line has a tracked copy.
#[derive(Clone, Debug)]
enum SpEntry {
    Shared(Vec<u16>),
    Owned(u16),
}

/// Sparse tagged-entry directory: entries exist only for lines some L1
/// actually holds, sharer lists are exact (so behaviour matches the
/// full map bit-for-bit), and the number of in-flight transactions per
/// slice is bounded by `dir_mshrs`.
#[derive(Clone, Debug)]
pub struct SparseDir {
    dir_mshrs: usize,
    entries: AddrMap<SpEntry>,
}

impl SparseDir {
    /// A sparse directory with `dir_mshrs` transaction slots.
    pub fn new(dir_mshrs: usize) -> Self {
        assert!(dir_mshrs > 0, "sparse directory needs at least one MSHR");
        SparseDir {
            dir_mshrs,
            entries: AddrMap::new(),
        }
    }

    /// Tagged entries currently allocated (diagnostics).
    pub fn tags_in_use(&self) -> usize {
        self.entries.len()
    }
}

impl DirectoryRepr for SparseDir {
    fn lookup(&self, line: Addr) -> DirState {
        match self.entries.get(line) {
            None => DirState::Invalid,
            Some(SpEntry::Owned(t)) => DirState::Owned(TileId(*t)),
            Some(SpEntry::Shared(ts)) => DirState::Shared(ts.iter().map(|&t| TileId(t)).collect()),
        }
    }

    fn update(&mut self, line: Addr, state: DirState) {
        match state {
            // Tagged organisation: an untracked line has no entry.
            DirState::Invalid => {
                self.entries.remove(line);
            }
            DirState::Owned(t) => {
                self.entries.insert(line, SpEntry::Owned(t.0));
            }
            DirState::Shared(s) => {
                if s.is_empty() {
                    self.entries.remove(line);
                } else {
                    self.entries
                        .insert(line, SpEntry::Shared(s.iter().map(|t| t.0).collect()));
                }
            }
        }
    }

    fn evict(&mut self, line: Addr) {
        self.entries.remove(line);
    }

    fn entries(&self) -> Vec<(Addr, DirState)> {
        let mut v: Vec<(Addr, DirState)> = self
            .entries
            .keys()
            .map(|&line| (line, self.lookup(line)))
            .collect();
        v.sort_by_key(|&(line, _)| line);
        v
    }

    fn transaction_capacity(&self) -> Option<usize> {
        Some(self.dir_mshrs)
    }

    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        cmp_common::persist::Persist::save(&self.entries, w);
    }

    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        self.entries = cmp_common::persist::Persist::load(r)?;
        Ok(())
    }
}

impl cmp_common::persist::Persist for SpEntry {
    fn save(&self, w: &mut cmp_common::persist::ByteWriter) {
        match self {
            SpEntry::Shared(ts) => {
                w.u8(0);
                ts.save(w);
            }
            SpEntry::Owned(t) => {
                w.u8(1);
                w.u16(*t);
            }
        }
    }
    fn load(
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<Self, cmp_common::persist::PersistError> {
        Ok(match r.u8()? {
            0 => SpEntry::Shared(<Vec<u16> as cmp_common::persist::Persist>::load(r)?),
            1 => SpEntry::Owned(r.u16()?),
            _ => return Err(r.err("invalid sparse entry tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(tiles: usize) -> [DirBox; 2] {
        [
            build_directory(DirectoryConfig::FullMap, tiles),
            build_directory(DirectoryConfig::sparse(), tiles),
        ]
    }

    #[test]
    fn sharer_sets_stay_sorted_and_deduplicated() {
        let mut s = SharerSet::new();
        for t in [5u16, 1, 9, 5, 1] {
            s.insert(TileId(t));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.iter().map(|t| t.index()).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
        assert!(s.contains(TileId(5)) && !s.contains(TileId(2)));
        s.remove(TileId(5));
        assert_eq!(s.len(), 2);
        let w = SharerSet::pair(TileId(3), TileId(7)).without(TileId(3));
        assert_eq!(w, SharerSet::singleton(TileId(7)));
    }

    #[test]
    fn both_reprs_agree_on_the_protocol_views() {
        for mut dir in both(16) {
            assert_eq!(dir.lookup(0x40), DirState::Invalid);
            dir.update(0x40, DirState::Owned(TileId(3)));
            assert_eq!(dir.lookup(0x40), DirState::Owned(TileId(3)));
            dir.update(
                0x40,
                DirState::Shared(SharerSet::pair(TileId(3), TileId(9))),
            );
            let DirState::Shared(s) = dir.lookup(0x40) else {
                panic!("expected Shared");
            };
            assert_eq!(
                s.iter().map(|t| t.index()).collect::<Vec<_>>(),
                vec![3, 9],
                "ascending iteration is part of the determinism contract"
            );
            dir.update(0x80, DirState::Invalid);
            assert_eq!(dir.lookup(0x80), DirState::Invalid);
            assert_eq!(dir.entries().len(), 1, "Invalid lines are not reported");
            dir.evict(0x40);
            assert_eq!(dir.lookup(0x40), DirState::Invalid);
            assert!(dir.entries().is_empty());
        }
    }

    #[test]
    fn capacity_is_a_sparse_only_concept() {
        let [full, sparse] = both(16);
        assert_eq!(full.transaction_capacity(), None);
        assert_eq!(sparse.transaction_capacity(), Some(64));
    }

    #[test]
    fn sparse_scales_past_the_full_map_vector() {
        let mut dir = build_directory(DirectoryConfig::sparse(), 1024);
        let s: SharerSet = (0..1024).step_by(97).map(TileId::from).collect();
        dir.update(0x40, DirState::Shared(s.clone()));
        assert_eq!(dir.lookup(0x40), DirState::Shared(s));
    }

    #[test]
    #[should_panic(expected = "full-map directory is limited")]
    fn full_map_refuses_wide_meshes() {
        FullMapDir::new(256);
    }
}
