//! The home slice's sharer bookkeeping: one packed store of exact
//! entries for the lines some L1 holds.
//!
//! The protocol in [`crate::l2`] reads and writes directory state only
//! through the [`DirState`] view. [`DirectoryStore`] keeps that state for
//! every organisation [`cmp_common::config::DirectoryConfig`] names:
//! the full map and the sparse directory differ only in whether the
//! slice meters its in-flight transactions (`dir_mshrs`), which
//! [`crate::L2Slice`] does itself, so both keep the same entries and
//! every simulated outcome is the same under either.
//!
//! A tracked line costs one `u64` beside its address (see
//! [`DirectoryStore`] for the packing): an owner, or up to three
//! sharers inline. A line shared more widely keeps a
//! `Spilled` marker and its sorted tile list in a second map.
//!
//! Invariants:
//!
//! * `lookup` returns [`DirState::Invalid`] for untracked lines;
//!   `Invalid` and an empty sharer set are both "no entry", and the
//!   protocol never needs to tell them apart.
//! * Sharer iteration is **ascending by tile id**. Invalidation fan-out
//!   sends in iteration order, so this is part of the determinism
//!   contract.
//! * Every entry has one form: inline if and only if it has at most
//!   three tiles. `load_state` refuses any entry the store
//!   cannot produce, and overwrites all state, so a machine restored
//!   from `save_state` bytes replays bit-identically.

use cmp_common::addrmap::AddrMap;
use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistError, PersistState};
use cmp_common::types::{Addr, TileId};

/// Most sharers a [`SharerSet`] or a packed entry holds inline.
const INLINE_SHARERS: usize = 3;

/// Sharer tiles in one canonical form, so the derived equality is set
/// equality.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Tiles {
    /// Up to [`INLINE_SHARERS`] tiles, ascending; slots past `len` are 0.
    Inline {
        len: u8,
        tiles: [u16; INLINE_SHARERS],
    },
    /// More than [`INLINE_SHARERS`] tiles, ascending.
    Spilled(Vec<u16>),
}

impl Tiles {
    /// The inline form of at most [`INLINE_SHARERS`] sorted tiles.
    fn inline(sorted: &[u16]) -> Tiles {
        let mut tiles = [0; INLINE_SHARERS];
        tiles[..sorted.len()].copy_from_slice(sorted);
        Tiles::Inline {
            len: sorted.len() as u8,
            tiles,
        }
    }
}

/// An exact set of sharer tiles, iterated in ascending tile order.
///
/// The view the protocol reads and writes; it allocates only past
/// three tiles.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SharerSet(Tiles);

impl Default for SharerSet {
    fn default() -> Self {
        SharerSet(Tiles::inline(&[]))
    }
}

impl SharerSet {
    /// The empty set.
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// A one-tile set.
    pub fn singleton(t: TileId) -> Self {
        SharerSet(Tiles::inline(&[t.0]))
    }

    /// A two-tile set (revision completion: old owner + requestor).
    pub fn pair(a: TileId, b: TileId) -> Self {
        let mut s = SharerSet::singleton(a);
        s.insert(b);
        s
    }

    fn tiles(&self) -> &[u16] {
        match &self.0 {
            Tiles::Inline { len, tiles } => &tiles[..usize::from(*len)],
            Tiles::Spilled(v) => v,
        }
    }

    /// Add a tile (idempotent).
    pub fn insert(&mut self, t: TileId) {
        let Err(at) = self.tiles().binary_search(&t.0) else {
            return;
        };
        match &mut self.0 {
            Tiles::Inline { len, tiles } if usize::from(*len) < INLINE_SHARERS => {
                tiles.copy_within(at..usize::from(*len), at + 1);
                tiles[at] = t.0;
                *len += 1;
            }
            Tiles::Inline { tiles, .. } => {
                let mut v = tiles.to_vec();
                v.insert(at, t.0);
                self.0 = Tiles::Spilled(v);
            }
            Tiles::Spilled(v) => v.insert(at, t.0),
        }
    }

    /// Remove a tile if present.
    pub fn remove(&mut self, t: TileId) {
        let Ok(at) = self.tiles().binary_search(&t.0) else {
            return;
        };
        match &mut self.0 {
            Tiles::Inline { len, tiles } => {
                tiles.copy_within(at + 1.., at);
                tiles[INLINE_SHARERS - 1] = 0;
                *len -= 1;
            }
            Tiles::Spilled(v) => {
                v.remove(at);
                if v.len() == INLINE_SHARERS {
                    self.0 = Tiles::inline(v);
                }
            }
        }
    }

    /// Whether `t` is a sharer.
    pub fn contains(&self, t: TileId) -> bool {
        self.tiles().binary_search(&t.0).is_ok()
    }

    /// Number of sharers.
    pub fn len(&self) -> usize {
        self.tiles().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tiles().is_empty()
    }

    /// Sharers in ascending tile order (the invalidation send order).
    pub fn iter(&self) -> impl Iterator<Item = TileId> + '_ {
        self.tiles().iter().map(|&t| TileId(t))
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

/// Bit position of an entry's two-bit tag.
const TAG_SHIFT: u32 = 62;
/// Tag of `Owned(t)`: the tile in the low 16 bits.
const OWNED: u64 = 0;
/// Tag of an inline sharer set: tiles at bits 0, 16 and 32, the count at
/// [`COUNT_SHIFT`].
const INLINE: u64 = 1;
/// Tag of a line whose tiles live in the spill map.
const SPILLED_TAG: u64 = 2;
/// The whole entry of a spilled line: the tag, nothing else set.
const SPILLED: u64 = SPILLED_TAG << TAG_SHIFT;
/// Bit position of an inline entry's sharer count.
const COUNT_SHIFT: u32 = 48;

/// The packed entry of an inline sharer set.
fn pack_inline(len: u8, tiles: [u16; INLINE_SHARERS]) -> u64 {
    let slots = tiles
        .iter()
        .enumerate()
        .fold(0, |w, (i, &t)| w | u64::from(t) << (16 * i));
    INLINE << TAG_SHIFT | u64::from(len) << COUNT_SHIFT | slots
}

/// The tiles of an inline entry, in its slot order.
fn unpack_inline(word: u64) -> [u16; INLINE_SHARERS] {
    std::array::from_fn(|i| (word >> (16 * i)) as u16)
}

/// Sharer state of one home slice: a packed `u64` per tracked line.
///
/// An entry's top two bits are its tag. `Owned(t)` keeps `t` in the low
/// 16 bits. An inline `Shared` set keeps 1–3 tiles, ascending, in bits
/// 0–47 (unused slots 0) and their count in bits 48–49. `Spilled` is the
/// tag alone: the line's tiles, more than three and sorted, live in
/// `spill`. Untracked lines, and lines with no sharers, have no entry.
#[derive(Clone, Debug)]
pub struct DirectoryStore {
    /// Tile count of the machine: every stored tile is below it.
    tiles: usize,
    entries: AddrMap<u64>,
    spill: AddrMap<Vec<u16>>,
}

impl DirectoryStore {
    /// An empty store for a `tiles`-tile machine.
    pub fn new(tiles: usize) -> Self {
        DirectoryStore {
            tiles,
            entries: AddrMap::new(),
            spill: AddrMap::new(),
        }
    }

    /// The tracked state of `line` (`Invalid` when untracked).
    pub fn lookup(&self, line: Addr) -> DirState {
        let Some(&word) = self.entries.get(line) else {
            return DirState::Invalid;
        };
        match word >> TAG_SHIFT {
            OWNED => DirState::Owned(TileId(word as u16)),
            INLINE => DirState::Shared(SharerSet(Tiles::Inline {
                len: (word >> COUNT_SHIFT) as u8,
                tiles: unpack_inline(word),
            })),
            _ => DirState::Shared(SharerSet(Tiles::Spilled(
                self.spill
                    .get(line)
                    .expect("a spilled entry has its list")
                    .clone(),
            ))),
        }
    }

    /// Record a new state for `line`.
    pub fn update(&mut self, line: Addr, state: DirState) {
        let word = match state {
            DirState::Invalid => return self.evict(line),
            DirState::Owned(t) => {
                debug_assert!(t.index() < self.tiles);
                // OWNED is tag 0: the entry is the tile.
                u64::from(t.0)
            }
            DirState::Shared(SharerSet(Tiles::Inline { len: 0, .. })) => return self.evict(line),
            DirState::Shared(SharerSet(Tiles::Inline { len, tiles })) => {
                debug_assert!(usize::from(tiles[usize::from(len) - 1]) < self.tiles);
                pack_inline(len, tiles)
            }
            DirState::Shared(SharerSet(Tiles::Spilled(v))) => {
                debug_assert!(v.last().is_some_and(|&t| usize::from(t) < self.tiles));
                self.spill.insert(line, v);
                SPILLED
            }
        };
        if self.entries.insert(line, word) == Some(SPILLED) && word != SPILLED {
            self.spill.remove(line);
        }
    }

    /// The line left the slice, or no L1 holds it any more: forget it.
    pub fn evict(&mut self, line: Addr) {
        if self.entries.remove(line) == Some(SPILLED) {
            self.spill.remove(line);
        }
    }

    /// Every tracked line with its state, sorted by address (sanitizer
    /// sweeps and state dumps — never the protocol hot path).
    pub fn entries(&self) -> Vec<(Addr, DirState)> {
        let mut lines: Vec<Addr> = self.entries.keys().copied().collect();
        lines.sort_unstable();
        lines
            .into_iter()
            .map(|line| (line, self.lookup(line)))
            .collect()
    }

    /// Why `sorted` is not a sharer list this store holds, if it is not.
    fn refuse_sharers(&self, sorted: &[u16]) -> Option<&'static str> {
        if sorted.windows(2).any(|p| p[0] >= p[1]) {
            Some("directory sharers not strictly ascending")
        } else if sorted.last().is_some_and(|&t| usize::from(t) >= self.tiles) {
            Some("directory sharer beyond the machine")
        } else {
            None
        }
    }

    /// One entry from its record: the tag byte, then the owner, or the
    /// inline count and tiles, or nothing for a spilled line.
    fn load_entry(&self, r: &mut ByteReader) -> Result<u64, PersistError> {
        match u64::from(r.u8()?) {
            OWNED => {
                let t = r.u16()?;
                if usize::from(t) >= self.tiles {
                    return Err(r.err("directory owner beyond the machine"));
                }
                Ok(u64::from(t))
            }
            INLINE => {
                let len = r.u8()?;
                let n = usize::from(len);
                if !(1..=INLINE_SHARERS).contains(&n) {
                    return Err(r.err("inline sharer count outside 1..=3"));
                }
                let mut tiles = [0; INLINE_SHARERS];
                for t in &mut tiles[..n] {
                    *t = r.u16()?;
                }
                match self.refuse_sharers(&tiles[..n]) {
                    Some(what) => Err(r.err(what)),
                    None => Ok(pack_inline(len, tiles)),
                }
            }
            SPILLED_TAG => Ok(SPILLED),
            _ => Err(r.err("unknown directory entry tag")),
        }
    }
}

/// The tile count is configuration; the entries and spill lists are the
/// state, each map in its iteration order (layout 5: one record form for
/// every directory organisation). An entry travels as its line, its tag
/// byte and the tiles it holds inline, not as the whole packed word.
impl PersistState for DirectoryStore {
    fn save_state(&self, w: &mut ByteWriter) {
        w.usize(self.entries.len());
        for (&line, &word) in self.entries.iter() {
            w.u64(line);
            let tag = word >> TAG_SHIFT;
            w.u8(tag as u8);
            match tag {
                OWNED => w.u16(word as u16),
                INLINE => {
                    let len = (word >> COUNT_SHIFT) as u8;
                    w.u8(len);
                    for &t in &unpack_inline(word)[..usize::from(len)] {
                        w.u16(t);
                    }
                }
                _ => {}
            }
        }
        self.spill.save(w);
    }

    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        let n = r.len_prefix()?;
        let mut entries = AddrMap::new();
        for _ in 0..n {
            let line = r.u64()?;
            let word = self.load_entry(r)?;
            if entries.insert(line, word).is_some() {
                return Err(r.err("directory entry for a line twice"));
            }
        }
        let spill: AddrMap<Vec<u16>> = Persist::load(r)?;
        for (&line, list) in spill.iter() {
            if entries.get(line) != Some(&SPILLED) {
                return Err(r.err("spill list without a Spilled entry"));
            }
            if list.len() <= INLINE_SHARERS {
                return Err(r.err("spill list short enough to be inline"));
            }
            if let Some(what) = self.refuse_sharers(list) {
                return Err(r.err(what));
            }
        }
        if entries.values().filter(|&&w| w == SPILLED).count() != spill.len() {
            return Err(r.err("Spilled entry without a spill list"));
        }
        self.entries = entries;
        self.spill = spill;
        Ok(())
    }
}

#[cfg(test)]
mod tests;
