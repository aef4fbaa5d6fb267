use std::collections::{BTreeMap, BTreeSet};

use cmp_common::config::DirectoryConfig;
use cmp_common::randtest::run_cases;
use cmp_common::rng::SimRng;

use super::*;
use crate::l2::L2Slice;

fn set(tiles: &[u16]) -> SharerSet {
    tiles.iter().map(|&t| TileId(t)).collect()
}

fn save(store: &DirectoryStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    store.save_state(&mut w);
    w.into_bytes()
}

/// Load `bytes` into a fresh store for `tiles` tiles, requiring every
/// byte to be consumed.
fn load(tiles: usize, bytes: &[u8]) -> Result<DirectoryStore, PersistError> {
    let mut store = DirectoryStore::new(tiles);
    let mut r = ByteReader::new(bytes);
    store.load_state(&mut r)?;
    r.finish()?;
    Ok(store)
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

/// Equality is set equality whatever path built the set: growing past
/// the inline slots and shrinking back lands on the inline form.
#[test]
fn sharer_sets_have_one_form_across_the_inline_limit() {
    let mut s = set(&[2, 4, 6]);
    s.insert(TileId(0));
    assert_eq!(s, set(&[0, 2, 4, 6]));
    assert_eq!(s.len(), 4);
    s.remove(TileId(4));
    assert_eq!(s, set(&[0, 2, 6]));
    assert!(matches!(s.0, Tiles::Inline { len: 3, .. }));
    s.remove(TileId(0));
    s.remove(TileId(6));
    s.remove(TileId(2));
    assert_eq!(s, SharerSet::new());
}

#[test]
fn the_store_keeps_the_protocol_views() {
    let mut dir = DirectoryStore::new(16);
    assert_eq!(dir.lookup(0x40), DirState::Invalid);
    dir.update(0x40, DirState::Owned(TileId(3)));
    assert_eq!(dir.lookup(0x40), DirState::Owned(TileId(3)));
    dir.update(
        0x40,
        DirState::Shared(SharerSet::pair(TileId(9), TileId(3))),
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
    dir.update(0xc0, DirState::Shared(SharerSet::new()));
    assert_eq!(dir.lookup(0xc0), DirState::Invalid);
    assert_eq!(dir.entries().len(), 1, "Invalid lines have no entry");
    dir.evict(0x40);
    assert_eq!(dir.lookup(0x40), DirState::Invalid);
    assert!(dir.entries().is_empty());
}

#[test]
fn sparse_scales_past_the_full_map_vector() {
    let mut dir = DirectoryStore::new(1024);
    let s: SharerSet = (0..1024).step_by(97).map(TileId::from).collect();
    assert_eq!(s.len(), 11);
    dir.update(0x40, DirState::Shared(s.clone()));
    assert_eq!(dir.lookup(0x40), DirState::Shared(s));
    assert_eq!(dir.spill.len(), 1, "eleven sharers spill");
    dir.update(0x40, DirState::Owned(TileId(1023)));
    assert!(
        dir.spill.is_empty(),
        "leaving the spilled form frees the list"
    );
    assert_eq!(dir.lookup(0x40), DirState::Owned(TileId(1023)));
}

/// What the model holds for one tracked line.
#[derive(Clone, Debug, PartialEq)]
enum Model {
    Owned(u16),
    Shared(BTreeSet<u16>),
}

impl Model {
    fn of(state: &DirState) -> Option<Model> {
        match state {
            DirState::Invalid => None,
            DirState::Owned(t) => Some(Model::Owned(t.0)),
            DirState::Shared(s) if s.is_empty() => None,
            DirState::Shared(s) => Some(Model::Shared(s.iter().map(|t| t.0).collect())),
        }
    }
}

/// One random directory write: a new owner, a fresh set of 0–8 sharers,
/// one sharer more or one fewer than the line holds now (so sets cross
/// the inline limit both ways), `Invalid`, or an eviction (`None`).
fn random_write(rng: &mut SimRng, tiles: usize, now: &DirState) -> Option<DirState> {
    let tile = |rng: &mut SimRng| TileId(rng.index(tiles) as u16);
    Some(match rng.index(8) {
        0 => DirState::Owned(tile(rng)),
        1 | 2 => {
            let k = rng.index(9);
            DirState::Shared((0..k).map(|_| tile(rng)).collect())
        }
        3 | 4 => {
            let mut s = match now {
                DirState::Shared(s) => s.clone(),
                _ => SharerSet::new(),
            };
            s.insert(tile(rng));
            DirState::Shared(s)
        }
        5 => match now {
            DirState::Shared(s) if !s.is_empty() => {
                let drop = s.iter().nth(rng.index(s.len())).expect("a sharer");
                DirState::Shared(s.without(drop))
            }
            _ => DirState::Invalid,
        },
        6 => DirState::Invalid,
        _ => return None,
    })
}

/// The store a slice builds under `cfg`.
fn slice_store(cfg: DirectoryConfig, tiles: usize) -> DirectoryStore {
    L2Slice::with_directory(TileId(0), 1, 1, tiles, cfg).into_directory()
}

/// Random update / evict / lookup streams on machines of 2 to 1,024
/// tiles agree with a `BTreeMap` model after every operation; `entries`
/// is the model in address order; save → load → save is a fixed point;
/// and the stores both directory organisations build end in the same
/// bytes.
#[test]
fn the_store_agrees_with_a_model_under_random_operations() {
    let (mut spills, mut unspills) = (0, 0);
    run_cases("directory_store_vs_model", 48, |rng| {
        let tiles = [2, 4, 8, 16, 64, 256, 1024][rng.index(7)];
        let configs: Vec<DirectoryConfig> = [DirectoryConfig::FullMap, DirectoryConfig::sparse()]
            .into_iter()
            .filter(|c| c.validate(tiles).is_ok())
            .collect();
        let mut stores: Vec<DirectoryStore> =
            configs.iter().map(|&c| slice_store(c, tiles)).collect();
        let mut model: BTreeMap<Addr, Model> = BTreeMap::new();
        let lines = 1 + rng.index(24) as u64;
        for op in 0..400 {
            let line = 0x40 * rng.below(lines);
            let now = stores[0].lookup(line);
            let was_spilled = matches!(&now, DirState::Shared(s) if s.len() > INLINE_SHARERS);
            match random_write(rng, tiles, &now) {
                Some(state) => {
                    match Model::of(&state) {
                        Some(m) => model.insert(line, m),
                        None => model.remove(&line),
                    };
                    for store in &mut stores {
                        store.update(line, state.clone());
                    }
                }
                None => {
                    model.remove(&line);
                    for store in &mut stores {
                        store.evict(line);
                    }
                }
            }
            let after = stores[0].lookup(line);
            let spilled = matches!(&after, DirState::Shared(s) if s.len() > INLINE_SHARERS);
            spills += usize::from(!was_spilled && spilled);
            unspills += usize::from(was_spilled && !spilled);
            let probe = 0x40 * rng.below(lines + 1);
            for store in &stores {
                for l in [line, probe] {
                    let got = store.lookup(l);
                    assert_eq!(Model::of(&got).as_ref(), model.get(&l), "line {l:#x}");
                    if let Some(Model::Shared(m)) = model.get(&l) {
                        let canonical = set(&m.iter().copied().collect::<Vec<_>>());
                        assert_eq!(got, DirState::Shared(canonical));
                    }
                }
            }
            if op % 50 == 49 {
                let want: Vec<(Addr, Option<Model>)> =
                    model.iter().map(|(&l, m)| (l, Some(m.clone()))).collect();
                for store in &stores {
                    let got: Vec<(Addr, Option<Model>)> = store
                        .entries()
                        .iter()
                        .map(|(l, s)| (*l, Model::of(s)))
                        .collect();
                    assert_eq!(got, want, "entries() is the model in address order");
                    let bytes = save(store);
                    let back = load(tiles, &bytes).expect("saved bytes load");
                    assert_eq!(save(&back), bytes, "save -> load -> save");
                    assert_eq!(back.entries(), store.entries());
                }
                let bytes: Vec<Vec<u8>> = stores.iter().map(save).collect();
                assert!(
                    bytes.windows(2).all(|b| b[0] == b[1]),
                    "both organisations keep the same bytes"
                );
            }
        }
    });
    assert!(
        spills > 0 && unspills > 0,
        "{spills} spills, {unspills} back"
    );
}

/// One entry record after its line: a tag byte and raw payload.
enum Rec<'a> {
    Owned(u16),
    /// A count byte and that many tiles, unchecked.
    Inline(u8, &'a [u16]),
    Spilled,
    Tag(u8),
}

/// Raw store bytes: the entry records, then the spill lists as an
/// `AddrMap`.
fn forged(entries: &[(Addr, Rec)], spill: &[(Addr, &[u16])]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.usize(entries.len());
    for (line, rec) in entries {
        w.u64(*line);
        match *rec {
            Rec::Owned(t) => {
                w.u8(OWNED as u8);
                w.u16(t);
            }
            Rec::Inline(count, tiles) => {
                w.u8(INLINE as u8);
                w.u8(count);
                tiles.iter().for_each(|&t| w.u16(t));
            }
            Rec::Spilled => w.u8(SPILLED_TAG as u8),
            Rec::Tag(tag) => w.u8(tag),
        }
    }
    let mut s = AddrMap::new();
    for &(line, list) in spill {
        s.insert(line, list.to_vec());
    }
    s.save(&mut w);
    w.into_bytes()
}

/// Every entry the store cannot produce is a `PersistError` naming what
/// is wrong, never a panic; the forms it writes load.
#[test]
fn forged_entries_are_refused() {
    const TILES: usize = 16;
    const PAST: u16 = TILES as u16;
    let ok = forged(
        &[
            (0x40, Rec::Owned(3)),
            (0x80, Rec::Inline(2, &[1, 5])),
            (0xc0, Rec::Spilled),
        ],
        &[(0xc0, &[1, 2, 3, 15])],
    );
    let store = load(TILES, &ok).expect("a store's own forms load");
    assert_eq!(save(&store), ok, "and save to the same bytes");
    assert_eq!(store.lookup(0x40), DirState::Owned(TileId(3)));
    assert_eq!(store.lookup(0x80), DirState::Shared(set(&[1, 5])));
    assert_eq!(store.lookup(0xc0), DirState::Shared(set(&[1, 2, 3, 15])));

    let four: &[u16] = &[1, 2, 3, 4];
    let spilled = |list| forged(&[(0x40, Rec::Spilled)], &[(0x40, list)]);
    let cases = [
        (
            "unknown tag",
            forged(&[(0x40, Rec::Tag(3))], &[]),
            "unknown directory entry tag",
        ),
        (
            "owner past the machine",
            forged(&[(0x40, Rec::Owned(PAST))], &[]),
            "directory owner beyond the machine",
        ),
        (
            "inline count 0",
            forged(&[(0x40, Rec::Inline(0, &[]))], &[]),
            "inline sharer count outside 1..=3",
        ),
        (
            "inline count 4",
            forged(&[(0x40, Rec::Inline(4, four))], &[]),
            "inline sharer count outside 1..=3",
        ),
        (
            "inline descending",
            forged(&[(0x40, Rec::Inline(2, &[5, 1]))], &[]),
            "directory sharers not strictly ascending",
        ),
        (
            "inline duplicate",
            forged(&[(0x40, Rec::Inline(3, &[1, 5, 5]))], &[]),
            "directory sharers not strictly ascending",
        ),
        (
            "inline tile past the machine",
            forged(&[(0x40, Rec::Inline(2, &[1, PAST]))], &[]),
            "directory sharer beyond the machine",
        ),
        (
            "a line twice",
            forged(&[(0x40, Rec::Owned(1)), (0x40, Rec::Owned(2))], &[]),
            "directory entry for a line twice",
        ),
        (
            "marker without a list",
            forged(&[(0x40, Rec::Spilled)], &[]),
            "Spilled entry without a spill list",
        ),
        (
            "list without a marker",
            forged(&[(0x40, Rec::Owned(3))], &[(0x40, four)]),
            "spill list without a Spilled entry",
        ),
        (
            "list without an entry",
            forged(&[], &[(0x40, four)]),
            "spill list without a Spilled entry",
        ),
        (
            "list short enough to inline",
            spilled(&[1, 2, 3]),
            "spill list short enough to be inline",
        ),
        (
            "list unsorted",
            spilled(&[1, 3, 2, 4]),
            "directory sharers not strictly ascending",
        ),
        (
            "list duplicated",
            spilled(&[1, 2, 2, 4]),
            "directory sharers not strictly ascending",
        ),
        (
            "list tile past the machine",
            spilled(&[1, 2, 3, PAST]),
            "directory sharer beyond the machine",
        ),
    ];
    for (name, bytes, what) in cases {
        match load(TILES, &bytes) {
            Err(e) => assert_eq!(e.what, what, "{name}"),
            Ok(_) => panic!("{name}: forged store loaded"),
        }
    }
}
