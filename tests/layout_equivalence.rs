//! The flat hot-state stores are *layout* changes, not behaviour
//! changes: the struct-of-arrays [`CacheArray`], with its one-byte LRU
//! ages, must agree with a naive per-set stamp-and-clock reference model
//! under randomized operation streams (across a checkpoint, too), and
//! [`AddrMap`] must agree with `std::collections::HashMap` on contents
//! while adding the determinism contract the HashMap lacks — iteration
//! order a pure function of the operation history, preserved exactly
//! across a persist round-trip. A full-system check pins the end-to-end
//! consequence: a machine checkpointed with live transient state in its
//! AddrMaps (MSHRs, busy L2 transactions) resumes bit-identically.

use std::collections::HashMap;

use tiled_cmp::coherence::cache::{CacheArray, VictimSlot};
use tiled_cmp::common::addrmap::AddrMap;
use tiled_cmp::common::persist::{ByteReader, ByteWriter, Persist, PersistState};
use tiled_cmp::common::randtest::{run_cases, usize_in};
use tiled_cmp::common::rng::SimRng;
use tiled_cmp::common::types::Addr;
use tiled_cmp::prelude::{CmpSimulator, SimConfig, SimResult};
use tiled_cmp::workloads::apps;

/// Naive reference for [`CacheArray`]: per-set vectors of
/// `(line, value, stamp)` with a global LRU clock. Every public
/// operation is mirrored; no packed tags, no slot reuse cleverness.
struct RefCache {
    sets: usize,
    ways: usize,
    index_shift: u32,
    lines: Vec<Vec<(Addr, u64, u64)>>,
    clock: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize, index_shift: u32) -> Self {
        RefCache {
            sets,
            ways,
            index_shift,
            lines: (0..sets).map(|_| Vec::new()).collect(),
            clock: 0,
        }
    }

    fn set_of(&self, line: Addr) -> usize {
        ((line >> self.index_shift) as usize) & (self.sets - 1)
    }

    fn peek(&self, line: Addr) -> Option<u64> {
        self.lines[self.set_of(line)]
            .iter()
            .find(|&&(l, ..)| l == line)
            .map(|&(_, v, _)| v)
    }

    fn touch(&mut self, line: Addr) {
        self.clock += 1;
        let (clock, set) = (self.clock, self.set_of(line));
        if let Some(e) = self.lines[set].iter_mut().find(|e| e.0 == line) {
            e.2 = clock;
        }
    }

    fn set_value(&mut self, line: Addr, v: u64) -> bool {
        self.touch(line);
        let set = self.set_of(line);
        match self.lines[set].iter_mut().find(|e| e.0 == line) {
            Some(e) => {
                e.1 = v;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, line: Addr) -> Option<u64> {
        let set = self.set_of(line);
        let pos = self.lines[set].iter().position(|&(l, ..)| l == line)?;
        Some(self.lines[set].remove(pos).1)
    }

    fn insert(&mut self, line: Addr, v: u64) -> bool {
        self.clock += 1;
        let (clock, set) = (self.clock, self.set_of(line));
        if self.lines[set].len() == self.ways {
            return false;
        }
        self.lines[set].push((line, v, clock));
        true
    }

    fn victim_for(&self, line: Addr, evictable: impl Fn(Addr, u64) -> bool) -> VictimSlot {
        let set = &self.lines[self.set_of(line)];
        if set.len() < self.ways {
            return VictimSlot::Free;
        }
        match set
            .iter()
            .filter(|&&(l, v, _)| evictable(l, v))
            .min_by_key(|&&(.., stamp)| stamp)
        {
            Some(&(l, ..)) => VictimSlot::Evict(l),
            None => VictimSlot::None,
        }
    }

    fn lru_resident(&self, line: Addr, evictable: impl Fn(Addr, u64) -> bool) -> Option<Addr> {
        self.lines[self.set_of(line)]
            .iter()
            .filter(|&&(l, v, _)| evictable(l, v))
            .min_by_key(|&&(.., stamp)| stamp)
            .map(|&(l, ..)| l)
    }

    fn free_ways(&self, line: Addr) -> usize {
        self.ways - self.lines[self.set_of(line)].len()
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().map(Vec::len).sum()
    }
}

/// Random line from a pool small enough to force set conflicts.
fn pick_line(rng: &mut SimRng, index_shift: u32) -> Addr {
    // 64-byte-aligned line addresses spanning 64 distinct lines.
    (rng.index(64) as u64) << (6 + index_shift % 2)
}

#[test]
fn cache_array_agrees_with_reference_model_under_random_ops() {
    run_cases("cache_array_vs_reference", 24, |rng| {
        let sets = 1 << rng.index(4); // 1..8 sets
        let ways = usize_in(rng, 1, 4);
        let index_shift = (rng.index(3) * 2) as u32;
        let mut soa: CacheArray<u64> = CacheArray::new(sets, ways, index_shift);
        let mut reference = RefCache::new(sets, ways, index_shift);
        let reload_at = rng.index(600);
        for step in 0..600 {
            if step == reload_at {
                // The LRU ages travel through a checkpoint: a fresh array
                // loaded from the saved bytes keeps agreeing with the model.
                let mut w = ByteWriter::new();
                soa.save_state(&mut w);
                let bytes = w.into_bytes();
                soa = CacheArray::new(sets, ways, index_shift);
                let mut r = ByteReader::new(&bytes);
                soa.load_state(&mut r).expect("saved array loads");
                r.finish().expect("every byte read");
            }
            let line = pick_line(rng, index_shift);
            match rng.index(7) {
                0 => {
                    // Insert only when the set has room, as real callers
                    // do after the victim_for / evict dance.
                    let v = rng.next_u64();
                    if reference.free_ways(line) > 0 && soa.peek(line).is_none() {
                        assert!(soa.insert(line, v).is_ok(), "free way rejected {line:#x}");
                        assert!(reference.insert(line, v));
                    }
                }
                1 => assert_eq!(
                    soa.remove(line),
                    reference.remove(line),
                    "remove({line:#x}) diverged"
                ),
                2 => {
                    let v = rng.next_u64();
                    let in_soa = match soa.get_mut(line) {
                        Some(slot) => {
                            *slot = v;
                            true
                        }
                        None => false,
                    };
                    assert_eq!(in_soa, reference.set_value(line, v));
                }
                3 => {
                    soa.touch(line);
                    reference.touch(line);
                }
                4 => {
                    // Parity-classed evictability exercises the filter.
                    let probe = pick_line(rng, index_shift);
                    assert_eq!(
                        soa.victim_for(probe, |_, &v| v % 2 == 0),
                        reference.victim_for(probe, |_, v| v % 2 == 0),
                        "victim_for({probe:#x}) diverged"
                    );
                }
                5 => {
                    let probe = pick_line(rng, index_shift);
                    assert_eq!(
                        soa.lru_resident(probe, |_, &v| v % 2 == 0),
                        reference.lru_resident(probe, |_, v| v % 2 == 0),
                        "lru_resident({probe:#x}) diverged"
                    );
                }
                _ => {
                    assert_eq!(soa.peek(line).copied(), reference.peek(line));
                    assert_eq!(soa.free_ways(line), reference.free_ways(line));
                }
            }
        }
        assert_eq!(soa.occupancy(), reference.occupancy());
        for (line, &v) in soa.iter() {
            assert_eq!(reference.peek(line), Some(v), "{line:#x} only in the SoA");
        }
    });
}

/// Replays one random op stream against an [`AddrMap`] and a
/// `HashMap`, returning both plus the op log for a second replay.
fn addrmap_ops(rng: &mut SimRng, n: usize) -> Vec<(u8, u64, u64)> {
    (0..n)
        .map(|_| {
            (
                rng.index(4) as u8,
                rng.index(48) as u64 * 64,
                rng.next_u64(),
            )
        })
        .collect()
}

fn apply_ops(ops: &[(u8, u64, u64)], map: &mut AddrMap<u64>, shadow: &mut HashMap<u64, u64>) {
    for &(op, key, v) in ops {
        match op {
            0 => assert_eq!(map.insert(key, v), shadow.insert(key, v)),
            1 => assert_eq!(map.remove(key), shadow.remove(&key)),
            2 => {
                if let Some(slot) = map.get_mut(key) {
                    *slot ^= v;
                }
                if let Some(slot) = shadow.get_mut(&key) {
                    *slot ^= v;
                }
            }
            _ => {
                assert_eq!(map.get(key), shadow.get(&key), "get({key:#x}) diverged");
                assert_eq!(map.contains_key(key), shadow.contains_key(&key));
            }
        }
    }
}

#[test]
fn addrmap_agrees_with_hashmap_and_iterates_deterministically() {
    run_cases("addrmap_vs_hashmap", 24, |rng| {
        let n = usize_in(rng, 50, 800);
        let ops = addrmap_ops(rng, n);
        let mut map = AddrMap::new();
        let mut shadow = HashMap::new();
        apply_ops(&ops, &mut map, &mut shadow);
        assert_eq!(map.len(), shadow.len());
        for (&k, &v) in map.iter() {
            assert_eq!(shadow.get(&k), Some(&v), "{k:#x} only in the AddrMap");
        }
        // Same operation history => identical iteration order, the
        // property snapshot digests rely on (a HashMap gives a different
        // order every process).
        let mut replay = AddrMap::new();
        apply_ops(&ops, &mut replay, &mut HashMap::new());
        let a: Vec<_> = map.iter().map(|(&k, &v)| (k, v)).collect();
        let b: Vec<_> = replay.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(a, b, "op history does not determine iteration order");
    });
}

#[test]
fn addrmap_persist_round_trip_preserves_iteration_order() {
    run_cases("addrmap_persist_order", 16, |rng| {
        let n = usize_in(rng, 20, 400);
        let ops = addrmap_ops(rng, n);
        let mut map = AddrMap::new();
        apply_ops(&ops, &mut map, &mut HashMap::new());
        let mut w = ByteWriter::new();
        map.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored: AddrMap<u64> = Persist::load(&mut r).expect("load");
        r.finish().expect("no trailing bytes");
        let a: Vec<_> = map.iter().map(|(&k, &v)| (k, v)).collect();
        let b: Vec<_> = restored.iter().map(|(&k, &v)| (k, v)).collect();
        // Exact sequence equality — not just same contents — is what
        // lets the digest walk live maps without a defensive sort.
        assert_eq!(a, b, "restored map iterates differently");
        // The restored map must stay deterministic under further ops.
        let more = addrmap_ops(rng, 100);
        let mut live = map;
        let mut from_snap = restored;
        let mut live_shadow: HashMap<u64, u64> = live.iter().map(|(&k, &v)| (k, v)).collect();
        let mut snap_shadow = live_shadow.clone();
        apply_ops(&more, &mut live, &mut live_shadow);
        apply_ops(&more, &mut from_snap, &mut snap_shadow);
        let a: Vec<_> = live.iter().map(|(&k, &v)| (k, v)).collect();
        let b: Vec<_> = from_snap.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(a, b, "restored map diverges under further ops");
    });
}

/// End-to-end: checkpoint a machine *mid-burst* — while MSHRs and the
/// L2 transaction AddrMaps hold live transient entries — and the resumed
/// copy must finish field-identically to the original.
#[test]
fn snapshot_mid_burst_round_trips_through_flat_stores() {
    let app = apps::fft();
    for seed in [3u64, 11] {
        let cfg = SimConfig::baseline;
        let mut original = CmpSimulator::new(cfg(), &app, seed, 0.004);
        // Step into the thick of the run so transient state is live.
        for _ in 0..400 {
            if !original.step().expect("healthy run") {
                break;
            }
        }
        let snap = original.snapshot();
        let mut resumed = CmpSimulator::new(cfg(), &app, seed, 0.004);
        resumed.restore(&snap);
        let a = original.run().expect("original finishes");
        let b = resumed.run().expect("resumed copy finishes");
        let field_identical = |x: &SimResult, y: &SimResult| {
            x.cycles == y.cycles
                && x.instructions == y.instructions
                && x.network_messages == y.network_messages
                && x.mem_reads == y.mem_reads
                && x.energy.link_dynamic.value() == y.energy.link_dynamic.value()
        };
        assert!(
            field_identical(&a, &b),
            "seed {seed}: resumed run diverged from the original"
        );
    }
}
