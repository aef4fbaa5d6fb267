//! `AddrMap`: an open-addressed, insertion-ordered map keyed by line
//! address, for transient coherence state on the cycle path.
//!
//! `std::collections::HashMap` hashes every lookup through SipHash and
//! iterates in an order that changes from process to process (the
//! hasher is randomly seeded). Both properties are wrong for the hot
//! state of a deterministic simulator: the hashing dominates the
//! per-cycle profile, and the iteration order leaks into snapshot
//! digests and state dumps unless every consumer collects-and-sorts.
//!
//! This map fixes both:
//!
//! * Keys are line addresses — already well-distributed integers — so
//!   a single Fibonacci multiply (`key * 2^64/φ`, top bits as the
//!   slot) replaces SipHash. Lookups are one multiply, one shift and a
//!   short linear probe over a power-of-two slot table.
//! * Entries live in a dense `Vec` in insertion order; the slot table
//!   holds only indices into it. Iteration walks the dense vector, so
//!   its order is a pure function of the operation history — two maps
//!   that executed the same inserts and removes iterate identically,
//!   on every platform, in every process. Removal swaps the last entry
//!   into the hole (and fixes its slot), which keeps the order
//!   deterministic without tombstones.
//!
//! The [`Persist`] encoding writes entries in iteration order, so a map
//! restored from a checkpoint iterates exactly like the captured one —
//! snapshot digests can walk live maps directly instead of sorting
//! defensive copies.

use crate::persist::{ByteReader, ByteWriter, Persist, PersistError};

/// Slot-table sentinel for an empty slot.
const EMPTY: u32 = u32::MAX;

/// `2^64 / φ`, the Fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest slot-table size allocated on first insert.
const MIN_CAP: usize = 8;

/// An insertion-ordered map from line address to `V`, open-addressed
/// with Fibonacci hashing. See the module docs for the determinism
/// contract.
#[derive(Clone, Debug)]
pub struct AddrMap<V> {
    /// Dense entries in insertion order (perturbed only by the
    /// deterministic swap-remove on removal).
    entries: Vec<(u64, V)>,
    /// Power-of-two slot table of indices into `entries`.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the Fibonacci hash keeps its top bits.
    shift: u32,
}

impl<V> Default for AddrMap<V> {
    fn default() -> Self {
        AddrMap::new()
    }
}

impl<V> AddrMap<V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        AddrMap {
            entries: Vec::new(),
            index: Vec::new(),
            shift: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove every entry (keeps the allocations).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.fill(EMPTY);
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Slot holding `key`, if present.
    #[inline]
    fn find_slot(&self, key: u64) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = self.slot_of(key);
        loop {
            let e = self.index[slot];
            if e == EMPTY {
                return None;
            }
            if self.entries[e as usize].0 == key {
                return Some(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find_slot(key).is_some()
    }

    /// Shared view of the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find_slot(key)
            .map(|s| &self.entries[self.index[s] as usize].1)
    }

    /// Mutable view of the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find_slot(key)
            .map(|s| &mut self.entries[self.index[s] as usize].1)
    }

    /// Double the slot table and re-point it at the dense entries.
    #[cold]
    fn grow(&mut self) {
        let cap = (self.index.len() * 2).max(MIN_CAP);
        self.index.clear();
        self.index.resize(cap, EMPTY);
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for (i, &(key, _)) in self.entries.iter().enumerate() {
            let mut slot = (key.wrapping_mul(FIB) >> self.shift) as usize;
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = i as u32;
        }
    }

    /// Insert or replace, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if let Some(slot) = self.find_slot(key) {
            let e = self.index[slot] as usize;
            return Some(std::mem::replace(&mut self.entries[e].1, value));
        }
        // Keep the table at most half full so probes stay short.
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = self.slot_of(key);
        while self.index[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.index[slot] = self.entries.len() as u32;
        self.entries.push((key, value));
        None
    }

    /// The value for `key`, inserting `V::default()` when absent
    /// (the `entry(k).or_default()` idiom).
    pub fn get_or_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        if self.find_slot(key).is_none() {
            self.insert(key, V::default());
        }
        self.get_mut(key).expect("just ensured present")
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.find_slot(key)?;
        let e = self.index[slot] as usize;
        // Backward-shift deletion: close the probe chain the hole
        // would otherwise break.
        let mask = self.index.len() - 1;
        let mut hole = slot;
        let mut probe = slot;
        loop {
            probe = (probe + 1) & mask;
            let next = self.index[probe];
            if next == EMPTY {
                break;
            }
            let ideal = self.slot_of(self.entries[next as usize].0);
            // Move `probe`'s entry into the hole iff the hole lies on
            // its probe path (cyclic interval test).
            let reachable = if probe >= hole {
                ideal <= hole || ideal > probe
            } else {
                ideal <= hole && ideal > probe
            };
            if reachable {
                self.index[hole] = next;
                hole = probe;
            }
        }
        self.index[hole] = EMPTY;
        // Swap-remove from the dense vector; re-point the slot of the
        // entry that moved into the freed position. Probe by the moved
        // key but match on the stale index — the key may legally appear
        // at `e` too (it just moved there).
        let (_, value) = self.entries.swap_remove(e);
        if e < self.entries.len() {
            let stale = self.entries.len() as u32;
            let mut slot = self.slot_of(self.entries[e].0);
            while self.index[slot] != stale {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = e as u32;
        }
        Some(value)
    }

    /// Entries in deterministic (insertion-history) order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in deterministic (insertion-history) order.
    pub fn keys(&self) -> impl Iterator<Item = &u64> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in deterministic (insertion-history) order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }
}

/// Entries travel in iteration order, so a restored map iterates — and
/// therefore digests and re-encodes — exactly like the captured one.
impl<V: Persist> Persist for AddrMap<V> {
    fn save(&self, w: &mut ByteWriter) {
        w.usize(self.entries.len());
        for (k, v) in &self.entries {
            w.u64(*k);
            v.save(w);
        }
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        let n = r.len_prefix()?;
        let mut map = AddrMap::new();
        for _ in 0..n {
            let k = r.u64()?;
            let v = V::load(r)?;
            if map.insert(k, v).is_some() {
                return Err(r.err("duplicate key in encoded AddrMap"));
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{ByteReader, ByteWriter};

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = AddrMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(0x40, 1u32), None);
        assert_eq!(m.insert(0x80, 2), None);
        assert_eq!(m.insert(0x40, 3), Some(1), "replace returns the old value");
        assert_eq!(m.get(0x40), Some(&3));
        assert_eq!(m.get(0xC0), None);
        *m.get_mut(0x80).unwrap() = 9;
        assert_eq!(m.remove(0x80), Some(9));
        assert_eq!(m.remove(0x80), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(0x40));
    }

    #[test]
    fn get_or_default_matches_entry_or_default() {
        let mut m: AddrMap<Vec<u32>> = AddrMap::new();
        m.get_or_default(7).push(1);
        m.get_or_default(7).push(2);
        assert_eq!(m.get(7), Some(&vec![1, 2]));
    }

    #[test]
    fn agrees_with_std_hashmap_under_random_ops() {
        use std::collections::HashMap;
        let mut m = AddrMap::new();
        let mut reference = HashMap::new();
        // xorshift-style deterministic op stream
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 512) << 6; // collide often
            match x % 3 {
                0 => assert_eq!(m.insert(key, step), reference.insert(key, step)),
                1 => assert_eq!(m.remove(key), reference.remove(&key)),
                _ => assert_eq!(m.get(key), reference.get(&key)),
            }
            assert_eq!(m.len(), reference.len());
        }
        let mut ours: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        let mut theirs: Vec<(u64, u64)> = reference.into_iter().collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn iteration_order_is_a_function_of_history() {
        let build = || {
            let mut m = AddrMap::new();
            for k in [9u64, 3, 7, 1, 5, 11, 2] {
                m.insert(k << 6, k);
            }
            m.remove(3 << 6);
            m.remove(11 << 6);
            m.insert(13 << 6, 13);
            m
        };
        let a: Vec<u64> = build().keys().copied().collect();
        let b: Vec<u64> = build().keys().copied().collect();
        assert_eq!(a, b, "same history must iterate identically");
    }

    #[test]
    fn persist_preserves_iteration_order() {
        let mut m = AddrMap::new();
        for k in [42u64, 7, 99, 13] {
            m.insert(k, k * 2);
        }
        m.remove(7);
        let mut w = ByteWriter::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored: AddrMap<u64> = Persist::load(&mut r).unwrap();
        r.finish().unwrap();
        let live: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        let back: Vec<(u64, u64)> = restored.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(live, back, "restored map iterates like the captured one");
        // and re-encoding is byte-identical
        let mut w2 = ByteWriter::new();
        restored.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn corrupt_duplicate_keys_are_a_structured_error() {
        let mut w = ByteWriter::new();
        w.usize(2);
        w.u64(5);
        w.u64(1);
        w.u64(5);
        w.u64(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(<AddrMap<u64> as Persist>::load(&mut r).is_err());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut m = AddrMap::new();
        for k in 0..8u64 {
            m.insert(k, k);
        }
        let mut w = ByteWriter::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(<AddrMap<u64> as Persist>::load(&mut r).is_err());
        }
    }

    #[test]
    fn heavy_churn_keeps_probe_chains_consistent() {
        // Exercise backward-shift deletion: many keys mapping to few
        // slots, removed in a hostile order.
        let mut m = AddrMap::new();
        let keys: Vec<u64> = (0..64).map(|i| i * 8).collect();
        for &k in &keys {
            m.insert(k, k);
        }
        for &k in keys.iter().step_by(2) {
            assert_eq!(m.remove(k), Some(k));
        }
        for &k in keys.iter().skip(1).step_by(2) {
            assert_eq!(m.get(k), Some(&k), "survivor {k} must stay reachable");
        }
        for &k in keys.iter().step_by(2) {
            m.insert(k, k + 1);
        }
        assert_eq!(m.len(), 64);
        for &k in keys.iter().step_by(2) {
            assert_eq!(m.get(k), Some(&(k + 1)));
        }
    }
}
