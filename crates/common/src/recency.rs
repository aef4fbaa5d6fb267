//! Exact LRU order in one byte per way.
//!
//! A set of up to [`MAX_WAYS`] ways keeps, per way, its *age*: the
//! number of valid ways in the set used more recently. The valid ways'
//! ages are therefore always a permutation of `0..valid` — 0 is the most
//! recent way, `valid - 1` the least — and an invalid way holds
//! [`INVALID`]. This is the same order a per-way clock stamp gives (the
//! larger the age, the smaller the stamp), held in a byte instead of a
//! `u64` and with no clock.
//!
//! [`crate::persist`] state written from ages is checked with an
//! [`OrderCheck`] as it is read, so a forged or rotted set cannot seed
//! an order no sequence of operations reaches.

/// The age of an invalid way.
pub const INVALID: u8 = u8::MAX;

/// Most ways one set may hold: valid ages stay below [`INVALID`].
pub const MAX_WAYS: usize = INVALID as usize;

/// Make valid way `i` the most recent: every way more recent than it
/// ages by one.
#[inline]
pub fn touch(ages: &mut [u8], i: usize) {
    let a = ages[i];
    debug_assert!(a != INVALID, "touched an invalid way");
    // Most touches find the way already the most recent.
    if a == 0 {
        return;
    }
    for age in ages.iter_mut() {
        // INVALID is never below a valid age.
        *age += u8::from(*age < a);
    }
    ages[i] = 0;
}

/// Fill invalid way `i` as the most recent: every valid way ages by one.
#[inline]
pub fn insert(ages: &mut [u8], i: usize) {
    debug_assert!(ages[i] == INVALID, "inserted over a valid way");
    for age in ages.iter_mut() {
        *age += u8::from(*age != INVALID);
    }
    ages[i] = 0;
}

/// Invalidate valid way `i`: every way older than it gets one younger.
#[inline]
pub fn remove(ages: &mut [u8], i: usize) {
    let a = ages[i];
    debug_assert!(a != INVALID, "removed an invalid way");
    ages[i] = INVALID;
    for age in ages.iter_mut() {
        *age -= u8::from(*age > a && *age != INVALID);
    }
}

/// The way a miss fills: the first invalid way, or else the least
/// recent one. `None` only for an empty slice.
#[inline]
pub fn victim(ages: &[u8]) -> Option<usize> {
    ages.iter()
        .position(|&a| a == INVALID)
        .or_else(|| (0..ages.len()).max_by_key(|&i| ages[i]))
}

/// Checks, one way at a time as a set is read, that its valid ages are
/// a permutation of `0..valid`: no age twice, none at or past the count
/// of valid ways. A fresh check per set or lane.
#[derive(Default)]
pub struct OrderCheck {
    /// A bit per age seen.
    seen: [u64; MAX_WAYS.div_ceil(64)],
    valid: usize,
    /// One past the oldest age seen.
    span: usize,
}

impl OrderCheck {
    /// Take the next way's age ([`INVALID`] for an empty way); false
    /// when a valid age repeats.
    #[inline]
    pub fn see(&mut self, age: u8) -> bool {
        if age == INVALID {
            return true;
        }
        let (word, bit) = (usize::from(age) / 64, 1 << (age % 64));
        let fresh = self.seen[word] & bit == 0;
        self.seen[word] |= bit;
        self.valid += 1;
        self.span = self.span.max(usize::from(age) + 1);
        fresh
    }

    /// Whether the distinct ages seen are a permutation of `0..valid`.
    #[inline]
    pub fn holds(&self) -> bool {
        self.span <= self.valid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randtest::run_cases;

    /// A stamp-and-clock model of one set: the order ages must keep.
    struct Stamps {
        stamps: Vec<Option<u64>>,
        clock: u64,
    }

    impl Stamps {
        fn stamp(&mut self, i: usize) {
            self.clock += 1;
            self.stamps[i] = Some(self.clock);
        }

        fn victim(&self) -> usize {
            (0..self.stamps.len())
                .min_by_key(|&i| self.stamps[i].unwrap_or(0))
                .expect("a non-empty set")
        }

        /// Each way's age: the valid ways stamped later.
        fn ages(&self) -> Vec<u8> {
            let later = |s: u64| self.stamps.iter().flatten().filter(|&&t| t > s).count();
            let age = |s: &Option<u64>| s.map_or(INVALID, |s| later(s) as u8);
            self.stamps.iter().map(age).collect()
        }
    }

    /// Every update leaves exactly the ages a stamp-and-clock set
    /// implies, and picks its victim, from one way up to `MAX_WAYS`.
    #[test]
    fn ages_are_those_clock_stamps_imply() {
        run_cases("recency_vs_stamps", 64, |rng| {
            let ways = [1, 2, 3, 4, 5, 8, 13, 16, 64, MAX_WAYS][rng.index(10)];
            let mut ages = vec![INVALID; ways];
            let mut model = Stamps {
                stamps: vec![None; ways],
                clock: 0,
            };
            for _ in 0..300 {
                // Favour the filled ways so large sets fill up too.
                let i = match rng.index(4) {
                    0 => rng.index(ways),
                    _ => model.victim(),
                };
                match (rng.index(3), model.stamps[i].is_some()) {
                    (0, true) => {
                        touch(&mut ages, i);
                        model.stamp(i);
                    }
                    (1, true) => {
                        remove(&mut ages, i);
                        model.stamps[i] = None;
                    }
                    _ => {
                        let v = victim(&ages).expect("a way");
                        assert_eq!(v, model.victim(), "victim");
                        if ages[v] != INVALID {
                            remove(&mut ages, v);
                        }
                        insert(&mut ages, v);
                        model.stamp(v);
                    }
                }
                assert_eq!(ages, model.ages());
                assert!(is_recency_order(&ages), "{ages:?}");
            }
        });
    }

    /// Every age of `ages` through one [`OrderCheck`].
    fn is_recency_order(ages: &[u8]) -> bool {
        let mut order = OrderCheck::default();
        ages.iter().all(|&a| order.see(a)) && order.holds()
    }

    #[test]
    fn recency_order_refuses_duplicates_gaps_and_overflow() {
        assert!(is_recency_order(&[]));
        assert!(is_recency_order(&[INVALID, 1, 0]));
        assert!(!is_recency_order(&[0, 0]), "duplicate age");
        assert!(!is_recency_order(&[0, 2]), "age at or past the valid count");
        assert!(!is_recency_order(&[1, INVALID]), "gap");
        assert!(
            !is_recency_order(&[3, 0, 1]),
            "age past the valid count, seen first"
        );
        assert!(is_recency_order(&[2, INVALID, 0, 1]));
        let full: Vec<u8> = (0..MAX_WAYS as u8).rev().collect();
        assert!(is_recency_order(&full), "every age of the widest set");
    }
}
