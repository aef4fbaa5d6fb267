//! An inline-first vector for hot-path message plumbing.
//!
//! Protocol handlers emit a handful of side effects per event (almost
//! always ≤ 4); returning a heap `Vec` from every handler call made
//! allocation the dominant cost of the simulator's inner loop. A
//! [`SmallVec`] stores up to `N` elements inline on the stack and only
//! touches the heap on the rare overflow (e.g. an invalidation burst to
//! many sharers).
//!
//! Restricted to `T: Copy` — that covers every message type in the
//! simulator and keeps the implementation free of drop bookkeeping.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector of `Copy` elements with inline storage for the first `N`.
pub struct SmallVec<T: Copy, const N: usize> {
    /// Number of live inline elements (0 once spilled).
    inline_len: usize,
    /// Inline storage, filled with copies of the first element pushed.
    inline: Option<[T; N]>,
    /// Heap storage; once non-empty it holds *all* elements.
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> SmallVec<T, N> {
    /// An empty vector (no allocation).
    #[inline]
    pub fn new() -> Self {
        SmallVec {
            inline_len: 0,
            inline: None,
            spill: Vec::new(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.inline_len
        } else {
            self.spill.len()
        }
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the elements have overflowed to the heap.
    #[inline]
    pub fn spilled(&self) -> bool {
        !self.spill.is_empty()
    }

    /// Append an element.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.spill.is_empty() {
            if self.inline_len < N {
                match &mut self.inline {
                    Some(inline) => inline[self.inline_len] = value,
                    None => self.inline = Some([value; N]),
                }
                self.inline_len += 1;
                return;
            }
            // overflow: promote the inline elements to the heap
            let mut spill = std::mem::take(&mut self.spill);
            spill.reserve(N + 1);
            spill.extend_from_slice(self.as_inline_slice());
            self.spill = spill;
            self.inline_len = 0;
        }
        self.spill.push(value);
    }

    /// Remove all elements, keeping any heap capacity for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.inline_len = 0;
        self.spill.clear();
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            self.as_inline_slice()
        } else {
            &self.spill
        }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            match &mut self.inline {
                Some(inline) => &mut inline[..self.inline_len],
                None => &mut [],
            }
        } else {
            &mut self.spill
        }
    }

    #[inline]
    fn as_inline_slice(&self) -> &[T] {
        match &self.inline {
            Some(inline) => &inline[..self.inline_len],
            None => &[],
        }
    }
}

impl<T: Copy, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> DerefMut for SmallVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy, const N: usize> Clone for SmallVec<T, N> {
    fn clone(&self) -> Self {
        let mut v = SmallVec::new();
        for &x in self.as_slice() {
            v.push(x);
        }
        v
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SmallVec::new();
        v.extend(iter);
        v
    }
}

/// By-value iterator over a [`SmallVec`].
pub struct IntoIter<T: Copy, const N: usize> {
    vec: SmallVec<T, N>,
    pos: usize,
}

impl<T: Copy, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    #[inline]
    fn next(&mut self) -> Option<T> {
        let item = self.vec.as_slice().get(self.pos).copied();
        self.pos += 1;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.vec.len().saturating_sub(self.pos);
        (n, Some(n))
    }
}

impl<T: Copy, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter { vec: self, pos: 0 }
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn spills_past_capacity_preserving_order() {
        let mut v: SmallVec<u32, 2> = SmallVec::new();
        for i in 0..50 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.len(), 50);
        assert_eq!(v[0], 0);
        assert_eq!(v[49], 49);
        let collected: Vec<u32> = v.into_iter().collect();
        assert_eq!(collected, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut v: SmallVec<u8, 2> = SmallVec::new();
        v.extend([1, 2, 3]);
        assert!(v.spilled());
        v.clear();
        assert!(v.is_empty());
        v.push(9);
        assert_eq!(v.as_slice(), &[9]);
    }

    #[test]
    fn slice_ops_work_through_deref() {
        let v: SmallVec<u32, 4> = [5, 6].into_iter().collect();
        assert!(matches!(v[..], [5, 6]));
        assert_eq!(v.iter().sum::<u32>(), 11);
        let mut m = v.clone();
        m[0] = 7;
        assert_eq!(m.as_slice(), &[7, 6]);
        assert_eq!(v, v.clone());
    }

    #[test]
    fn empty_default_and_debug() {
        let v: SmallVec<u32, 2> = SmallVec::default();
        assert!(v.is_empty());
        assert_eq!(format!("{v:?}"), "[]");
    }
}
