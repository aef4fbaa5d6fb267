//! Panic-free binary state codec: the one description of captured
//! machine state.
//!
//! A whole-machine snapshot *is* its encoded bytes — in-memory rewind
//! and the checkpoint store on disk hold the same thing, so a
//! component describes its mutable state exactly once,
//! here. This module is the byte layer: a little-endian,
//! length-prefixed encoding with a bounds-checked reader whose every
//! decode path returns a structured [`PersistError`] — corrupt or
//! truncated input must *never* panic, because the disk store's
//! quarantine path runs on exactly that input.
//!
//! Two traits split the world:
//!
//! * [`Persist`] — value semantics (`save` + constructing `load`) for
//!   plain data: counters, events, messages, map entries.
//! * [`PersistState`] — in-place semantics (`save_state` +
//!   `load_state(&mut self)`) for composites that mix mutable state
//!   with immutable configuration or trait objects. A checkpoint is
//!   only ever loaded into a machine built from the *same*
//!   configuration (the snapshot header fingerprints it), so the
//!   immutable parts are reconstructed by the constructor and only the
//!   mutable state travels through the bytes. This is what lets
//!   `Box<dyn OpSource>`-style trait objects participate without any
//!   tagged-constructor registry: the machine already holds an object
//!   of the right concrete type, and `load_state` overwrites its state
//!   in place. The target is as often a machine that has run on past
//!   the checkpoint (a rewind) as a fresh one, so `load_state` must be
//!   *total*: every piece of mutable state is overwritten, nothing is
//!   merged with what was there.
//!
//! Every [`Persist`] type automatically implements [`PersistState`]
//! (blanket impl), so a type implements exactly one of the two.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;

/// Structured decode failure: where in the byte stream, and what the
/// decoder was trying to read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistError {
    /// Byte offset at which the decode failed.
    pub at: usize,
    /// What was being decoded (static context string).
    pub what: &'static str,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt state: {} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for PersistError {}

/// Growable little-endian byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh, empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Fresh writer with room for `bytes` bytes, for output whose size
    /// is known up front.
    pub fn with_capacity(bytes: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bits (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append raw bytes with a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a UTF-8 string with a length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked reader over a byte slice. Every accessor returns a
/// [`PersistError`] instead of panicking on truncated input.
///
/// The reader also carries the cycle the state being read resumes at,
/// so a layer can refuse a stored cycle its own timing rules out
/// without any trait changing shape: the engine sets it once it has
/// read its clock; a bare load reads at cycle 0 unless its caller sets
/// another.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    cycle: u64,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`, at cycle 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader {
            buf,
            pos: 0,
            cycle: 0,
        }
    }

    /// The cycle the state being read resumes at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Read the rest of the state as resuming at `cycle`.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Current offset (for error reporting).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`PersistError`] at the current position.
    pub fn err(&self, what: &'static str) -> PersistError {
        PersistError { at: self.pos, what }
    }

    /// Fail unless every byte was consumed (trailing garbage means the
    /// payload is not what its header claims).
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err("trailing bytes after decoded state"))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(self.err(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1, "truncated u8")?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        let b = self.take(2, "truncated u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4, "truncated u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8, "truncated u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool (one byte; anything but 0/1 is corruption).
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.err("invalid bool byte")),
        }
    }

    /// Read a `usize` (stored as `u64`, checked against the platform).
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| self.err("usize overflows platform"))
    }

    /// Read a length prefix destined to allocate a collection whose
    /// elements occupy at least one byte each. The bound means corrupt
    /// input can never demand an allocation larger than the input
    /// itself.
    pub fn len_prefix(&mut self) -> Result<usize, PersistError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(self.err("length prefix exceeds remaining input"));
        }
        Ok(n)
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.len_prefix()?;
        self.take(n, "truncated byte string")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, PersistError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| self.err("invalid utf-8 string"))
    }
}

// ---------------------------------------------------------------------------
// The traits
// ---------------------------------------------------------------------------

/// Value-semantics byte codec: save to a writer, load by construction.
/// Implemented by plain-data types (everything a collection holds).
pub trait Persist: Sized {
    /// Append this value's encoding.
    fn save(&self, w: &mut ByteWriter);
    /// Decode one value; must not panic on corrupt or truncated input.
    fn load(r: &mut ByteReader) -> Result<Self, PersistError>;
}

/// In-place state codec for composites holding immutable configuration
/// or trait objects: `load_state` overwrites the mutable state of an
/// object the caller already constructed from the matching config.
pub trait PersistState {
    /// Append this object's mutable state.
    fn save_state(&self, w: &mut ByteWriter);
    /// Overwrite this object's mutable state from the reader.
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError>;
}

/// Every value codec is trivially an in-place codec.
impl<T: Persist> PersistState for T {
    fn save_state(&self, w: &mut ByteWriter) {
        self.save(w);
    }
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        *self = T::load(r)?;
        Ok(())
    }
}

/// Save each element of a fixed-shape slice (tiles, banks, routers).
pub fn save_state_slice<T: PersistState>(items: &[T], w: &mut ByteWriter) {
    w.usize(items.len());
    for it in items {
        it.save_state(w);
    }
}

/// Load into each element of a fixed-shape slice; the stored length
/// must match the live one (it is determined by the configuration).
pub fn load_state_slice<T: PersistState>(
    items: &mut [T],
    r: &mut ByteReader,
) -> Result<(), PersistError> {
    let n = r.usize()?;
    if n != items.len() {
        return Err(r.err("slice length does not match machine shape"));
    }
    for it in items {
        it.load_state(r)?;
    }
    Ok(())
}

/// Save a hash map sorted by key, so equal maps encode identically.
pub fn save_map<K: Persist + Ord, V: Persist>(map: &HashMap<K, V>, w: &mut ByteWriter) {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.usize(entries.len());
    for (k, v) in entries {
        k.save(w);
        v.save(w);
    }
}

/// Load a hash map saved by [`save_map`].
pub fn load_map<K: Persist + Eq + Hash, V: Persist>(
    r: &mut ByteReader,
) -> Result<HashMap<K, V>, PersistError> {
    let n = r.len_prefix()?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = K::load(r)?;
        let v = V::load(r)?;
        map.insert(k, v);
    }
    Ok(map)
}

// ---------------------------------------------------------------------------
// Primitive and std impls
// ---------------------------------------------------------------------------

macro_rules! persist_prim {
    ($t:ty, $save:ident, $load:ident) => {
        impl Persist for $t {
            fn save(&self, w: &mut ByteWriter) {
                w.$save(*self);
            }
            fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
                r.$load()
            }
        }
    };
}

persist_prim!(u8, u8, u8);
persist_prim!(u16, u16, u16);
persist_prim!(u32, u32, u32);
persist_prim!(u64, u64, u64);
persist_prim!(i64, i64, i64);
persist_prim!(f64, f64, f64);
persist_prim!(bool, bool, bool);
persist_prim!(usize, usize, usize);

impl Persist for String {
    fn save(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        r.string()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        let n = r.len_prefix()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn save(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        let n = r.len_prefix()?;
        let mut v = VecDeque::with_capacity(n);
        for _ in 0..n {
            v.push_back(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut ByteWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::load(r)?);
        }
        match v.try_into() {
            Ok(arr) => Ok(arr),
            Err(_) => Err(r.err("array length mismatch")),
        }
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut ByteWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut ByteWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        let n = r.len_prefix()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

/// Implement [`Persist`] for a struct by listing every field. All
/// fields must themselves be [`Persist`]; the macro must be invoked in
/// the defining crate (it constructs the struct literally).
#[macro_export]
macro_rules! impl_persist {
    ($t:ty { $($f:ident),* $(,)? }) => {
        impl $crate::persist::Persist for $t {
            fn save(&self, w: &mut $crate::persist::ByteWriter) {
                $( $crate::persist::Persist::save(&self.$f, w); )*
            }
            fn load(
                r: &mut $crate::persist::ByteReader,
            ) -> Result<Self, $crate::persist::PersistError> {
                Ok(Self { $( $f: $crate::persist::Persist::load(r)?, )* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        0xAAu8.save(&mut w);
        0xBBCCu16.save(&mut w);
        u32::MAX.save(&mut w);
        u64::MAX.save(&mut w);
        (-42i64).save(&mut w);
        (0.1f64 + 0.2).save(&mut w);
        true.save(&mut w);
        "héllo".to_string().save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(u8::load(&mut r).unwrap(), 0xAA);
        assert_eq!(u16::load(&mut r).unwrap(), 0xBBCC);
        assert_eq!(u32::load(&mut r).unwrap(), u32::MAX);
        assert_eq!(u64::load(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::load(&mut r).unwrap(), -42);
        assert_eq!(f64::load(&mut r).unwrap(), 0.1 + 0.2);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(String::load(&mut r).unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn collections_round_trip() {
        let mut w = ByteWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        VecDeque::from(vec![4u32, 5]).save(&mut w);
        Some(7u8).save(&mut w);
        Option::<u8>::None.save(&mut w);
        [9u64, 10, 11, 12].save(&mut w);
        (1u8, 2u16, 3u32).save(&mut w);
        let mut m = HashMap::new();
        m.insert(3u64, "c".to_string());
        m.insert(1u64, "a".to_string());
        save_map(&m, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            VecDeque::<u32>::load(&mut r).unwrap(),
            VecDeque::from(vec![4, 5])
        );
        assert_eq!(Option::<u8>::load(&mut r).unwrap(), Some(7));
        assert_eq!(Option::<u8>::load(&mut r).unwrap(), None);
        assert_eq!(<[u64; 4]>::load(&mut r).unwrap(), [9, 10, 11, 12]);
        assert_eq!(<(u8, u16, u32)>::load(&mut r).unwrap(), (1, 2, 3));
        assert_eq!(load_map::<u64, String>(&mut r).unwrap(), m);
        r.finish().unwrap();
    }

    #[test]
    fn sorted_map_encoding_is_deterministic() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in [5u64, 1, 9, 3] {
            a.insert(k, k * 2);
        }
        for k in [3u64, 9, 1, 5] {
            b.insert(k, k * 2);
        }
        let (mut wa, mut wb) = (ByteWriter::new(), ByteWriter::new());
        save_map(&a, &mut wa);
        save_map(&b, &mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        vec![1u64; 8].save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let res = Vec::<u64>::load(&mut r);
            assert!(res.is_err(), "cut at {cut} must fail, not panic");
        }
    }

    #[test]
    fn hostile_length_prefix_cannot_force_allocation() {
        // a length prefix claiming 2^60 elements over a 9-byte input
        let mut w = ByteWriter::new();
        w.u64(1 << 60);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = Vec::<u64>::load(&mut r).unwrap_err();
        assert!(err.what.contains("length prefix"));
    }

    #[test]
    fn invalid_bool_and_utf8_are_structured_errors() {
        let mut r = ByteReader::new(&[7]);
        assert!(bool::load(&mut r).is_err());
        let mut w = ByteWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(String::load(&mut r).is_err());
    }

    #[test]
    fn state_slice_checks_machine_shape() {
        let items = [1u64, 2, 3];
        let mut w = ByteWriter::new();
        save_state_slice(&items, &mut w);
        let bytes = w.into_bytes();
        let mut wrong = [0u64; 2];
        let mut r = ByteReader::new(&bytes);
        assert!(load_state_slice(&mut wrong, &mut r).is_err());
        let mut right = [0u64; 3];
        let mut r = ByteReader::new(&bytes);
        load_state_slice(&mut right, &mut r).unwrap();
        assert_eq!(right, items);
        r.finish().unwrap();
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        let _ = r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
