//! Trace operations and the streaming source abstraction.

use cmp_common::persist::{ByteReader, ByteWriter, Persist, PersistError, PersistState};
use cmp_common::types::Addr;

/// One operation of a core's instruction stream, at the granularity the
//  memory system cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// `n` non-memory instructions (retire at the issue width).
    Compute(u32),
    /// Load from a **line address**.
    Load(Addr),
    /// Store to a **line address**.
    Store(Addr),
    /// Global barrier number `id` (all cores must arrive).
    Barrier(u32),
}

impl TraceOp {
    /// Instructions this op contributes to the instruction count.
    pub fn instructions(&self) -> u64 {
        match *self {
            TraceOp::Compute(n) => n as u64,
            TraceOp::Load(_) | TraceOp::Store(_) => 1,
            TraceOp::Barrier(_) => 0,
        }
    }

    /// The line touched, if this is a memory operation.
    pub fn line(&self) -> Option<Addr> {
        match *self {
            TraceOp::Load(a) | TraceOp::Store(a) => Some(a),
            _ => None,
        }
    }
}

/// A streaming producer of trace operations. Generators implement this to
/// avoid materialising multi-million-op traces. `Send` so that a
/// simulator, which owns each core's op source, can be handed to
/// another thread like every other component it holds.
pub trait OpSource: Send {
    /// The next operation, or `None` when the stream ends.
    fn next_op(&mut self) -> Option<TraceOp>;

    /// Append this source's mutable state (position, generator cursors)
    /// to a whole-machine snapshot, so a restored core resumes on an
    /// identical op stream. The matching [`OpSource::load_state`] is
    /// always called on a source of the same concrete type and
    /// configuration, so no type tag travels with the bytes.
    fn save_state(&self, w: &mut ByteWriter);

    /// Overwrite *all* of this source's mutable state from snapshot
    /// bytes: the source may be fresh, further along, or (same
    /// configuration, different seed) on another stream entirely.
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError>;
}

impl PersistState for Box<dyn OpSource> {
    fn save_state(&self, w: &mut ByteWriter) {
        (**self).save_state(w);
    }
    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        (**self).load_state(r)
    }
}

impl Persist for TraceOp {
    fn save(&self, w: &mut ByteWriter) {
        match *self {
            TraceOp::Compute(n) => {
                w.u8(0);
                w.u32(n);
            }
            TraceOp::Load(a) => {
                w.u8(1);
                w.u64(a);
            }
            TraceOp::Store(a) => {
                w.u8(2);
                w.u64(a);
            }
            TraceOp::Barrier(id) => {
                w.u8(3);
                w.u32(id);
            }
        }
    }
    fn load(r: &mut ByteReader) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => TraceOp::Compute(r.u32()?),
            1 => TraceOp::Load(r.u64()?),
            2 => TraceOp::Store(r.u64()?),
            3 => TraceOp::Barrier(r.u32()?),
            _ => return Err(r.err("invalid TraceOp tag")),
        })
    }
}

/// An `OpSource` over a pre-built vector (tests, microbenchmarks).
pub struct SliceSource {
    ops: std::vec::IntoIter<TraceOp>,
}

impl SliceSource {
    /// Wrap a vector of operations.
    pub fn new(ops: Vec<TraceOp>) -> Self {
        SliceSource {
            ops: ops.into_iter(),
        }
    }
}

impl OpSource for SliceSource {
    fn next_op(&mut self) -> Option<TraceOp> {
        self.ops.next()
    }

    fn save_state(&self, w: &mut ByteWriter) {
        // the un-consumed tail of the trace *is* the position
        self.ops.as_slice().to_vec().save(w);
    }

    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), PersistError> {
        self.ops = Vec::<TraceOp>::load(r)?.into_iter();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_instruction_accounting() {
        assert_eq!(TraceOp::Compute(7).instructions(), 7);
        assert_eq!(TraceOp::Load(1).instructions(), 1);
        assert_eq!(TraceOp::Store(1).instructions(), 1);
        assert_eq!(TraceOp::Barrier(0).instructions(), 0);
    }

    #[test]
    fn line_extraction() {
        assert_eq!(TraceOp::Load(42).line(), Some(42));
        assert_eq!(TraceOp::Store(42).line(), Some(42));
        assert_eq!(TraceOp::Compute(1).line(), None);
    }

    #[test]
    fn slice_source_streams_in_order() {
        let mut s = SliceSource::new(vec![TraceOp::Compute(1), TraceOp::Load(2)]);
        assert_eq!(s.next_op(), Some(TraceOp::Compute(1)));
        assert_eq!(s.next_op(), Some(TraceOp::Load(2)));
        assert_eq!(s.next_op(), None);
    }
}
