//! Barrier bookkeeping shared by the full-system simulator.

/// Arrival tracking for one global barrier epoch.
///
/// The arrival set is a multi-word bitmask, so a barrier spans any
/// mesh the machine description can build — the 16×16 and 32×32
/// meshes the sparse directory unlocks included, not just the 64
/// cores a single `u64` can name.
#[derive(Clone, Debug)]
pub struct BarrierState {
    participants: usize,
    arrived: Vec<u64>,
    waiting: u32,
    epoch: u32,
}

/// The participant count is fixed by the machine shape and doubles as a
/// shape check at load time.
impl cmp_common::persist::PersistState for BarrierState {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        w.usize(self.participants);
        self.arrived.save(w);
        w.u32(self.waiting);
        w.u32(self.epoch);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        if r.usize()? != self.participants {
            return Err(r.err("barrier participant count does not match machine shape"));
        }
        self.arrived = Persist::load(r)?;
        self.waiting = r.u32()?;
        self.epoch = r.u32()?;
        Ok(())
    }
}

impl BarrierState {
    /// A barrier over `participants` cores.
    pub fn new(participants: usize) -> Self {
        assert!(participants >= 1, "a barrier needs at least one core");
        BarrierState {
            participants,
            arrived: vec![0; participants.div_ceil(64)],
            waiting: 0,
            epoch: 0,
        }
    }

    /// Core `core` arrived at barrier `id`. Returns `true` when this was
    /// the last arrival — the caller must then release every core and the
    /// state resets for the next epoch.
    pub fn arrive(&mut self, core: usize, id: u32) -> bool {
        debug_assert_eq!(id, self.epoch, "core {core} at wrong barrier epoch");
        let (word, bit) = (core / 64, 1u64 << (core % 64));
        debug_assert_eq!(self.arrived[word] & bit, 0, "double arrival of core {core}");
        self.arrived[word] |= bit;
        self.waiting += 1;
        if self.waiting as usize == self.participants {
            self.arrived.fill(0);
            self.waiting = 0;
            self.epoch += 1;
            true
        } else {
            false
        }
    }

    /// Cores currently parked at the barrier.
    pub fn waiting(&self) -> u32 {
        self.waiting
    }

    /// The barrier id cores should arrive at next.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_on_last_arrival_and_advances_epoch() {
        let mut b = BarrierState::new(3);
        assert!(!b.arrive(0, 0));
        assert!(!b.arrive(2, 0));
        assert_eq!(b.waiting(), 2);
        assert!(b.arrive(1, 0));
        assert_eq!(b.waiting(), 0);
        assert_eq!(b.epoch(), 1);
        // next epoch works the same
        assert!(!b.arrive(1, 1));
        assert!(!b.arrive(0, 1));
        assert!(b.arrive(2, 1));
        assert_eq!(b.epoch(), 2);
    }

    #[test]
    fn spans_more_cores_than_one_mask_word() {
        // a 16×16 mesh: 256 cores across four mask words
        let mut b = BarrierState::new(256);
        for core in 0..255 {
            assert!(!b.arrive(core, 0), "core {core} must not release early");
        }
        assert_eq!(b.waiting(), 255);
        assert!(b.arrive(255, 0));
        assert_eq!(b.waiting(), 0);
        assert_eq!(b.epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "double arrival")]
    fn double_arrival_is_a_bug() {
        let mut b = BarrierState::new(2);
        b.arrive(0, 0);
        b.arrive(0, 0);
    }
}
