//! The streaming trace generator interpreting an [`AppProfile`].

use std::collections::VecDeque;

use cmp_common::rng::SimRng;
use cmp_common::types::Addr;
use cpu_model::trace::{OpSource, TraceOp};

use crate::profile::{AppProfile, Pattern, StructureSpec};

/// Per-structure runtime state.
#[derive(Clone, Debug)]
struct Cursor {
    /// Current offset within the (per-core) region, in lines.
    pos: u64,
    /// Remaining accesses in the current sequential run.
    run_left: u64,
    /// Cursor within the partner's partition (exchange patterns).
    partner_pos: u64,
}

/// A deterministic, streaming trace generator for one core.
pub struct TraceGen {
    profile: AppProfile,
    cdf: Vec<f64>,
    core: usize,
    cores: usize,
    rng: SimRng,
    refs_total: u64,
    refs_done: u64,
    barrier_interval: u64,
    next_barrier: u32,
    cursors: Vec<Cursor>,
    pending: VecDeque<TraceOp>,
    /// Structure the generator is currently sticking to.
    current_struct: usize,
    /// References left before re-picking a structure.
    struct_run_left: u64,
}

impl TraceGen {
    /// Generator for `core` of `cores`, scaled by `scale`, seeded
    /// deterministically from `seed`.
    pub fn new(profile: &AppProfile, core: usize, cores: usize, seed: u64, scale: f64) -> Self {
        profile.validate().expect("valid profile");
        assert!(core < cores);
        let refs_total = profile.scaled_refs(scale);
        let barriers = profile.barriers.max(1) as u64;
        let mut rng = SimRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let rng = rng.fork(core as u64);
        let cursors = profile
            .structures
            .iter()
            .map(|_| Cursor {
                pos: 0,
                run_left: 0,
                partner_pos: 0,
            })
            .collect();
        TraceGen {
            cdf: profile.weight_cdf(),
            profile: profile.clone(),
            core,
            cores,
            rng,
            refs_total,
            refs_done: 0,
            barrier_interval: (refs_total / (barriers + 1)).max(1),
            next_barrier: 0,
            cursors,
            pending: VecDeque::new(),
            current_struct: 0,
            struct_run_left: 0,
        }
    }

    /// Total references this core will issue.
    pub fn refs_total(&self) -> u64 {
        self.refs_total
    }

    fn strided_next(&mut self, idx: usize, stride: u64, run_mean: f64, lines: u64) -> u64 {
        let c = &mut self.cursors[idx];
        if c.run_left == 0 {
            c.pos = self.rng.below(lines);
            c.run_left = self.rng.burst(run_mean, 1 << 20);
        } else {
            c.pos = (c.pos + stride) % lines;
        }
        c.run_left -= 1;
        c.pos
    }

    /// Generate the ops for one reference slot into `pending`.
    fn generate_slot(&mut self) {
        // Compute burst between references.
        if self.profile.compute_per_ref >= 1.0 {
            let n = self.rng.burst(self.profile.compute_per_ref, 4096) as u32;
            self.pending.push_back(TraceOp::Compute(n));
        }

        if self.struct_run_left == 0 {
            self.current_struct = self.rng.pick_cdf(&self.cdf);
            self.struct_run_left = self.rng.burst(self.profile.locality_run.max(1.0), 1 << 16);
        }
        self.struct_run_left -= 1;
        let idx = self.current_struct;
        let spec: StructureSpec = self.profile.structures[idx];
        let lines = spec.region.lines();
        let my_base = spec.region.base(self.core, self.cores);

        match spec.pattern {
            Pattern::Strided { stride, run_mean } => {
                let off = self.strided_next(idx, stride, run_mean, lines);
                let addr = my_base + off;
                self.push_rw(addr, spec.write_frac);
            }
            Pattern::Random => {
                let addr = my_base + self.rng.below(lines);
                self.push_rw(addr, spec.write_frac);
            }
            Pattern::NeighborExchange { boundary_lines } => {
                let b = boundary_lines.min(lines).max(1);
                if self.rng.chance(spec.write_frac) {
                    // produce into the own boundary
                    let addr = my_base + self.rng.below(b);
                    self.pending.push_back(TraceOp::Store(addr));
                } else {
                    // consume a neighbour's boundary
                    let dir = if self.rng.chance(0.5) {
                        1
                    } else {
                        self.cores - 1
                    };
                    let partner = (self.core + dir) % self.cores;
                    let base = spec.region.base(partner, self.cores);
                    let c = &mut self.cursors[idx];
                    c.partner_pos = (c.partner_pos + 1) % b;
                    self.pending.push_back(TraceOp::Load(base + c.partner_pos));
                }
            }
            Pattern::RotatingPartner { phase_refs } => {
                let phase = (self.refs_done / phase_refs.max(1)) as usize;
                if self.rng.chance(spec.write_frac) {
                    let off = self.strided_next(idx, 1, 32.0, lines);
                    self.pending.push_back(TraceOp::Store(my_base + off));
                } else {
                    let partner = (self.core + 1 + phase % (self.cores - 1)) % self.cores;
                    let base = spec.region.base(partner, self.cores);
                    let c = &mut self.cursors[idx];
                    c.partner_pos = (c.partner_pos + 1) % lines;
                    self.pending.push_back(TraceOp::Load(base + c.partner_pos));
                }
            }
            Pattern::Migratory { objects } => {
                let obj = self.rng.below(objects.min(lines).max(1));
                let addr = my_base + obj;
                self.pending.push_back(TraceOp::Load(addr));
                self.pending.push_back(TraceOp::Store(addr));
            }
        }
        self.refs_done += 1;

        // Barrier when crossing an interval boundary (same schedule on
        // every core, so epochs line up).
        if self.refs_done % self.barrier_interval == 0 && self.next_barrier < self.profile.barriers
        {
            let id = self.next_barrier;
            self.next_barrier += 1;
            self.pending.push_back(TraceOp::Barrier(id));
        }
    }

    fn push_rw(&mut self, addr: Addr, write_frac: f64) {
        if self.rng.chance(write_frac) {
            self.pending.push_back(TraceOp::Store(addr));
        } else {
            self.pending.push_back(TraceOp::Load(addr));
        }
    }
}

cmp_common::impl_persist!(Cursor {
    pos,
    run_left,
    partner_pos,
});

impl OpSource for TraceGen {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.pending.is_empty() {
            if self.refs_done >= self.refs_total {
                return None;
            }
            self.generate_slot();
        }
        self.pending.pop_front()
    }

    // The profile, cdf, core/cores and totals are configuration; only
    // the generator's position state travels through checkpoint bytes.
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        self.rng.save(w);
        w.u64(self.refs_done);
        w.u32(self.next_barrier);
        cmp_common::persist::save_state_slice(&self.cursors, w);
        self.pending.save(w);
        w.usize(self.current_struct);
        w.u64(self.struct_run_left);
    }

    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        self.rng = Persist::load(r)?;
        self.refs_done = r.u64()?;
        self.next_barrier = r.u32()?;
        cmp_common::persist::load_state_slice(&mut self.cursors, r)?;
        self.pending = Persist::load(r)?;
        self.current_struct = r.usize()?;
        if self.current_struct >= self.profile.structures.len() {
            return Err(r.err("current structure index out of range"));
        }
        self.struct_run_left = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Region, StructureSpec, PRIVATE_BASE, SHARED_BASE};

    fn simple_profile() -> AppProfile {
        AppProfile {
            name: "test",
            refs_per_core: 5_000,
            compute_per_ref: 4.0,
            locality_run: 32.0,
            barriers: 4,
            structures: vec![
                StructureSpec {
                    weight: 0.6,
                    region: Region::Private { lines: 512 },
                    pattern: Pattern::Strided {
                        stride: 1,
                        run_mean: 16.0,
                    },
                    write_frac: 0.3,
                },
                StructureSpec {
                    weight: 0.4,
                    region: Region::Shared {
                        offset_lines: 0,
                        lines: 4096,
                    },
                    pattern: Pattern::Random,
                    write_frac: 0.2,
                },
            ],
        }
    }

    fn drain(mut g: TraceGen) -> Vec<TraceOp> {
        let mut v = Vec::new();
        while let Some(op) = g.next_op() {
            v.push(op);
        }
        v
    }

    #[test]
    fn deterministic_per_seed_and_core() {
        let p = simple_profile();
        let a = drain(TraceGen::new(&p, 3, 16, 42, 0.01));
        let b = drain(TraceGen::new(&p, 3, 16, 42, 0.01));
        assert_eq!(a, b);
        let c = drain(TraceGen::new(&p, 4, 16, 42, 0.01));
        assert_ne!(a, c, "different cores see different streams");
    }

    #[test]
    fn reference_count_matches_scale() {
        let p = simple_profile();
        let ops = drain(TraceGen::new(&p, 0, 16, 1, 1.0));
        let refs = ops.iter().filter(|o| o.line().is_some()).count() as u64;
        assert_eq!(refs, 5_000);
    }

    #[test]
    fn barriers_have_matching_epochs_across_cores() {
        let p = simple_profile();
        let barriers = |core| {
            drain(TraceGen::new(&p, core, 16, 7, 0.2))
                .into_iter()
                .filter_map(|o| match o {
                    TraceOp::Barrier(id) => Some(id),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let b0 = barriers(0);
        let b5 = barriers(5);
        assert_eq!(b0, b5);
        assert_eq!(b0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn addresses_stay_in_their_regions() {
        let p = simple_profile();
        let ops = drain(TraceGen::new(&p, 2, 16, 9, 0.05));
        for op in ops {
            if let Some(line) = op.line() {
                let in_private = (PRIVATE_BASE + 2 * crate::profile::PRIVATE_STRIDE
                    ..PRIVATE_BASE + 2 * crate::profile::PRIVATE_STRIDE + 512)
                    .contains(&line);
                let in_shared = (SHARED_BASE..SHARED_BASE + 4096).contains(&line);
                assert!(in_private || in_shared, "stray address {line:#x}");
            }
        }
    }

    #[test]
    fn migratory_emits_read_modify_write_pairs() {
        let p = AppProfile {
            name: "mig",
            refs_per_core: 1_000,
            compute_per_ref: 0.0,
            locality_run: 32.0,
            barriers: 0,
            structures: vec![StructureSpec {
                weight: 1.0,
                region: Region::Shared {
                    offset_lines: 0,
                    lines: 64,
                },
                pattern: Pattern::Migratory { objects: 8 },
                write_frac: 1.0,
            }],
        };
        let ops = drain(TraceGen::new(&p, 0, 4, 3, 1.0));
        let mems: Vec<_> = ops.iter().filter(|o| o.line().is_some()).collect();
        for pair in mems.chunks(2) {
            match pair {
                [TraceOp::Load(a), TraceOp::Store(b)] => assert_eq!(a, b),
                other => panic!("expected load/store pair, got {other:?}"),
            }
        }
    }

    #[test]
    fn rotating_partner_reads_every_other_core_eventually() {
        let p = AppProfile {
            name: "fft",
            refs_per_core: 8_000,
            compute_per_ref: 0.0,
            locality_run: 32.0,
            barriers: 0,
            structures: vec![StructureSpec {
                weight: 1.0,
                region: Region::Partitioned {
                    offset_lines: 0,
                    lines_per_core: 128,
                },
                pattern: Pattern::RotatingPartner { phase_refs: 500 },
                write_frac: 0.3,
            }],
        };
        let ops = drain(TraceGen::new(&p, 0, 4, 11, 1.0));
        let mut partners_seen = std::collections::HashSet::new();
        for op in ops {
            if let TraceOp::Load(line) = op {
                let partition = ((line - SHARED_BASE) / 128) as usize;
                partners_seen.insert(partition);
            }
        }
        // core 0 of 4 should read partitions 1, 2 and 3 across phases
        assert!(partners_seen.contains(&1));
        assert!(partners_seen.contains(&2));
        assert!(partners_seen.contains(&3));
        assert!(!partners_seen.contains(&0), "reads target partners only");
    }

    #[test]
    fn compute_bursts_present_when_configured() {
        let p = simple_profile();
        let ops = drain(TraceGen::new(&p, 0, 16, 5, 0.01));
        let computes = ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Compute(_)))
            .count();
        assert!(computes > 500, "compute ops missing: {computes}");
    }
}
