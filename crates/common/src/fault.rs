//! Deterministic fault injection.
//!
//! A [`FaultInjector`] makes one seeded decision per network-interface
//! event, so a fault campaign is exactly reproducible from its
//! configuration: the same seed, rates and window always perturb the
//! same messages. The injector is carried as an `Option` by the
//! components that consult it — when absent (the default), the hot path
//! pays a single branch and the simulated behaviour is bit-identical to
//! a build without the subsystem.
//!
//! Faults model the failure classes the robustness layer must survive:
//!
//! * **Drop / Duplicate / Delay** — message-level perturbations applied
//!   where a message enters the NoC. A dropped coherence message wedges
//!   the protocol; the simulator must convert that into a structured
//!   deadlock report, never a hang or a panic.
//! * **Corrupt** — flips bits of the carried line address, modelling a
//!   soft error in an NI buffer. The receiving controller must reject
//!   the impossible message with a [`ProtocolError`]-style finding.
//! * **Desync** — silently corrupts the *receiver* half of an address
//!   codec pair (DBRC register file / Stride base), modelling the
//!   compression-metadata corruption failure mode. The NI must detect
//!   the divergence via its sequence/checksum tag and fall back to
//!   uncompressed transmission while the pair resynchronises.

use crate::rng::SimRng;
use crate::stats::Counter;
use crate::types::Cycle;

/// What to do to one message at the network interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver untouched.
    None,
    /// Silently discard the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Hold the message for this many extra cycles before injection.
    Delay(u64),
    /// XOR this mask into the carried line address.
    Corrupt(u64),
    /// Corrupt the receiver-side codec state for this message's
    /// (destination, stream) pair.
    Desync,
}

/// Where in the machine a fault decision is being made.
///
/// The injector keeps one global decision stream regardless of path, so
/// adding a consultation site changes which messages fault but never
/// breaks seed-reproducibility: the same seed still yields the same
/// decision sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPath {
    /// A message entering the NoC at a tile's network interface.
    NiSend,
    /// A completed off-chip read leaving the memory controller — the
    /// reply plumbing back into the home L2 slice.
    MemReply,
}

/// Per-class fault rates and scheduling. All-zero rates mean "off".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injector's private decision stream.
    pub seed: u64,
    /// Probability a message is dropped.
    pub drop: f64,
    /// Probability a message is duplicated.
    pub duplicate: f64,
    /// Probability a message is delayed.
    pub delay: f64,
    /// Maximum extra delay in cycles (uniform in `[1, max]`).
    pub delay_cycles: u64,
    /// Probability a message's line address is bit-corrupted.
    pub corrupt: f64,
    /// Probability a message desynchronises its codec pair.
    pub desync: f64,
    /// Restrict injection to `[start, end)` cycles (`None` = whole run).
    pub window: Option<(Cycle, Cycle)>,
    /// Stop injecting after this many faults (`None` = unlimited).
    pub max_faults: Option<u64>,
}

impl FaultConfig {
    /// No faults (the default).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// A campaign injecting only codec desyncs — the recoverable class.
    pub fn desync_only(seed: u64, rate: f64, max_faults: u64) -> Self {
        FaultConfig {
            seed,
            desync: rate,
            max_faults: Some(max_faults),
            ..FaultConfig::default()
        }
    }

    /// True when any fault class has a non-zero rate.
    pub fn enabled(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.delay > 0.0
            || self.corrupt > 0.0
            || self.desync > 0.0
    }
}

/// How many faults of each class were actually injected.
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    pub drops: Counter,
    pub duplicates: Counter,
    pub delays: Counter,
    pub corruptions: Counter,
    pub desyncs: Counter,
    /// Faults (of any class above) that landed on the memory-controller
    /// reply path rather than an NI send. A breakdown, not a class of
    /// its own — every such fault is also counted in its class counter
    /// and therefore excluded from [`FaultStats::total`].
    pub mem_replies: Counter,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.drops.get()
            + self.duplicates.get()
            + self.delays.get()
            + self.corruptions.get()
            + self.desyncs.get()
    }
}

/// The seeded decision-maker. One lives per simulator; every message
/// injection consults it once, in deterministic order.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: SimRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build an injector from a campaign configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = SimRng::new(cfg.seed ^ 0xFA01_7BAD_5EED_C0DE);
        FaultInjector {
            cfg,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// The configuration this injector was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Faults injected so far, by class.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    fn armed(&self, now: Cycle) -> bool {
        if let Some(max) = self.cfg.max_faults {
            if self.stats.total() >= max {
                return false;
            }
        }
        match self.cfg.window {
            Some((start, end)) => now >= start && now < end,
            None => true,
        }
    }

    /// Decide the fate of one message entering the network at `now`
    /// (equivalent to [`FaultInjector::decide_on`] with
    /// [`FaultPath::NiSend`]).
    pub fn decide(&mut self, now: Cycle) -> FaultAction {
        self.decide_on(FaultPath::NiSend, now)
    }

    /// Decide the fate of one message on `path` at `now`.
    ///
    /// The classes are rolled in a fixed order (drop, duplicate, delay,
    /// corrupt, desync) and the first hit wins, so per-message RNG
    /// consumption is identical regardless of outcome — a prerequisite
    /// for reproducing a campaign from its seed. A desync rolled on the
    /// memory-reply path degrades to [`FaultAction::None`] (and is not
    /// counted): no address codec sits between the memory controller
    /// and the home slice, so there is no pair state to desynchronise.
    pub fn decide_on(&mut self, path: FaultPath, now: Cycle) -> FaultAction {
        // Always burn the same number of draws per call.
        let rolls = [
            self.rng.f64(),
            self.rng.f64(),
            self.rng.f64(),
            self.rng.f64(),
            self.rng.f64(),
        ];
        let aux = self.rng.next_u64();
        if !self.armed(now) {
            return FaultAction::None;
        }
        let action = if rolls[0] < self.cfg.drop {
            self.stats.drops.inc();
            FaultAction::Drop
        } else if rolls[1] < self.cfg.duplicate {
            self.stats.duplicates.inc();
            FaultAction::Duplicate
        } else if rolls[2] < self.cfg.delay {
            self.stats.delays.inc();
            let max = self.cfg.delay_cycles.max(1);
            FaultAction::Delay(1 + aux % max)
        } else if rolls[3] < self.cfg.corrupt {
            self.stats.corruptions.inc();
            // Flip one low address bit: low bits select the home tile, so
            // the corrupted message arrives at a controller that can prove
            // it impossible (wrong-home check) instead of silently reading
            // the wrong line.
            FaultAction::Corrupt(1 << (aux % 4))
        } else if rolls[4] < self.cfg.desync {
            if path == FaultPath::MemReply {
                return FaultAction::None;
            }
            self.stats.desyncs.inc();
            FaultAction::Desync
        } else {
            FaultAction::None
        };
        if path == FaultPath::MemReply && action != FaultAction::None {
            self.stats.mem_replies.inc();
        }
        action
    }
}

crate::impl_persist!(FaultStats {
    drops,
    duplicates,
    delays,
    corruptions,
    desyncs,
    mem_replies,
});
crate::json_record!(FaultStats {
    drops,
    duplicates,
    delays,
    corruptions,
    desyncs,
    mem_replies,
});

/// The configuration is immutable (the warm key covers it); only the
/// decision stream and counters travel through checkpoint bytes.
impl crate::persist::PersistState for FaultInjector {
    fn save_state(&self, w: &mut crate::persist::ByteWriter) {
        crate::persist::Persist::save(&self.rng, w);
        crate::persist::Persist::save(&self.stats, w);
    }
    fn load_state(
        &mut self,
        r: &mut crate::persist::ByteReader,
    ) -> Result<(), crate::persist::PersistError> {
        self.rng = crate::persist::Persist::load(r)?;
        self.stats = crate::persist::Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_never_faults() {
        let mut inj = FaultInjector::new(FaultConfig::none());
        for now in 0..10_000 {
            assert_eq!(inj.decide(now), FaultAction::None);
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn decisions_are_reproducible_from_the_seed() {
        let cfg = FaultConfig {
            seed: 77,
            drop: 0.01,
            duplicate: 0.01,
            delay: 0.02,
            delay_cycles: 16,
            corrupt: 0.01,
            desync: 0.05,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(cfg.clone());
        let mut b = FaultInjector::new(cfg);
        for now in 0..5_000 {
            assert_eq!(a.decide(now), b.decide(now));
        }
        assert!(a.stats().total() > 0, "rates this high must fire");
    }

    #[test]
    fn window_gates_injection() {
        let cfg = FaultConfig {
            seed: 3,
            drop: 1.0,
            window: Some((100, 200)),
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg);
        assert_eq!(inj.decide(50), FaultAction::None);
        assert_eq!(inj.decide(150), FaultAction::Drop);
        assert_eq!(inj.decide(250), FaultAction::None);
        assert_eq!(inj.stats().drops.get(), 1);
    }

    #[test]
    fn max_faults_caps_the_campaign() {
        let cfg = FaultConfig {
            seed: 9,
            desync: 1.0,
            max_faults: Some(3),
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg);
        let fired = (0..100)
            .filter(|&n| inj.decide(n) != FaultAction::None)
            .count();
        assert_eq!(fired, 3);
        assert_eq!(inj.stats().desyncs.get(), 3);
    }

    #[test]
    fn outcome_does_not_skew_later_decisions() {
        // Two injectors with different window settings must agree on all
        // decisions outside the differing region: per-call RNG use is
        // constant.
        let base = FaultConfig {
            seed: 21,
            drop: 0.5,
            ..FaultConfig::default()
        };
        let gated = FaultConfig {
            window: Some((500, 1_000)),
            ..base.clone()
        };
        let mut a = FaultInjector::new(base);
        let mut b = FaultInjector::new(gated);
        let mut in_window_disagreements = 0;
        for now in 0..1_000 {
            let da = a.decide(now);
            let db = b.decide(now);
            if now < 500 {
                // window closed for b: it must skip the fault but burn
                // the same draws
                assert_eq!(db, FaultAction::None);
            } else if da != db {
                in_window_disagreements += 1;
            }
        }
        assert_eq!(in_window_disagreements, 0, "same draws, both armed");
        assert!(b.stats().drops.get() > 0, "b fires inside its window");
    }

    #[test]
    fn mem_reply_path_shares_the_decision_stream() {
        let cfg = FaultConfig {
            seed: 77,
            drop: 0.01,
            duplicate: 0.01,
            delay: 0.02,
            delay_cycles: 16,
            corrupt: 0.01,
            desync: 0.05,
            ..FaultConfig::default()
        };
        // Apart from desync degradation, the path never changes which
        // action a given draw yields.
        let mut ni = FaultInjector::new(cfg.clone());
        let mut mem = FaultInjector::new(cfg);
        for now in 0..5_000 {
            let a = ni.decide_on(FaultPath::NiSend, now);
            let b = mem.decide_on(FaultPath::MemReply, now);
            match a {
                FaultAction::Desync => assert_eq!(b, FaultAction::None),
                other => assert_eq!(b, other),
            }
        }
        assert!(mem.stats().mem_replies.get() > 0, "rates this high fire");
        assert_eq!(mem.stats().desyncs.get(), 0, "no codec on the mem path");
        // The breakdown counter is a subset of the class counters.
        let s = mem.stats();
        assert_eq!(
            s.mem_replies.get(),
            s.total(),
            "every fault this run was a mem-reply fault"
        );
    }

    #[test]
    fn corrupt_masks_stay_in_home_selecting_bits() {
        let cfg = FaultConfig {
            seed: 4,
            corrupt: 1.0,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg);
        for now in 0..200 {
            match inj.decide(now) {
                FaultAction::Corrupt(mask) => {
                    assert!(mask.is_power_of_two() && mask <= 8, "mask {mask:#x}")
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }
}
