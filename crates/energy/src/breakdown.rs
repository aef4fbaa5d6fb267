//! The chip-level energy breakdown and the ED²P metrics.

use cmp_common::units::Joules;

/// Energy-Delay² Product: the evaluation's headline metric. `delay` is in
/// seconds.
pub fn ed2p(energy: Joules, delay_s: f64) -> f64 {
    energy.value() * delay_s * delay_s
}

/// Energy-Delay Product (reported alongside ED²P in the companion
/// characterisation paper \[10\]).
pub fn edp(energy: Joules, delay_s: f64) -> f64 {
    energy.value() * delay_s
}

/// Where the joules went during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core pipelines + caches, dynamic.
    pub core_dynamic: Joules,
    /// Core + cache leakage over the runtime.
    pub core_static: Joules,
    /// Interconnect links, dynamic.
    pub link_dynamic: Joules,
    /// Interconnect links + router wire leakage over the runtime.
    pub link_static: Joules,
    /// Router buffers/crossbars/arbiters, dynamic.
    pub router_dynamic: Joules,
    /// Address-compression structures, dynamic (per access).
    pub compression_dynamic: Joules,
    /// Address-compression structures, leakage over the runtime.
    pub compression_static: Joules,
}

cmp_common::json_record!(EnergyBreakdown {
    core_dynamic,
    core_static,
    link_dynamic,
    link_static,
    router_dynamic,
    compression_dynamic,
    compression_static,
});

impl EnergyBreakdown {
    /// Energy attributed to the interconnect links — the numerator of
    /// Figure 6 (bottom). Router energy is counted with the interconnect,
    /// as Orion does. The compression hardware is *not* charged here —
    /// the paper accounts for it at chip level only, which is why large
    /// DBRC caches still look fine in Figure 6 but lose in Figure 7.
    pub fn interconnect(&self) -> Joules {
        self.link_dynamic + self.link_static + self.router_dynamic
    }

    /// Compression-structure energy (charged at chip level).
    pub fn compression(&self) -> Joules {
        self.compression_dynamic + self.compression_static
    }

    /// Whole-chip energy — the numerator of Figure 7.
    pub fn chip(&self) -> Joules {
        self.core_dynamic + self.core_static + self.interconnect() + self.compression()
    }

    /// Link-level ED²P (Figure 6 bottom).
    pub fn interconnect_ed2p(&self, delay_s: f64) -> f64 {
        ed2p(self.interconnect(), delay_s)
    }

    /// Full-CMP ED²P (Figure 7).
    pub fn chip_ed2p(&self, delay_s: f64) -> f64 {
        ed2p(self.chip(), delay_s)
    }

    /// Link-level EDP.
    pub fn interconnect_edp(&self, delay_s: f64) -> f64 {
        edp(self.interconnect(), delay_s)
    }

    /// Percentage share of each component of the chip energy, in the
    /// order (cores dyn, cores static, links dyn, links static, routers,
    /// compression).
    pub fn shares(&self) -> [f64; 6] {
        let total = self.chip().value().max(f64::MIN_POSITIVE);
        [
            self.core_dynamic.value() / total,
            self.core_static.value() / total,
            self.link_dynamic.value() / total,
            self.link_static.value() / total,
            self.router_dynamic.value() / total,
            self.compression().value() / total,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EnergyBreakdown {
        EnergyBreakdown {
            core_dynamic: Joules(10.0),
            core_static: Joules(5.0),
            link_dynamic: Joules(2.0),
            link_static: Joules(1.0),
            router_dynamic: Joules(0.5),
            compression_dynamic: Joules(0.2),
            compression_static: Joules(0.3),
        }
    }

    #[test]
    fn totals_add_up() {
        let b = sample();
        assert!((b.interconnect().value() - 3.5).abs() < 1e-12);
        assert!((b.compression().value() - 0.5).abs() < 1e-12);
        assert!((b.chip().value() - 19.0).abs() < 1e-12);
    }

    #[test]
    fn ed2p_quadratic_in_delay() {
        let b = sample();
        let base = b.chip_ed2p(1.0);
        assert!((b.chip_ed2p(2.0) / base - 4.0).abs() < 1e-9);
        // a 10% speedup at equal energy cuts ED2P by ~19%
        let faster = b.chip_ed2p(0.9) / base;
        assert!((faster - 0.81).abs() < 1e-9);
    }

    #[test]
    fn ed2p_function_matches_definition() {
        assert_eq!(ed2p(Joules(3.0), 2.0), 12.0);
        assert_eq!(edp(Joules(3.0), 2.0), 6.0);
    }

    #[test]
    fn shares_sum_to_one() {
        let s = sample().shares();
        let total: f64 = s.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|&x| x >= 0.0));
    }
}
