//! Lightweight statistics primitives shared by every subsystem.
//!
//! Simulators live and die by their counters: these types are cheap to
//! update in the hot loop (a few integer ops) and know how to summarise
//! themselves for the experiment reports.

use std::fmt;

/// A monotonically increasing event counter.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `total` (0.0 when `total` is zero).
    pub fn fraction_of(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming mean / variance / min / max (Welford's algorithm).
#[derive(Clone, Copy, Default, Debug)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A power-of-two bucketed histogram for latency-like quantities.
///
/// Bucket `i` counts observations in `[2^i, 2^(i+1))`, except bucket 0
/// which also holds zero. 32 buckets cover any plausible cycle count.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 32],
    stats: OnlineStats,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 32],
            stats: OnlineStats::new(),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()).min(31) as usize;
        self.buckets[bucket] += 1;
        self.stats.push(value as f64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.stats.max().unwrap_or(0.0) as u64
    }

    /// Approximate p-quantile from the bucket boundaries (upper bound of
    /// the bucket containing the quantile). Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        u64::MAX
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.stats.merge(&other.stats);
    }

    /// Non-empty `(bucket_lower_bound, count)` pairs for reporting.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// A ratio reported as `hits / (hits + misses)` — the shape of every
/// coverage and hit-rate number in the paper.
#[derive(Clone, Copy, Default, Debug)]
pub struct HitRate {
    pub hits: u64,
    pub misses: u64,
}

impl HitRate {
    /// Record a hit or a miss.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]` (0.0 when no accesses).
    pub fn rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &HitRate) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

crate::impl_persist!(HitRate { hits, misses });

impl crate::persist::Persist for Counter {
    fn save(&self, w: &mut crate::persist::ByteWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut crate::persist::ByteReader) -> Result<Self, crate::persist::PersistError> {
        Ok(Counter(r.u64()?))
    }
}

crate::json_as!(Counter as u64, |c| c.0, |v| Ok(Counter(v)));

impl crate::persist::Persist for OnlineStats {
    fn save(&self, w: &mut crate::persist::ByteWriter) {
        w.u64(self.n);
        w.f64(self.mean);
        w.f64(self.m2);
        w.f64(self.min);
        w.f64(self.max);
    }
    fn load(r: &mut crate::persist::ByteReader) -> Result<Self, crate::persist::PersistError> {
        Ok(OnlineStats {
            n: r.u64()?,
            mean: r.f64()?,
            m2: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
        })
    }
}

impl crate::persist::Persist for Histogram {
    fn save(&self, w: &mut crate::persist::ByteWriter) {
        self.buckets.save(w);
        self.stats.save(w);
    }
    fn load(r: &mut crate::persist::ByteReader) -> Result<Self, crate::persist::PersistError> {
        Ok(Histogram {
            buckets: crate::persist::Persist::load(r)?,
            stats: crate::persist::Persist::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert!((c.fraction_of(40) - 0.25).abs() < 1e-12);
        assert_eq!(c.fraction_of(0), 0.0);
    }

    #[test]
    fn online_stats_mean_and_variance() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..40].iter().for_each(|&x| left.push(x));
        xs[40..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 8, 16, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile(0.5) <= 8);
        assert!(h.quantile(1.0) >= 1000 / 2);
        let buckets = h.nonzero_buckets();
        assert!(!buckets.is_empty());
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 8);
    }

    #[test]
    fn hit_rate() {
        let mut r = HitRate::default();
        for i in 0..10 {
            r.record(i % 4 != 0);
        }
        assert_eq!(r.total(), 10);
        assert!((r.rate() - 0.7).abs() < 1e-12);
    }
}
