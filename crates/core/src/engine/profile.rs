//! Coarse wall-clock attribution of the scheduler's per-iteration
//! phases.
//!
//! Profiling is a measurement mode, not an always-on counter: the
//! engine holds an `Option<Box<PhaseProfile>>` that is `None` unless
//! enabled via [`CmpSimulator::enable_profiling`] or the `TCMP_PROFILE`
//! environment gate, so the clean path pays one branch per phase.
//! When enabled, each scheduler phase is bracketed with
//! `Instant::now()` and its elapsed time lands in one bucket:
//!
//! * `mem_fills` — off-chip completions draining into the L2 slices
//!   (fill install + directory update + pump).
//! * `calendar` — delayed protocol sends due this cycle.
//! * `noc_tick` — router/link simulation inside the NoC.
//! * `l1_deliver` — delivered messages handled by an L1 (data replies,
//!   invalidations, forwards).
//! * `l2_deliver` — delivered messages handled by an L2 slice, which
//!   includes all directory work (requests, acks, writebacks).
//! * `cores` — draining the cores due from the wake-up wheel, then
//!   core stepping, including the L1 `core_access` path.
//! * `advance` — the next-interesting-cycle scan.
//!
//! The split is deliberately coarse — phase-level, not per-call — so
//! enabling it perturbs the run by percents, not multiples. The one
//! exception is the delivery loop, which is timed per message so L1
//! and L2 handler time can be told apart; that price is only paid in
//! profile mode.
//!
//! [`CmpSimulator::enable_profiling`]: super::CmpSimulator::enable_profiling

use std::time::Instant;

/// Accumulated per-phase wall time, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct PhaseProfile {
    /// Scheduler iterations observed.
    pub iterations: u64,
    /// Phase 1: memory completions → L2 fill + directory.
    pub mem_fills_ns: u64,
    /// Phase 2: delayed calendar events fired.
    pub calendar_ns: u64,
    /// Phase 3a: NoC router/link tick.
    pub noc_tick_ns: u64,
    /// Phase 3b: delivered messages handled by L1s.
    pub l1_deliver_ns: u64,
    /// Phase 3b: delivered messages handled by L2 slices (incl. all
    /// directory lookups/updates).
    pub l2_deliver_ns: u64,
    /// Phase 4: cores due now — the wake-up wheel's drain, the core
    /// model and L1 core_access.
    pub cores_ns: u64,
    /// Phase 5: the next-interesting-cycle scan.
    pub advance_ns: u64,
}

impl PhaseProfile {
    /// Total attributed nanoseconds across all buckets.
    pub fn total_ns(&self) -> u64 {
        self.mem_fills_ns
            + self.calendar_ns
            + self.noc_tick_ns
            + self.l1_deliver_ns
            + self.l2_deliver_ns
            + self.cores_ns
            + self.advance_ns
    }

    /// Human-readable table: one line per bucket with wall share,
    /// sorted hottest-first.
    pub fn report(&self) -> String {
        let total = self.total_ns().max(1);
        let mut rows = [
            ("l2+directory handlers", self.l2_deliver_ns),
            ("l1 handlers", self.l1_deliver_ns),
            ("cores (incl. l1 access)", self.cores_ns),
            ("noc tick", self.noc_tick_ns),
            ("mem fills (l2+dir)", self.mem_fills_ns),
            ("calendar events", self.calendar_ns),
            ("clock advance", self.advance_ns),
        ];
        rows.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        let mut out = format!(
            "phase profile: {} iterations, {:.3}s attributed\n",
            self.iterations,
            self.total_ns() as f64 / 1e9
        );
        for (name, ns) in rows {
            out.push_str(&format!(
                "  {name:<24} {:>5.1}%  {:>8.3}s\n",
                ns as f64 * 100.0 / total as f64,
                ns as f64 / 1e9
            ));
        }
        out
    }
}

/// A started phase timer; [`Mark::stop`] adds the elapsed time to a
/// bucket. `None` when profiling is off, so the disabled path is one
/// `is_some` branch.
#[derive(Clone, Copy)]
pub struct Mark(Option<Instant>);

impl Mark {
    /// Start a timer iff `enabled`.
    #[inline]
    pub fn start(enabled: bool) -> Mark {
        Mark(enabled.then(Instant::now))
    }

    /// Add elapsed nanoseconds to `bucket` (no-op when disabled).
    #[inline]
    pub fn stop(self, bucket: &mut u64) {
        if let Some(t0) = self.0 {
            *bucket += t0.elapsed().as_nanos() as u64;
        }
    }
}

/// Parse a `TCMP_PROFILE` value: unset/empty/`0` off, `1` on.
/// Anything else is malformed — the caller warns once and enables
/// profiling (the conservative reading, matching `TCMP_SANITIZE`).
pub(crate) fn parse_profile(v: &str) -> Result<bool, String> {
    match v.trim() {
        "" | "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!(
            "TCMP_PROFILE={other:?} is not a recognised value; accepted: 0/unset/empty (off) \
             or 1 (on); treating it as 1"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_orders_buckets_hottest_first_and_sums_shares() {
        let p = PhaseProfile {
            iterations: 10,
            mem_fills_ns: 100,
            calendar_ns: 50,
            noc_tick_ns: 400,
            l1_deliver_ns: 200,
            l2_deliver_ns: 150,
            cores_ns: 80,
            advance_ns: 20,
        };
        assert_eq!(p.total_ns(), 1000);
        let r = p.report();
        let noc = r.find("noc tick").expect("noc row present");
        let l1 = r.find("l1 handlers").expect("l1 row present");
        let adv = r.find("clock advance").expect("advance row present");
        assert!(noc < l1 && l1 < adv, "rows sorted hottest-first:\n{r}");
        assert!(r.contains("40.0%"), "noc share rendered:\n{r}");
    }

    #[test]
    fn mark_accumulates_only_when_enabled() {
        let mut bucket = 0u64;
        Mark::start(false).stop(&mut bucket);
        assert_eq!(bucket, 0);
        Mark::start(true).stop(&mut bucket);
        // Non-deterministic but strictly positive on any real clock is
        // not guaranteed (coarse clocks may report 0); just check it
        // did not underflow/panic and the enabled path ran.
    }

    #[test]
    fn profile_env_values_parse_like_sanitize() {
        assert_eq!(parse_profile(""), Ok(false));
        assert_eq!(parse_profile("0"), Ok(false));
        assert_eq!(parse_profile("1"), Ok(true));
        assert!(parse_profile("yes").is_err());
    }
}
