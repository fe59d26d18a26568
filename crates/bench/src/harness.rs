//! A minimal, dependency-free micro-benchmark harness.
//!
//! The original benches used criterion, whose registry download breaks
//! the offline tier-1 build. This harness keeps the useful 20%: warmup,
//! automatic iteration-count calibration against a per-sample time
//! budget, and median-of-samples reporting, all on `std::time::Instant`.
//! Results print as one aligned line per benchmark; `fssga-bench micro`
//! ([`crate::micro`]) is its one user.

use std::hint::black_box;
use std::time::Instant;

/// Times closures under one sample budget.
pub struct Harness {
    /// Per-sample time budget in nanoseconds (iteration count is chosen
    /// to fill it).
    sample_budget_ns: f64,
    /// Timed samples per benchmark.
    sample_count: u32,
}

impl Harness {
    /// A harness with the default budget (10 ms per sample, 15 samples),
    /// or the smoke-test budget (1 ms, 3 samples) if `smoke` is set —
    /// smoke runs measure nothing trustworthy but prove the bench runs.
    pub fn new(smoke: bool) -> Self {
        Self {
            sample_budget_ns: if smoke { 1e6 } else { 1e7 },
            sample_count: if smoke { 3 } else { 15 },
        }
    }

    /// Times `f` and prints its median and fastest per-iteration time
    /// under `name` (criterion-style: `group/name`). The closure's return
    /// value is passed through [`black_box`] so the work is not optimized
    /// away.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        // Warmup + calibration: run until 2 ms of wall time has elapsed
        // (at least once) to estimate the per-iteration cost.
        let mut warm_iters = 0u64;
        let start = Instant::now();
        loop {
            black_box(f());
            warm_iters += 1;
            if start.elapsed().as_nanos() as f64 >= 2e6 || warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = start.elapsed().as_nanos() as f64 / warm_iters as f64;
        let iters = ((self.sample_budget_ns / per_iter.max(1.0)) as u64).clamp(1, 10_000_000);

        let mut times: Vec<f64> = Vec::with_capacity(self.sample_count as usize);
        for _ in 0..self.sample_count {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            times.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        println!(
            "{name:<48} median {:>12}  min {:>12}",
            fmt_ns(times[times.len() / 2]),
            fmt_ns(times[0])
        );
    }
}

/// Human-readable duration from nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_warmup_and_every_sample() {
        let mut calls = 0u64;
        Harness::new(true).bench("smoke/add", || calls += 1);
        // At least one warmup call, then 3 samples of at least one call.
        assert!(calls >= 4, "{calls} calls");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
