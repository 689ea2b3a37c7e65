//! Minimal self-timing micro-benchmark support (hermetic replacement
//! for the external criterion harness).
//!
//! [`bench_with_budget`] warms up briefly, then repeats the closure
//! until a time budget is spent and reports the *median* of per-batch
//! averages — robust to scheduler noise. `tables bench` times each of
//! its cases this way (it writes `BENCH_runtime.json`).

use std::time::Instant;

/// One measured result in seconds per iteration.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark case name.
    pub name: String,
    /// Median seconds per iteration.
    pub secs_per_iter: f64,
    /// Total iterations executed during measurement.
    pub iters: u64,
}

/// Times `f` and prints a `name  ...  time/iter` line; returns the
/// sample. `budget_ms` bounds measurement time (after a short warm-up).
pub fn bench_with_budget(name: &str, budget_ms: u64, mut f: impl FnMut()) -> Sample {
    // Warm-up: at least one run, up to ~budget/5.
    let warm = Instant::now();
    loop {
        f();
        if warm.elapsed().as_millis() as u64 >= budget_ms / 5 {
            break;
        }
    }
    // Calibrate a batch size aiming at ~10 batches in the budget.
    let t0 = Instant::now();
    f();
    let per = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = ((budget_ms as f64 / 1e3 / 10.0 / per).ceil() as u64).clamp(1, 1_000_000);

    let mut batch_means = Vec::new();
    let mut iters = 0u64;
    let start = Instant::now();
    while (start.elapsed().as_millis() as u64) < budget_ms || batch_means.is_empty() {
        let b0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        batch_means.push(b0.elapsed().as_secs_f64() / batch as f64);
        iters += batch;
    }
    batch_means.sort_by(|a, b| a.total_cmp(b));
    let median = batch_means[batch_means.len() / 2];
    println!(
        "{name:<40} {:>12}/iter   ({iters} iters)",
        crate::fmt_secs(median)
    );
    Sample {
        name: name.to_string(),
        secs_per_iter: median,
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut x = 0u64;
        let s = bench_with_budget("spin", 30, || {
            for i in 0..100 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
        });
        assert!(s.secs_per_iter > 0.0);
        assert!(s.iters > 0);
    }
}
