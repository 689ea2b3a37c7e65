//! Property tests for the telemetry histogram (DESIGN.md §17):
//! merge associativity/commutativity and the central guarantee that
//! reported percentile bounds bracket the exact sorted-sample order
//! statistics, across adversarial distributions (constant, bimodal,
//! power-law). Splitmix-seeded and fully deterministic.

use ceal_runtime::prng::Prng;
use ceal_service::telemetry::{
    bucket_hi, bucket_index, bucket_lo, Histogram, HistogramSnapshot, NUM_BUCKETS, SUB_BUCKETS,
};

/// The quantiles the service exposes, as (num, den).
const QUANTILES: [(u64, u64); 3] = [(1, 2), (99, 100), (999, 1000)];

fn record_all(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

/// The exact order statistic the histogram's `quantile_bounds` rank
/// convention targets: `sorted[ceil(n * num / den) - 1]` (clamped).
fn exact_quantile(sorted: &[u64], num: u64, den: u64) -> u64 {
    let n = sorted.len() as u64;
    let rank = (n * num).div_ceil(den).clamp(1, n);
    sorted[(rank - 1) as usize]
}

fn assert_brackets(samples: &mut [u64], snap: &HistogramSnapshot, what: &str) {
    samples.sort_unstable();
    assert_eq!(snap.count, samples.len() as u64, "{what}: count");
    let sum: u64 = samples.iter().copied().fold(0u64, u64::wrapping_add);
    assert_eq!(snap.sum, sum, "{what}: sum");
    for (num, den) in QUANTILES {
        let exact = exact_quantile(samples, num, den);
        let (lo, hi) = snap.quantile_bounds(num, den).expect("non-empty");
        assert!(
            lo <= exact && exact <= hi,
            "{what}: q{num}/{den} exact {exact} outside [{lo}, {hi}]"
        );
        // The bound is also tight: never wider than one bucket.
        assert_eq!(
            bucket_lo(bucket_index(exact)),
            lo,
            "{what}: lo not exact's bucket"
        );
        assert_eq!(
            bucket_hi(bucket_index(exact)),
            hi,
            "{what}: hi not exact's bucket"
        );
    }
}

fn constant(rng: &mut Prng, n: usize) -> Vec<u64> {
    let v = rng.next_u64() >> rng.gen_range(0..60u32);
    vec![v; n]
}

fn bimodal(rng: &mut Prng, n: usize) -> Vec<u64> {
    // Two tight modes three orders of magnitude apart — the shape that
    // exposes rank-off-by-one bugs at p50 when the modes split 50/50.
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                90 + rng.gen_range(0..20u64)
            } else {
                100_000 + rng.gen_range(0..5_000u64)
            }
        })
        .collect()
}

fn power_law(rng: &mut Prng, n: usize) -> Vec<u64> {
    // Heavy tail: most samples tiny, a few enormous. Exercises the
    // high octaves and the p999 path.
    (0..n)
        .map(|_| {
            let shift = rng.gen_range(0..50u32);
            (rng.next_u64() >> shift).max(1)
        })
        .collect()
}

#[test]
fn percentile_bounds_bracket_exact_order_statistics() {
    let mut rng = Prng::seed_from_u64(0xCEA1_0B5E);
    for trial in 0..40 {
        let n = [1, 2, 3, 10, 101, 1000][trial % 6];
        for (name, gen) in [
            ("constant", constant as fn(&mut Prng, usize) -> Vec<u64>),
            ("bimodal", bimodal),
            ("power-law", power_law),
        ] {
            let mut samples = gen(&mut rng, n);
            let snap = record_all(&samples);
            assert_brackets(&mut samples, &snap, &format!("{name} n={n} trial={trial}"));
        }
    }
}

#[test]
fn merge_is_associative_and_commutative() {
    let mut rng = Prng::seed_from_u64(0x5EED_CAFE);
    for _ in 0..25 {
        let parts: Vec<HistogramSnapshot> = (0..3)
            .map(|i| {
                let n = rng.gen_range(0..200usize);
                let samples = match i {
                    0 => constant(&mut rng, n.max(1)),
                    1 => bimodal(&mut rng, n.max(1)),
                    _ => power_law(&mut rng, n.max(1)),
                };
                record_all(&samples)
            })
            .collect();
        let [a, b, c] = [&parts[0], &parts[1], &parts[2]];

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab_c = a.clone();
        ab_c.merge(b);
        ab_c.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associativity");

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(ab, ba, "commutativity");

        // identity
        let mut ae = a.clone();
        ae.merge(&HistogramSnapshot::empty());
        assert_eq!(&ae, a, "identity");
    }
}

#[test]
fn merged_shards_equal_single_histogram() {
    // The sharding-transparency property the service relies on: N
    // per-shard histograms merged at scrape time report exactly what
    // one global histogram would have.
    let mut rng = Prng::seed_from_u64(0x0DD5_EED5);
    let mut all: Vec<u64> = Vec::new();
    let mut merged = HistogramSnapshot::empty();
    for _ in 0..4 {
        let samples = power_law(&mut rng, 300);
        merged.merge(&record_all(&samples));
        all.extend_from_slice(&samples);
    }
    assert_eq!(merged, record_all(&all));
    assert_brackets(&mut all, &merged, "merged-shards");
}

#[test]
fn bucket_scheme_is_a_partition_of_u64() {
    // Every boundary value maps into a bucket whose [lo, hi] contains
    // it, buckets tile without gaps or overlap, and the relative width
    // bound holds everywhere.
    let mut prev_hi: Option<u64> = None;
    for i in 0..NUM_BUCKETS {
        let (lo, hi) = (bucket_lo(i), bucket_hi(i));
        assert!(lo <= hi, "bucket {i}");
        if let Some(p) = prev_hi {
            assert_eq!(lo, p + 1, "gap/overlap at bucket {i}");
        }
        assert_eq!(bucket_index(lo), i);
        assert_eq!(bucket_index(hi), i);
        if i >= SUB_BUCKETS as usize {
            // width / lo <= 1/SUB_BUCKETS (12.5%)
            assert!(
                (hi - lo + 1) <= lo / SUB_BUCKETS + 1,
                "relative width bound at bucket {i}: [{lo}, {hi}]"
            );
        }
        prev_hi = Some(hi);
    }
    assert_eq!(prev_hi, Some(u64::MAX));
}
