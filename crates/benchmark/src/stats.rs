//! Order statistics, summaries and the per-update cost-model fit.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `p = 99` over 2,000
/// samples leaves 20 samples beyond the reported value.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `v` ascending (NaN-free input assumed).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean of positive values; 0 when empty or when any value is
/// not positive (a zero time means the measurement did not happen).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First and third quartiles as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them. Needs two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    if s.len() < 2 {
        return None;
    }
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Non-negative least squares `min ‖Xb − y‖², b ≥ 0`, by cyclic
/// coordinate descent on the normal equations. Columns are scaled to
/// unit norm first so one sweep moves every coordinate comparably; an
/// all-zero column gets coefficient 0.
pub fn nnls<const K: usize>(samples: &[([f64; K], f64)], sweeps: usize) -> [f64; K] {
    let mut a = [[0.0f64; K]; K];
    let mut c = [0.0f64; K];
    for (x, y) in samples {
        for j in 0..K {
            c[j] += x[j] * y;
            for k in 0..K {
                a[j][k] += x[j] * x[k];
            }
        }
    }
    let scale: Vec<f64> = (0..K).map(|j| a[j][j].sqrt()).collect();
    let mut b = [0.0f64; K];
    for _ in 0..sweeps {
        for j in 0..K {
            if scale[j] == 0.0 {
                continue;
            }
            let mut r = c[j] / scale[j];
            for k in 0..K {
                if k != j && scale[k] != 0.0 {
                    r -= a[j][k] / (scale[j] * scale[k]) * b[k];
                }
            }
            b[j] = r.max(0.0);
        }
    }
    let mut coef = [0.0f64; K];
    for j in 0..K {
        if scale[j] != 0.0 {
            coef[j] = b[j] / scale[j];
        }
    }
    coef
}

/// Σ|y − ŷ| / Σy for a fitted linear model: the share of the measured
/// time the model attributes to the wrong samples.
pub fn residual_share<const K: usize>(samples: &[([f64; K], f64)], coef: &[f64; K]) -> f64 {
    let (mut abs_err, mut total) = (0.0, 0.0);
    for (x, y) in samples {
        let fit: f64 = x.iter().zip(coef).map(|(a, b)| a * b).sum();
        abs_err += (y - fit).abs();
        total += y;
    }
    if total > 0.0 {
        abs_err / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn nnls_recovers_nonnegative_costs() {
        // y = 5 + 2·x1 + 0·x2, with x2 correlated noise-free.
        let samples: Vec<([f64; 3], f64)> = (0..50)
            .map(|i| {
                let x1 = f64::from(i % 7);
                let x2 = f64::from(i % 5);
                ([1.0, x1, x2], 5.0 + 2.0 * x1)
            })
            .collect();
        let b = nnls(&samples, 500);
        assert!((b[0] - 5.0).abs() < 1e-6, "{b:?}");
        assert!((b[1] - 2.0).abs() < 1e-6, "{b:?}");
        assert!(b[2].abs() < 1e-6, "{b:?}");
        assert!(residual_share(&samples, &b) < 1e-6);
        // A negative true cost is clamped to zero, never reported.
        let neg: Vec<([f64; 2], f64)> = (0..20)
            .map(|i| ([1.0, f64::from(i)], 100.0 - f64::from(i)))
            .collect();
        let b = nnls(&neg, 200);
        assert!(b.iter().all(|&x| x >= 0.0), "{b:?}");
    }
}
