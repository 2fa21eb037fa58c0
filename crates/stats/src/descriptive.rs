//! Descriptive statistics and histograms.

use serde::{Deserialize, Serialize};

/// A five-number-plus summary of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty sample.
    pub fn of(data: &[f64]) -> Option<Summary> {
        if data.is_empty() {
            return None;
        }
        let n = data.len();
        let mean = data.iter().sum::<f64>() / n as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: data.iter().copied().fold(f64::INFINITY, f64::min),
            median: quantile(data, 0.5),
            max: data.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

/// The `q`-quantile (linear interpolation between order statistics).
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Equal-width histogram over `[min, max]` with `bins` bins; returns
/// `(bin_left_edges, counts)`. Values outside the range are clamped into
/// the end bins.
///
/// # Panics
///
/// Panics if `bins == 0` or `max <= min`.
pub fn histogram(data: &[f64], min: f64, max: f64, bins: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(bins > 0, "need at least one bin");
    assert!(max > min, "max must exceed min");
    let width = (max - min) / bins as f64;
    let mut counts = vec![0usize; bins];
    for &x in data {
        let idx = (((x - min) / width).floor() as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1;
    }
    let edges = (0..bins).map(|i| min + i as f64 * width).collect();
    (edges, counts)
}

/// Logarithmically-binned histogram for positive data — the right way to
/// view power-law avalanche/loss distributions. Returns
/// `(bin_geometric_centers, counts)` for `bins` bins spanning
/// `[min_positive, max]` of the data. Non-positive values are skipped.
/// Returns empty vectors if no positive data.
pub fn log_histogram(data: &[f64], bins: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(bins > 0, "need at least one bin");
    let pos: Vec<f64> = data.iter().copied().filter(|&x| x > 0.0).collect();
    if pos.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let lo = pos.iter().copied().fold(f64::INFINITY, f64::min).ln();
    let hi = pos.iter().copied().fold(f64::NEG_INFINITY, f64::max).ln();
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let width = span / bins as f64;
    let mut counts = vec![0usize; bins];
    for &x in &pos {
        let idx = ((((x.ln() - lo) / width).floor()) as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1;
    }
    let centers = (0..bins)
        .map(|i| (lo + (i as f64 + 0.5) * width).exp())
        .collect();
    (centers, counts)
}

/// Kendall rank-correlation coefficient τ between `xs` and `ys`
/// (τ_a variant: ties contribute zero). `NaN` if fewer than 2 points.
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return f64::NAN;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let prod = (xs[j] - xs[i]) * (ys[j] - ys[i]);
            // Note: an explicit comparison, not `signum()` — the latter
            // maps +0.0 to 1.0, which would count ties as concordant.
            if prod > 0.0 {
                concordant += 1;
            } else if prod < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quantile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&data, 0.0), 10.0);
        assert_eq!(quantile(&data, 1.0), 40.0);
        assert!((quantile(&data, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    fn histogram_counts() {
        let data = [0.1, 0.9, 1.5, 2.5, 2.9, 5.0, -1.0];
        let (edges, counts) = histogram(&data, 0.0, 3.0, 3);
        assert_eq!(edges, vec![0.0, 1.0, 2.0]);
        // -1.0 clamps into bin 0, 5.0 clamps into bin 2.
        assert_eq!(counts, vec![3, 1, 3]);
        assert_eq!(counts.iter().sum::<usize>(), data.len());
    }

    #[test]
    fn log_histogram_skips_nonpositive() {
        let data = [1.0, 10.0, 100.0, 0.0, -5.0];
        let (centers, counts) = log_histogram(&data, 3);
        assert_eq!(counts.iter().sum::<usize>(), 3);
        assert_eq!(centers.len(), 3);
        // Centers must be geometrically spaced and increasing.
        assert!(centers[0] < centers[1] && centers[1] < centers[2]);
    }

    #[test]
    fn log_histogram_empty_positive() {
        let (c, k) = log_histogram(&[-1.0, 0.0], 4);
        assert!(c.is_empty() && k.is_empty());
    }

    #[test]
    fn kendall_tau_extremes() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let up = xs.clone();
        let down: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((kendall_tau(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&xs, &down) + 1.0).abs() < 1e-12);
        assert!(kendall_tau(&[1.0], &[1.0]).is_nan());
    }

    #[test]
    fn kendall_tau_of_noise_is_small() {
        use rand::Rng;
        let mut rng = resilience_core::seeded_rng(41);
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..200).map(|_| rng.gen::<f64>()).collect();
        assert!(kendall_tau(&xs, &ys).abs() < 0.15);
    }

    #[test]
    fn kendall_tau_ties_contribute_zero() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 6.0];
        // Pairs: (1,2): tie in y → 0; (1,3): concordant; (2,3): concordant.
        assert!((kendall_tau(&xs, &ys) - 2.0 / 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_histogram_conserves_mass(data in proptest::collection::vec(-10.0f64..10.0, 1..200)) {
            let (_, counts) = histogram(&data, -10.0, 10.0, 7);
            prop_assert_eq!(counts.iter().sum::<usize>(), data.len());
        }

        #[test]
        fn prop_quantile_monotone(data in proptest::collection::vec(-100.0f64..100.0, 2..100)) {
            let q25 = quantile(&data, 0.25);
            let q50 = quantile(&data, 0.5);
            let q75 = quantile(&data, 0.75);
            prop_assert!(q25 <= q50 && q50 <= q75);
        }
    }
}
