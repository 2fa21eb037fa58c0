//! Order statistics and process counters shared by every workload.

/// Linearly interpolated quantile (`0.0..=1.0`) of `values`; `0.0` when
/// empty. Sorts a copy, so callers can pass samples in arrival order.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Deterministic permutation of `0..n` drawn from `seed` (Fisher–Yates
/// over the workspace's `derive_seed` stream).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let draw = resilience_core::derive_seed(seed, i as u64);
        order.swap(i, (draw % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let mut p = permutation(27, 7);
        assert_eq!(p, permutation(27, 7));
        assert_ne!(p, permutation(27, 8));
        p.sort_unstable();
        assert_eq!(p, (0..27).collect::<Vec<_>>());
    }
}
