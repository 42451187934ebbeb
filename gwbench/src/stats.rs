//! Order statistics over measured samples.

/// Median of `values` (mean of the two middle values for an even count);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the smallest `share` of `values` (the `ceil(share * n)`
/// smallest, at least one); NaN for an empty slice.
pub fn mean_of_bottom(values: &[f64], share: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    mean_of_first(&v, share)
}

/// Mean of the largest `share` of `values` (the `ceil(share * n)`
/// largest, at least one); NaN for an empty slice.
pub fn mean_of_top(values: &[f64], share: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    mean_of_first(&v, share)
}

fn mean_of_first(sorted: &[f64], share: f64) -> f64 {
    let k = ((share * sorted.len() as f64).ceil() as usize)
        .max(1)
        .min(sorted.len());
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// The `q`-quantile (0..=1) of `values`, interpolated between ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => {
            let x = q * (n - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        }
    }
}

/// The `q`-quantile (0..=1) of an ascending slice, nearest rank.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of a fixed set of percentiles that leaves at least ten
/// samples beyond it, for `n` samples (50 when even that is not met).
pub fn tail_percentile(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean_of_bottom(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.25), 1.5);
        assert_eq!(mean_of_top(&[5.0, 1.0, 3.0, 2.0], 0.25), 5.0);
        assert_eq!(mean_of_top(&[5.0, 1.0, 3.0, 2.0], 0.1), 5.0);
        assert!(mean_of_bottom(&[], 0.1).is_nan());
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50.0);
        assert_eq!(quantile_sorted(&s, 0.99), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(100_000), 99.99);
    }
}
