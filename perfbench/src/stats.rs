//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_TAIL`] samples lie beyond it, so a
//! "p99" always rests on a real tail rather than on the single slowest
//! sample. Latency percentiles are taken per window of consecutive
//! samples and the median over windows is reported, so one burst of
//! interference on a shared host moves one window, not the result.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank index of quantile `q` (0 < q < 1) in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Quantile `q` of `sorted` (ascending) by nearest rank, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it. Missed requests are
/// carried as `f64::INFINITY`, so they count against every percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank(sorted.len(), q);
    (sorted.len() - 1 - i >= MIN_TAIL).then(|| sorted[i])
}

/// Median of `values` (any order); the mean of the middle two for an
/// even count. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Most windows a sample is split into by [`windowed`].
pub const WINDOWS: usize = 5;

/// Fewest samples whose quantile `q` is reportable.
fn min_samples(q: f64) -> usize {
    (MIN_TAIL + 1..)
        .find(|&n| n - 1 - rank(n, q) >= MIN_TAIL)
        .expect("a large enough sample exists for q < 1")
}

/// Quantile `q` of `samples` (in arrival order): split them into as many
/// consecutive windows, up to [`WINDOWS`], as leave each window's
/// quantile reportable, and take the median of the windows' quantiles.
/// `None` when even the whole sample cannot report it.
pub fn windowed(samples: &[f64], q: f64) -> Option<f64> {
    let need = min_samples(q);
    if samples.len() < need {
        return None;
    }
    let k = (samples.len() / need).clamp(1, WINDOWS);
    let per = samples.len() / k;
    let per_window: Vec<f64> = (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                samples.len()
            } else {
                (i + 1) * per
            };
            let mut w = samples[i * per..end].to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, q).expect("every window is large enough")
        })
        .collect();
    Some(median(&per_window))
}

/// Median, 90th and 99th percentile of a latency sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Samples, misses included.
    pub n: usize,
    /// Median, if reportable.
    pub p50: Option<f64>,
    /// 90th percentile, if reportable.
    pub p90: Option<f64>,
    /// 99th percentile, if reportable.
    pub p99: Option<f64>,
}

impl Tail {
    /// Summarizes `samples`, given in arrival order (see [`windowed`]).
    pub fn of(samples: &[f64]) -> Tail {
        Tail {
            n: samples.len(),
            p50: windowed(samples, 0.50),
            p90: windowed(samples, 0.90),
            p99: windowed(samples, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 (value 990) has exactly 10 beyond it.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 has only 9 beyond it.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(100), 0.99), None);
    }

    #[test]
    fn median_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn misses_count_against_the_tail() {
        let mut v = ramp(1000);
        for x in v.iter_mut().skip(985) {
            *x = f64::INFINITY;
        }
        let t = Tail::of(&v);
        assert_eq!(t.n, 1000);
        assert_eq!(t.p99, Some(f64::INFINITY));
    }

    #[test]
    fn windows_are_only_as_many_as_keep_each_reportable() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.5), 20);
        // 1999 samples: one window, the plain percentile.
        let v = ramp(1999);
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(windowed(&v, 0.99), percentile(&sorted, 0.99));
        assert_eq!(windowed(&ramp(999), 0.99), None);
    }

    #[test]
    fn a_burst_in_one_window_does_not_move_the_median_of_windows() {
        // Five windows of 1000 samples; the third holds a 50-sample burst.
        let mut v: Vec<f64> = (0..5000).map(|i| (i % 1000) as f64).collect();
        for x in &mut v[2000..2050] {
            *x = 1e6;
        }
        assert_eq!(windowed(&v, 0.99), Some(989.0));
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 0.99), Some(999.0));
        // A burst in every window does move it.
        for w in 0..5 {
            for x in &mut v[w * 1000..w * 1000 + 50] {
                *x = 1e6;
            }
        }
        assert_eq!(windowed(&v, 0.99), Some(1e6));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
