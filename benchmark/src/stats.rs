//! Sample summaries: median, quartiles, and the one tail percentile the
//! sample count can support.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let at = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        }
    }
}

/// Quantile of an unsorted sample (NaN when empty).
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_of(samples, 0.5)
}

/// The highest of p99/p95/p90 that still has at least ten samples beyond it;
/// `None` below 100 samples, where no tail percentile is trustworthy.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90]
        .into_iter()
        .find(|p| n * (100 - *p as usize) / 100 >= 10)
}

/// What every timing reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` chosen by [`tail_percentile`].
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: quantile(&sorted, 0.0),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail: tail_percentile(sorted.len()).map(|p| (p, quantile(&sorted, p as f64 / 100.0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(8000), Some(99));
    }

    #[test]
    fn summary_reports_median_quartiles_and_the_supported_tail() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.n, s.min, s.median, s.q1, s.q3, s.tail),
            (5, 1.0, 3.0, 2.0, 4.0, None)
        );
        assert_eq!(Summary::of(&[1.0, 2.0]).median, 1.5);
        assert!(Summary::of(&[]).median.is_nan());

        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&many);
        let (p, v) = s.tail.expect("200 samples support p95");
        assert_eq!(p, 95);
        assert!((v - 190.05).abs() < 1e-9, "{v}");
    }
}
