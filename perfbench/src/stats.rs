//! The benchmark's own arithmetic: medians, quartiles, percentiles and
//! the ratios reported as metrics.

/// Median and quartiles of one metric's samples, with their count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `samples` (any order). An empty sample set summarises
    /// to zeros with `n == 0`.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&v);
        Self {
            n: v.len(),
            median,
            q1,
            q3,
        }
    }
}

/// Quartiles of sorted data by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so the benchmark and the checks run over its output agree. The
/// middle value is the median. One sample yields itself three times.
#[must_use]
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `p` (0 < p <= 100) of sorted data.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile
/// `p` of `n` samples. A percentile is reported only when at least
/// [`MIN_TAIL`] samples lie beyond it.
#[must_use]
pub fn tail_count(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(1, n.max(1)))
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL: usize = 10;

/// `part / whole`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Operations failed or refused over operations attempted.
#[must_use]
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Distinct source texts over programs analysed.
#[must_use]
pub fn distinct_frac(distinct: usize, analysed: usize) -> f64 {
    ratio(distinct as f64, analysed as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        // Python extrapolates past the ends of tiny samples:
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[3.0, 7.0]), [2.0, 5.0, 8.0]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.0, 5.0));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond_it() {
        assert_eq!(tail_count(1000, 99.0), 10);
        assert!(tail_count(999, 99.0) < MIN_TAIL);
        assert_eq!(tail_count(20, 50.0), 10);
        assert_eq!(tail_count(0, 99.0), 0);
    }

    #[test]
    fn failed_and_distinct_fractions() {
        assert_eq!(failed_frac(0, 144_000), 0.0);
        assert_eq!(failed_frac(36, 144_000), 0.00025);
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(distinct_frac(1953, 144_000), 1953.0 / 144_000.0);
        assert_eq!(distinct_frac(5000, 5000), 1.0);
        assert_eq!(distinct_frac(0, 0), 0.0);
    }
}
