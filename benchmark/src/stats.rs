//! Order statistics the benchmark reports: latency percentiles, the
//! fast-quartile slice rate, geometric means and the run-to-run spread.

/// The `p`-th percentile (`0 < p <= 1`) of an ascending-sorted sample by the
/// nearest-rank rule: the smallest value with at least `p` of the sample at
/// or below it.  Empty samples give `NaN`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (NaNs last, never expected).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default *exclusive* method) — the rule the driver applies to ten
/// runs, so `compare` and the README quote the same spread.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values.to_vec());
    let n = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median; `None` below two values
/// or around a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Rate and dispersion of one component measured as equal-work slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceRate {
    /// `work / 25th-percentile slice time`: the rate of the quiet quarter of
    /// the run, which repeats where the median wanders with neighbour load.
    pub fast: f64,
    /// `work / median slice time` (diagnostic).
    pub median: f64,
    /// 75th / 25th percentile slice time.
    pub spread: f64,
    /// Share of slices no slower than twice the fast-quartile slice.
    pub within_2x: f64,
}

/// Summarises slice durations (seconds) that each cover `work` units.
pub fn slice_rate(work: f64, slice_seconds: &[f64]) -> SliceRate {
    let times = sorted(slice_seconds.to_vec());
    let (q1, q2, q3) = (
        percentile(&times, 0.25),
        percentile(&times, 0.5),
        percentile(&times, 0.75),
    );
    let within = times.iter().filter(|&&t| t <= 2.0 * q1).count();
    SliceRate {
        fast: work / q1,
        median: work / q2,
        spread: q3 / q1,
        within_2x: within as f64 / times.len().max(1) as f64,
    }
}

/// Geometric mean; `NaN` for an empty input.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values.to_vec());
    match data.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_known_vector() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.25), 3.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fast_quartile_rate_ignores_the_slow_tail() {
        // Eight quiet slices of 1 s and four disturbed ones: the median
        // and the fast quartile both sit on the quiet level, and a run
        // where half the slices are disturbed still reports it.
        let mut slices = vec![1.0; 8];
        slices.extend([1.5, 2.5, 3.0, 9.0]);
        let r = slice_rate(100.0, &slices);
        assert_eq!(r.fast, 100.0);
        assert_eq!(r.median, 100.0);
        assert_eq!(r.within_2x, 9.0 / 12.0);
        let noisy = [1.0, 1.0, 1.0, 1.4, 1.4, 1.4, 1.4, 1.4];
        let r = slice_rate(100.0, &noisy);
        assert_eq!(r.fast, 100.0);
        assert!(r.median < 75.0);
        assert_eq!(r.spread, 1.4);
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean([]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
