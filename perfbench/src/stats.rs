//! Summary statistics over timing samples.

/// Median of `xs` (mean of the middle pair for an even count); `NaN`
/// when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values; `NaN` when `xs` is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One nearest-rank percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in percent.
    pub pct: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Nearest-rank `pct`-th percentile of `xs`; `None` when `xs` is
/// empty.
pub fn percentile(xs: &[f64], pct: f64) -> Option<Percentile> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((pct * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1));
    let value = *v.get(rank - 1)?;
    Some(Percentile {
        pct,
        value,
        beyond: n - rank,
        n,
    })
}

/// Percentiles the tail report picks from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it, so a tail figure never rests on a handful of
/// samples. `None` when even the median has fewer than ten beyond it.
pub fn tail(xs: &[f64]) -> Option<Percentile> {
    TAIL_LADDER
        .iter()
        .filter_map(|&p| percentile(xs, p))
        .find(|p| p.beyond >= 10)
}

/// `part` as a percentage of `base` (0 when the base is empty).
pub fn pct(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p95_of_200_samples_has_ten_beyond() {
        let p = percentile(&ramp(200), 95.0).unwrap();
        assert_eq!((p.value, p.beyond, p.n), (190.0, 10, 200));
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        // 199 samples: p95 (rank 190) leaves 9, so p90 is reported.
        let t = tail(&ramp(199)).unwrap();
        assert_eq!((t.pct, t.beyond, t.n), (90.0, 19, 199));
        // 40 samples: p75 leaves 10.
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        // Too few samples for any tail figure.
        assert!(tail(&ramp(15)).is_none());
    }

    #[test]
    fn geomean_and_pct() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(pct(1.0, 4.0), 25.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
    }
}
