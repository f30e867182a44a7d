//! Descriptive statistics: mean, median, quantiles, and the 95% confidence
//! interval the paper reports with every bar.

/// Arithmetic mean. Returns `NaN` for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n − 1 denominator). Returns 0 for fewer than
/// two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|&x| (x - m) * (x - m)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Median (linear-interpolated). `NaN` for empty input.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile with linear interpolation between order statistics
/// (type-7/R default). `q` is clamped to `[0, 1]`. `NaN` for empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN measurements"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Two-sided critical value of the Student t distribution at 95%
/// confidence for `df` degrees of freedom (table lookup with asymptotic
/// tail; exact enough for reporting confidence intervals).
pub fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::NAN,
        1..=30 => TABLE[df - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// A full description of one measurement series, as reported in the
/// paper's figures: mean with a 95% confidence interval over the retained
/// measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of retained measurements.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval of the mean.
    pub ci95_half_width: f64,
    /// Smallest retained value.
    pub min: f64,
    /// Largest retained value.
    pub max: f64,
}

impl Summary {
    /// Describe a series. `NaN`-free input required.
    pub fn of(xs: &[f64]) -> Summary {
        let n = xs.len();
        let m = mean(xs);
        let sd = std_dev(xs);
        let ci = if n >= 2 {
            t_critical_95(n - 1) * sd / (n as f64).sqrt()
        } else {
            0.0
        };
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean: m,
            std_dev: sd,
            ci95_half_width: ci,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
        assert!(mean(&[]).is_nan());
        assert!((std_dev(&[2.0, 4.0, 6.0]) - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        assert!(quantile(&[], 0.5).is_nan());
        // out-of-range q clamps
        assert_eq!(quantile(&[1.0, 2.0], 2.0), 2.0);
    }

    #[test]
    fn t_table_spot_checks() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(10) - 2.228).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        assert!((t_critical_95(1000) - 1.960).abs() < 1e-9);
        assert!(t_critical_95(0).is_nan());
        // monotonically decreasing toward the normal value
        assert!(t_critical_95(5) > t_critical_95(50));
    }

    #[test]
    fn summary_ci_contains_mean_of_tight_series() {
        let xs: Vec<f64> = (0..100).map(|i| 10.0 + (i % 5) as f64 * 0.01).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        let (lo, hi) = (s.mean - s.ci95_half_width, s.mean + s.ci95_half_width);
        assert!(lo < s.mean && s.mean < hi);
        assert!(hi - lo < 0.01, "tight data gives a tight CI");
        assert!(s.min >= 10.0 && s.max <= 10.05);
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.ci95_half_width, 0.0);
    }
}
