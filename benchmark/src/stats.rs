//! Order statistics over samples and windows, and the α-β model fit.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, linearly
/// interpolated between the two closest ranks.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A metric over windows: the median is the reported value, the rest is
/// stored beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the exclusive method), which is what the acceptance pipeline uses.
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let n = v.len();
        assert!(n > 0, "summary of no windows");
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: v[n - 1],
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Least-squares fit of `time = α·rounds + β·bytes` (no intercept) over
/// `(rounds, bytes, time)` points: combining contributes (C, V·m),
/// trivial (t, t·m). Returns `(α, β)` in the time unit per round and per
/// byte, or `None` when the points do not determine both.
pub fn fit_alpha_beta(points: &[(f64, f64, f64)]) -> Option<(f64, f64)> {
    let (mut rr, mut rb, mut bb, mut rt, mut bt) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(r, b, t) in points {
        rr += r * r;
        rb += r * b;
        bb += b * b;
        rt += r * t;
        bt += b * t;
    }
    let det = rr * bb - rb * rb;
    if det.abs() < 1e-9 * rr.max(1.0) * bb.max(1.0) {
        return None;
    }
    Some(((rt * bb - bt * rb) / det, (rr * bt - rb * rt) / det))
}

/// The paper's cut-off block size `m* = (α/β)·(t−C)/(V−t)` in bytes.
pub fn predicted_cutoff(alpha: f64, beta: f64, t: usize, c: usize, v: usize) -> f64 {
    alpha / beta * (t - c) as f64 / (v - t) as f64
}

/// The block size at which trivial stops being slower than combining,
/// interpolated linearly in (log m, log ratio) between the two measured
/// sizes that bracket ratio = 1. `None` when the ratio never crosses 1.
pub fn observed_crossover(sizes: &[f64], combining: &[f64], trivial: &[f64]) -> Option<f64> {
    let ratio: Vec<f64> = trivial
        .iter()
        .zip(combining)
        .map(|(t, c)| (t / c).ln())
        .collect();
    (1..sizes.len())
        .find(|&i| ratio[i - 1] > 0.0 && ratio[i] <= 0.0)
        .map(|i| {
            let w = ratio[i - 1] / (ratio[i - 1] - ratio[i]);
            (sizes[i - 1].ln() + w * (sizes[i].ln() - sizes[i - 1].ln())).exp()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_vectors() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_windows_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([10, 30, 20, 50, 40], n=4) == [15, 30, 45]
        let s = Summary::of(&[10.0, 30.0, 20.0, 50.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
        let one = Summary::of(&[3.0]);
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (3.0, 3.0, 3.0, 0.0)
        );
    }

    #[test]
    fn alpha_beta_fit_recovers_synthetic_lines() {
        let (alpha, beta, t, c, v) = (25.0, 0.002, 26.0, 6.0, 54.0);
        let mut points = Vec::new();
        for m in [16.0, 256.0, 4096.0, 32768.0] {
            points.push((c, v * m, alpha * c + beta * v * m));
            points.push((t, t * m, alpha * t + beta * t * m));
        }
        let (a, b) = fit_alpha_beta(&points).unwrap();
        assert!((a - alpha).abs() < 1e-6 && (b - beta).abs() < 1e-9);
        let mstar = predicted_cutoff(a, b, 26, 6, 54);
        assert!((mstar - 25.0 / 0.002 * 20.0 / 28.0).abs() < 1e-3);
        // Collinear points (one algorithm, one size) do not determine both.
        assert!(fit_alpha_beta(&[(6.0, 864.0, 1.0), (6.0, 864.0, 1.1)]).is_none());
    }

    #[test]
    fn crossover_is_interpolated_in_log_space() {
        // trivial/combining = 4, 2, 1/2: crosses 1 halfway (in log m)
        // between 256 and 4096, at 1024.
        let sizes = [16.0, 256.0, 4096.0];
        let x = observed_crossover(&sizes, &[1.0, 1.0, 2.0], &[4.0, 2.0, 1.0]).unwrap();
        assert!((x - 1024.0).abs() < 1e-6);
        assert!(observed_crossover(&sizes, &[1.0, 1.0, 1.0], &[4.0, 3.0, 2.0]).is_none());
    }
}
