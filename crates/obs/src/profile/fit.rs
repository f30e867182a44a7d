//! The α-β cost of a schedule, and the least-squares fit that estimates
//! α̂ and β̂ from observed round latencies.

/// What a schedule costs under the linear model of §3.1, given the wire
/// bytes of each of its send-receive rounds: rounds run one after another,
/// a round of `b` bytes takes `alpha + beta·b`, so the schedule takes
/// `Σ_r (alpha + beta·bytes_r)` — `t(α + βm)` for the trivial algorithm,
/// `Cα + βVm` for message combining, and exact for unequal blocks.
///
/// The one pricing function: `Algo::Auto`, the simulator's
/// `LinearModel::schedule` and every figure and cost table price a plan by
/// handing this its `Plan::round_bytes`. Units are the caller's (seconds
/// and seconds/byte; or bytes throughout, with `alpha` = α/β and
/// `beta` = 1). A slice rather than a plan, so that neither the simulator
/// nor this crate needs to know what a plan is.
pub fn price(round_bytes: &[usize], alpha: f64, beta: f64) -> f64 {
    round_bytes.iter().map(|&b| alpha + beta * b as f64).sum()
}

/// A linear-cost-model fit `latency ≈ α̂ + β̂·bytes` over observed
/// `(wire_bytes, latency_ns)` samples — the empirical counterpart of the
/// α-β model the paper's cut-off analysis (Prop. 3.2 discussion) assumes.
///
/// `degenerate` flags fits that carry no information: fewer than two
/// distinct message sizes (the slope is unconstrained) or a non-positive
/// slope (noise swamped the size dependence). Degenerate fits still
/// report the raw coefficients but refuse to produce a cut-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaBetaFit {
    /// Fitted latency intercept α̂, ns.
    pub alpha_ns: f64,
    /// Fitted per-byte cost β̂, ns/byte.
    pub beta_ns_per_byte: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
    /// Number of samples fitted.
    pub samples: usize,
    /// Number of distinct message sizes among the samples.
    pub distinct_sizes: usize,
    /// Whether the fit is unusable for cut-off analysis.
    pub degenerate: bool,
}

impl AlphaBetaFit {
    /// Ordinary least squares over `(bytes, latency_ns)` samples.
    pub fn fit(samples: &[(u64, u64)]) -> AlphaBetaFit {
        let n = samples.len();
        let mut sizes: Vec<u64> = samples.iter().map(|&(b, _)| b).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let distinct = sizes.len();

        if n < 2 || distinct < 2 {
            return AlphaBetaFit {
                alpha_ns: samples.first().map(|&(_, y)| y as f64).unwrap_or(0.0),
                beta_ns_per_byte: 0.0,
                r2: 0.0,
                samples: n,
                distinct_sizes: distinct,
                degenerate: true,
            };
        }

        let nf = n as f64;
        let mean_x = samples.iter().map(|&(x, _)| x as f64).sum::<f64>() / nf;
        let mean_y = samples.iter().map(|&(_, y)| y as f64).sum::<f64>() / nf;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for &(x, y) in samples {
            let dx = x as f64 - mean_x;
            let dy = y as f64 - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }

        let beta = sxy / sxx; // sxx > 0: distinct >= 2
        let alpha = mean_y - beta * mean_x;
        let r2 = if syy > 0.0 {
            (sxy * sxy) / (sxx * syy)
        } else {
            1.0
        };

        AlphaBetaFit {
            alpha_ns: alpha,
            beta_ns_per_byte: beta,
            r2,
            samples: n,
            distinct_sizes: distinct,
            degenerate: !(beta > 0.0 && beta.is_finite() && alpha.is_finite()),
        }
    }

    /// Fit over the *per-size mean* latencies of `samples` — collapses
    /// repeated measurements of each message size into one point first,
    /// which weights every size equally regardless of how many rounds
    /// used it (threaded m-sweeps measure small sizes far more often).
    pub fn fit_size_means(samples: &[(u64, u64)]) -> AlphaBetaFit {
        let mut sorted: Vec<(u64, u64)> = samples.to_vec();
        sorted.sort_unstable();
        let mut means: Vec<(u64, u64)> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let size = sorted[i].0;
            let mut sum = 0u128;
            let mut cnt = 0u128;
            while i < sorted.len() && sorted[i].0 == size {
                sum += sorted[i].1 as u128;
                cnt += 1;
                i += 1;
            }
            means.push((size, (sum / cnt) as u64));
        }
        let mut fit = Self::fit(&means);
        fit.samples = samples.len();
        fit
    }

    /// The measured cut-off block size `m* = (α̂/β̂)·ratio`, where `ratio`
    /// is the schedule's `(t−C)/(V−t)` (Prop. 3.2 discussion): below `m*`
    /// message combining wins, above it the trivial algorithm does.
    /// `None` for degenerate fits or non-finite/non-positive ratios.
    pub fn cutoff_m_bytes(&self, ratio: f64) -> Option<f64> {
        if self.degenerate || !ratio.is_finite() || ratio <= 0.0 {
            return None;
        }
        let m = self.alpha_ns.max(0.0) / self.beta_ns_per_byte * ratio;
        m.is_finite().then_some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_sums_alpha_plus_beta_bytes_per_round() {
        let t = price(&[100, 200, 300], 2e-6, 1e-9);
        assert!((t - (3.0 * 2e-6 + 600.0 * 1e-9)).abs() < 1e-15);
        assert_eq!(price(&[0], 2e-6, 1e-9), 2e-6, "an empty round costs α");
        assert_eq!(price(&[], 2e-6, 1e-9), 0.0);
    }

    #[test]
    fn exact_linear_data_is_recovered() {
        // y = 500 + 2x, exactly.
        let samples: Vec<(u64, u64)> = (1..=10).map(|i| (i * 100, 500 + 2 * i * 100)).collect();
        let fit = AlphaBetaFit::fit(&samples);
        assert!(!fit.degenerate);
        assert!(
            (fit.alpha_ns - 500.0).abs() < 1e-6,
            "alpha {}",
            fit.alpha_ns
        );
        assert!((fit.beta_ns_per_byte - 2.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cutoff_scales_with_ratio() {
        let samples: Vec<(u64, u64)> = (1..=4).map(|i| (i * 10, 1000 + i * 10)).collect();
        let fit = AlphaBetaFit::fit(&samples);
        // α = 1000, β = 1 → m* = 1000·ratio.
        let m = fit.cutoff_m_bytes(0.5).unwrap();
        assert!((m - 500.0).abs() < 1e-6, "m* {m}");
        assert_eq!(fit.cutoff_m_bytes(0.0), None);
        assert_eq!(fit.cutoff_m_bytes(f64::NAN), None);
    }

    #[test]
    fn single_size_is_degenerate() {
        let fit = AlphaBetaFit::fit(&[(64, 100), (64, 120), (64, 110)]);
        assert!(fit.degenerate);
        assert_eq!(fit.distinct_sizes, 1);
        assert_eq!(fit.cutoff_m_bytes(1.0), None);
    }

    #[test]
    fn negative_slope_is_degenerate() {
        let fit = AlphaBetaFit::fit(&[(10, 1000), (1000, 100)]);
        assert!(fit.degenerate);
        assert!(fit.beta_ns_per_byte < 0.0);
    }

    #[test]
    fn empty_and_singleton_are_degenerate() {
        assert!(AlphaBetaFit::fit(&[]).degenerate);
        assert!(AlphaBetaFit::fit(&[(8, 42)]).degenerate);
    }

    #[test]
    fn size_means_weight_sizes_equally() {
        // 100 noisy samples at x=10 and a single sample at x=1000, on the
        // exact line y = 100 + x. Plain OLS is dominated by the x=10
        // cluster's noise; per-size means recover the line exactly.
        let mut samples: Vec<(u64, u64)> = Vec::new();
        for i in 0..100 {
            // mean-preserving jitter: pairs (−5, +5) around y=110
            let y = if i % 2 == 0 { 105 } else { 115 };
            samples.push((10, y));
        }
        samples.push((1000, 1100));
        let fit = AlphaBetaFit::fit_size_means(&samples);
        assert!(!fit.degenerate);
        assert!((fit.beta_ns_per_byte - 1.0).abs() < 1e-9);
        assert!((fit.alpha_ns - 100.0).abs() < 1e-6);
        assert_eq!(fit.samples, 101);
        assert_eq!(fit.distinct_sizes, 2);
    }
}
