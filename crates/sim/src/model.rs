//! The linear (α-β) communication cost model of §3.1.

use cartcomm_obs::price;

/// Linear point-to-point cost: a message of `b` bytes between any two
/// processes costs `α + β·b` seconds, with sends and receives of one
/// process serialized on a single full-duplex port — exactly the model in
/// which the paper derives `t(α+βm)` for the trivial algorithm and
/// `Cα + βVm` for message combining.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Start-up latency per message, seconds.
    pub alpha: f64,
    /// Transfer time per byte, seconds (1 / bandwidth).
    pub beta: f64,
}

impl LinearModel {
    /// Cost of a single message of `bytes`: a schedule of one round.
    #[inline]
    pub fn message(&self, bytes: usize) -> f64 {
        self.schedule(&[bytes])
    }

    /// Cost of a schedule — trivial or combining — given the wire bytes of
    /// each send-receive round (`Plan::round_bytes`): [`price`] at this
    /// machine's α and β.
    pub fn schedule(&self, round_bytes: &[usize]) -> f64 {
        price(round_bytes, self.alpha, self.beta)
    }

    /// The α/β ratio in bytes — the machine constant the paper's cut-off
    /// `m < (α/β)·(t−C)/(V−t)` multiplies.
    pub fn alpha_beta_bytes(&self) -> f64 {
        self.alpha / self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: LinearModel = LinearModel {
        alpha: 2e-6,
        beta: 1e-9,
    };

    #[test]
    fn message_cost_is_affine() {
        assert!((M.message(0) - 2e-6).abs() < 1e-18);
        assert!((M.message(1000) - 3e-6).abs() < 1e-18);
    }

    #[test]
    fn schedule_sums_rounds() {
        let t = M.schedule(&[100, 200, 300]);
        assert!((t - (3.0 * 2e-6 + 600.0 * 1e-9)).abs() < 1e-15);
        assert_eq!(M.schedule(&[]), 0.0);
    }

    #[test]
    fn t_single_block_rounds_match_the_trivial_formula() {
        // t(α+βm)
        let t = M.schedule(&[40; 26]);
        assert!((t - 26.0 * (2e-6 + 40e-9)).abs() < 1e-15);
    }

    #[test]
    fn combining_beats_trivial_below_cutoff() {
        // d=3, n=5 family: t=124, C=12, V=300.
        let (t, c, v) = (124usize, 12usize, 300usize);
        let ratio = (t - c) as f64 / (v - t) as f64;
        let cutoff_bytes = M.alpha_beta_bytes() * ratio;
        let below = (cutoff_bytes * 0.5) as usize;
        let above = (cutoff_bytes * 2.0) as usize;
        // V = 300 blocks spread evenly over C = 12 rounds.
        let combining = |m: usize| M.schedule(&vec![m * (v / c); c]);
        let trivial = |m: usize| M.schedule(&vec![m; t]);
        assert!(combining(below) < trivial(below));
        assert!(combining(above) > trivial(above));
    }

    #[test]
    fn alpha_beta_ratio() {
        assert!((M.alpha_beta_bytes() - 2000.0).abs() < 1e-9);
    }
}
