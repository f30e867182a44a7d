//! Fixed-width histograms with terminal rendering, for regenerating the
//! Figure 7 run-time distributions.

use crate::describe::mean;

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    underflow: usize,
    overflow: usize,
    total: usize,
    sum: f64,
}

impl Histogram {
    /// Histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "empty range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
            sum: 0.0,
        }
    }

    /// Histogram sized from the data: `[min, max]` padded by one bin width.
    pub fn from_samples(xs: &[f64], bins: usize) -> Self {
        assert!(!xs.is_empty(), "no samples");
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(f64::MIN_POSITIVE);
        let mut h = Histogram::new(min, max + span / bins as f64, bins);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        self.sum += x;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Fold `other`'s samples into `self` bin-by-bin. Both histograms
    /// must share the exact same binning (`lo`, `hi`, bin count) — merging
    /// is then lossless, unlike re-adding samples to a differently-sized
    /// histogram, so per-rank distributions aggregate into a cluster-wide
    /// one without re-binning drift.
    ///
    /// # Panics
    ///
    /// Panics if the binnings differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "histogram merge requires identical binning: \
             [{}, {}) x{} vs [{}, {}) x{}",
            self.lo,
            self.hi,
            self.counts.len(),
            other.lo,
            other.hi,
            other.counts.len(),
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Samples below/above range.
    pub fn out_of_range(&self) -> (usize, usize) {
        (self.underflow, self.overflow)
    }

    /// Total samples recorded.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Mean of all recorded samples (not just in-range ones).
    pub fn sample_mean(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.sum / self.total as f64
        }
    }

    /// Count the local maxima of the smoothed histogram — used to decide
    /// whether a distribution is unimodal or bimodal, the Figure 7
    /// distinction. `min_prominence` is the fraction of the tallest bin a
    /// peak must reach.
    pub fn mode_count(&self, min_prominence: f64) -> usize {
        // 3-bin moving average to suppress jitter
        let n = self.counts.len();
        let sm: Vec<f64> = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(n - 1);
                mean(
                    &self.counts[lo..=hi]
                        .iter()
                        .map(|&c| c as f64)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let peak = sm.iter().copied().fold(0.0, f64::max);
        if peak == 0.0 {
            return 0;
        }
        let thr = peak * min_prominence;
        let mut modes = 0;
        let mut in_peak = false;
        for i in 0..n {
            let is_high = sm[i] >= thr
                && (i == 0 || sm[i] >= sm[i - 1])
                && (i == n - 1 || sm[i] >= sm[i + 1]);
            if is_high && !in_peak {
                modes += 1;
                in_peak = true;
            } else if sm[i] < thr {
                in_peak = false;
            }
        }
        modes
    }

    /// Render an ASCII bar chart like the Figure 7 panels, one row per
    /// bin, with the mean marked.
    pub fn render(&self, width: usize, unit: &str) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let mean = self.sample_mean();
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let lo = self.lo + w * i as f64;
            let bar_len = c * width / max;
            let marker = if mean >= lo && mean < lo + w {
                " <- mean"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:>10.2} {} | {:<width$} {}{}\n",
                lo,
                unit,
                "#".repeat(bar_len),
                c,
                marker,
                width = width
            ));
        }
        if self.underflow + self.overflow > 0 {
            out.push_str(&format!(
                "  (out of range: {} below, {} above)\n",
                self.underflow, self.overflow
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_correct() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 2.9, 9.9, -1.0, 10.0, 11.0] {
            h.add(x);
        }
        assert_eq!(h.counts(), &[2, 2, 0, 0, 1]);
        assert_eq!(h.out_of_range(), (1, 2));
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn from_samples_covers_all() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let h = Histogram::from_samples(&xs, 20);
        assert_eq!(h.total(), 1000);
        assert_eq!(h.out_of_range(), (0, 0));
        assert_eq!(h.counts().iter().sum::<usize>(), 1000);
    }

    #[test]
    fn unimodal_vs_bimodal_detection() {
        // unimodal: concentrated around 50
        let uni: Vec<f64> = (0..500)
            .map(|i| 50.0 + ((i * 7919) % 11) as f64 - 5.0)
            .collect();
        let h1 = Histogram::from_samples(&uni, 30);
        assert_eq!(h1.mode_count(0.25), 1);
        // bimodal: two clusters at 10 and 90
        let mut bi = vec![];
        for i in 0..250 {
            bi.push(10.0 + (i % 5) as f64);
            bi.push(90.0 + (i % 5) as f64);
        }
        let h2 = Histogram::from_samples(&bi, 30);
        assert_eq!(h2.mode_count(0.25), 2);
    }

    #[test]
    fn render_contains_bars_and_mean() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for _ in 0..10 {
            h.add(1.5);
        }
        h.add(3.5);
        let s = h.render(20, "us");
        assert!(s.contains('#'));
        assert!(s.contains("<- mean"));
        let mean = h.sample_mean();
        assert!(mean > 1.5 && mean < 2.0);
    }

    #[test]
    fn merge_is_lossless_vs_single_histogram() {
        // Two per-rank histograms merged == one histogram fed everything.
        let xs: Vec<f64> = (0..300).map(|i| (i % 13) as f64 - 1.0).collect();
        let (a_xs, b_xs) = xs.split_at(140);
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        let mut whole = Histogram::new(0.0, 10.0, 5);
        for &x in a_xs {
            a.add(x);
            whole.add(x);
        }
        for &x in b_xs {
            b.add(x);
            whole.add(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.total(), 300);
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.add(1.0);
        let before = h.clone();
        h.merge(&Histogram::new(0.0, 4.0, 4));
        assert_eq!(h, before);
    }

    #[test]
    #[should_panic(expected = "identical binning")]
    fn merge_rejects_different_binning() {
        let mut a = Histogram::new(0.0, 4.0, 4);
        let b = Histogram::new(0.0, 4.0, 8);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_mean_is_nan() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert!(h.sample_mean().is_nan());
        assert_eq!(h.mode_count(0.5), 0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        Histogram::new(0.0, 1.0, 0);
    }
}
