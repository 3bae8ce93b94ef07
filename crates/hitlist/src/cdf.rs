//! Empirical distribution utilities (CDF/CCDF) for figure series.
//!
//! Every figure in the paper is a CDF or CCDF; this module turns raw
//! samples into quantiles and fixed-grid series that the bench harness
//! prints next to the paper's curves.

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution over `f64` samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        v6par::radix_sort_f64(&mut samples);
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// P(X > x) — the CCDF.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), by nearest-rank; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// A plottable series: `points` evenly spaced x values over
    /// `[lo, hi]` with the CDF evaluated at each.
    pub fn series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2 && hi >= lo);
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_fractions() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(2.0), 0.5);
        assert_eq!(c.fraction_at_or_below(10.0), 1.0);
        assert_eq!(c.fraction_above(2.0), 0.5);
    }

    #[test]
    fn quantiles() {
        let c = Cdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.median(), Some(3.0));
        assert_eq!(c.quantile(1.0), Some(5.0));
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(5.0));
        assert_eq!(c.mean(), Some(3.0));
    }

    #[test]
    fn empty() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.median(), None);
        assert_eq!(c.fraction_at_or_below(1.0), 0.0);
    }

    #[test]
    fn nans_dropped() {
        let c = Cdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn series_monotone() {
        let c = Cdf::new((0..100).map(|i| i as f64).collect());
        let s = c.series(0.0, 99.0, 25);
        assert_eq!(s.len(), 25);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(s.last().unwrap().1, 1.0);
    }
}
