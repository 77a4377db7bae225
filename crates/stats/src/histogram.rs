//! Fixed-width histograms (the paper's Fig. 6).

use crate::{check_finite, StatsError};
use serde::Serialize;

/// A binned histogram.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    /// Bin edges; `edges.len() == counts.len() + 1`.
    pub edges: Vec<f64>,
    /// Count per bin. The last bin is closed on both sides (numpy rule).
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Total observations binned.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Relative frequency per bin.
    pub fn frequencies(&self) -> Vec<f64> {
        let t = self.total().max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }

    /// Center of each bin (for plotting).
    pub fn centers(&self) -> Vec<f64> {
        self.edges.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
    }
}

/// Bins `xs` into `bins` equal-width bins spanning `[min, max]`.
pub fn histogram(xs: &[f64], bins: usize) -> Result<Histogram, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    if bins == 0 {
        return Err(StatsError::BadParameter("bins must be >= 1".into()));
    }
    check_finite(xs)?;
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    histogram_range(xs, bins, min, max)
}

/// Bins `xs` into `bins` equal-width bins spanning `[lo, hi]`.
/// Values outside the range are dropped (matplotlib semantics).
pub fn histogram_range(xs: &[f64], bins: usize, lo: f64, hi: f64) -> Result<Histogram, StatsError> {
    if hi < lo {
        return Err(StatsError::BadParameter(format!("hi {hi} < lo {lo}")));
    }
    check_finite(xs)?;
    let width = if hi == lo {
        1.0
    } else {
        (hi - lo) / bins as f64
    };
    let edges: Vec<f64> = (0..=bins).map(|i| lo + i as f64 * width).collect();
    let mut counts = vec![0usize; bins];
    for &x in xs {
        if x < lo || x > hi {
            continue;
        }
        let mut idx = ((x - lo) / width) as usize;
        if idx >= bins {
            idx = bins - 1; // closed last bin
        }
        counts[idx] += 1;
    }
    Ok(Histogram { edges, counts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_data_spreads_evenly() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = histogram(&xs, 10).unwrap();
        assert_eq!(h.counts, vec![10; 10]);
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let h = histogram(&xs, 5).unwrap();
        assert_eq!(h.counts.iter().sum::<usize>(), 6);
        assert_eq!(*h.counts.last().unwrap(), 2); // 4.0 and 5.0
    }

    #[test]
    fn out_of_range_values_dropped() {
        let xs = [-5.0, 0.5, 1.5, 99.0];
        let h = histogram_range(&xs, 2, 0.0, 2.0).unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts, vec![1, 1]);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let xs = [1.0, 1.1, 1.2, 5.0, 9.0];
        let h = histogram_range(&xs, 3, 0.0, 9.0).unwrap();
        let f = h.frequencies();
        assert!((f[0] - 0.6).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centers_are_midpoints() {
        let h = histogram_range(&[0.5], 2, 0.0, 2.0).unwrap();
        assert_eq!(h.centers(), vec![0.5, 1.5]);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(histogram(&[], 4).is_err());
        assert!(histogram(&[1.0], 0).is_err());
        assert!(histogram(&[f64::NAN], 4).is_err());
        // All-equal data: single point mass, still valid.
        let h = histogram(&[3.0, 3.0, 3.0], 4).unwrap();
        assert_eq!(h.total(), 3);
    }
}
