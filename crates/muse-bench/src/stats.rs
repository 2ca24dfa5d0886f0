//! Small statistics helpers for experiment reporting (the paper reports
//! medians with box plots over repeated runs).

use serde::{Deserialize, Serialize};

/// Five-number summary of a sample: min, lower quartile, median, upper
/// quartile, max.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Percentile of a sample (p ∈ [0, 100]), nearest-rank on the sorted data.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Computes the five-number summary of a sample.
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        min: percentile(values, 0.0),
        q1: percentile(values, 25.0),
        median: percentile(values, 50.0),
        q3: percentile(values, 75.0),
        max: percentile(values, 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
    }

    #[test]
    fn summary_ordered() {
        let v: Vec<f64> = (1..=99).map(|i| i as f64).collect();
        let s = summarize(&v);
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 99.0);
        assert_eq!(s.median, 50.0);
    }

    #[test]
    fn single_value_summary() {
        let s = summarize(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }
}
