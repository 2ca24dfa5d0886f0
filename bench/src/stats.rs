//! The benchmark's arithmetic on samples: the summary over reps and the
//! percentile rule for latencies.

use muse_runtime::metrics::percentile_nearest_rank;
use serde_json::{Map, Number, Value};

/// Median, quartiles and range of a handful of per-rep values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// The per-rep values in the order measured.
    pub raw: Vec<f64>,
}

/// The `p`-quantile of sorted values by the rule of Python's
/// `statistics.quantiles` (exclusive method): position `p · (n + 1)`,
/// linearly interpolated, clamped to the sample. The driver and
/// `run.sh compare` judge spreads by this rule, so the summary uses it too.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

impl Summary {
    /// Panics on an empty sample: every reported metric has at least one rep.
    pub fn of(raw: &[f64]) -> Summary {
        assert!(!raw.is_empty(), "a summary needs at least one value");
        let mut sorted = raw.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            raw: raw.to_vec(),
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

    pub fn to_json(&self) -> Value {
        let f = |v: f64| Value::Num(Number::F(v));
        let mut m = Map::new();
        m.insert("median".into(), f(self.median));
        m.insert("q1".into(), f(self.q1));
        m.insert("q3".into(), f(self.q3));
        m.insert("min".into(), f(self.min));
        m.insert("max".into(), f(self.max));
        m.insert(
            "raw".into(),
            Value::Array(self.raw.iter().copied().map(f).collect()),
        );
        Value::Object(m)
    }
}

/// Latency percentiles of one rep in microseconds: `(p50, p99, samples)`.
/// Uses the repository's single nearest-rank rule, so the numbers agree
/// with `ThreadedReport::latency_summary_ns` on the same samples.
pub fn latency_percentiles_us(latencies_ns: &[u64]) -> Option<(f64, f64, usize)> {
    let mut sorted = latencies_ns.to_vec();
    sorted.sort_unstable();
    let p50 = percentile_nearest_rank(&sorted, 0.50)?;
    let p99 = percentile_nearest_rank(&sorted, 0.99)?;
    Some((p50 as f64 / 1e3, p99 as f64 / 1e3, sorted.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max), (1.0, 10.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(s.raw, [3.0, 1.0, 2.0]);
        // One value is its own median and quartiles.
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        // 1..=1000 µs: rank round(0.5 · 999) = 500 → 501 µs; round(0.99 · 999) = 989 → 990 µs.
        let ns: Vec<u64> = (1..=1000u64).rev().map(|us| us * 1000).collect();
        assert_eq!(latency_percentiles_us(&ns), Some((501.0, 990.0, 1000)));
        assert_eq!(latency_percentiles_us(&[]), None);
        assert_eq!(latency_percentiles_us(&[2500]), Some((2.5, 2.5, 1)));
    }
}
