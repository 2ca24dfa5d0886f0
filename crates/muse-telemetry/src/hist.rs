//! Log-bucketed streaming histogram with fixed memory.
//!
//! Values are `u64` (ticks or nanoseconds); the bucket layout is HDR-style:
//! values below [`SUB_BUCKETS`] are recorded exactly, every larger octave
//! `[2^k, 2^{k+1})` is split into [`SUB_BUCKETS`] equal sub-buckets. A
//! bucket's width is therefore at most `1/SUB_BUCKETS` of its lower bound,
//! so any quantile estimate is within [`LogHistogram::max_relative_error`]
//! of the exact order statistic — with `min` and `max` tracked exactly, the
//! p0 and p100 estimates are exact. Recording is two shifts and an
//! increment; memory is a fixed `976 × 8` byte bucket array regardless of
//! how many values are recorded (this is what lets the transport and
//! discrimination counters keep a distribution per run, and an export carry
//! a latency distribution without the exact latency vector).

use serde::{Deserialize, Serialize};

/// Sub-buckets per octave; also the bound below which values are exact.
pub const SUB_BUCKETS: u64 = 16;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros(); // 4
const NUM_BUCKETS: usize = (SUB_BUCKETS as usize) + (64 - SUB_BITS as usize) * SUB_BUCKETS as usize;

/// A mergeable, fixed-memory streaming histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(into = "HistSnapshot", from = "HistSnapshot")]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records a value `n` times.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded value.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The guaranteed bound on a quantile estimate's relative error: the
    /// estimate `e` for exact order statistic `x` satisfies
    /// `|e − x| ≤ x / SUB_BUCKETS`.
    pub fn max_relative_error() -> f64 {
        1.0 / SUB_BUCKETS as f64
    }

    /// Quantile estimate for `q ∈ [0, 1]` using the same nearest-rank rule
    /// as the runtime's exact percentiles (`rank = round(q · (n − 1))`),
    /// clamped to the exact `[min, max]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        // The extreme order statistics are tracked exactly.
        if rank == 0 {
            return Some(self.min);
        }
        if rank >= self.count - 1 {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return Some(bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Five-number summary `(min, p25, p50, p75, max)`; `None` when empty.
    pub fn summary(&self) -> Option<[u64; 5]> {
        Some([
            self.quantile(0.0)?,
            self.quantile(0.25)?,
            self.quantile(0.5)?,
            self.quantile(0.75)?,
            self.quantile(1.0)?,
        ])
    }

    /// Accumulates another histogram. Merging is associative and
    /// commutative, so per-shard histograms can be combined in any order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(lower bound, upper bound, count)` triples.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let top = 63 - v.leading_zeros(); // v ∈ [2^top, 2^{top+1}), top ≥ SUB_BITS
        let sub = ((v >> (top - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
        SUB_BUCKETS as usize + (top - SUB_BITS) as usize * SUB_BUCKETS as usize + sub
    }
}

/// Half-open value range `[lo, hi)` of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB_BUCKETS as usize {
        (i as u64, i as u64 + 1)
    } else {
        let oct = (i - SUB_BUCKETS as usize) / SUB_BUCKETS as usize + SUB_BITS as usize;
        let sub = ((i - SUB_BUCKETS as usize) % SUB_BUCKETS as usize) as u64;
        let width = 1u64 << (oct - SUB_BITS as usize);
        let lo = (SUB_BUCKETS + sub) << (oct - SUB_BITS as usize);
        (lo, lo.saturating_add(width))
    }
}

fn bucket_mid(i: usize) -> u64 {
    let (lo, hi) = bucket_bounds(i);
    lo + (hi - 1 - lo) / 2
}

/// Compact serialized form of a [`LogHistogram`]: only occupied buckets.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Exact minimum (`u64::MAX` when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Occupied buckets as `(bucket index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// Quantile estimate over the snapshot (same semantics as
    /// [`LogHistogram::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        if rank == 0 {
            return Some(self.min);
        }
        if rank >= self.count - 1 {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            if cum > rank {
                return Some(bucket_mid(i as usize).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

impl From<LogHistogram> for HistSnapshot {
    fn from(h: LogHistogram) -> Self {
        Self {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: h
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }
}

impl From<HistSnapshot> for LogHistogram {
    fn from(s: HistSnapshot) -> Self {
        let mut h = LogHistogram::new();
        for &(i, c) in &s.buckets {
            if (i as usize) < NUM_BUCKETS {
                h.counts[i as usize] = c;
            }
        }
        h.count = s.count;
        h.sum = s.sum;
        h.min = s.min;
        h.max = s.max;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let rank = (q * (SUB_BUCKETS - 1) as f64).round() as u64;
            assert_eq!(h.quantile(q), Some(rank));
        }
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.summary(), None);
    }

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            for off in [0u64, 1, 3, (1u64 << shift) - 1] {
                values.push((1u64 << shift).saturating_add(off));
            }
        }
        values.sort_unstable();
        values.dedup();
        let mut prev = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "v={v} i={i}");
            assert!(i >= prev, "index must be monotone in the value (v={v})");
            let (lo, hi) = bucket_bounds(i);
            // `hi` saturates to u64::MAX for the topmost bucket.
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "v={v} not in [{lo},{hi})"
            );
            prev = i;
        }
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    /// Satellite requirement: quantile error bounds against exact sorted
    /// percentiles on random data.
    #[test]
    fn quantile_error_bounds_vs_exact_percentiles() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for scale in [100u64, 10_000, 1_000_000_000] {
            let mut values: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..scale)).collect();
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let rank = (q * (values.len() - 1) as f64).round() as usize;
                let exact = values[rank] as f64;
                let est = h.quantile(q).unwrap() as f64;
                let bound = exact * LogHistogram::max_relative_error() + 1.0;
                assert!(
                    (est - exact).abs() <= bound,
                    "scale {scale} q {q}: est {est} exact {exact} bound {bound}"
                );
            }
            // p0/p100 are exact thanks to the tracked min/max.
            assert_eq!(h.quantile(0.0), Some(values[0]));
            assert_eq!(h.quantile(1.0), Some(*values.last().unwrap()));
        }
    }

    /// Satellite requirement: merging per-shard histograms is associative.
    #[test]
    fn merge_associativity_across_shards() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let shards: Vec<LogHistogram> = (0..4)
            .map(|_| {
                let mut h = LogHistogram::new();
                for _ in 0..1_000 {
                    h.record(rng.gen_range(0..1_000_000u64));
                }
                h
            })
            .collect();
        // ((a ⊕ b) ⊕ c) ⊕ d
        let mut left = shards[0].clone();
        for s in &shards[1..] {
            left.merge(s);
        }
        // a ⊕ (b ⊕ (c ⊕ d))
        let mut right = shards[3].clone();
        for s in shards[..3].iter().rev() {
            let mut acc = s.clone();
            acc.merge(&right);
            right = acc;
        }
        assert_eq!(left, right);
        // Commutes, too.
        let mut rev = shards[3].clone();
        for s in shards[..3].iter().rev() {
            rev.merge(s);
        }
        assert_eq!(left, rev);
        // Merged quantiles match a histogram over the union stream.
        assert_eq!(left.count(), 4_000);
    }

    #[test]
    fn merge_equals_union_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut u = LogHistogram::new();
        for v in 0..1_000u64 {
            let x = v * v % 7_919;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            u.record(x);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut h = LogHistogram::new();
        for v in [0u64, 5, 17, 300, 1 << 40] {
            h.record(v);
        }
        let snap = HistSnapshot::from(h.clone());
        assert_eq!(snap.quantile(0.5), h.quantile(0.5));
        let back = LogHistogram::from(snap.clone());
        assert_eq!(back, h);
        let json = serde_json::to_string(&h).unwrap();
        let parsed: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, h);
    }
}
