//! Windowed output-rate estimators for the live cost-model drift monitor.
//!
//! One [`RateEstimator`] per deployment task observes that task's emitted
//! matches bucketed into fixed-length event-time windows, and serves three
//! read-time views: the whole-run mean rate, the mean over the most recent
//! windows, and an EWMA folded oldest-to-newest over the retained windows.
//! Estimators are mergeable across threaded-executor shards: counts sum at
//! aligned absolute window indices, so a shard-merged estimator equals the
//! estimator a single-threaded observer would have built. All smoothing is
//! computed at read time from the retained counts — nothing incremental is
//! stored — which is what keeps the merge exact.

use serde::{Deserialize, Serialize};

/// Windows retained per estimator; older counts fold into the run totals
/// (`total`, `first_t`, `last_t`) and leave the per-window view.
const MAX_WINDOWS: usize = 32;

/// Windows folded into [`RateEstimator::recent_rate`].
const RECENT_WINDOWS: usize = 8;

/// Event-time-windowed counter of one task's output stream.
///
/// Timestamps are virtual ticks in both executors (the threaded executor
/// feeds the *event time* of each emitted match, not wall time), so rates
/// are per-tick and directly comparable to the §4.4 cost model after unit
/// conversion.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RateEstimator {
    /// Window length in ticks (0 behaves as 1).
    window_len: u64,
    /// Absolute window index of `counts[0]`.
    base_idx: u64,
    /// Per-window output counts, oldest first (bounded by `MAX_WINDOWS`).
    counts: Vec<u64>,
    /// Total outputs over the whole run (survives window rotation).
    total: u64,
    /// Earliest observed timestamp.
    first_t: Option<u64>,
    /// Latest observed timestamp.
    last_t: u64,
}

impl RateEstimator {
    /// Creates an estimator with the given window length in ticks.
    pub fn new(window_len: u64) -> Self {
        Self {
            window_len: window_len.max(1),
            ..Default::default()
        }
    }

    fn window(&self) -> u64 {
        self.window_len.max(1)
    }

    /// Adds `n` at absolute window index `idx`, rotating out windows that
    /// fall behind the `MAX_WINDOWS` horizon (their counts stay in
    /// `total`). Shared by [`Self::record`] and [`Self::merge`].
    fn add_at(&mut self, idx: u64, n: u64) {
        if self.counts.is_empty() {
            self.base_idx = idx;
        }
        if idx < self.base_idx {
            // Out-of-order behind the retained horizon: fold into the
            // oldest retained window rather than shifting everything.
            self.counts[0] += n;
            return;
        }
        if idx >= self.base_idx + MAX_WINDOWS as u64 {
            let new_base = idx + 1 - MAX_WINDOWS as u64;
            let shift = (new_base - self.base_idx) as usize;
            if shift >= self.counts.len() {
                self.counts.clear();
            } else {
                self.counts.drain(..shift);
            }
            self.base_idx = new_base;
        }
        let off = (idx - self.base_idx) as usize;
        if off >= self.counts.len() {
            self.counts.resize(off + 1, 0);
        }
        self.counts[off] += n;
    }

    /// Records `n` outputs at tick `t`.
    #[inline]
    pub fn record(&mut self, t: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        if self.first_t.is_none_or(|f| t < f) {
            self.first_t = Some(t);
        }
        self.last_t = self.last_t.max(t);
        // Fast path for the overwhelmingly common case — `t` lands in the
        // newest retained window: one multiply and two compares instead of
        // the division in the general path. Hot per-emission call sites
        // make that division measurable.
        let w = self.window();
        let len = self.counts.len() as u64;
        if len > 0 {
            let lo = (self.base_idx + len - 1) * w;
            if t >= lo && t - lo < w {
                *self.counts.last_mut().expect("counts non-empty") += n;
                return;
            }
        }
        self.add_at(t / w, n);
    }

    /// Total outputs observed over the whole run.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Whole-run mean rate per tick over the observed span
    /// `[first_t, last_t]`; 0.0 before any observation.
    pub fn mean_rate(&self) -> f64 {
        match self.first_t {
            Some(first) => self.total as f64 / (self.last_t - first + 1) as f64,
            None => 0.0,
        }
    }

    /// Mean rate per tick over `total` outputs spread across an externally
    /// known duration (e.g. the trace horizon) — the denominator the drift
    /// report uses so silent tasks read as rate 0, not "no data".
    pub fn rate_over(&self, duration_ticks: u64) -> f64 {
        self.total as f64 / duration_ticks.max(1) as f64
    }

    /// Mean rate per tick over the newest retained windows (at most
    /// `RECENT_WINDOWS` of them); 0.0 before any observation.
    pub fn recent_rate(&self) -> f64 {
        let k = self.counts.len().min(RECENT_WINDOWS);
        if k == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts[self.counts.len() - k..].iter().sum();
        sum as f64 / (k as u64 * self.window()) as f64
    }

    /// EWMA of per-window rates folded oldest-to-newest over the retained
    /// windows (`alpha` weights the newer window); 0.0 before any
    /// observation.
    pub fn ewma_rate(&self, alpha: f64) -> f64 {
        let alpha = alpha.clamp(0.0, 1.0);
        let w = self.window() as f64;
        let mut it = self.counts.iter();
        let Some(&first) = it.next() else {
            return 0.0;
        };
        let mut ewma = first as f64 / w;
        for &c in it {
            ewma = alpha * (c as f64 / w) + (1.0 - alpha) * ewma;
        }
        ewma
    }

    /// Accumulates another shard's estimator: totals and span combine,
    /// and per-window counts sum at aligned absolute indices.
    pub fn merge(&mut self, other: &RateEstimator) {
        if other.total == 0 {
            return;
        }
        if self.total == 0 {
            *self = other.clone();
            return;
        }
        self.total += other.total;
        self.first_t = match (self.first_t, other.first_t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_t = self.last_t.max(other.last_t);
        for (i, &c) in other.counts.iter().enumerate() {
            if c > 0 {
                self.add_at(other.base_idx + i as u64, c);
            }
        }
    }
}

/// Per-task rate estimators of one run, indexed by deployment task slot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RateBank {
    window_len: u64,
    slots: Vec<RateEstimator>,
}

impl RateBank {
    /// Creates a bank of `tasks` estimators sharing one window length.
    pub fn new(window_len: u64, tasks: usize) -> Self {
        let window_len = window_len.max(1);
        Self {
            window_len,
            slots: (0..tasks).map(|_| RateEstimator::new(window_len)).collect(),
        }
    }

    /// The shared window length in ticks.
    pub fn window_len(&self) -> u64 {
        self.window_len.max(1)
    }

    /// Records `n` outputs of task `slot` at tick `t`, growing the bank on
    /// demand.
    #[inline]
    pub fn record(&mut self, slot: usize, t: u64, n: u64) {
        if slot >= self.slots.len() {
            self.slots
                .resize_with(slot + 1, || RateEstimator::new(self.window_len.max(1)));
        }
        self.slots[slot].record(t, n);
    }

    /// The estimator of task `slot`, if the bank has grown that far.
    pub fn get(&self, slot: usize) -> Option<&RateEstimator> {
        self.slots.get(slot)
    }

    /// Number of task slots held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_empty())
    }

    /// Accumulates another shard's bank slot-by-slot.
    pub fn merge(&mut self, other: &RateBank) {
        if self.window_len == 0 {
            self.window_len = other.window_len;
        }
        if self.slots.len() < other.slots.len() {
            self.slots.resize_with(other.slots.len(), || {
                RateEstimator::new(self.window_len.max(1))
            });
        }
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate_over_span() {
        let mut r = RateEstimator::new(10);
        assert_eq!(r.mean_rate(), 0.0);
        // 20 outputs over ticks 0..=99 → 0.2 per tick.
        for t in 0..100 {
            if t % 5 == 0 {
                r.record(t, 1);
            }
        }
        assert!((r.mean_rate() - 0.2).abs() < 0.011, "{}", r.mean_rate());
        assert_eq!(r.total(), 20);
        assert!((r.rate_over(100) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn window_rotation_keeps_totals() {
        let mut r = RateEstimator::new(1);
        for t in 0..1000 {
            r.record(t, 1);
        }
        // Far more than MAX_WINDOWS windows passed; totals still exact.
        assert_eq!(r.total(), 1000);
        assert!((r.mean_rate() - 1.0).abs() < 1e-12);
        assert!((r.recent_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recent_and_ewma_track_a_rate_shift() {
        let mut r = RateEstimator::new(10);
        // 100 ticks at 1/tick, then 100 ticks at 3/tick.
        for t in 0..100 {
            r.record(t, 1);
        }
        for t in 100..200 {
            r.record(t, 3);
        }
        // Whole-run mean sits between the regimes; recent is at the new
        // rate; an aggressive EWMA is close to it.
        assert!((r.mean_rate() - 2.0).abs() < 0.02);
        assert!((r.recent_rate() - 3.0).abs() < 1e-12);
        assert!(r.ewma_rate(0.5) > 2.5);
    }

    #[test]
    fn merge_equals_single_observer() {
        // Interleave one stream across two shards; the merge must equal
        // the single-observer estimator exactly.
        let mut whole = RateEstimator::new(10);
        let mut a = RateEstimator::new(10);
        let mut b = RateEstimator::new(10);
        for t in 0..500 {
            whole.record(t, 1 + t % 3);
            if t % 2 == 0 {
                a.record(t, 1 + t % 3);
            } else {
                b.record(t, 1 + t % 3);
            }
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        assert_eq!(a.mean_rate(), whole.mean_rate());
        assert_eq!(a.recent_rate(), whole.recent_rate());
        assert_eq!(a, whole);
    }

    #[test]
    fn sparse_time_jump_stays_bounded() {
        let mut r = RateEstimator::new(1);
        r.record(0, 1);
        r.record(1_000_000_000, 1);
        assert_eq!(r.total(), 2);
        assert!(r.recent_rate() > 0.0);
    }

    #[test]
    fn bank_grows_and_merges() {
        let mut a = RateBank::new(10, 1);
        a.record(0, 5, 2);
        a.record(3, 5, 4);
        let mut b = RateBank::new(10, 2);
        b.record(3, 15, 1);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(3).unwrap().total(), 5);
        assert_eq!(a.get(0).unwrap().total(), 2);
        assert!(a.get(1).unwrap().is_empty());
        assert!(!a.is_empty());
    }
}
