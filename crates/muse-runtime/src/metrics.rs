//! Execution metrics: transmission accounting, processing load, and match
//! latencies.
//!
//! The paper's central metric is the *transmission ratio*: the rate of
//! events (matches) sent over the network under a plan, relative to
//! centralized evaluation where every raw event crosses the network once
//! (§7.1). The case study (§7.3) additionally reports throughput and
//! per-match latency.

use muse_core::event::Timestamp;
use muse_telemetry::LogHistogram;
use serde::{Deserialize, Serialize};

/// Exact nearest-rank percentile over an already-sorted slice:
/// `rank = round(q · (n − 1))` for `q ∈ [0, 1]`.
///
/// This is the single definition of "percentile" in the codebase — the
/// virtual-time summaries here, the wall-clock summaries in
/// [`crate::threaded::ThreadedReport`], and the
/// [`LogHistogram::quantile`] estimates all use this same rule, so their
/// results are comparable rank-for-rank. Returns `None` on an empty slice.
pub fn percentile_nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank.min(sorted.len() - 1)])
}

/// Per-join observability counters of the indexed join engine, aggregated
/// over all join tasks of a run. Probe counts versus merge attempts expose
/// how much work the window slicing saves; merge attempts versus merge
/// successes expose how selective the pre-merge guards leave the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct JoinStats {
    /// Matches fed into join slots (positive and negated).
    pub inputs: u64,
    /// Stored matches inspected by window-sliced probes.
    pub probes: u64,
    /// Probed pairs rejected by the cheap pre-merge guards (equality-key
    /// mismatch, window span or shared-primitive disagreement) before any
    /// merge allocation.
    pub guard_rejects: u64,
    /// Merges actually attempted ([`crate::matcher::Match::merge`] calls).
    pub merge_attempts: u64,
    /// Merges that produced a valid (partial) assignment.
    pub merge_successes: u64,
    /// Complete target matches emitted.
    pub emitted: u64,
    /// Stored matches physically dropped by watermark eviction.
    pub evicted: u64,
    /// Largest number of simultaneously buffered (live) matches observed in
    /// any single join task.
    pub peak_buffered: u64,
}

impl JoinStats {
    /// Accumulates another task's counters (peak is a maximum, the rest
    /// are sums).
    pub fn merge(&mut self, other: &JoinStats) {
        self.inputs += other.inputs;
        self.probes += other.probes;
        self.guard_rejects += other.guard_rejects;
        self.merge_attempts += other.merge_attempts;
        self.merge_successes += other.merge_successes;
        self.emitted += other.emitted;
        self.evicted += other.evicted;
        self.peak_buffered = self.peak_buffered.max(other.peak_buffered);
    }

    /// Fraction of attempted merges that produced a valid assignment
    /// (1.0 when nothing was attempted).
    pub fn merge_success_ratio(&self) -> f64 {
        if self.merge_attempts == 0 {
            1.0
        } else {
            self.merge_successes as f64 / self.merge_attempts as f64
        }
    }

    /// Fraction of probed pairs that survived the pre-merge guards —
    /// equality key, window span, shared primitives — and were merged
    /// (1.0 when nothing was probed).
    pub fn guard_pass_ratio(&self) -> f64 {
        if self.probes == 0 {
            1.0
        } else {
            self.merge_attempts as f64 / self.probes as f64
        }
    }
}

/// Observability counters of the threaded executor's batched transport
/// (zero in the simulator, which has no physical channels). Backpressure is
/// observable, not silent: blocked sends, queue depth, and the realized
/// batch-size distribution are first-class metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Frames pushed onto inter-node channels.
    pub frames_sent: u64,
    /// Messages (matches) carried inside those frames.
    pub messages_framed: u64,
    /// `try_send` attempts rejected because the destination channel was at
    /// capacity (each rejection steals from the sender's own inbox before
    /// retrying, so blocked sends convert into useful work).
    pub blocked_sends: u64,
    /// Frame buffers newly allocated because the recycling pool was empty.
    pub pool_allocs: u64,
    /// Frame buffers reused from the recycling return path.
    pub pool_reuses: u64,
    /// Largest number of frames observed in flight to any single node.
    pub peak_queue_depth: u64,
    /// Distribution of realized batch sizes (messages per frame).
    pub batch_hist: LogHistogram,
}

impl TransportStats {
    /// Accumulates another shard's counters (peak is a maximum, the
    /// histogram merges, the rest are sums).
    pub fn merge(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.messages_framed += other.messages_framed;
        self.blocked_sends += other.blocked_sends;
        self.pool_allocs += other.pool_allocs;
        self.pool_reuses += other.pool_reuses;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.batch_hist.merge(&other.batch_hist);
    }

    /// Fraction of frame buffers served from the recycling pool rather
    /// than freshly allocated (1.0 when no frame was ever sent).
    pub fn pool_reuse_ratio(&self) -> f64 {
        let total = self.pool_allocs + self.pool_reuses;
        if total == 0 {
            1.0
        } else {
            self.pool_reuses as f64 / total as f64
        }
    }

    /// One-paragraph rendering for the harness, or `None` when the run
    /// shipped no frames (the simulator, or a plan without network edges).
    pub fn summary(&self) -> Option<String> {
        if self.frames_sent == 0 {
            return None;
        }
        Some(format!(
            "frames {}  messages {}  mean-batch {:.1}  blocked-sends {}  queue-peak {}  \
             pool-reuse {:.1}% ({} reused / {} fresh)\n{}",
            self.frames_sent,
            self.messages_framed,
            self.messages_framed as f64 / self.frames_sent as f64,
            self.blocked_sends,
            self.peak_queue_depth,
            100.0 * self.pool_reuse_ratio(),
            self.pool_reuses,
            self.pool_allocs,
            five_number_line("batch-size", &self.batch_hist),
        ))
    }
}

/// `"{label} min … max …\n"` over a histogram's five-number summary (empty
/// for an empty histogram).
fn five_number_line(label: &str, hist: &LogHistogram) -> String {
    hist.summary()
        .map(|[min, p25, p50, p75, max]| {
            format!("{label} min {min}  p25 {p25}  p50 {p50}  p75 {p75}  max {max}\n")
        })
        .unwrap_or_default()
}

/// Crash-recovery counters of the threaded executor's fault-injection
/// layer (all zero in fault-free runs and in the simulator). These are
/// *not* part of checkpointed state: a crash must not roll back the record
/// of its own recovery, so the executor accumulates them outside the
/// restored metrics object and folds them in after quiescence.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Injected node crashes taken.
    pub crashes: u64,
    /// Per-node boundary snapshots written (chunk starts + end of run).
    pub snapshots_taken: u64,
    /// Cumulative encoded bytes of those snapshots.
    pub snapshot_bytes: u64,
    /// Messages re-delivered to a restarted node from peer replay logs.
    pub replayed_messages: u64,
    /// Duplicate physical sends suppressed during replay because the
    /// restarted node's flushed-send log showed the message had already
    /// crossed the network before the crash.
    pub suppressed_sends: u64,
    /// Bounded-timeout retry rounds taken by senders while a peer was
    /// unresponsive (each round sleeps one backoff interval).
    pub send_retries: u64,
    /// Total nanoseconds slept across those backoff intervals.
    pub backoff_ns: u64,
    /// Distribution of individual backoff sleeps (nanoseconds).
    pub backoff_hist: LogHistogram,
    /// Wall nanoseconds from crash to fully restored state (summed over
    /// crashes).
    pub recovery_ns: u64,
}

impl RecoveryStats {
    /// Accumulates another shard's counters (sums; the histogram merges).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.crashes += other.crashes;
        self.snapshots_taken += other.snapshots_taken;
        self.snapshot_bytes += other.snapshot_bytes;
        self.replayed_messages += other.replayed_messages;
        self.suppressed_sends += other.suppressed_sends;
        self.send_retries += other.send_retries;
        self.backoff_ns += other.backoff_ns;
        self.backoff_hist.merge(&other.backoff_hist);
        self.recovery_ns += other.recovery_ns;
    }

    /// One-line rendering for the harness, or `None` when the run neither
    /// checkpointed nor crashed.
    pub fn summary(&self) -> Option<String> {
        if self.snapshots_taken == 0 && self.crashes == 0 {
            return None;
        }
        Some(format!(
            "crashes {}  snapshots {} ({} B)  replayed {}  suppressed {}  send-retries {}  \
             backoff {:.2} ms  recovery {:.2} ms\n",
            self.crashes,
            self.snapshots_taken,
            self.snapshot_bytes,
            self.replayed_messages,
            self.suppressed_sends,
            self.send_retries,
            self.backoff_ns as f64 / 1e6,
            self.recovery_ns as f64 / 1e6,
        ))
    }
}

/// Discrimination-index counters of the executors' inject paths: how many
/// source-task candidates each event was matched against, and how many
/// survived the predicate-band pruning. The hit ratio (pruned fraction) is
/// the index's effectiveness; the admitted-per-event histogram is the
/// candidate-set-size distribution the multi-query bench reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiscriminationStats {
    /// Events that consulted the index (events with at least one candidate).
    pub events: u64,
    /// Candidate source tasks considered across all events (post type/origin
    /// dispatch, pre band check).
    pub candidates_considered: u64,
    /// Candidates that passed their predicate bands and proceeded to full
    /// predicate evaluation.
    pub candidates_admitted: u64,
    /// Distribution of admitted candidate-set sizes per event.
    pub candidate_hist: LogHistogram,
}

impl DiscriminationStats {
    /// Records one event's candidate-set sizes.
    #[inline]
    pub fn observe(&mut self, considered: u64, admitted: u64) {
        self.events += 1;
        self.candidates_considered += considered;
        self.candidates_admitted += admitted;
        self.candidate_hist.record(admitted);
    }

    /// Fraction of considered candidates pruned by the bands (0.0 when the
    /// index was never consulted).
    pub fn hit_ratio(&self) -> f64 {
        if self.candidates_considered == 0 {
            0.0
        } else {
            1.0 - self.candidates_admitted as f64 / self.candidates_considered as f64
        }
    }

    /// Mean admitted candidate-set size per event (0.0 without events).
    pub fn mean_candidates(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.candidates_admitted as f64 / self.events as f64
        }
    }

    /// Accumulates another shard's counters (sums; the histogram merges).
    pub fn merge(&mut self, other: &DiscriminationStats) {
        self.events += other.events;
        self.candidates_considered += other.candidates_considered;
        self.candidates_admitted += other.candidates_admitted;
        self.candidate_hist.merge(&other.candidate_hist);
    }

    /// One-paragraph rendering for the harness, or `None` when no event
    /// went through the index.
    pub fn summary(&self) -> Option<String> {
        if self.candidates_considered == 0 {
            return None;
        }
        Some(format!(
            "events {}  candidates {}  admitted {}  filtered {:.1}%  mean-candidates {:.2}\n{}",
            self.events,
            self.candidates_considered,
            self.candidates_admitted,
            100.0 * self.hit_ratio(),
            // Per event *considered*, like the `candidates` total on this
            // line; `mean_candidates()` is the admitted mean.
            self.candidates_considered as f64 / self.events.max(1) as f64,
            five_number_line("candidate-set", &self.candidate_hist),
        ))
    }
}

/// Counters collected during an execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Raw events injected at their origin nodes.
    pub events_injected: u64,
    /// Matches sent over a network edge (one count per remote target node,
    /// matching the cost model's once-per-node shipping, §4.4).
    pub messages_sent: u64,
    /// Encoded bytes of the network messages.
    pub bytes_sent: u64,
    /// Matches handed between tasks on the same node (zero network cost).
    pub local_deliveries: u64,
    /// Matches emitted at sink tasks.
    pub sink_matches: u64,
    /// Per-node count of processed inputs (events + matches).
    pub per_node_processed: Vec<u64>,
    /// Virtual-time latency per sink match: emission time minus the latest
    /// constituent event's timestamp (ticks). Kept exact: the paper's
    /// Fig. 8 summaries and the pinned benchmark read this vector, and an
    /// export that wants fixed memory derives a [`LogHistogram`] from it.
    pub latencies: Vec<Timestamp>,
    /// Latency samples that could not be attributed to an injection
    /// timestamp and were dropped instead of being recorded as a bogus
    /// value — e.g. a sink match in a resumed run whose constituent events
    /// were injected before the restored snapshot. Loss of accounting is
    /// visible, never silent: `sink_matches` always equals recorded
    /// latency samples plus this counter.
    #[serde(default)]
    pub latency_samples_dropped: u64,
    /// Join-engine counters aggregated over all join tasks.
    pub join: JoinStats,
    /// Batched-transport counters (threaded executor only).
    #[serde(default)]
    pub transport: TransportStats,
    /// Crash-recovery counters (threaded executor fault layer only).
    #[serde(default)]
    pub recovery: RecoveryStats,
    /// Discrimination-index counters of the inject path.
    #[serde(default)]
    pub discrimination: DiscriminationStats,
}

impl Metrics {
    /// Creates metrics for a network of `n` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            per_node_processed: vec![0; num_nodes],
            ..Default::default()
        }
    }

    /// Records a processed input at a node.
    pub fn record_processed(&mut self, node: usize) {
        if node < self.per_node_processed.len() {
            self.per_node_processed[node] += 1;
        }
    }

    /// Merges another metrics object into this one (for per-thread
    /// collection).
    pub fn merge(&mut self, other: &Metrics) {
        self.events_injected += other.events_injected;
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.local_deliveries += other.local_deliveries;
        self.sink_matches += other.sink_matches;
        if self.per_node_processed.len() < other.per_node_processed.len() {
            self.per_node_processed
                .resize(other.per_node_processed.len(), 0);
        }
        for (i, v) in other.per_node_processed.iter().enumerate() {
            self.per_node_processed[i] += v;
        }
        self.latencies.extend_from_slice(&other.latencies);
        self.latency_samples_dropped += other.latency_samples_dropped;
        self.join.merge(&other.join);
        self.transport.merge(&other.transport);
        self.recovery.merge(&other.recovery);
        self.discrimination.merge(&other.discrimination);
    }

    /// The transmission ratio of this run against a centralized run in
    /// which every injected event crosses the network once.
    pub fn transmission_ratio(&self) -> f64 {
        if self.events_injected == 0 {
            return 0.0;
        }
        self.messages_sent as f64 / self.events_injected as f64
    }

    /// Latency percentile in ticks (p ∈ [0, 100]); `None` when no match was
    /// produced.
    pub fn latency_percentile(&self, p: f64) -> Option<Timestamp> {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        percentile_nearest_rank(&sorted, p / 100.0)
    }

    /// Five-number latency summary `(min, p25, p50, p75, max)` as reported
    /// in Fig. 8 of the paper. Sorts the latency vector once for all five
    /// percentiles, each picked by the shared
    /// [`percentile_nearest_rank`] rule.
    pub fn latency_summary(&self) -> Option<[Timestamp; 5]> {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        Some([
            percentile_nearest_rank(&sorted, 0.0)?,
            percentile_nearest_rank(&sorted, 0.25)?,
            percentile_nearest_rank(&sorted, 0.5)?,
            percentile_nearest_rank(&sorted, 0.75)?,
            percentile_nearest_rank(&sorted, 1.0)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = Metrics::new(2);
        a.events_injected = 10;
        a.messages_sent = 3;
        a.record_processed(0);
        let mut b = Metrics::new(2);
        b.events_injected = 5;
        b.messages_sent = 2;
        b.latencies.push(7);
        b.record_processed(1);
        a.merge(&b);
        assert_eq!(a.events_injected, 15);
        assert_eq!(a.messages_sent, 5);
        assert_eq!(a.per_node_processed, vec![1, 1]);
        assert_eq!(a.latencies, vec![7]);
    }

    #[test]
    fn transmission_ratio() {
        let mut m = Metrics::new(1);
        assert_eq!(m.transmission_ratio(), 0.0);
        m.events_injected = 100;
        m.messages_sent = 5;
        assert!((m.transmission_ratio() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles() {
        let mut m = Metrics::new(1);
        assert_eq!(m.latency_percentile(50.0), None);
        m.latencies = vec![10, 30, 20, 40, 50];
        assert_eq!(m.latency_percentile(0.0), Some(10));
        assert_eq!(m.latency_percentile(50.0), Some(30));
        assert_eq!(m.latency_percentile(100.0), Some(50));
        assert_eq!(m.latency_summary(), Some([10, 20, 30, 40, 50]));
    }

    #[test]
    fn summaries_are_none_until_something_ran() {
        let mut m = Metrics::new(1);
        assert!(m.transport.summary().is_none());
        assert!(m.discrimination.summary().is_none());
        assert!(m.recovery.summary().is_none());

        m.transport.frames_sent = 2;
        m.transport.messages_framed = 5;
        m.transport.pool_allocs = 1;
        m.transport.pool_reuses = 3;
        m.transport.batch_hist.record(2);
        m.transport.batch_hist.record(3);
        let text = m.transport.summary().expect("frames were sent");
        assert!(text.contains("mean-batch 2.5"), "{text}");
        assert!(
            text.contains("pool-reuse 75.0% (3 reused / 1 fresh)"),
            "{text}"
        );
        assert!(text.contains("batch-size min 2"), "{text}");

        m.discrimination.observe(4, 1);
        m.discrimination.observe(4, 2);
        let text = m.discrimination.summary().expect("events were looked up");
        assert!(
            text.contains("events 2  candidates 8  admitted 3"),
            "{text}"
        );
        assert!(
            text.contains("filtered 62.5%  mean-candidates 4.00"),
            "{text}"
        );
        assert!(text.contains("candidate-set min 1"), "{text}");

        m.recovery.snapshots_taken = 4;
        m.recovery.crashes = 1;
        let text = m.recovery.summary().expect("counters present");
        assert!(text.contains("crashes 1  snapshots 4"), "{text}");
    }

    #[test]
    fn nearest_rank_helper_matches_definition() {
        assert_eq!(percentile_nearest_rank(&[], 0.5), None);
        let sorted = [10u64, 20, 30, 40, 50];
        // rank = round(q·(n−1)): q=0.5 → rank 2, q=0.3 → rank 1.2 → 1.
        assert_eq!(percentile_nearest_rank(&sorted, 0.0), Some(10));
        assert_eq!(percentile_nearest_rank(&sorted, 0.3), Some(20));
        assert_eq!(percentile_nearest_rank(&sorted, 0.5), Some(30));
        assert_eq!(percentile_nearest_rank(&sorted, 1.0), Some(50));
        // Out-of-range quantiles clamp rather than panic.
        assert_eq!(percentile_nearest_rank(&sorted, 2.0), Some(50));
        assert_eq!(percentile_nearest_rank(&sorted, -1.0), Some(10));
    }

    #[test]
    fn recovery_and_drop_counters_merge() {
        let mut a = Metrics::new(1);
        a.latency_samples_dropped = 2;
        a.recovery.crashes = 1;
        a.recovery.backoff_hist.record(100);
        let mut b = Metrics::new(1);
        b.latency_samples_dropped = 3;
        b.recovery.replayed_messages = 7;
        b.recovery.backoff_hist.record(200);
        a.merge(&b);
        assert_eq!(a.latency_samples_dropped, 5);
        assert_eq!(a.recovery.crashes, 1);
        assert_eq!(a.recovery.replayed_messages, 7);
        assert_eq!(a.recovery.backoff_hist.count(), 2);
    }

    #[test]
    fn merge_grows_node_vector() {
        let mut a = Metrics::new(1);
        let mut b = Metrics::new(3);
        b.record_processed(2);
        a.merge(&b);
        assert_eq!(a.per_node_processed, vec![0, 0, 1]);
    }
}
