//! Executor-side telemetry collection.
//!
//! Thin bridge between the executors and the `muse-telemetry` crate: owns
//! the per-run (simulator) or per-node-shard (threaded executor)
//! registry/series/trace containers, pre-registered metric handles for
//! allocation-free hot-path updates, and the per-task cumulative state
//! behind the sampled series deltas. Join-engine counters are folded from
//! [`crate::metrics::JoinStats`] at the end of a run — they are already
//! accumulated allocation-free inside [`crate::matcher::JoinTask`].
//!
//! Telemetry is observational: it is not part of checkpointed executor
//! state and resets on restore.

use crate::deploy::{Deployment, TaskKind};
use crate::matcher::{absence_windows, JoinTask, Match};
use crate::metrics::Metrics;
use muse_core::event::Event;
use muse_core::query::Query;
pub use muse_telemetry::{
    names, ClockDomain, GaugeKind, RunTelemetry, TaskSummary, TelemetrySpec, TraceRecord,
};
use muse_telemetry::{
    sampled, AbsenceWindow, CounterId, HistId, ProvenanceRecord, SeriesRecord, WitnessEvent,
};

/// Per-run (or per-shard) collection state with hot-path metric handles.
pub(crate) struct ExecTelemetry {
    run: RunTelemetry,
    cadence: u64,
    next_sample: u64,
    /// Cached `run.trace.is_enabled()`: per-event hooks skip building
    /// `TraceRecord`s entirely when the trace ring has capacity 0.
    trace_on: bool,
    c_events: CounterId,
    c_msgs: CounterId,
    c_bytes: CounterId,
    c_local: CounterId,
    c_sink: CounterId,
    h_latency: HistId,
    /// Cumulative `[inputs, probes, evicted, emitted]` per task at the
    /// previous sample, for per-interval deltas.
    prev: Vec<[u64; 4]>,
    /// Deliveries consumed per task since the previous sample (the
    /// threaded executor's queue-depth proxy).
    drained: Vec<u64>,
    /// Provenance sampling divisor (0 disables witness recording).
    prov_sample: u64,
    /// Per-task `[considered, admitted]` candidate-projection counts for
    /// the discrimination index (source tasks); one array per task keeps
    /// the hot-path update to a single bounds check.
    disc: Vec<[u64; 2]>,
    /// Messages replayed to each task during crash recovery.
    replayed: Vec<u64>,
    /// Duplicate deliveries suppressed at each task after replay.
    suppressed: Vec<u64>,
}

impl ExecTelemetry {
    pub fn new(clock: ClockDomain, spec: &TelemetrySpec, num_tasks: usize) -> Self {
        let mut run = RunTelemetry::new(clock, spec);
        let r = &mut run.registry;
        let c_events = r.counter(names::EVENTS_INJECTED);
        let c_msgs = r.counter(names::MESSAGES_SENT);
        let c_bytes = r.counter(names::BYTES_SENT);
        let c_local = r.counter(names::LOCAL_DELIVERIES);
        let c_sink = r.counter(names::SINK_MATCHES);
        let h_latency = r.hist(names::LATENCY_SINK);
        let cadence = match clock {
            ClockDomain::VirtualTicks => spec.series_cadence_ticks,
            ClockDomain::WallNanos => spec.series_cadence_ns,
        }
        .max(1);
        let trace_on = run.trace.is_enabled();
        Self {
            run,
            cadence,
            next_sample: 0,
            trace_on,
            c_events,
            c_msgs,
            c_bytes,
            c_local,
            c_sink,
            h_latency,
            prev: vec![[0; 4]; num_tasks],
            drained: vec![0; num_tasks],
            prov_sample: spec.provenance_sample,
            disc: vec![[0; 2]; num_tasks],
            replayed: vec![0; num_tasks],
            suppressed: vec![0; num_tasks],
        }
    }

    /// The provenance sampling divisor (0 = witness recording disabled);
    /// lets executors skip match-hash computation when tracing is off.
    pub fn provenance_sample(&self) -> u64 {
        self.prov_sample
    }

    /// One event accepted by the source tasks at its origin.
    #[inline]
    pub fn on_inject(&mut self, t: u64, node: usize, task: usize, event: &Event) {
        self.run.registry.inc(self.c_events, 1);
        if self.trace_on {
            self.run.trace.push(TraceRecord::EventInjected {
                t,
                node,
                task,
                event_type: event.ty.0 as u32,
                seq: event.seq,
            });
        }
    }

    /// One match counted as crossing the network to a remote node.
    #[inline]
    pub fn on_ship(&mut self, t: u64, from: usize, to: usize, task: usize, bytes: u64) {
        self.run.registry.inc(self.c_msgs, 1);
        self.run.registry.inc(self.c_bytes, bytes);
        if self.trace_on {
            self.run.trace.push(TraceRecord::MessageShipped {
                t,
                from,
                to,
                task,
                bytes,
            });
        }
    }

    /// One node-local (zero network cost) delivery.
    #[inline]
    pub fn on_local(&mut self) {
        self.run.registry.inc(self.c_local, 1);
    }

    /// One delivery consumed by a task (feeds the queue-depth series in
    /// the threaded executor).
    #[inline]
    pub fn on_delivery(&mut self, task: usize) {
        if task < self.drained.len() {
            self.drained[task] += 1;
        }
    }

    /// A join produced a (non-sink) merged match.
    #[inline]
    pub fn on_merge(&mut self, t: u64, node: usize, task: usize, size: usize, span: u64) {
        if self.trace_on {
            self.run.trace.push(TraceRecord::MatchMerged {
                t,
                node,
                task,
                size,
                span,
            });
        }
    }

    /// A complete match emitted at a sink.
    pub fn on_sink(
        &mut self,
        t: u64,
        node: usize,
        task: usize,
        size: usize,
        last_time: u64,
        latency: u64,
    ) {
        self.run.registry.inc(self.c_sink, 1);
        self.run.registry.observe(self.h_latency, latency);
        if self.trace_on {
            self.run.trace.push(TraceRecord::SinkMatch {
                t,
                node,
                task,
                size,
                last_time,
            });
        }
    }

    /// One candidate projection considered (and possibly admitted past the
    /// discrimination predicates) for an injected event at `task`.
    #[inline]
    pub fn on_candidate(&mut self, task: usize, admitted: bool) {
        if let Some(d) = self.disc.get_mut(task) {
            d[0] += 1;
            d[1] += admitted as u64;
        }
    }

    /// `n` logged messages replayed to `task` during crash recovery.
    pub fn on_replayed(&mut self, task: usize, n: u64) {
        if task < self.replayed.len() {
            self.replayed[task] += n;
        }
    }

    /// One duplicate delivery suppressed at `task` after a replay.
    pub fn on_suppressed(&mut self, task: usize) {
        if task < self.suppressed.len() {
            self.suppressed[task] += 1;
        }
    }

    /// `n` matches emitted by `task` at event time `t` (virtual ticks in
    /// both executors) — feeds the drift monitor's rate estimators.
    #[inline]
    pub fn on_emit(&mut self, task: usize, t: u64, n: u64) {
        self.run.rates.record(task, t, n);
    }

    /// Records the full witness set of a sink match if its hash falls in
    /// the deterministic provenance sample.
    #[allow(clippy::too_many_arguments)]
    pub fn on_sink_match(
        &mut self,
        t: u64,
        node: usize,
        task: usize,
        query: &Query,
        query_idx: usize,
        m: &Match,
        match_hash: u64,
    ) {
        if !sampled(self.prov_sample, match_hash) {
            return;
        }
        let witness = m
            .entries()
            .iter()
            .map(|(p, e)| WitnessEvent {
                prim: p.0,
                seq: e.seq,
                origin: e.origin.0,
                ty: e.ty.0,
                t: e.time,
            })
            .collect();
        let absence = absence_windows(m, query)
            .into_iter()
            .map(|(ty, lo, hi)| AbsenceWindow { ty: ty.0, lo, hi })
            .collect();
        self.run.provenance.push(ProvenanceRecord {
            t,
            node,
            task,
            query: query_idx as u32,
            match_hash,
            witness,
            absence,
        });
    }

    /// Whether the series cadence has elapsed at `now`.
    pub fn sample_due(&self, now: u64) -> bool {
        now >= self.next_sample
    }

    /// Deliveries consumed by `task` since its last sample.
    pub fn drained_since(&self, task: usize) -> u64 {
        self.drained.get(task).copied().unwrap_or(0)
    }

    /// Emits one task's series record, converting cumulative totals
    /// `[inputs, probes, evicted, emitted]` into per-interval deltas.
    #[allow(clippy::too_many_arguments)]
    pub fn record_task_sample(
        &mut self,
        now: u64,
        task: usize,
        node: usize,
        label: String,
        queue_depth: u64,
        live_matches: u64,
        watermark_lag: u64,
        totals: [u64; 4],
    ) {
        let prev = self.prev.get(task).copied().unwrap_or([0; 4]);
        self.run.series.push(SeriesRecord {
            t: now,
            task,
            node,
            label,
            queue_depth,
            live_matches,
            watermark_lag,
            inputs: totals[0].saturating_sub(prev[0]),
            probes: totals[1].saturating_sub(prev[1]),
            evictions: totals[2].saturating_sub(prev[2]),
            emitted: totals[3].saturating_sub(prev[3]),
        });
        if task < self.prev.len() {
            self.prev[task] = totals;
            self.drained[task] = 0;
        }
    }

    /// Closes a sampling round, scheduling the next one.
    pub fn end_sample(&mut self, now: u64) {
        self.next_sample = now.saturating_add(self.cadence);
    }

    /// Folds the run-wide join counters (already aggregated in `metrics`)
    /// into the registry, attaches the per-task summaries, and returns the
    /// completed telemetry.
    pub fn finish(mut self, metrics: &Metrics, tasks: Vec<TaskSummary>) -> RunTelemetry {
        let r = &mut self.run.registry;
        for (name, v) in [
            (names::JOIN_INPUTS, metrics.join.inputs),
            (names::JOIN_PROBES, metrics.join.probes),
            (names::JOIN_GUARD_REJECTS, metrics.join.guard_rejects),
            (names::JOIN_MERGE_ATTEMPTS, metrics.join.merge_attempts),
            (names::JOIN_MERGE_SUCCESSES, metrics.join.merge_successes),
            (names::JOIN_EMITTED, metrics.join.emitted),
            (names::JOIN_EVICTED, metrics.join.evicted),
        ] {
            let id = r.counter(name);
            r.inc(id, v);
        }
        let g = r.gauge(names::JOIN_PEAK_LIVE, GaugeKind::Max);
        r.gauge_peak(g, metrics.join.peak_buffered);
        // Transport counters exist only where a transport ran (threaded
        // executor shards that actually shipped frames).
        let t = &metrics.transport;
        if t.frames_sent > 0 {
            for (name, v) in [
                (names::TRANSPORT_FRAMES, t.frames_sent),
                (names::TRANSPORT_MESSAGES_FRAMED, t.messages_framed),
                (names::TRANSPORT_BLOCKED_SENDS, t.blocked_sends),
                (names::TRANSPORT_POOL_ALLOCS, t.pool_allocs),
                (names::TRANSPORT_POOL_REUSES, t.pool_reuses),
            ] {
                let id = r.counter(name);
                r.inc(id, v);
            }
            let g = r.gauge(names::TRANSPORT_QUEUE_PEAK, GaugeKind::Max);
            r.gauge_peak(g, t.peak_queue_depth);
            let h = r.hist(names::TRANSPORT_BATCH_SIZE);
            r.observe_hist(h, &t.batch_hist);
        }
        if metrics.latency_samples_dropped > 0 {
            let id = r.counter(names::LATENCY_SAMPLES_DROPPED);
            r.inc(id, metrics.latency_samples_dropped);
        }
        // Discrimination-index counters exist only where events flowed
        // through the candidate lookup (any executor run with traffic).
        let d = &metrics.discrimination;
        if d.candidates_considered > 0 {
            for (name, v) in [
                (names::DISCRIMINATION_EVENTS, d.events),
                (names::DISCRIMINATION_CANDIDATES, d.candidates_considered),
                (names::DISCRIMINATION_ADMITTED, d.candidates_admitted),
            ] {
                let id = r.counter(name);
                r.inc(id, v);
            }
            let h = r.hist(names::DISCRIMINATION_CANDIDATE_SET);
            r.observe_hist(h, &d.candidate_hist);
        }
        // Recovery counters exist only where resilience machinery ran
        // (checkpointing or fault injection enabled).
        let rec = &metrics.recovery;
        if rec.snapshots_taken > 0 || rec.crashes > 0 {
            for (name, v) in [
                (names::RECOVERY_CRASHES, rec.crashes),
                (names::RECOVERY_SNAPSHOTS, rec.snapshots_taken),
                (names::RECOVERY_SNAPSHOT_BYTES, rec.snapshot_bytes),
                (names::RECOVERY_REPLAYED, rec.replayed_messages),
                (names::RECOVERY_SUPPRESSED, rec.suppressed_sends),
                (names::RECOVERY_SEND_RETRIES, rec.send_retries),
                (names::RECOVERY_BACKOFF_NS, rec.backoff_ns),
                (names::RECOVERY_NS, rec.recovery_ns),
            ] {
                let id = r.counter(name);
                r.inc(id, v);
            }
            let h = r.hist(names::RECOVERY_BACKOFF_SLEEP);
            r.observe_hist(h, &rec.backoff_hist);
        }
        self.run.tasks = tasks;
        self.run
    }
}

/// Builds end-of-run [`TaskSummary`] rows for the given task indices;
/// `joins` holds the live join state per task (parallel to
/// `Deployment::tasks`). Join tasks always appear; source tasks (no join
/// state) appear only when the discrimination path measured them, so the
/// summary stays bounded at shared-multi-query scale while still surfacing
/// per-source candidate counters. `tel` contributes the discrimination and
/// recovery columns.
pub(crate) fn task_summaries(
    deployment: &Deployment,
    indices: impl Iterator<Item = usize>,
    joins: &[Option<JoinTask>],
    tel: &ExecTelemetry,
) -> Vec<TaskSummary> {
    indices
        .filter_map(|i| {
            let spec = &deployment.tasks[i];
            let considered = tel.disc.get(i).map_or(0, |d| d[0]);
            let join = joins[i].as_ref();
            if join.is_none() && considered == 0 {
                return None;
            }
            let kind = match spec.kind {
                TaskKind::Source { .. } => "source",
                TaskKind::Join { .. } if spec.is_sink => "sink",
                TaskKind::Join { .. } => "join",
            };
            let (inputs, probes, emitted, evictions, peak_live) = match join {
                Some(j) => {
                    let s = j.stats();
                    (s.inputs, s.probes, s.emitted, s.evicted, s.peak_buffered)
                }
                None => (0, 0, 0, 0, 0),
            };
            Some(TaskSummary {
                task: i,
                node: spec.node.index(),
                label: deployment.task_label(i),
                kind: kind.to_string(),
                inputs,
                probes,
                emitted,
                evictions,
                peak_live,
                considered,
                admitted: tel.disc.get(i).map_or(0, |d| d[1]),
                replayed: tel.replayed.get(i).copied().unwrap_or(0),
                suppressed: tel.suppressed.get(i).copied().unwrap_or(0),
            })
        })
        .collect()
}
