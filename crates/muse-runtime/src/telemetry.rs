//! Executor-side telemetry collection.
//!
//! Thin bridge between the node core and the `muse-telemetry` crate: owns
//! the per-run (simulator) or per-node-shard (threaded executor)
//! series/trace/provenance/rate containers and the per-task cumulative
//! state behind the sampled series deltas. It counts nothing the run's
//! [`crate::metrics::Metrics`] counts — that struct is the one account, and
//! reports hand it out next to the [`RunTelemetry`] built here.
//!
//! Telemetry is observational: it is not part of checkpointed executor
//! state, and a restore leaves it as it is. A crash rollback's rewind
//! rebases the series deltas on the rewound join counters and puts the
//! sources' candidate counts back, so the first sample after it reports
//! the work done since and the task summaries count the re-run once.

use crate::deploy::{Deployment, TaskKind};
use crate::matcher::{absence_windows, JoinTask, Match};
use crate::metrics::JoinStats;
use muse_core::event::Event;
use muse_core::query::Query;
use muse_telemetry::{sampled, AbsenceWindow, ProvenanceRecord, SeriesRecord, WitnessEvent};
pub use muse_telemetry::{ClockDomain, RunTelemetry, TaskSummary, TelemetrySpec, TraceRecord};

/// Per-run (or per-shard) collection state.
pub(crate) struct ExecTelemetry {
    run: RunTelemetry,
    cadence: u64,
    next_sample: u64,
    /// Cached `run.trace.is_enabled()`: per-event hooks skip building
    /// `TraceRecord`s entirely when the trace ring has capacity 0.
    trace_on: bool,
    /// Cumulative `[inputs, probes, evicted, emitted]` per task at the
    /// previous sample (or restore), for per-interval deltas.
    prev: Vec<[u64; 4]>,
    /// Provenance sampling divisor (0 disables witness recording).
    prov_sample: u64,
    /// Per-task `[considered, admitted]` candidate-projection counts for
    /// the discrimination index (source tasks); one array per task keeps
    /// the hot-path update to a single bounds check.
    pub disc: Vec<[u64; 2]>,
}

impl ExecTelemetry {
    pub fn new(clock: ClockDomain, spec: &TelemetrySpec, num_tasks: usize) -> Self {
        let run = RunTelemetry::new(clock, spec);
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
            prev: vec![[0; 4]; num_tasks],
            prov_sample: spec.provenance_sample,
            disc: vec![[0; 2]; num_tasks],
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

    /// One candidate projection considered (and possibly admitted past the
    /// discrimination predicates) for an injected event at `task`.
    #[inline]
    pub fn on_candidate(&mut self, task: usize, admitted: bool) {
        if let Some(d) = self.disc.get_mut(task) {
            d[0] += 1;
            d[1] += admitted as u64;
        }
    }

    /// `n` matches emitted by `task` at event time `t` (virtual ticks in
    /// both executors) — feeds the drift monitor's rate estimators.
    #[inline]
    pub fn on_emit(&mut self, task: usize, t: u64, n: u64) {
        self.run.rates.record(task, t, n);
    }

    /// A complete match attributed to `query` at a sink: one trace record,
    /// plus the full witness set if its hash falls in the deterministic
    /// provenance sample.
    #[allow(clippy::too_many_arguments)]
    pub fn on_sink(
        &mut self,
        t: u64,
        node: usize,
        task: usize,
        query: &Query,
        query_idx: usize,
        m: &Match,
        match_hash: u64,
    ) {
        if self.trace_on {
            self.run.trace.push(TraceRecord::SinkMatch {
                t,
                node,
                task,
                size: m.len(),
                last_time: m.last_time(),
            });
        }
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

    /// Emits one task's series record, converting its cumulative
    /// `[inputs, probes, evicted, emitted]` into per-interval deltas. Every
    /// delivery to the task counts one input, so the `inputs` delta is also
    /// its queue depth: the deliveries it consumed since the last sample.
    #[allow(clippy::too_many_arguments)]
    pub fn record_task_sample(
        &mut self,
        now: u64,
        task: usize,
        node: usize,
        label: String,
        live_matches: u64,
        watermark_lag: u64,
        stats: &JoinStats,
    ) {
        let totals = totals(stats);
        let prev = self.prev.get(task).copied().unwrap_or([0; 4]);
        let inputs = totals[0].saturating_sub(prev[0]);
        self.run.series.push(SeriesRecord {
            t: now,
            task,
            node,
            label,
            queue_depth: inputs,
            live_matches,
            watermark_lag,
            inputs,
            probes: totals[1].saturating_sub(prev[1]),
            evictions: totals[2].saturating_sub(prev[2]),
            emitted: totals[3].saturating_sub(prev[3]),
        });
        self.rebase(task, stats);
    }

    /// Counts `task`'s next series deltas from `stats`: after a sample, and
    /// after a restore put the join's counters back to a snapshot's.
    pub fn rebase(&mut self, task: usize, stats: &JoinStats) {
        if let Some(prev) = self.prev.get_mut(task) {
            *prev = totals(stats);
        }
    }

    /// Closes a sampling round, scheduling the next one.
    pub fn end_sample(&mut self, now: u64) {
        self.next_sample = now.saturating_add(self.cadence);
    }

    /// Attaches the per-task summaries and returns the completed
    /// telemetry.
    pub fn finish(mut self, tasks: Vec<TaskSummary>) -> RunTelemetry {
        self.run.tasks = tasks;
        self.run
    }
}

/// The counters a series record reports deltas of.
fn totals(stats: &JoinStats) -> [u64; 4] {
    [stats.inputs, stats.probes, stats.evicted, stats.emitted]
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
            })
        })
        .collect()
}
