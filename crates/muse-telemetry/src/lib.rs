//! # muse-telemetry
//!
//! Observability substrate for the MuSE runtime, shared by the
//! discrete-event simulator and the thread-per-node executor:
//!
//! * [`hist`] — the fixed-memory [`LogHistogram`] (HDR-style bucketing,
//!   bounded relative error, mergeable across shards).
//! * [`ring`] — the one bounded record container the buffers below share.
//! * [`series`] — bounded per-task time series (queue depth, watermark
//!   lag, live partial matches, per-interval join activity).
//! * [`trace`] — a bounded ring of structured lineage records with JSONL
//!   export.
//! * [`lineage`] — sampled causal provenance: self-contained witness
//!   records explaining a sink match back to its source events.
//! * [`rate`] — windowed per-task output-rate estimators feeding the
//!   cost-model drift monitor.
//!
//! Counters are not kept here: the runtime's `Metrics` is the one account
//! of a run, and telemetry adds what it does not have. Executors accept an
//! optional [`TelemetrySpec`] and, when present, attach a [`RunTelemetry`]
//! to their reports; the bench harness writes those out next to the run's
//! metrics as `telemetry.json` + `series.jsonl` (+ `trace.jsonl`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod hist;
pub mod lineage;
pub mod rate;
pub mod ring;
pub mod series;
pub mod trace;

pub use hist::{HistSnapshot, LogHistogram};
pub use lineage::{sampled, AbsenceWindow, ProvenanceRecord, ProvenanceRing, WitnessEvent};
pub use rate::{RateBank, RateEstimator};
pub use ring::Ring;
pub use series::{ClockDomain, SeriesBuffer, SeriesRecord};
pub use trace::{TraceRecord, TraceRing};

use serde::{Deserialize, Serialize};

/// Configuration for telemetry collection during a run. Deserializes
/// leniently: omitted fields take their [`Default`] values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "TelemetrySpecRepr")]
pub struct TelemetrySpec {
    /// Series sampling cadence in virtual ticks (simulator executor).
    pub series_cadence_ticks: u64,
    /// Series sampling cadence in wall-clock nanoseconds (threaded
    /// executor).
    pub series_cadence_ns: u64,
    /// Maximum buffered series records per run (oldest dropped first).
    pub series_capacity: usize,
    /// Maximum buffered trace records per run (0 disables tracing).
    pub trace_capacity: usize,
    /// Provenance sampling divisor: 0 disables causal tracing, 1 records
    /// every sink match, `n` records the deterministic 1-in-`n` sample
    /// selected by match hash (see [`lineage::sampled`]).
    pub provenance_sample: u64,
    /// Maximum buffered provenance records per run.
    pub provenance_capacity: usize,
}

/// Wire-side shape of [`TelemetrySpec`] with every field optional.
#[derive(Deserialize)]
struct TelemetrySpecRepr {
    #[serde(default)]
    series_cadence_ticks: Option<u64>,
    #[serde(default)]
    series_cadence_ns: Option<u64>,
    #[serde(default)]
    series_capacity: Option<usize>,
    #[serde(default)]
    trace_capacity: Option<usize>,
    #[serde(default)]
    provenance_sample: Option<u64>,
    #[serde(default)]
    provenance_capacity: Option<usize>,
}

impl From<TelemetrySpecRepr> for TelemetrySpec {
    fn from(r: TelemetrySpecRepr) -> Self {
        Self {
            series_cadence_ticks: r.series_cadence_ticks.unwrap_or_else(default_cadence_ticks),
            series_cadence_ns: r.series_cadence_ns.unwrap_or_else(default_cadence_ns),
            series_capacity: r.series_capacity.unwrap_or_else(default_series_capacity),
            trace_capacity: r.trace_capacity.unwrap_or_else(default_trace_capacity),
            provenance_sample: r
                .provenance_sample
                .unwrap_or_else(default_provenance_sample),
            provenance_capacity: r
                .provenance_capacity
                .unwrap_or_else(default_provenance_capacity),
        }
    }
}

fn default_cadence_ticks() -> u64 {
    1000
}

fn default_cadence_ns() -> u64 {
    1_000_000
}

fn default_series_capacity() -> usize {
    65_536
}

fn default_trace_capacity() -> usize {
    4096
}

fn default_provenance_sample() -> u64 {
    0
}

fn default_provenance_capacity() -> usize {
    4096
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self {
            series_cadence_ticks: default_cadence_ticks(),
            series_cadence_ns: default_cadence_ns(),
            series_capacity: default_series_capacity(),
            trace_capacity: default_trace_capacity(),
            provenance_sample: default_provenance_sample(),
            provenance_capacity: default_provenance_capacity(),
        }
    }
}

impl TelemetrySpec {
    /// A spec that collects *only* provenance records at the given
    /// sampling divisor: series sampling and the lifecycle trace ring are
    /// disabled, so the overhead benchmarks isolate the cost of causal
    /// tracing itself.
    pub fn provenance_only(sample: u64) -> Self {
        Self {
            series_cadence_ticks: u64::MAX,
            series_cadence_ns: u64::MAX,
            series_capacity: 0,
            trace_capacity: 0,
            provenance_sample: sample,
            provenance_capacity: default_provenance_capacity(),
        }
    }
}

/// End-of-run per-task totals, for the harness summary table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSummary {
    /// Task index within the deployment.
    pub task: usize,
    /// Node hosting the task.
    pub node: usize,
    /// Human-readable task label.
    pub label: String,
    /// `"source"`, `"join"`, or `"sink"`.
    pub kind: String,
    /// Partial matches received over the whole run.
    pub inputs: u64,
    /// Store probes over the whole run.
    pub probes: u64,
    /// Matches emitted over the whole run.
    pub emitted: u64,
    /// Window evictions over the whole run.
    pub evictions: u64,
    /// Peak concurrently-buffered partial matches observed.
    pub peak_live: u64,
    /// Discrimination index: candidate lookups this source task appeared
    /// in (0 for join/sink tasks).
    pub considered: u64,
    /// Discrimination index: lookups admitted past the predicate bands.
    pub admitted: u64,
}

/// Everything telemetry collected over one executor run.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Interpretation of every timestamp in `series` and `trace`.
    pub clock: Option<ClockDomain>,
    /// Per-task time series.
    pub series: SeriesBuffer,
    /// Lineage trace ring.
    pub trace: TraceRing,
    /// Sampled causal provenance records (witness sets of sink matches).
    pub provenance: ProvenanceRing,
    /// Per-task output-rate estimators (event-time windows), feeding the
    /// cost-model drift monitor.
    pub rates: RateBank,
    /// End-of-run per-task totals.
    pub tasks: Vec<TaskSummary>,
}

impl RunTelemetry {
    /// Creates an empty container sized per `spec`.
    pub fn new(clock: ClockDomain, spec: &TelemetrySpec) -> Self {
        Self {
            clock: Some(clock),
            series: SeriesBuffer::new(spec.series_capacity),
            trace: TraceRing::new(spec.trace_capacity),
            provenance: ProvenanceRing::new(if spec.provenance_sample == 0 {
                0
            } else {
                spec.provenance_capacity
            }),
            rates: RateBank::new(spec.series_cadence_ticks, 0),
            tasks: Vec::new(),
        }
    }

    /// Renders the per-task summary as a plain-text table.
    pub fn task_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<5} {:<5} {:<26} {:<7} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "task",
            "node",
            "label",
            "kind",
            "inputs",
            "probes",
            "emitted",
            "evicted",
            "peak-live",
            "cands",
            "admitted"
        ));
        for t in &self.tasks {
            out.push_str(&format!(
                "{:<5} {:<5} {:<26} {:<7} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                t.task,
                t.node,
                t.label,
                t.kind,
                t.inputs,
                t.probes,
                t.emitted,
                t.evictions,
                t.peak_live,
                t.considered,
                t.admitted
            ));
        }
        out
    }

    /// Renders the causal-provenance collection state as a one-line
    /// summary, or `None` when tracing was disabled and nothing was
    /// sampled.
    pub fn provenance_summary(&self) -> Option<String> {
        if self.provenance.is_empty() && self.provenance.dropped() == 0 {
            return None;
        }
        let held = self.provenance.len();
        let dropped = self.provenance.dropped();
        let witnesses: usize = self.provenance.records().map(|r| r.witness.len()).sum();
        let mean_witness = witnesses as f64 / held.max(1) as f64;
        Some(format!(
            "records {held}  dropped {dropped}  mean-witness {mean_witness:.1}\n"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_fill_missing_fields() {
        let spec: TelemetrySpec = serde_json::from_str("{\"series_cadence_ticks\": 50}").unwrap();
        assert_eq!(spec.series_cadence_ticks, 50);
        assert_eq!(spec.series_capacity, default_series_capacity());
        assert_eq!(spec.trace_capacity, default_trace_capacity());
        let spec: TelemetrySpec = serde_json::from_str("{}").unwrap();
        assert_eq!(spec, TelemetrySpec::default());
    }

    #[test]
    fn task_table_renders_every_task() {
        let mut rt = RunTelemetry::new(ClockDomain::VirtualTicks, &TelemetrySpec::default());
        rt.tasks.push(TaskSummary {
            task: 0,
            node: 1,
            label: "J0@N1".into(),
            kind: "join".into(),
            inputs: 10,
            probes: 20,
            emitted: 5,
            evictions: 2,
            peak_live: 7,
            considered: 0,
            admitted: 0,
        });
        let table = rt.task_table();
        assert!(table.contains("J0@N1"));
        assert!(table.contains("peak-live"));
        assert!(table.contains("admitted"));
        assert_eq!(table.lines().count(), 2);
    }

    #[test]
    fn provenance_only_spec_isolates_tracing() {
        let spec = TelemetrySpec::provenance_only(64);
        assert_eq!(spec.provenance_sample, 64);
        assert_eq!(spec.series_capacity, 0);
        assert_eq!(spec.trace_capacity, 0);
        let rt = RunTelemetry::new(ClockDomain::VirtualTicks, &spec);
        assert_eq!(rt.provenance.dropped(), 0);
        // A zero sample allocates no provenance ring at all.
        let off = RunTelemetry::new(ClockDomain::VirtualTicks, &TelemetrySpec::default());
        let mut ring = off.provenance;
        ring.push(ProvenanceRecord {
            t: 0,
            node: 0,
            task: 0,
            query: 0,
            match_hash: 0,
            witness: vec![],
            absence: vec![],
        });
        assert!(ring.is_empty());
    }
}
