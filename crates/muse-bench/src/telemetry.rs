//! Harness-side telemetry aggregation and export (`--telemetry DIR`).
//!
//! Executors hand back one [`Metrics`] and one [`RunTelemetry`] per run;
//! the harness collects the pairs per experiment in a
//! [`TelemetryCollector`] and a [`TelemetryOutput`] writes four artifacts
//! into the chosen directory:
//!
//! * `telemetry.json` — per experiment the [`Metrics::merge`] of its runs,
//!   and per run its metrics plus task/series/trace/provenance sections;
//! * `series.jsonl` — every buffered per-task series sample, one JSON
//!   object per line, tagged with its experiment and run;
//! * `trace.jsonl` — the bounded lineage trace rings, tagged likewise;
//! * `provenance.jsonl` — every retained [`ProvenanceRecord`], tagged
//!   likewise (empty unless a run sampled provenance).
//!
//! [`ProvenanceRecord`]: muse_telemetry::ProvenanceRecord

use muse_runtime::metrics::Metrics;
use muse_runtime::telemetry::{RunTelemetry, TelemetrySpec};
use muse_telemetry::{LogHistogram, Ring};
use serde::Serialize;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Builds a JSON object from string keys and values.
fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// What a telemetry ring holds and what it lost, as export entries.
fn ring_counts<T>(ring: &Ring<T>) -> Vec<(&'static str, Value)> {
    vec![
        ("len", (ring.len() as u64).to_value()),
        ("dropped", ring.dropped().to_value()),
    ]
}

/// The exported form of a run's [`Metrics`]: every field as serialized,
/// except that the raw latency vector is replaced by its exact five-number
/// summary and a fixed-size histogram derived from it here, off the hot
/// path.
fn metrics_value(metrics: &Metrics) -> Value {
    let mut hist = LogHistogram::new();
    for &l in &metrics.latencies {
        hist.record(l);
    }
    let mut v = metrics.to_value();
    if let Value::Object(map) = &mut v {
        map.remove("latencies");
        map.insert(
            "latency_summary".to_string(),
            metrics.latency_summary().to_value(),
        );
        map.insert("latency_hist".to_string(), hist.to_value());
    }
    v
}

/// Per-experiment telemetry collection: each run's label, metrics and
/// telemetry payload.
pub struct TelemetryCollector {
    spec: TelemetrySpec,
    runs: Vec<(String, Metrics, RunTelemetry)>,
}

impl Default for TelemetryCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryCollector {
    /// Creates a collector with the default [`TelemetrySpec`].
    pub fn new() -> Self {
        Self {
            spec: TelemetrySpec::default(),
            runs: Vec::new(),
        }
    }

    /// The spec to hand to executor configs.
    pub fn spec(&self) -> TelemetrySpec {
        self.spec.clone()
    }

    /// Absorbs one run's metrics and telemetry under the given label.
    pub fn record_run(&mut self, label: &str, metrics: &Metrics, run: RunTelemetry) {
        self.runs.push((label.to_string(), metrics.clone(), run));
    }

    /// The collected runs, in recording order.
    pub fn runs(&self) -> impl Iterator<Item = &(String, Metrics, RunTelemetry)> {
        self.runs.iter()
    }

    /// One-line experiment summary: the harness-measured wall time and the
    /// peak live partial matches of any collected run.
    pub fn summary_line(&self, wall: Duration) -> String {
        let peak = self.runs.iter().map(|(_, m, _)| m.join.peak_buffered).max();
        format!(
            "wall {:.1} ms, peak live matches {}",
            wall.as_secs_f64() * 1e3,
            peak.unwrap_or(0)
        )
    }

    fn section(&self, experiment: &str) -> Value {
        let mut merged = Metrics::default();
        for (_, metrics, _) in &self.runs {
            merged.merge(metrics);
        }
        let runs: Vec<Value> = self
            .runs
            .iter()
            .map(|(label, metrics, run)| {
                let mut provenance = ring_counts(&run.provenance);
                provenance.push(("summary", run.provenance_summary().to_value()));
                obj(vec![
                    ("run", label.to_value()),
                    ("clock", run.clock.to_value()),
                    ("metrics", metrics_value(metrics)),
                    ("tasks", run.tasks.to_value()),
                    ("series", obj(ring_counts(&run.series))),
                    ("trace", obj(ring_counts(&run.trace))),
                    ("provenance", obj(provenance)),
                ])
            })
            .collect();
        obj(vec![
            ("experiment", experiment.to_value()),
            ("metrics", metrics_value(&merged)),
            ("runs", Value::Array(runs)),
        ])
    }
}

/// Tags a serialized record with its experiment and run, one JSONL line.
fn tagged_line<T: Serialize>(experiment: &str, run: &str, rec: &T) -> String {
    let mut v = rec.to_value();
    if let Value::Object(map) = &mut v {
        map.insert("experiment".to_string(), experiment.to_value());
        map.insert("run".to_string(), run.to_value());
    }
    serde_json::to_string(&v).expect("value renders as JSON")
}

/// Accumulates every experiment's telemetry and writes the export files.
#[derive(Default)]
pub struct TelemetryOutput {
    experiments: Vec<Value>,
    series: String,
    trace: String,
    provenance: String,
}

impl TelemetryOutput {
    /// Creates an empty output.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished experiment's collector into the output.
    pub fn add(&mut self, experiment: &str, collector: &TelemetryCollector) {
        self.experiments.push(collector.section(experiment));
        for (label, _, run) in collector.runs() {
            for rec in run.series.records() {
                self.series.push_str(&tagged_line(experiment, label, rec));
                self.series.push('\n');
            }
            for rec in run.trace.records() {
                self.trace.push_str(&tagged_line(experiment, label, rec));
                self.trace.push('\n');
            }
            for rec in run.provenance.records() {
                self.provenance
                    .push_str(&tagged_line(experiment, label, rec));
                self.provenance.push('\n');
            }
        }
    }

    /// Writes `telemetry.json`, `series.jsonl`, `trace.jsonl`, and
    /// `provenance.jsonl` into `dir` (created if missing). Returns the
    /// written paths.
    pub fn write(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let doc = obj(vec![(
            "experiments",
            Value::Array(self.experiments.clone()),
        )]);
        let text = serde_json::to_string_pretty(&doc)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let json_path = dir.join("telemetry.json");
        std::fs::write(&json_path, text)?;
        let series_path = dir.join("series.jsonl");
        std::fs::write(&series_path, &self.series)?;
        let trace_path = dir.join("trace.jsonl");
        std::fs::write(&trace_path, &self.trace)?;
        let prov_path = dir.join("provenance.jsonl");
        std::fs::write(&prov_path, &self.provenance)?;
        Ok(vec![json_path, series_path, trace_path, prov_path])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_runtime::telemetry::ClockDomain;

    #[test]
    fn summary_line_reports_wall_and_peak() {
        let mut c = TelemetryCollector::new();
        let mut metrics = Metrics::new(1);
        metrics.join.peak_buffered = 9;
        let run = RunTelemetry::new(ClockDomain::VirtualTicks, &c.spec());
        c.record_run("r0", &metrics, run);
        let line = c.summary_line(Duration::from_micros(2_500));
        assert!(line.contains("wall 2.5 ms"), "{line}");
        assert!(line.contains("peak live matches 9"), "{line}");
    }

    #[test]
    fn output_writes_tagged_jsonl() {
        let mut c = TelemetryCollector::new();
        let mut run = RunTelemetry::new(ClockDomain::VirtualTicks, &c.spec());
        run.series.push(muse_telemetry::SeriesRecord {
            t: 7,
            task: 0,
            node: 0,
            label: "J0".into(),
            queue_depth: 1,
            live_matches: 2,
            watermark_lag: 0,
            inputs: 1,
            probes: 1,
            evictions: 0,
            emitted: 0,
        });
        let mut metrics = Metrics::new(1);
        metrics.latencies = vec![5, 100, 2_000, 30_000, 400_000];
        c.record_run("r0", &metrics, run);
        let mut out = TelemetryOutput::new();
        out.add("exp", &c);
        let line = serde_json::parse(out.series.lines().next().unwrap()).unwrap();
        let map = line.as_object().unwrap();
        assert_eq!(map.get("experiment").and_then(Value::as_str), Some("exp"));
        assert_eq!(map.get("run").and_then(Value::as_str), Some("r0"));
        assert!(map.contains_key("t"));
        // The experiment section carries the merged metrics; the latency
        // vector is exported as its summary and a histogram, not raw.
        let section = out.experiments[0].as_object().unwrap();
        let exported = section["metrics"].as_object().unwrap();
        assert!(!exported.contains_key("latencies"));
        assert_eq!(
            exported["latency_summary"],
            [5u64, 100, 2_000, 30_000, 400_000].to_value()
        );
        let hist = exported["latency_hist"].as_object().unwrap();
        assert_eq!(hist["count"], 5u64.to_value());
    }

    /// A crashed node re-injects from its last checkpoint. The exported
    /// account must be the rolled-back one: as many injections as the trace
    /// has events, however many times some of them ran.
    #[test]
    fn crashed_run_exports_the_rolled_back_account() {
        use crate::transport_stress::{stress_deployment, stress_network, stress_trace, CENTERS};
        use muse_runtime::threaded::{run_threaded, FaultPlan, ThreadedConfig};

        let network = stress_network();
        let deployment = stress_deployment(&network);
        let events = stress_trace(&network, 4.0, 7);
        // The first edge node: it injects most of the trace, so the crash
        // re-runs a long stretch of injections.
        let node = CENTERS;
        let local = events.iter().filter(|e| e.origin.index() == node).count() as u64;
        let mut c = TelemetryCollector::new();
        let mut report = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                telemetry: Some(c.spec()),
                fault: Some(FaultPlan {
                    node,
                    crash_at: local / 2,
                    restart_delay: Duration::ZERO,
                }),
                ..ThreadedConfig::default()
            },
        );
        assert_eq!(report.metrics.recovery.crashes, 1, "crash must fire");
        let run = report.telemetry.take().expect("telemetry requested");
        c.record_run("crashed", &report.metrics, run);
        let section = c.section("faults");
        let exported = section.as_object().unwrap()["runs"].as_array().unwrap()[0]
            .as_object()
            .unwrap()["metrics"]
            .as_object()
            .unwrap();
        assert_eq!(
            exported["events_injected"],
            (events.len() as u64).to_value()
        );
        assert_eq!(
            exported["recovery"].as_object().unwrap()["crashes"],
            1u64.to_value()
        );
    }
}
