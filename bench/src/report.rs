//! What a run leaves behind: the table on standard output, the stamped
//! result file, the history line, the span file, and the one-line result
//! the driver reads.

use crate::measure::{LoadFacts, Metric, Options, Outcome};
use crate::spans::{self_times, Spans};
use serde_json::{Map, Number, Value};
use std::fs;
use std::io::Write;
use std::path::Path;

fn num(v: f64) -> Value {
    Value::Num(Number::F(v))
}

fn count(v: u64) -> Value {
    Value::Num(Number::U(v))
}

fn text(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Map>(),
    )
}

fn metric_map(metrics: &[Metric], with_reps: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut o = Map::new();
                o.insert("value".into(), num(m.value));
                o.insert("unit".into(), text(m.unit));
                if let (true, Some(s)) = (with_reps, &m.summary) {
                    o.insert("reps".into(), s.to_json());
                }
                (m.name.to_string(), Value::Object(o))
            })
            .collect::<Map>(),
    )
}

pub fn facts_json(f: &LoadFacts) -> Value {
    object([
        ("events", count(f.events)),
        ("queries", count(f.queries)),
        ("physical_tasks", count(f.physical_tasks)),
        ("trace_hash", text(f.trace_hash.as_str())),
        ("sink_matches", count(f.sink_matches)),
    ])
}

/// Prints every metric by name with its unit.
pub fn print_table(opts: &Options, out: &Outcome, pinned: &str) {
    let f = &out.facts;
    println!(
        "== {} · seed {} ({pinned}) · {} events, {} queries, {} physical tasks, {} sink matches ==",
        opts.kind.name(),
        opts.seed,
        f.events,
        f.queries,
        f.physical_tasks,
        f.sink_matches
    );
    println!(
        "   reps: {}; {} latency samples per rep; checked {} against reference, {} failed",
        out.reps, out.latency_samples, out.attempted, out.failed
    );
    let rows = |title: &str, metrics: &[Metric]| {
        if metrics.is_empty() {
            return;
        }
        println!("   {title}");
        for m in metrics {
            match &m.summary {
                Some(s) => println!(
                    "     {:<32} {:>14.6} {:<6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} spread {:.1} % n {}",
                    m.name,
                    m.value,
                    m.unit,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    100.0 * s.spread(),
                    s.raw.len()
                ),
                None => println!("     {:<32} {:>14.6} {}", m.name, m.value, m.unit),
            }
        }
    };
    rows("end to end", &out.end_to_end);
    rows("per layer", &out.per_layer);
}

/// Prints the per-span table of the traced pass.
pub fn print_spans(spans: &Spans, task_table: Option<&str>) {
    let rows = self_times(spans.all());
    let total = rows.first().map_or(0, |r| r.2).max(1) as f64;
    println!("   spans (self time = duration − children)");
    for (name, calls, dur, own) in rows {
        println!(
            "     {:<24} calls {:>3}  total {:>10.3} ms  self {:>10.3} ms  {:>5.1} %",
            name,
            calls,
            dur as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / total
        );
    }
    if let Some(table) = task_table {
        println!("   per-task records of the traced threaded rep");
        for line in table.lines() {
            println!("     {line}");
        }
    }
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// The run stamp: enough to tell two result files apart.
fn stamp(opts: &Options, out: &Outcome) -> Value {
    object([
        (
            "nproc",
            count(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc", text(env_or_unknown("MUSE_PERF_RUSTC"))),
        ("git_rev", text(env_or_unknown("MUSE_PERF_GIT_REV"))),
        ("profile", text("release")),
        (
            "node_threads",
            count(if opts.kind.executes() { 2 } else { 0 }),
        ),
        ("seed", count(opts.seed)),
        ("seconds", num(opts.seconds)),
        ("traced", Value::Bool(opts.trace)),
        ("reps", count(out.reps as u64)),
        ("sizes", facts_json(&out.facts)),
    ])
}

/// Writes `<dir>/<workload>.json` (or `.traced.json`), appends one line to
/// `<dir>/history.jsonl`, and in the traced pass writes the span file.
pub fn write_files(
    dir: &Path,
    opts: &Options,
    out: &Outcome,
    spans: &Spans,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let name = opts.kind.name();
    let result = object([
        ("workload", text(name)),
        ("stamp", stamp(opts, out)),
        ("attempted", count(out.attempted)),
        ("failed", count(out.failed)),
        ("end_to_end", metric_map(&out.end_to_end, true)),
        ("per_layer", metric_map(&out.per_layer, false)),
    ]);
    let suffix = if opts.trace { "traced.json" } else { "json" };
    fs::write(
        dir.join(format!("{name}.{suffix}")),
        serde_json::to_string_pretty(&result).expect("values serialize") + "\n",
    )?;
    let mut history = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?;
    writeln!(
        history,
        "{}",
        serde_json::to_string(&result).expect("values serialize")
    )?;
    if opts.trace {
        fs::write(
            dir.join(format!("{name}.trace.json")),
            serde_json::to_string(&spans.to_json(name)).expect("values serialize") + "\n",
        )?;
    }
    Ok(())
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the end-to-end metrics untraced and the
/// per-layer metrics traced.
pub fn result_line(opts: &Options, out: &Outcome, correct: bool) -> String {
    let metrics = if opts.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let line = object([
        ("correct", Value::Bool(correct)),
        ("attempted", count(out.attempted.max(1))),
        ("failed", count(out.failed)),
        ("metrics", metric_map(metrics, false)),
    ]);
    serde_json::to_string(&line).expect("values serialize")
}
