//! The pinned benchmark of the MuSE pipeline. See `bench/README.md`.
//!
//! ```text
//! muse-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! muse-perf compare <dir A> <dir B>
//! ```
//!
//! The last line of standard output of a workload run is the one-line JSON
//! result the driver reads. Exit codes: 0 measured and correct, 1 a check
//! failed, 2 usage, 3 the pinned inputs changed.

mod compare;
mod hashing;
mod measure;
mod report;
mod spans;
mod stats;
mod workloads;

use measure::{LoadFacts, Options};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Kind;

/// Measured seconds of a run when `--seconds` is not given; the same
/// number as `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 30.0;

/// The share of the `workload` span that child spans must account for.
const MAX_UNACCOUNTED: f64 = 0.05;

/// Seed-1 load facts per workload, so that an edit to a generator cannot
/// silently change what is measured.
const PINS: &str = include_str!("../pins.json");

fn usage() -> ExitCode {
    eprintln!(
        "usage: muse-perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n       muse-perf compare <dir A> <dir B>",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn pinned_facts(kind: Kind) -> Option<LoadFacts> {
    let pins = serde_json::parse(PINS).expect("pins.json is valid JSON");
    let p = pins.as_object()?.get(kind.name())?.as_object()?;
    let n = |key: &str| match p.get(key) {
        Some(Value::Num(n)) => n.as_u64(),
        _ => None,
    };
    Some(LoadFacts {
        events: n("events")?,
        queries: n("queries")?,
        physical_tasks: n("physical_tasks")?,
        trace_hash: p.get("trace_hash")?.as_str()?.to_string(),
        sink_matches: n("sink_matches")?,
    })
}

/// `--workload` is required; everything else has a default.
fn parse_run_args(args: &[String]) -> Option<(Options, PathBuf)> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1, RUN_SECONDS, false, false);
    let mut out_dir = PathBuf::from("bench/out");
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        match flag {
            "--workload" => kind = Some(Kind::parse(it.next()?)?),
            "--seed" => seed = it.next()?.parse().ok()?,
            "--seconds" => {
                seconds = it.next()?.parse().ok()?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return None;
                }
            }
            "--trace" => {
                trace = match it.next()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => out_dir = PathBuf::from(it.next()?),
            "--smoke" => smoke = true,
            _ => return None,
        }
    }
    let opts = Options {
        kind: kind?,
        seed,
        // Smoke sizes measure nothing: one rep of each executor is enough.
        seconds: if smoke { 0.0 } else { seconds },
        trace,
        smoke,
    };
    Some((opts, out_dir))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return usage();
        };
        return match compare::compare(Path::new("BENCHMARK.json"), Path::new(a), Path::new(b)) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(worse) => {
                println!("{worse} worse");
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }

    let Some((opts, out_dir)) = parse_run_args(&args) else {
        return usage();
    };
    let kind = opts.kind;

    let (outcome, spans) = measure::run(&opts);

    // Pin the load: seed 1 at full size must be the load the baseline saw.
    let pinned = if opts.seed == 1 && !opts.smoke {
        match pinned_facts(kind) {
            Some(expected) if expected == outcome.facts => "pins match",
            expected => {
                eprintln!(
                    "inputs changed: workload {} at seed 1 no longer generates the pinned load\n  pinned:   {}\n  observed: {}\nIf the change is intended, put the observed object into bench/pins.json and re-measure the baseline.",
                    kind.name(),
                    expected.map_or("(none)".to_string(), |e| serde_json::to_string(
                        &report::facts_json(&e)
                    )
                    .expect("values serialize")),
                    serde_json::to_string(&report::facts_json(&outcome.facts))
                        .expect("values serialize"),
                );
                return ExitCode::from(3);
            }
        }
    } else {
        "unpinned"
    };

    let unaccounted = outcome.unaccounted_share;
    let correct = outcome.failed == 0 && unaccounted <= MAX_UNACCOUNTED;
    if opts.smoke {
        // Plumbing only: sizes this small measure nothing.
        println!(
            "smoke {}: {} events, {} checked, {} failed, spans account for {:.1} % — {}",
            kind.name(),
            outcome.facts.events,
            outcome.attempted,
            outcome.failed,
            100.0 * (1.0 - unaccounted),
            if correct { "ok" } else { "FAILED" }
        );
    } else {
        report::print_table(&opts, &outcome, pinned);
        if opts.trace {
            report::print_spans(&spans, outcome.task_table.as_deref());
        }
        if let Err(e) = report::write_files(&out_dir, &opts, &outcome, &spans) {
            eprintln!("cannot write results under {}: {e}", out_dir.display());
            return ExitCode::from(2);
        }
        println!("{}", report::result_line(&opts, &outcome, correct));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "check failed on {}: {} of {} reference matches missing, extra or without latency; {:.1} % of the run outside any span",
            kind.name(),
            outcome.failed,
            outcome.attempted,
            100.0 * unaccounted
        );
        ExitCode::from(1)
    }
}
