//! Experiment harness CLI: regenerates every table and figure of the
//! paper's evaluation (§7).
//!
//! ```text
//! harness <experiment|all> [--reps N] [--seed S] [--quick] [--out DIR] [--telemetry DIR]
//! harness explain <match-hash|all> [--seed S] [--quick]
//! ```
//!
//! Experiments: fig5a fig5b fig5c fig5d fig6a fig6b fig7a fig7b fig7c fig7d
//! table3 fig8. Results are printed as text tables and, with `--out`,
//! written as `DIR/<id>.json` for downstream plotting. `ablation`
//! (design-choice ablations, not a paper artifact) is run only when named
//! explicitly.
//!
//! `explain` re-runs the calibrated witness workload with full provenance
//! sampling and replays one recorded match (by its hex hash, as printed
//! in provenance exports) — or every record with `all` — checking that
//! the witness event set alone reproduces the match byte-identically, then
//! prints the run's cost-model drift table.
//!
//! With `--telemetry DIR`, the executing experiments (`table3`, `fig8`)
//! additionally collect each run's metrics and telemetry — per-task
//! series, lineage traces, provenance records — written as
//! `DIR/telemetry.json`, `DIR/series.jsonl`, `DIR/trace.jsonl`, and
//! `DIR/provenance.jsonl`, with a per-task summary table printed per run.

use muse_bench::experiments::{all_experiments, experiment_ids, run_experiment_telemetry};
use muse_bench::runner::SweepSettings;
use muse_bench::telemetry::{TelemetryCollector, TelemetryOutput};
use std::path::PathBuf;
use std::process::ExitCode;

/// A parsed `harness <experiment|all> …` command line.
struct Cli {
    /// Experiment ids to run, in command-line order, each once.
    ids: Vec<&'static str>,
    settings: SweepSettings,
    out_dir: Option<PathBuf>,
    telemetry_dir: Option<PathBuf>,
}

impl Cli {
    fn select(&mut self, id: &'static str) {
        if !self.ids.contains(&id) {
            self.ids.push(id);
        }
    }
}

/// Parses the experiment-running command line. `--quick` lowers `reps`
/// only, so `--seed 7 --quick` and `--quick --seed 7` both run seed 7.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        ids: Vec::new(),
        settings: SweepSettings::default(),
        out_dir: None,
        telemetry_dir: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let number = |v: Option<&String>| {
            v.and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{arg} needs a number"))
        };
        let path = |v: Option<&String>| {
            v.map(PathBuf::from)
                .ok_or_else(|| format!("{arg} needs a path"))
        };
        match arg.as_str() {
            "--reps" => cli.settings.reps = number(args.next())?,
            "--seed" => cli.settings.seed = number(args.next())?,
            "--quick" => cli.settings.reps = SweepSettings::quick().reps,
            "--out" => cli.out_dir = Some(path(args.next())?),
            "--telemetry" => cli.telemetry_dir = Some(path(args.next())?),
            "all" => all_experiments().into_iter().for_each(|id| cli.select(id)),
            other => match experiment_ids().find(|id| *id == other) {
                Some(id) => cli.select(id),
                None => return Err(format!("unknown argument '{other}'")),
            },
        }
    }
    if cli.ids.is_empty() {
        return Err("no experiment selected".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: harness <experiment|all> [--reps N] [--seed S] [--quick] [--out DIR] \
             [--telemetry DIR]\n\
             \u{20}      harness explain <match-hash|all> [--seed S] [--quick]\n\
             experiments: {} all",
            experiment_ids().collect::<Vec<_>>().join(" ")
        );
        return ExitCode::from(2);
    }
    if args[0] == "explain" {
        return run_explain(&args[1..]);
    }
    let Cli {
        ids,
        settings,
        out_dir,
        telemetry_dir,
    } = parse(&args).unwrap_or_else(|msg| die(&msg));

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    let mut telemetry_out = telemetry_dir.as_ref().map(|_| TelemetryOutput::new());
    for id in ids {
        eprintln!("running {id} (reps = {}) …", settings.reps);
        let mut collector = telemetry_dir.as_ref().map(|_| TelemetryCollector::new());
        let started = std::time::Instant::now();
        let output = run_experiment_telemetry(id, &settings, collector.as_mut())
            .expect("parse admits only ids of the experiment table");
        let elapsed = started.elapsed();
        println!("{}", output.render());
        if let Some(collector) = &collector {
            for (label, metrics, run) in collector.runs() {
                if !run.tasks.is_empty() {
                    println!("-- {label} --\n{}", run.task_table());
                }
                if let Some(transport) = metrics.transport.summary() {
                    println!("-- {label} transport --\n{transport}");
                }
                if let Some(disc) = metrics.discrimination.summary() {
                    println!("-- {label} discrimination --\n{disc}");
                }
                if let Some(rec) = metrics.recovery.summary() {
                    println!("-- {label} recovery --\n{rec}");
                }
                if let Some(prov) = run.provenance_summary() {
                    println!("-- {label} provenance --\n{prov}");
                }
            }
            eprintln!("{id} finished: {}\n", collector.summary_line(elapsed));
            if let Some(out) = &mut telemetry_out {
                out.add(id, collector);
            }
        } else {
            eprintln!("{id} finished in {elapsed:.1?}\n");
        }
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{id}.json"));
            let json = serde_json::to_string_pretty(&output).expect("serialize result");
            std::fs::write(&path, json).expect("write result file");
            eprintln!("wrote {}", path.display());
        }
    }
    if let (Some(dir), Some(out)) = (&telemetry_dir, &telemetry_out) {
        let paths = out.write(dir).expect("write telemetry files");
        for p in paths {
            eprintln!("wrote {}", p.display());
        }
    }
    ExitCode::SUCCESS
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// `harness explain <match-hash|all> [--seed S] [--quick]`: replays the
/// calibrated witness workload and checks, for the targeted provenance
/// record(s), that the recorded witness events alone reproduce the match
/// byte-identically; then prints the run's cost-model drift table.
fn run_explain(args: &[String]) -> ExitCode {
    use muse_bench::observe::{
        find_recorded_match, witness_closure_holds, witness_duration, witness_run, RATE_SCALE,
        TICKS_PER_UNIT,
    };
    use muse_runtime::drift::CostDrift;

    let mut target: Option<String> = None;
    let mut seed: u64 = 1;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--quick" => quick = true,
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => die(&format!("unknown explain argument '{other}'")),
        }
        i += 1;
    }
    let target = target.unwrap_or_else(|| "all".to_string());

    let duration = witness_duration(quick);
    eprintln!("replaying witness run (duration = {duration}, seed = {seed}) …");
    let (deployment, trace, mut report) = witness_run(duration, seed);
    let run = report
        .telemetry
        .take()
        .unwrap_or_else(|| die("witness run produced no telemetry"));

    let records: Vec<_> = if target == "all" {
        run.provenance.records().collect()
    } else {
        let hash = u64::from_str_radix(target.trim_start_matches("0x"), 16)
            .unwrap_or_else(|_| die(&format!("'{target}' is not a hex match hash or 'all'")));
        match run.provenance.find(hash) {
            Some(rec) => vec![rec],
            None => {
                eprintln!("error: no provenance record with hash {hash:016x}");
                return ExitCode::from(1);
            }
        }
    };
    if records.is_empty() {
        eprintln!("error: witness run recorded no matches");
        return ExitCode::from(1);
    }

    let mut failures = 0usize;
    for rec in &records {
        let verdict = match find_recorded_match(&report.matches, rec) {
            Some(original) if witness_closure_holds(&deployment, &trace, rec, original) => {
                "reproduced"
            }
            Some(_) => {
                failures += 1;
                "FAILED (replay diverged)"
            }
            None => {
                failures += 1;
                "FAILED (match not delivered)"
            }
        };
        println!(
            "{:016x} t={} query={} witnesses={} absence={} -> {verdict}",
            rec.match_hash,
            rec.t,
            rec.query,
            rec.witness.len(),
            rec.absence.len(),
        );
    }
    println!(
        "{} of {} record(s) reproduced byte-identically from their witness sets",
        records.len() - failures,
        records.len()
    );
    // The same run's per-vertex rates against the §4.4 cost model: the
    // trace is stationary, so the score reads near zero.
    let ticks = (duration * TICKS_PER_UNIT) as u64;
    let drift = CostDrift::compute(&deployment, &run.rates, TICKS_PER_UNIT, RATE_SCALE, ticks);
    println!("{}", drift.render(8));
    if failures > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&args)
    }

    #[test]
    fn quick_keeps_the_seed_in_either_order() {
        for line in ["fig8 --seed 7 --quick", "fig8 --quick --seed 7"] {
            let cli = parse_line(line).unwrap();
            assert_eq!(cli.ids, ["fig8"], "{line}");
            assert_eq!(cli.settings.seed, 7, "{line}");
            assert_eq!(cli.settings.reps, SweepSettings::quick().reps, "{line}");
        }
    }

    #[test]
    fn repeated_ids_run_once_in_first_occurrence_order() {
        let cli = parse_line("fig5b ablation all fig5b").unwrap();
        let mut want = vec!["fig5b", "ablation"];
        want.extend(all_experiments().into_iter().filter(|id| *id != "fig5b"));
        assert_eq!(cli.ids, want);
        assert_eq!(parse_line("fig5a all").unwrap().ids, all_experiments());
    }

    #[test]
    fn bad_lines_are_one_line_errors() {
        for (line, want) in [
            ("matcher", "unknown argument 'matcher'"),
            ("fig8 --reps", "--reps needs a number"),
            ("fig8 --seed x", "--seed needs a number"),
            ("fig8 --out", "--out needs a path"),
            ("--quick", "no experiment selected"),
        ] {
            assert_eq!(parse_line(line).err().as_deref(), Some(want), "{line}");
        }
    }
}
