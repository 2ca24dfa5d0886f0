//! One run of one workload: set up, warm up, measure for `--seconds`,
//! check the outputs, and (traced pass only) time each layer on its own.
//!
//! Load model: `run_threaded` and `run_simulation` take a whole trace, so
//! every executing workload is a closed batch replay. A rep is one replay;
//! the reported value is the median over reps.

use crate::hashing::{
    instances_digest, match_digests, match_set_difference, trace_digest, SetDigest,
};
use crate::spans::Spans;
use crate::stats::{latency_percentiles_us, Summary};
use crate::workloads::{self, Kind, Load, Setup, Sizes};
use muse_core::types::{PrimId, PrimSet};
use muse_runtime::checkpoint;
use muse_runtime::codec::{decode_match, encode_match};
use muse_runtime::matcher::{Evaluator, JoinTask, Match};
use muse_runtime::sim::{run_simulation, SimConfig, SimReport};
use muse_runtime::threaded::{run_threaded, ThreadedConfig, ThreadedReport};
use muse_runtime::TelemetrySpec;
use muse_telemetry::LogHistogram;
use std::hint::black_box;
use std::time::Instant;

/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest measured reps of each executor, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Reps of `relay_ckpt` with checkpointing off (traced pass).
const CKPT_OFF_REPS: usize = 3;
/// Sink matches the codec round-trip covers at most.
const CODEC_MATCHES: usize = 200_000;
/// Eviction slack of the join replay: the threaded executor's default.
const JOIN_REPLAY_SLACK: f64 = 4.0;

pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// One reported number. `summary` is present when it is a median over reps.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Metric {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            summary: None,
        }
    }

    fn over_reps(name: &'static str, unit: &'static str, raw: &[f64]) -> Self {
        let summary = Summary::of(raw);
        Self {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
        }
    }
}

/// What the load turned out to be; compared against `pins.json` on seed 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadFacts {
    pub events: u64,
    pub queries: u64,
    pub physical_tasks: u64,
    pub trace_hash: String,
    pub sink_matches: u64,
}

pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub facts: LoadFacts,
    /// Matches (or plans) the checks compared against a reference.
    pub attempted: u64,
    /// Missing, extra and latency-less matches (or refused plans).
    pub failed: u64,
    /// Measured reps: of each executor (they alternate), or of planning.
    pub reps: usize,
    pub latency_samples: usize,
    /// Share of the `workload` span no child span accounts for.
    pub unaccounted_share: f64,
    /// Per-task records of the traced threaded rep.
    pub task_table: Option<String>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn digest_hex(d: SetDigest) -> String {
    format!("{}:{:016x}", d.count, d.sum)
}

pub fn run(opts: &Options) -> (Outcome, Spans) {
    let sizes = if opts.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let mut spans = Spans::new();
    let root = spans.enter("workload");
    let mut outcome = if opts.kind.executes() {
        run_executing(opts, &sizes, &mut spans)
    } else {
        run_planning(opts, &sizes, &mut spans)
    };
    spans.exit(root);
    outcome.unaccounted_share = crate::spans::unaccounted_share(spans.all());
    outcome.per_layer.push(Metric::single(
        "spans.unaccounted_share",
        "ratio",
        outcome.unaccounted_share,
    ));
    (outcome, spans)
}

/// Per-rep samples of the two executors.
#[derive(Default)]
struct Reps {
    threaded_eps: Vec<f64>,
    threaded_wall: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    sim_eps: Vec<f64>,
    latency_samples: usize,
}

fn threaded_rep(
    spans: &mut Spans,
    setup: &Setup,
    load: &Load,
    config: &ThreadedConfig,
    name: &'static str,
) -> (ThreadedReport, f64) {
    let id = spans.enter(name);
    let t = Instant::now();
    let report = run_threaded(&setup.deployment, &load.events, config);
    let wall = t.elapsed().as_secs_f64();
    spans.exit(id);
    (report, wall)
}

fn sim_rep(spans: &mut Spans, setup: &Setup, load: &Load) -> (SimReport, f64) {
    let id = spans.enter("run_sim");
    let t = Instant::now();
    let report = run_simulation(&setup.deployment, &load.events, &SimConfig::default());
    let wall = t.elapsed().as_secs_f64();
    spans.exit(id);
    (report, wall)
}

fn run_executing(opts: &Options, sizes: &Sizes, spans: &mut Spans) -> Outcome {
    // Set-up, several times over: generate the load, then everything the
    // program does before it can accept the first event.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut gen_s = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let id = spans.enter("setup");
        drop(last.take());
        let t = Instant::now();
        let lg = spans.enter("loadgen");
        let load = workloads::load(opts.kind, opts.seed, sizes);
        spans.exit(lg);
        gen_s.push(t.elapsed().as_secs_f64());
        let setup = workloads::setup(&load, spans);
        setup_s.push(t.elapsed().as_secs_f64());
        spans.exit(id);
        last = Some((load, setup));
    }
    let (load, setup) = last.expect("at least one set-up");
    let events = load.events.len() as f64;

    // Warm-up: fault the trace in, fill the allocator's free lists.
    let id = spans.enter("warmup");
    drop(run_threaded(
        &setup.deployment,
        &load.events,
        &load.threaded,
    ));
    drop(run_simulation(
        &setup.deployment,
        &load.events,
        &SimConfig::default(),
    ));
    spans.exit(id);

    // Measure: alternate the executors until the time is used up, so slow
    // drift of the machine falls on both alike.
    let mut reps = Reps::default();
    let mut threaded = None;
    let mut sim = None;
    let id = spans.enter("measure");
    let started = Instant::now();
    let min_reps = if opts.smoke { 1 } else { MIN_REPS };
    while reps.sim_eps.len() < min_reps || started.elapsed().as_secs_f64() < opts.seconds {
        drop(threaded.take());
        let (report, wall) = threaded_rep(spans, &setup, &load, &load.threaded, "run_threaded");
        reps.threaded_eps.push(events / wall);
        reps.threaded_wall.push(wall);
        if let Some((p50, p99, n)) = latency_percentiles_us(&report.wall_latencies_ns) {
            reps.p50_us.push(p50);
            reps.p99_us.push(p99);
            reps.latency_samples = n;
        }
        threaded = Some(report);
        drop(sim.take());
        let (report, wall) = sim_rep(spans, &setup, &load);
        reps.sim_eps.push(events / wall);
        sim = Some(report);
    }
    spans.exit(id);
    let threaded = threaded.expect("at least one threaded rep");
    let sim = sim.expect("at least one simulator rep");
    let rss = peak_rss_mb();

    // Check: the threaded match sets equal the simulator's, query by query.
    let id = spans.enter("check");
    let mut attempted: u64 = sim.matches.iter().map(|q| q.len() as u64).sum();
    let mut failed = threaded.metrics.latency_samples_dropped;
    let sim_digests = match_digests(&sim.matches);
    let thr_digests = match_digests(&threaded.matches);
    for (q, (s, t)) in sim_digests.iter().zip(&thr_digests).enumerate() {
        if s != t {
            let (missing, extra) = match_set_difference(&sim.matches[q], &threaded.matches[q]);
            failed += missing + extra;
        }
    }
    let facts = LoadFacts {
        events: load.events.len() as u64,
        queries: load.num_queries() as u64,
        physical_tasks: setup.deployment.tasks.len() as u64,
        trace_hash: digest_hex(trace_digest(&load.events)),
        sink_matches: sim.metrics.sink_matches,
    };
    spans.exit(id);
    // … and, where an oracle prefix is set, the centralized evaluator's.
    let mut oracle_ns_per_event = 0.0;
    if load.oracle_prefix > 0 {
        let id = spans.enter("oracle");
        let prefix = &load.events[..load.oracle_prefix];
        let cut = load.oracle_prefix as u64;
        let t = Instant::now();
        let truth: Vec<Vec<Match>> = setup
            .deployment
            .queries
            .iter()
            .map(|q| Evaluator::for_query(q).run(prefix))
            .collect();
        oracle_ns_per_event =
            t.elapsed().as_nanos() as f64 / (prefix.len() * truth.len().max(1)) as f64;
        for (q, truth_q) in truth.iter().enumerate() {
            // The trace is in sequence order, so a match lies in the prefix
            // iff its newest event does.
            let within: Vec<Match> = threaded.matches[q]
                .iter()
                .filter(|m| m.entries().iter().all(|(_, e)| e.seq < cut))
                .cloned()
                .collect();
            attempted += truth_q.len() as u64;
            let (missing, extra) = match_set_difference(truth_q, &within);
            failed += missing + extra;
        }
        spans.exit(id);
    }

    let end_to_end = vec![
        Metric::over_reps("setup_s", "s", &setup_s),
        Metric::over_reps("events_per_s", "1/s", &reps.threaded_eps),
        Metric::over_reps("sim_events_per_s", "1/s", &reps.sim_eps),
        Metric::over_reps("match_latency_p50_us", "us", &reps.p50_us),
        Metric::single(
            "transmission_ratio",
            "ratio",
            sim.metrics.transmission_ratio(),
        ),
        Metric::single("peak_rss_mb", "MB", rss),
    ];

    let mut out = Outcome {
        end_to_end,
        per_layer: Vec::new(),
        facts,
        attempted,
        failed,
        reps: reps.sim_eps.len(),
        latency_samples: reps.latency_samples,
        unaccounted_share: 0.0,
        task_table: None,
    };
    if opts.trace {
        let ctx = LayerInputs {
            load: &load,
            setup: &setup,
            threaded: &threaded,
            sim: &sim,
            reps: &reps,
            gen_s: Summary::of(&gen_s).median,
            oracle_ns_per_event,
            failed_share: ratio(failed as f64, attempted as f64),
        };
        layers(&ctx, spans, &mut out);
    }
    // Freeing a trace and two reports takes long enough to need a name.
    let id = spans.enter("teardown");
    drop((threaded, sim, setup, load));
    spans.exit(id);
    out
}

/// What the traced pass reads its per-layer numbers from.
struct LayerInputs<'a> {
    load: &'a Load,
    setup: &'a Setup,
    threaded: &'a ThreadedReport,
    sim: &'a SimReport,
    /// Per-rep samples of the untraced reps.
    reps: &'a Reps,
    gen_s: f64,
    oracle_ns_per_event: f64,
    failed_share: f64,
}

/// The traced pass: one threaded rep with telemetry attached, then each
/// layer timed on its own through its public functions. Counts come from
/// the last untraced reps.
fn layers(ctx: &LayerInputs<'_>, spans: &mut Spans, out: &mut Outcome) {
    let LayerInputs {
        load,
        setup,
        threaded,
        sim,
        reps,
        ..
    } = *ctx;
    let dep = &setup.deployment;
    let events = load.events.len() as f64;
    let untraced_wall_s = Summary::of(&reps.threaded_wall).median;
    let m = &mut out.per_layer;
    m.push(Metric::over_reps(
        "match_latency_p99_us",
        "us",
        &reps.p99_us,
    ));
    let mut push = |name, unit, value: f64| m.push(Metric::single(name, unit, value));
    push("failed_share", "ratio", ctx.failed_share);
    push("plan_s", "s", setup.plan_s);
    push("plan_cost_ratio", "ratio", setup.plan.cost_ratio);
    push("loadgen.gen_s", "s", ctx.gen_s);
    push("loadgen.events", "count", events);
    push("loadgen.queries", "count", load.num_queries() as f64);
    push("stats_est.estimate_s", "s", setup.stats_s);
    push("parser.parse_s", "s", setup.parse_s);

    // planner
    let amuse_s = if matches!(load.kind, Kind::Cluster | Kind::MultiQuery) {
        setup.plan_s
    } else {
        0.0
    };
    push("planner.amuse_s", "s", amuse_s);
    push(
        "planner.projections",
        "count",
        setup.plan.projections as f64,
    );
    push(
        "planner.distinct_plans",
        "count",
        setup.plan.distinct_plans as f64,
    );
    push(
        "planner.plans_reused",
        "count",
        setup.plan.plans_reused as f64,
    );

    push("verify.deploy_check_s", "s", setup.verify_s);
    push("verify.diagnostics", "count", setup.plan.diagnostics as f64);

    // deploy: the discrimination lookup every injected event pays.
    let id = spans.enter("deploy_lookup");
    let t = Instant::now();
    let (mut considered, mut admitted) = (0u64, 0u64);
    for e in &load.events {
        for c in dep.candidates_for(e.origin, e.ty) {
            considered += 1;
            admitted += u64::from(c.admits(e));
        }
    }
    let lookup_ns = t.elapsed().as_nanos() as f64;
    black_box((considered, admitted));
    spans.exit(id);
    push("deploy.build_s", "s", setup.deploy_s);
    push("deploy.physical_tasks", "count", dep.tasks.len() as f64);
    push("deploy.logical_tasks", "count", dep.logical_tasks as f64);
    push(
        "deploy.remote_routes",
        "count",
        dep.num_remote_routes() as f64,
    );
    push("deploy.lookup_ns_per_event", "ns", ratio(lookup_ns, events));
    push(
        "deploy.mean_candidates",
        "count",
        ratio(considered as f64, events),
    );
    push(
        "deploy.admit_ratio",
        "ratio",
        ratio(admitted as f64, considered as f64),
    );

    // matcher: counters of the last threaded rep, plus one join replayed
    // alone where the workload is join-bound.
    let j = &threaded.metrics.join;
    push("matcher.inputs", "count", j.inputs as f64);
    push("matcher.probes", "count", j.probes as f64);
    push("matcher.merge_attempts", "count", j.merge_attempts as f64);
    push(
        "matcher.merge_success_ratio",
        "ratio",
        j.merge_success_ratio(),
    );
    push("matcher.guard_pass_ratio", "ratio", j.guard_pass_ratio());
    push("matcher.evicted", "count", j.evicted as f64);
    push("matcher.peak_buffered", "count", j.peak_buffered as f64);
    let join_ns = if load.kind == Kind::Cluster {
        join_replay(ctx, spans)
    } else {
        0.0
    };
    push("matcher.join_ns_per_input", "ns", join_ns);
    push("matcher.oracle_ns_per_event", "ns", ctx.oracle_ns_per_event);

    // codec: encode and decode the sink matches one by one.
    let sample: Vec<&Match> = threaded
        .matches
        .iter()
        .flatten()
        .take(CODEC_MATCHES)
        .collect();
    let id = spans.enter("codec_roundtrip");
    let t = Instant::now();
    let encoded: Vec<_> = sample.iter().map(|m| encode_match(m)).collect();
    let encode_ns = t.elapsed().as_nanos() as f64;
    let bytes: usize = encoded.iter().map(|b| b.len()).sum();
    let t = Instant::now();
    for b in encoded {
        black_box(decode_match(b));
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    spans.exit(id);
    let n = sample.len() as f64;
    push("codec.encode_ns_per_match", "ns", ratio(encode_ns, n));
    push("codec.decode_ns_per_match", "ns", ratio(decode_ns, n));
    push("codec.bytes_per_match", "B", ratio(bytes as f64, n));

    // threaded transport
    let tr = &threaded.metrics.transport;
    let processed = &threaded.metrics.per_node_processed;
    let mean_load = ratio(processed.iter().sum::<u64>() as f64, processed.len() as f64);
    push("transport.frames_sent", "count", tr.frames_sent as f64);
    push(
        "transport.messages_framed",
        "count",
        tr.messages_framed as f64,
    );
    push(
        "transport.mean_batch",
        "count",
        ratio(tr.messages_framed as f64, tr.frames_sent as f64),
    );
    push("transport.blocked_sends", "count", tr.blocked_sends as f64);
    push(
        "transport.peak_queue_depth",
        "count",
        tr.peak_queue_depth as f64,
    );
    push("transport.pool_reuse_ratio", "ratio", tr.pool_reuse_ratio());
    push(
        "transport.bytes_per_event",
        "B",
        ratio(threaded.metrics.bytes_sent as f64, events),
    );
    push(
        "transport.node_skew",
        "ratio",
        ratio(
            processed.iter().copied().max().unwrap_or(0) as f64,
            mean_load,
        ),
    );
    push(
        "transport.par_speedup",
        "ratio",
        ratio(
            Summary::of(&reps.threaded_eps).median,
            Summary::of(&reps.sim_eps).median,
        ),
    );

    push(
        "sim.messages_sent",
        "count",
        sim.metrics.messages_sent as f64,
    );
    push(
        "sim.local_deliveries",
        "count",
        sim.metrics.local_deliveries as f64,
    );

    // checkpoint: only where the workload takes them.
    let rec = &threaded.metrics.recovery;
    let (mut encode_ms, mut decode_ms, mut overhead_x) = (0.0, 0.0, 0.0);
    let snapshot_bytes = threaded.final_snapshot.as_ref().map_or(0, Vec::len);
    if let Some(bytes) = &threaded.final_snapshot {
        let id = spans.enter("checkpoint_decode");
        let t = Instant::now();
        let snap = checkpoint::decode(bytes).expect("the executor's own snapshot decodes");
        decode_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.exit(id);
        let id = spans.enter("checkpoint_encode");
        let t = Instant::now();
        black_box(checkpoint::encode(&snap));
        encode_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.exit(id);

        let off = ThreadedConfig {
            checkpoint: false,
            ..load.threaded.clone()
        };
        let walls: Vec<f64> = (0..CKPT_OFF_REPS)
            .map(|_| threaded_rep(spans, setup, load, &off, "run_threaded_ckpt_off").1)
            .collect();
        overhead_x = ratio(untraced_wall_s, Summary::of(&walls).median);
    }
    push(
        "checkpoint.snapshots_taken",
        "count",
        rec.snapshots_taken as f64,
    );
    push("checkpoint.bytes_written", "B", rec.snapshot_bytes as f64);
    push(
        "checkpoint.final_snapshot_bytes",
        "B",
        snapshot_bytes as f64,
    );
    push("checkpoint.encode_ms", "ms", encode_ms);
    push("checkpoint.decode_ms", "ms", decode_ms);
    push("checkpoint.overhead_x", "ratio", overhead_x);

    push(
        "metrics.latency_samples",
        "count",
        threaded.wall_latencies_ns.len() as f64,
    );
    push(
        "metrics.latency_samples_dropped",
        "count",
        threaded.metrics.latency_samples_dropped as f64,
    );

    // muse-telemetry: one threaded rep with it attached (provenance off),
    // and the histogram's record path on this run's latencies.
    let traced_config = ThreadedConfig {
        telemetry: Some(TelemetrySpec::default()),
        ..load.threaded.clone()
    };
    let (mut traced, traced_wall) =
        threaded_rep(spans, setup, load, &traced_config, "run_threaded_traced");
    out.task_table = traced.telemetry.take().map(|t| t.task_table());
    let id = spans.enter("hist_record");
    let t = Instant::now();
    let mut hist = LogHistogram::new();
    for &ns in &threaded.wall_latencies_ns {
        hist.record(ns);
    }
    let hist_ns = t.elapsed().as_nanos() as f64;
    black_box(hist.count());
    spans.exit(id);
    push(
        "telemetry.overhead_x",
        "ratio",
        ratio(traced_wall, untraced_wall_s),
    );
    push(
        "telemetry.hist_record_ns",
        "ns",
        ratio(hist_ns, threaded.wall_latencies_ns.len() as f64),
    );
}

/// Replays the oracle prefix into one `JoinTask` of the last query (Q2,
/// the `AND`), with one singleton slot per primitive: the join engine with
/// no executor around it. Returns nanoseconds per input. The prefix, not
/// the trace: a four-way join of raw streams costs about a millisecond per
/// input at this density.
fn join_replay(ctx: &LayerInputs<'_>, spans: &mut Spans) -> f64 {
    let query = ctx
        .setup
        .deployment
        .queries
        .last()
        .expect("an executing workload has queries");
    let prims: Vec<PrimId> = query.prims().iter().collect();
    let slots: Vec<PrimSet> = prims.iter().map(|&p| PrimSet::single(p)).collect();
    let feed: Vec<(usize, Match)> = ctx.load.events[..ctx.load.oracle_prefix]
        .iter()
        .flat_map(|e| {
            prims
                .iter()
                .enumerate()
                .filter(|(_, &p)| query.prim_type(p) == e.ty)
                .map(|(slot, &p)| (slot, Match::single(p, e.clone())))
        })
        .collect();
    let mut join = JoinTask::with_slack(query, query.prims(), &slots, JOIN_REPLAY_SLACK);
    let inputs = feed.len() as f64;
    let id = spans.enter("join_replay");
    let t = Instant::now();
    for (slot, m) in feed {
        black_box(join.on_match(slot, m));
    }
    let ns = t.elapsed().as_nanos() as f64;
    spans.exit(id);
    ratio(ns, inputs)
}

/// `synth_plan`: planning is the measured work; no executor runs.
fn run_planning(opts: &Options, sizes: &Sizes, spans: &mut Spans) -> Outcome {
    let lg = spans.enter("loadgen");
    let t = Instant::now();
    let instances = workloads::synth_instances(opts.seed, sizes);
    let gen_s = t.elapsed().as_secs_f64();
    spans.exit(lg);
    let queries: usize = instances.iter().map(|(_, w)| w.len()).sum();

    let id = spans.enter("measure");
    let started = Instant::now();
    let mut plan_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut last = None;
    let min_reps = if opts.smoke { 1 } else { MIN_REPS };
    while plan_s.len() < min_reps || started.elapsed().as_secs_f64() < opts.seconds {
        let plans = workloads::plan_instances(&instances, spans);
        plan_s.push(plans.amuse_s);
        setup_s.push(plans.amuse_s + plans.verify_s);
        last = Some(plans);
    }
    spans.exit(id);
    let plans = last.expect("at least one planning rep");
    let rss = peak_rss_mb();

    let facts = LoadFacts {
        events: 0,
        queries: queries as u64,
        physical_tasks: 0,
        trace_hash: digest_hex(instances_digest(&instances)),
        sink_matches: 0,
    };
    let end_to_end = vec![
        Metric::over_reps("setup_s", "s", &setup_s),
        Metric::over_reps("plan_s", "s", &plan_s),
        Metric::single("plan_cost_ratio", "ratio", plans.facts.cost_ratio),
        Metric::single("peak_rss_mb", "MB", rss),
    ];
    let mut per_layer = Vec::new();
    if opts.trace {
        let base = workloads::plan_baselines(&instances, spans);
        let f = &plans.facts;
        per_layer = vec![
            Metric::single(
                "failed_share",
                "ratio",
                ratio(f.plans_with_errors as f64, f.plans as f64),
            ),
            Metric::single("loadgen.gen_s", "s", gen_s),
            Metric::single("loadgen.queries", "count", queries as f64),
            Metric::single("planner.amuse_s", "s", plans.amuse_s),
            Metric::single("planner.amuse_star_s", "s", base.amuse_star_s),
            Metric::single("planner.projections", "count", f.projections as f64),
            Metric::single("planner.distinct_plans", "count", f.distinct_plans as f64),
            Metric::single("planner.plans_reused", "count", f.plans_reused as f64),
            Metric::single("planner.cost_ratio_star", "ratio", base.cost_ratio_star),
            Metric::single("planner.cost_ratio_oop", "ratio", base.cost_ratio_oop),
            Metric::single("verify.deploy_check_s", "s", plans.verify_s),
            Metric::single("verify.diagnostics", "count", f.diagnostics as f64),
        ];
    }
    Outcome {
        end_to_end,
        per_layer,
        facts,
        attempted: plans.facts.plans,
        failed: plans.facts.plans_with_errors,
        reps: plan_s.len(),
        latency_samples: 0,
        unaccounted_share: 0.0,
        task_table: None,
    }
}
