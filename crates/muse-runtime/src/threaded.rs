//! Thread-per-node execution of a deployment for wall-clock latency and
//! throughput measurements (the Fig. 8 experiment of the paper).
//!
//! Each network node runs as one OS thread driving the node core of its
//! tasks — the same node semantics the simulator runs; this module is only
//! the driver: frames, pools, backpressure, barriers, the chunk schedule and
//! crash recovery. Matches cross nodes in batched frames over bounded
//! `crossbeam` channels. Execution proceeds
//! in *chunks* of virtual time: within a chunk every node injects
//! its local events as fast as possible (interleaved with inbox draining),
//! then all nodes run a fixed number of barrier-synchronized drain rounds —
//! one per possible network hop — so every in-flight match is consumed
//! before the next chunk starts. With a store-eviction slack covering the
//! chunk skew, the produced match sets equal the deterministic simulator's
//! (asserted in tests), while wall-clock throughput and per-match latency
//! reflect real parallel execution.
//!
//! # Data plane
//!
//! Before the first event the call scans the trace once (`origin`, `time`,
//! `seq`) for each node's event positions and for the chunks that hold an
//! event — only those are scheduled. Node threads walk the caller's slice
//! through their positions; no event is copied or moved.
//!
//! The transport keeps one output buffer per destination node and flushes
//! it as a multi-message frame when it reaches [`ThreadedConfig::batch`],
//! and at chunk and drain-round boundaries. A message carries a
//! single-event match by value and a larger one by its shared node (see
//! `InFlight`), so the match node a join stores is allocated, and later
//! freed, by the thread that runs the join. Receivers hand emptied frame
//! buffers back to their origin node over an unbounded return channel, so
//! the steady-state send path recycles buffers instead of allocating.
//! Data channels are bounded ([`ThreadedConfig::capacity`] frames): a full
//! channel rejects the `try_send`, and the blocked sender *steals from its
//! own inbox* (ingesting frames into a local backlog without processing
//! them) before retrying — senders under backpressure convert stalls into
//! useful work, which also breaks send cycles between mutually-full nodes.
//! Backpressure is observable, not silent: blocked sends, in-flight queue
//! depth, and the realized batch-size distribution are recorded in
//! [`crate::metrics::TransportStats`].
//!
//! # Barriers
//!
//! A node waiting at a barrier never just spins, or a bounded-channel
//! sender and a parked receiver could deadlock each other. Before a drain
//! round it *works*: it processes its backlog and inbox exactly as a drain
//! round would, so a node that owns few of a chunk's events receives while
//! its senders still inject, and sink latency measures the plan rather
//! than which thread reached the barrier first. Peers are at most one
//! barrier apart, so the skew between nodes stays within one chunk and a
//! message that crossed `h` hops is still consumed no later than round
//! `h`. At the barrier that ends a phase, and at the two crash-coordination
//! barriers of fault mode, it only *steals*: what arrives there belongs to
//! a peer's next phase or chunk, or is discarded by the rollback, and is
//! kept unprocessed.
//!
//! # Crash recovery
//!
//! In checkpoint or fault mode every node saves its shard at each chunk
//! start. Every chunk ends in global quiescence, so those shards form a
//! consistent cut. When a node crashes in chunk `k`, *every* node rolls
//! back to its chunk-start shard and re-runs chunk `k`: each message the
//! chunk sends is regenerated exactly once, and nothing is logged or
//! deduplicated. A shard holds join state only, so each node also marks its
//! account with the shard: output lengths, metrics, join counters and
//! event cursor. The rollback rewinds the account to that mark, and the
//! re-run emits and counts the chunk's work once.
//!
//! # Negation
//!
//! Nodes process a chunk's events in parallel, so a negation guard may
//! arrive *after* the match it should suppress — the simulator, which
//! delivers each event's whole cascade before it injects the next, never
//! observes that race. Negation-hosting joins therefore defer completed
//! candidates and re-check absence at chunk quiescence
//! ([`crate::matcher::JoinTask::release_deferred`]), when every guard
//! timestamped inside the chunk has been delivered. Chains of
//! negation joins release level by level: each chunk runs one extra
//! release-and-drain phase per level (`negation_release_phases`).
//!
//! # Trace
//!
//! With [`ThreadedConfig::telemetry`] tracing (`trace_capacity > 0`), each
//! node thread records its driver steps as [`TraceRecord`]s next to the
//! node core's lineage records: every frame sent and received, every
//! chunk-start checkpoint, and a crash with every node's rollback. The
//! report's merged trace, sorted by `t`, is the run's crash timeline.

use crate::checkpoint::{self, CheckpointError, Snapshot};
use crate::deploy::{Deployment, Route};
use crate::matcher::Match;
use crate::metrics::{Metrics, RecoveryStats, TransportStats};
use crate::node::{CoreMark, CoreReport, NodeCore, Outbox};
use crate::telemetry::{ClockDomain, RunTelemetry, TelemetrySpec, TraceRecord};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use muse_core::event::{Event, Timestamp};
use muse_core::types::PrimId;
use muse_telemetry::TraceRing;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
// `DrainBarrier`'s atomics: loom's in `cfg(loom)` tests, which model-check it.
#[cfg(all(test, loom))]
use loom::sync::atomic::{AtomicU64 as BarrierU64, AtomicUsize as BarrierUsize};
#[cfg(not(all(test, loom)))]
use std::sync::atomic::{AtomicU64 as BarrierU64, AtomicUsize as BarrierUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic fault-injection plan: crash one node mid-run and roll
/// every node back to its last chunk-boundary checkpoint (the executor's
/// stand-in for the paper's §7.3 Ambrosia resiliency setup).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The node to crash.
    pub node: usize,
    /// The crash fires just before the node injects its `crash_at`-th
    /// local event (0-based count over the whole run). A count beyond the
    /// node's share of the trace means the fault never fires.
    pub crash_at: u64,
    /// Simulated downtime between the crash and the start of recovery.
    pub restart_delay: Duration,
}

/// Configuration of the threaded executor.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Join store eviction slack (multiples of the window; must cover the
    /// inter-node skew of one chunk, ≥ 2 recommended; deferred-negation
    /// release additionally needs `slack · window ≥ chunk + window`, which
    /// the defaults satisfy).
    pub slack: f64,
    /// Virtual-time chunk length; defaults to the workload's *smallest*
    /// window. Each query's eviction horizon is `slack` times its own
    /// window, so the smallest window is the one the documented
    /// `slack · window ≥ chunk + window` must hold for, and with the
    /// default slack of 4 this default satisfies it for every query. An
    /// explicit `chunk_ticks` or `slack` that breaks it is not rejected:
    /// match sets then silently depend on the transport, and keeping the
    /// precondition is the caller's responsibility.
    pub chunk_ticks: Option<Timestamp>,
    /// Messages per frame before an eager flush (frames also flush at
    /// chunk and drain-round boundaries, so they may be smaller). Clamped
    /// to ≥ 1.
    pub batch: usize,
    /// Bound of each node's data channel, in frames. Clamped to ≥ 1.
    pub capacity: usize,
    /// Telemetry collection; each node thread keeps a private shard
    /// (series, trace, provenance, rates) that is merged when the threads join.
    pub telemetry: Option<TelemetrySpec>,
    /// Take a per-node state snapshot at every chunk boundary and assemble
    /// the merged end-of-run state into [`ThreadedReport::final_snapshot`].
    /// Forced on by a fault plan (recovery restores from these shards).
    pub checkpoint: bool,
    /// Crash-and-recover one node mid-run (see [`FaultPlan`]).
    pub fault: Option<FaultPlan>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        Self {
            slack: 4.0,
            chunk_ticks: None,
            batch: 64,
            capacity: 128,
            telemetry: None,
            checkpoint: false,
            fault: None,
        }
    }
}

/// The result of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Sink matches per query, emitted by this run (not before a snapshot).
    pub matches: Vec<Vec<Match>>,
    /// Aggregated metrics, continuing a resumed-from snapshot's (the
    /// latency samples are in `wall_latencies_ns`).
    pub metrics: Metrics,
    /// Total wall-clock execution time.
    pub wall_time: Duration,
    /// Injected events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock latency per sink match, in nanoseconds: emission minus
    /// injection of the match's newest constituent event. Matches whose
    /// newest event was injected in an earlier (resumed-from) run have no
    /// injection record and are counted in
    /// `metrics.latency_samples_dropped` instead of being recorded with a
    /// bogus baseline.
    pub wall_latencies_ns: Vec<u64>,
    /// Shard-merged telemetry, when [`ThreadedConfig::telemetry`] was set.
    pub telemetry: Option<RunTelemetry>,
    /// Encoded end-of-run state (all shards merged), when
    /// [`ThreadedConfig::checkpoint`] was set. Restorable by either
    /// executor via [`crate::checkpoint`].
    pub final_snapshot: Option<Vec<u8>>,
}

impl ThreadedReport {
    /// Five-number summary of wall-clock latencies in nanoseconds
    /// `(min, p25, p50, p75, max)`, as plotted in Fig. 8. Quantiles use
    /// the shared nearest-rank rule
    /// ([`crate::metrics::percentile_nearest_rank`]).
    pub fn latency_summary_ns(&self) -> Option<[u64; 5]> {
        let mut sorted = self.wall_latencies_ns.clone();
        sorted.sort_unstable();
        let pick = |q: f64| crate::metrics::percentile_nearest_rank(&sorted, q);
        Some([pick(0.0)?, pick(0.25)?, pick(0.5)?, pick(0.75)?, pick(1.0)?])
    }
}

/// A match in flight to a join input on another node.
struct NodeMsg {
    input: usize,
    m: InFlight,
}

/// What a [`NodeMsg`] carries of its match. A match node (`Arc<[..]>`) that
/// crossed threads would be allocated by the sender and freed by the
/// receiver when its join evicts it, which no allocator serves from a
/// thread-local cache. So a single-event match — every source task's
/// output, and on a relay every message — travels by value (the payload
/// stays the trace's shared `Arc`): the sender frees the node it allocated,
/// and the receiver allocates the one its join will store and evict.
/// Larger matches keep sharing the sender's node.
enum InFlight {
    Single((PrimId, Event)),
    Multi(Match),
}

impl InFlight {
    fn of(m: Match) -> Self {
        match m.entries() {
            [single] => Self::Single(single.clone()),
            _ => Self::Multi(m),
        }
    }

    fn into_match(self) -> Match {
        match self {
            Self::Single((prim, event)) => Match::single(prim, event),
            Self::Multi(m) => m,
        }
    }
}

/// A batch of messages on an inter-node channel. `origin` addresses the
/// return path: the receiver hands the emptied `msgs` buffer back to the
/// origin node's recycling pool.
struct Frame {
    origin: usize,
    msgs: Vec<NodeMsg>,
}

/// A sense-reversing spin barrier whose waiters run an `idle` closure each
/// spin iteration. The threaded executor's waiters consume from their own
/// inbox while parked (see the module's "Barriers") — a plain
/// [`std::sync::Barrier`] would let a bounded-channel sender and a parked
/// receiver deadlock each other.
///
/// Correctness: the last arriver resets `arrived` (Release) and then bumps
/// `generation` (Release); a waiter leaves on an Acquire load of the new
/// generation, which happens-after the reset, so its `fetch_add` for the
/// next round observes the zeroed count. The `loom` lane of
/// `scripts/ci.sh` model-checks that no waiter leaves a round early, over
/// every interleaving; the vendored loom's memory is sequentially
/// consistent, so the ordering argument above is not model-checked.
struct DrainBarrier {
    n: usize,
    arrived: BarrierUsize,
    generation: BarrierU64,
}

impl DrainBarrier {
    fn new(n: usize) -> Self {
        Self {
            n: n.max(1),
            arrived: BarrierUsize::new(0),
            generation: BarrierU64::new(0),
        }
    }

    fn wait(&self, mut idle: impl FnMut()) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == generation {
                idle();
            }
        }
    }
}

/// The heaviest task path of the plan, where following route `r` costs
/// `weight(r)` (a Kahn walk in topological order over the route DAG).
fn longest_path(deployment: &Deployment, weight: impl Fn(&Route) -> usize) -> usize {
    let n = deployment.tasks.len();
    let mut indeg = vec![0usize; n];
    for routes in &deployment.routes {
        for r in routes {
            indeg[r.target] += 1;
        }
    }
    let mut depth = vec![0usize; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    let mut max_depth = 0;
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        for r in &deployment.routes[i] {
            let d = depth[i] + weight(r);
            if d > depth[r.target] {
                depth[r.target] = d;
                max_depth = max_depth.max(d);
            }
            indeg[r.target] -= 1;
            if indeg[r.target] == 0 {
                queue.push(r.target);
            }
        }
    }
    max_depth
}

/// The maximum number of network hops on any task path — the number of
/// drain rounds needed to reach quiescence after all sends of a chunk.
fn remote_depth(deployment: &Deployment) -> usize {
    longest_path(deployment, |r| usize::from(r.remote))
}

/// The longest chain of negation-hosting joins on any task path — the
/// number of extra release-and-drain phases each chunk needs so deferred
/// candidates released by one negation level reach (and are re-checked by)
/// the next. `cores` are the run's node cores, one per network node.
fn negation_release_phases(deployment: &Deployment, cores: &[NodeCore<'_>]) -> usize {
    longest_path(deployment, |r| {
        let host = &cores[deployment.tasks[r.target].node.index()];
        usize::from(host.hosts_negation(r.target))
    })
}

/// Runs a deployment with one thread per network node.
///
/// Precondition: each origin's events are non-decreasing in `time` (origins
/// may interleave freely); a node injects in slice order, so an event stamped
/// before its predecessor would enter its chunk late. Only debug builds
/// assert it: the typed error waits for the session's fallible entry point
/// (the streaming entry point of the ROADMAP item "A latency that measures
/// cost, not a race") rather than a `try_` twin of this function.
pub fn run_threaded(
    deployment: &Deployment,
    events: &[Event],
    config: &ThreadedConfig,
) -> ThreadedReport {
    run_cores(deployment, events, config, node_cores(deployment, config))
}

/// Resumes a threaded run from a snapshot (produced by either executor —
/// a [`ThreadedReport::final_snapshot`] or a simulator checkpoint).
///
/// `events` is the remainder of the trace: the part the snapshotted run
/// had not yet consumed.
pub fn run_threaded_resumed(
    deployment: &Deployment,
    events: &[Event],
    config: &ThreadedConfig,
    snapshot: &[u8],
) -> Result<ThreadedReport, CheckpointError> {
    let mut snap = checkpoint::decode_for(deployment, snapshot)?;
    // Restore on the caller, so a snapshot that does not fit the plan is an
    // error here and the node threads cannot fail.
    let mut cores = node_cores(deployment, config);
    for core in &mut cores {
        core.restore(&mut snap)?;
    }
    Ok(run_cores(deployment, events, config, cores))
}

/// One fresh core per network node.
fn node_cores<'a>(deployment: &'a Deployment, config: &ThreadedConfig) -> Vec<NodeCore<'a>> {
    (0..deployment.num_nodes.max(1))
        .map(|node| {
            NodeCore::new(
                deployment,
                Some(node),
                config.slack,
                ClockDomain::WallNanos,
                config.telemetry.as_ref(),
            )
        })
        .collect()
}

/// Moves each core onto its node thread and runs the trace through them.
fn run_cores(
    deployment: &Deployment,
    events: &[Event],
    config: &ThreadedConfig,
    cores: Vec<NodeCore<'_>>,
) -> ThreadedReport {
    let num_nodes = deployment.num_nodes.max(1);
    let chunk = config
        .chunk_ticks
        .unwrap_or_else(|| {
            deployment
                .queries
                .iter()
                .map(|q| q.window())
                .min()
                .unwrap_or(1)
        })
        .max(1);
    let rounds_per_chunk = remote_depth(deployment) + 1;
    let release_phases = negation_release_phases(deployment, &cores);

    // The only pass over the trace before the first injection (see "Data
    // plane"). Origins outside the network are skipped, as the simulator
    // skips them. An empty chunk would change nothing at `remote_depth + 2`
    // barriers, and a timestamp can put 10^9 of them before an event.
    let mut positions: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    let mut chunks: Vec<u64> = Vec::new();
    let mut min_seq = u64::MAX;
    for (at, event) in events.iter().enumerate() {
        min_seq = min_seq.min(event.seq);
        let Some(local) = positions.get_mut(event.origin.index()) else {
            continue;
        };
        debug_assert!(
            local.last().is_none_or(|&p| events[p].time <= event.time),
            "time decreases at an origin (see `run_threaded`)"
        );
        local.push(at);
        let chunk_idx = event.time / chunk;
        if chunks.last() != Some(&chunk_idx) {
            chunks.push(chunk_idx);
        }
    }
    // Origins interleave, so the list is only nearly sorted.
    chunks.sort_unstable();
    chunks.dedup();

    // Bounded data channels, buffer return channels, in-flight depth
    // gauges, and the drain barrier.
    let mut senders: Vec<Sender<Frame>> = Vec::with_capacity(num_nodes);
    let mut receivers: Vec<Option<Receiver<Frame>>> = Vec::with_capacity(num_nodes);
    let mut ret_senders: Vec<Sender<Vec<NodeMsg>>> = Vec::with_capacity(num_nodes);
    let mut ret_receivers: Vec<Option<Receiver<Vec<NodeMsg>>>> = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let (s, r) = bounded(config.capacity.max(1));
        senders.push(s);
        receivers.push(Some(r));
        let (rs, rr) = unbounded();
        ret_senders.push(rs);
        ret_receivers.push(Some(rr));
    }
    let depth: Arc<Vec<AtomicU64>> = Arc::new((0..num_nodes).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(DrainBarrier::new(num_nodes));
    let inject_ns = Arc::new(InjectMarks {
        min_seq,
        marks: (0..events.len()).map(|_| AtomicU64::new(0)).collect(),
    });
    let crashed_chunk = Arc::new(AtomicU64::new(0));
    let schedule = ChunkSchedule {
        chunk,
        chunks: &chunks,
        rounds_per_chunk,
        release_phases,
    };
    let trace_capacity = config
        .telemetry
        .as_ref()
        .map_or(0, |spec| spec.trace_capacity);
    let start = Instant::now();

    let report_parts: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_nodes);
        for (node, core) in cores.into_iter().enumerate() {
            let channels = NodeChannels {
                inbox: receivers[node].take().expect("receiver unused"),
                ret_inbox: ret_receivers[node].take().expect("return receiver unused"),
                senders: senders.clone(),
                ret_senders: ret_senders.clone(),
                depth: Arc::clone(&depth),
                barrier: Arc::clone(&barrier),
            };
            let local = positions[node].as_slice();
            let runner = NodeRunner {
                node,
                channels,
                backlog: VecDeque::new(),
                out_bufs: (0..num_nodes).map(|_| Vec::new()).collect(),
                pool: Vec::new(),
                batch: config.batch.max(1),
                stats: TransportStats::default(),
                inject_ns: Arc::clone(&inject_ns),
                start,
                fault: config.fault.clone(),
                recovery: RecoveryStats::default(),
                injected_local: 0,
                crashed: false,
                crash_started: None,
                trace: TraceRing::new(trace_capacity),
                crashed_chunk: Arc::clone(&crashed_chunk),
                shard: Vec::new(),
                mark: core.mark(),
                cursor: 0,
            };
            let checkpoint = config.checkpoint;
            handles.push(
                scope.spawn(move || run_node(core, runner, events, local, schedule, checkpoint)),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    });

    let wall_time = start.elapsed();
    let mut metrics = Metrics::new(num_nodes);
    let mut matches = vec![Vec::new(); deployment.queries.len()];
    let mut wall_latencies_ns = Vec::new();
    let mut telemetry = config
        .telemetry
        .as_ref()
        .map(|spec| RunTelemetry::new(ClockDomain::WallNanos, spec));
    let mut final_state = config.checkpoint.then(|| Snapshot::empty(deployment));
    let (mut series, mut traces, mut provenance) = (Vec::new(), Vec::new(), Vec::new());
    for (part, shard, driver_trace) in report_parts {
        metrics.merge(&part.metrics);
        for (q, ms) in part.matches.into_iter().enumerate() {
            matches[q].extend(ms);
        }
        wall_latencies_ns.extend(part.wall_latencies_ns);
        if let (Some(merged), Some(shard)) = (&mut final_state, shard) {
            merged.merge_shard(shard);
        }
        if let (Some(merged), Some(shard)) = (&mut telemetry, part.telemetry) {
            series.push(shard.series);
            traces.extend([shard.trace, driver_trace]);
            provenance.push(shard.provenance);
            merged.rates.merge(&shard.rates);
            merged.tasks.extend(shard.tasks);
        }
    }
    let final_snapshot = final_state.map(|state| checkpoint::encode(&state));
    if let Some(merged) = &mut telemetry {
        // In time order over all nodes, newest kept.
        merged.series.merge(series, |r| (r.t, r.task));
        merged.trace.merge(traces, TraceRecord::t);
        merged.provenance.merge(provenance, |r| r.t);
        merged.tasks.sort_by_key(|s| s.task);
    }
    let events_per_sec = if wall_time.as_secs_f64() > 0.0 {
        events.len() as f64 / wall_time.as_secs_f64()
    } else {
        0.0
    };
    ThreadedReport {
        matches,
        metrics,
        wall_time,
        events_per_sec,
        wall_latencies_ns,
        telemetry,
        final_snapshot,
    }
}

/// The communication endpoints handed to one node thread.
struct NodeChannels {
    inbox: Receiver<Frame>,
    ret_inbox: Receiver<Vec<NodeMsg>>,
    senders: Vec<Sender<Frame>>,
    ret_senders: Vec<Sender<Vec<NodeMsg>>>,
    /// Frames in flight to each node (shared gauge; receivers decrement).
    depth: Arc<Vec<AtomicU64>>,
    barrier: Arc<DrainBarrier>,
}

/// Per-run chunking parameters, identical on every node.
#[derive(Clone, Copy)]
struct ChunkSchedule<'a> {
    chunk: Timestamp,
    /// Indices of the chunks that hold an event of any node, ascending.
    chunks: &'a [u64],
    rounds_per_chunk: usize,
    release_phases: usize,
}

/// The wall-clock injection mark of each event (0 = never injected), by
/// `seq − min_seq`: one per event of the trace, so a sparse or huge `seq`
/// cannot size the table. An event whose `seq` falls outside it gets no
/// mark, and its sink matches count as dropped latency samples.
struct InjectMarks {
    min_seq: u64,
    marks: Vec<AtomicU64>,
}

impl InjectMarks {
    fn get(&self, seq: u64) -> Option<&AtomicU64> {
        let at = usize::try_from(seq.checked_sub(self.min_seq)?).ok()?;
        self.marks.get(at)
    }
}

/// One node thread's driver state: the transport and the fault machinery.
/// It is the [`Outbox`] of the node's [`NodeCore`].
struct NodeRunner {
    node: usize,
    channels: NodeChannels,
    /// Messages ingested from inbox frames, awaiting processing.
    backlog: VecDeque<NodeMsg>,
    /// Pending outgoing messages per destination node.
    out_bufs: Vec<Vec<NodeMsg>>,
    /// Emptied frame buffers recycled via the return path.
    pool: Vec<Vec<NodeMsg>>,
    /// Flush threshold in messages.
    batch: usize,
    /// Transport counters since the run (or the last recovery) started.
    /// Kept here rather than in the core's metrics because the send path
    /// runs while the core is borrowed; folded into the metrics of each
    /// chunk-start mark and at the end of the run.
    stats: TransportStats,
    /// Wall-clock injection marks, shared by all nodes: the baseline of
    /// sink latencies.
    inject_ns: Arc<InjectMarks>,
    start: Instant,
    /// Fault plan from the config, when fault injection is enabled.
    fault: Option<FaultPlan>,
    /// `chunk index + 1` of the injected crash, shared by all nodes; 0
    /// while no crash has happened. Written by the crashing node before it
    /// reaches the crash-coordination barrier, so every node reads a
    /// consistent value right after it.
    crashed_chunk: Arc<AtomicU64>,
    /// This node's last chunk-start shard, encoded (checkpoint or fault
    /// mode): the "durable storage" a crash rolls the node back to.
    shard: Vec<u8>,
    /// The core's account when this node saved `shard`, live transport
    /// counters folded in.
    mark: CoreMark,
    /// The local event cursor when this node saved `shard`.
    cursor: usize,
    /// Crash-recovery counters, kept OUTSIDE the core's metrics so the
    /// crashing node's state rollback cannot erase the record of its own
    /// recovery; folded into `metrics.recovery` when the thread finishes.
    recovery: RecoveryStats,
    /// Local events injected so far (drives [`FaultPlan::crash_at`]).
    injected_local: u64,
    /// Whether this run's planned crash has already fired (single-shot).
    crashed: bool,
    /// Wall-clock mark of the injected crash (downtime + recovery timer).
    crash_started: Option<Instant>,
    /// This node's driver steps (see "Trace"); capacity 0 unless the
    /// run's telemetry traces. Merged with the core's trace after the run.
    trace: TraceRing,
}

/// First backoff sleep of a blocked fault-mode send.
const SEND_BACKOFF_START: Duration = Duration::from_micros(1);

/// Backoff ceiling: a blocked fault-mode sender keeps retrying at this
/// bounded cadence (doubling up to the cap) instead of parking
/// indefinitely on a channel whose receiver may have crashed.
const SEND_BACKOFF_CAP: Duration = Duration::from_micros(256);

/// One node thread: drives `core` through the chunk schedule. `local` lists
/// the positions in `events` of this node's events. Hands back the core's
/// report, the end-of-run shard when checkpointing, and the driver trace.
fn run_node(
    mut core: NodeCore<'_>,
    mut runner: NodeRunner,
    events: &[Event],
    local: &[usize],
    schedule: ChunkSchedule<'_>,
    checkpoint: bool,
) -> (CoreReport, Option<Snapshot>, TraceRing) {
    let fault_mode = runner.fault.is_some();
    let resilient = checkpoint || fault_mode;
    let mut next = 0usize;
    for &chunk_idx in schedule.chunks {
        // Inclusive, so the last chunk of the time domain keeps its last tick.
        let last_tick = (chunk_idx * schedule.chunk).saturating_add(schedule.chunk - 1);
        if resilient {
            // Every chunk starts from quiescence: persist this node's
            // shard (the durable state a crash rolls back to).
            runner.save_shard(&core, next);
        }
        while next < local.len() && events[local[next]].time <= last_tick {
            if runner.crash_due() {
                runner.crash(chunk_idx);
                break;
            }
            runner.drain(&mut core);
            core.inject(&mut runner, &events[local[next]]);
            core.maybe_sample(&runner);
            next += 1;
        }
        // A no-op after a crash, which dropped the pending buffers.
        runner.flush_all();
        if fault_mode {
            // Crash coordination. Barrier A publishes the crash flag
            // consistently; every node then discards its inbox and rolls
            // back to its chunk-start shard while no one sends; barrier B
            // orders the discards before the re-run of the chunk.
            runner.barrier_steal();
            if runner.crashed_chunk.load(Ordering::Acquire) == chunk_idx + 1 {
                next = runner.recover(&mut core);
                runner.barrier_steal();
                // Re-run the chunk from the restored cursor: every send of
                // the chunk is regenerated exactly once.
                while next < local.len() && events[local[next]].time <= last_tick {
                    runner.drain(&mut core);
                    core.inject(&mut runner, &events[local[next]]);
                    next += 1;
                }
                if let Some(started) = runner.crash_started.take() {
                    runner.recovery.recovery_ns += started.elapsed().as_nanos() as u64;
                }
                runner.flush_all();
            } else {
                runner.barrier_steal();
            }
        }
        // Quiescence: one barrier-synchronized drain round per possible
        // network hop; then, per negation level, release the deferred
        // candidates and drain to quiescence again. A node parked before a
        // round works on what its peers have already sent. The barrier
        // that ends a phase only steals: the phase is quiescent, so a frame
        // that shows up there was sent by a peer already past the barrier,
        // and must wait for this node's own release or chunk-start shard.
        for phase in 0..=schedule.release_phases {
            if phase > 0 {
                core.release_deferred(&mut runner);
                runner.flush_all();
            }
            for _ in 0..schedule.rounds_per_chunk {
                runner.barrier_drain(&mut core);
                runner.drain(&mut core);
                runner.flush_all();
                core.maybe_sample(&runner);
            }
            runner.barrier_steal();
        }
    }
    let shard = checkpoint.then(|| core.save());
    core.metrics.transport.merge(&runner.stats);
    core.metrics.recovery.merge(&runner.recovery);
    (core.finish(runner.now()), shard, runner.trace)
}

impl Outbox for NodeRunner {
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn on_inject(&mut self, event: &Event, now: u64) {
        self.injected_local += 1;
        if let Some(slot) = self.inject_ns.get(event.seq) {
            // First write wins (0 means "never injected"), so a chunk
            // re-run after a crash keeps the original mark and a recovered match's
            // latency includes the downtime it survived.
            let _ = slot.compare_exchange(0, now.max(1), Ordering::AcqRel, Ordering::Acquire);
        }
    }

    fn remote(&mut self, dest: usize, input: usize, m: Match) {
        let m = InFlight::of(m);
        self.enqueue(dest, NodeMsg { input, m });
    }

    /// Wall time since the injection of the match's newest constituent.
    /// `None` when that event has no injection mark — it entered in a
    /// resumed-from run (or its seq is outside this run's table), and a
    /// sample against a zero baseline would be garbage.
    fn sink_latency(&self, m: &Match, now: u64) -> Option<u64> {
        let newest = m
            .entries()
            .iter()
            .map(|(_, e)| e)
            .max_by(|a, b| a.trace_cmp(b))
            .expect("non-empty match");
        let injected = self
            .inject_ns
            .get(newest.seq)
            .map_or(0, |a| a.load(Ordering::Acquire));
        (injected != 0).then(|| now.saturating_sub(injected))
    }
}

impl NodeRunner {
    /// Saves this node's chunk-start shard — the durable state a crash
    /// rolls back to — and marks the account and event cursor it leaves
    /// out.
    fn save_shard(&mut self, core: &NodeCore<'_>, cursor: usize) {
        self.shard = checkpoint::encode(&core.save());
        self.mark = core.mark();
        self.mark.metrics.transport.merge(&self.stats);
        self.cursor = cursor;
        self.recovery.snapshots_taken += 1;
        self.recovery.snapshot_bytes += self.shard.len() as u64;
        self.trace.push(TraceRecord::Checkpoint {
            t: self.now(),
            node: self.node,
            bytes: self.shard.len() as u64,
        });
    }

    /// Whether the planned crash fires before the next injection.
    fn crash_due(&self) -> bool {
        !self.crashed
            && self
                .fault
                .as_ref()
                .is_some_and(|f| f.node == self.node && self.injected_local == f.crash_at)
    }

    /// Simulates the crash: publish the flag (peers read it consistently
    /// after the next barrier), drop the unsent output buffers, and sleep
    /// out the configured downtime. The backlog and inbox are discarded
    /// later in [`Self::recover`]; until then barrier waits keep stealing
    /// from the inbox so peers blocked on this node's bounded channel stay
    /// live.
    fn crash(&mut self, chunk_idx: u64) {
        self.crashed = true;
        self.crash_started = Some(Instant::now());
        self.recovery.crashes += 1;
        self.trace.push(TraceRecord::Crash {
            t: self.now(),
            node: self.node,
            chunk: chunk_idx,
        });
        self.crashed_chunk.store(chunk_idx + 1, Ordering::Release);
        for buf in &mut self.out_bufs {
            buf.clear();
        }
        let delay = self
            .fault
            .as_ref()
            .map(|f| f.restart_delay)
            .unwrap_or_default();
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Rollback to the chunk-start cut, run by every node after a crash:
    /// discard the backlog and every in-flight frame (the chunk's re-run
    /// regenerates them), roll the core back to the decoded shard and
    /// rewind its account to the mark taken with it. Returns the marked
    /// event cursor.
    fn recover(&mut self, core: &mut NodeCore<'_>) -> usize {
        self.trace.push(TraceRecord::RecoveryStarted {
            t: self.now(),
            node: self.node,
        });
        self.backlog.clear();
        while let Ok(frame) = self.channels.inbox.try_recv() {
            self.channels.depth[self.node].fetch_sub(1, Ordering::Relaxed);
            let Frame { origin, mut msgs } = frame;
            msgs.clear();
            let _ = self.channels.ret_senders[origin].send(msgs);
        }
        let mut snap = checkpoint::decode(&self.shard).expect("own shard decodes");
        core.restore(&mut snap).expect("own shard matches the plan");
        core.rewind(&self.mark);
        // The mark's metrics carry the transport counters up to the chunk
        // start; the live ones roll back with the rest of the account.
        self.stats = TransportStats::default();
        self.trace.push(TraceRecord::Recovered {
            t: self.now(),
            node: self.node,
            cursor: self.cursor as u64,
        });
        self.cursor
    }

    /// Processes the backlog and every frame currently in the inbox;
    /// returns whether there was anything to process. Each match node is
    /// built here, on the thread whose join will store and evict it.
    fn drain(&mut self, core: &mut NodeCore<'_>) -> bool {
        let mut worked = false;
        loop {
            while let Some(msg) = self.backlog.pop_front() {
                worked = true;
                core.deliver(self, msg.input, msg.m.into_match());
            }
            match self.channels.inbox.try_recv() {
                Ok(frame) => self.ingest(frame),
                Err(_) => return worked,
            }
        }
    }

    /// Moves one inbox frame into the backlog without processing it;
    /// returns whether a frame was available. This is the unit of work a
    /// blocked sender (or a barrier waiter) performs to guarantee global
    /// progress under backpressure.
    fn steal(&mut self) -> bool {
        match self.channels.inbox.try_recv() {
            Ok(frame) => {
                self.ingest(frame);
                true
            }
            Err(_) => false,
        }
    }

    /// Accepts a frame: decrements the in-flight gauge, queues its
    /// messages, and hands the emptied buffer back to the origin node.
    fn ingest(&mut self, mut frame: Frame) {
        self.channels.depth[self.node].fetch_sub(1, Ordering::Relaxed);
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord::FrameReceived {
                t: self.now(),
                from: frame.origin,
                to: self.node,
                msgs: frame.msgs.len(),
            });
        }
        self.backlog.extend(frame.msgs.drain(..));
        // The origin may already have shut its return receiver down at
        // the very end of the run; the buffer is then simply dropped.
        let _ = self.channels.ret_senders[frame.origin].send(frame.msgs);
    }

    /// Waits at the barrier, running `work` (or yielding, when it reports
    /// nothing done) while parked: a parked node keeps consuming its inbox,
    /// so senders blocked on its channel can finish.
    fn park(&mut self, mut work: impl FnMut(&mut Self) -> bool) {
        let barrier = Arc::clone(&self.channels.barrier);
        barrier.wait(|| {
            if !work(self) {
                std::thread::yield_now();
            }
        });
    }

    /// Waits at a barrier where nothing may be processed — the two
    /// crash-coordination barriers (peers must hold their sends while the
    /// crashed node discards its inbox) and the one that ends a phase —
    /// only stealing inbox frames while parked.
    fn barrier_steal(&mut self) {
        self.park(Self::steal);
    }

    /// Waits at the barrier before a drain round, working while parked: the
    /// backlog and the inbox are processed as in [`Self::drain`] (sends are
    /// buffered and flush when a batch fills), so a node that owns few of a
    /// chunk's events receives while its senders still inject. Peers are at
    /// most one barrier ahead, so everything processed here belongs to the
    /// round this barrier opens or to an earlier one.
    fn barrier_drain(&mut self, core: &mut NodeCore<'_>) {
        self.park(|runner| runner.drain(core));
    }

    /// A frame buffer from the recycling pool, refilled from the return
    /// path; allocates only when no buffer has come back yet.
    fn acquire_buf(&mut self) -> Vec<NodeMsg> {
        if self.pool.is_empty() {
            while let Ok(buf) = self.channels.ret_inbox.try_recv() {
                self.pool.push(buf);
            }
        }
        if let Some(buf) = self.pool.pop() {
            self.stats.pool_reuses += 1;
            buf
        } else {
            self.stats.pool_allocs += 1;
            Vec::with_capacity(self.batch)
        }
    }

    /// Queues a message for `dest`, flushing when the batch fills.
    fn enqueue(&mut self, dest: usize, msg: NodeMsg) {
        if self.out_bufs[dest].capacity() == 0 {
            self.out_bufs[dest] = self.acquire_buf();
        }
        self.out_bufs[dest].push(msg);
        if self.out_bufs[dest].len() >= self.batch {
            self.flush_to(dest);
        }
    }

    /// Sends the pending buffer for `dest`, if any.
    fn flush_to(&mut self, dest: usize) {
        if self.out_bufs[dest].is_empty() {
            return;
        }
        let msgs = std::mem::take(&mut self.out_bufs[dest]);
        self.send_frame(dest, msgs);
    }

    /// Flushes every pending output buffer (chunk and round boundaries).
    fn flush_all(&mut self) {
        for dest in 0..self.out_bufs.len() {
            self.flush_to(dest);
        }
    }

    /// Pushes a frame onto `dest`'s channel, stealing from the own inbox
    /// while the channel is full. In fault mode a failed steal backs off
    /// with bounded exponential sleeps — a sender facing a crashed (hence
    /// non-draining) peer retries at a capped cadence instead of spinning
    /// or parking forever, and the waits are recorded in the recovery
    /// stats.
    fn send_frame(&mut self, dest: usize, msgs: Vec<NodeMsg>) {
        let t = &mut self.stats;
        t.frames_sent += 1;
        t.messages_framed += msgs.len() as u64;
        t.batch_hist.record(msgs.len() as u64);
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord::FrameSent {
                t: self.now(),
                from: self.node,
                to: dest,
                msgs: msgs.len(),
            });
        }
        let in_flight = self.channels.depth[dest].fetch_add(1, Ordering::Relaxed) + 1;
        if in_flight > self.stats.peak_queue_depth {
            self.stats.peak_queue_depth = in_flight;
        }
        let mut frame = Frame {
            origin: self.node,
            msgs,
        };
        let mut backoff = SEND_BACKOFF_START;
        loop {
            match self.channels.senders[dest].try_send(frame) {
                Ok(()) => return,
                Err(TrySendError::Full(f)) => {
                    self.stats.blocked_sends += 1;
                    frame = f;
                    if !self.steal() {
                        if self.fault.is_some() {
                            self.recovery.send_retries += 1;
                            let ns = backoff.as_nanos() as u64;
                            self.recovery.backoff_ns += ns;
                            self.recovery.backoff_hist.record(ns);
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(SEND_BACKOFF_CAP);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("receiver alive during execution")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_simulation, SimConfig, SimExecutor};
    use muse_core::algorithms::amuse::{amuse, AMuseConfig};
    use muse_core::graph::PlanContext;
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::{Pattern, Query};
    use muse_core::types::{EventTypeId, NodeId, QueryId};

    fn t(i: u16) -> EventTypeId {
        EventTypeId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn network() -> Network {
        NetworkBuilder::new(3, 3)
            .node(n(0), [t(0), t(2)])
            .node(n(1), [t(0), t(1)])
            .node(n(2), [t(1)])
            .rate(t(0), 20.0)
            .rate(t(1), 20.0)
            .rate(t(2), 1.0)
            .build()
    }

    fn query() -> Query {
        Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::leaf(t(2)),
            ]),
            vec![],
            5_000,
        )
        .unwrap()
    }

    /// A match list as a multiset: a match emitted twice shows.
    fn fingerprints(ms: &[Match]) -> Vec<Vec<u64>> {
        let mut prints: Vec<_> = ms.iter().map(Match::fingerprint).collect();
        prints.sort_unstable();
        prints
    }

    fn test_deployment() -> (Deployment, Vec<Event>) {
        let net = network();
        let q = query();
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        let deployment = Deployment::new(&plan.graph, &ctx);
        let events = muse_sim::traces::generate_traces(
            &net,
            &muse_sim::traces::TraceConfig {
                duration: 40.0,
                ticks_per_unit: 100.0,
                rate_scale: 0.05,
                key_domain: 0,
                band_domain: 0,
                seed: 23,
            },
        );
        (deployment, events)
    }

    #[test]
    fn threaded_matches_equal_simulator() {
        let (deployment, events) = test_deployment();
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        let threaded = run_threaded(&deployment, &events, &ThreadedConfig::default());
        assert_eq!(
            fingerprints(&threaded.matches[0]),
            fingerprints(&sim.matches[0]),
            "threaded {} vs sim {}",
            threaded.matches[0].len(),
            sim.matches[0].len()
        );
        // Same network transmissions.
        assert_eq!(threaded.metrics.messages_sent, sim.metrics.messages_sent);
        assert!(threaded.events_per_sec > 0.0);
        assert_eq!(threaded.wall_latencies_ns.len(), threaded.matches[0].len());
    }

    #[test]
    fn batched_transport_recycles_buffers() {
        let (deployment, events) = test_deployment();
        // Per-message frames force maximal traffic through the pool so
        // reuse dominates allocation in steady state.
        let report = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                batch: 1,
                capacity: 8,
                ..ThreadedConfig::default()
            },
        );
        let t = &report.metrics.transport;
        assert!(t.frames_sent > 10, "workload must ship many frames");
        assert!(
            t.pool_reuses > t.pool_allocs,
            "steady state must be served from the recycling pool \
             (allocs {} vs reuses {})",
            t.pool_allocs,
            t.pool_reuses
        );
    }

    #[test]
    fn bounded_capacity_exerts_backpressure_without_deadlock() {
        let (deployment, events) = test_deployment();
        let report = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                batch: 1,
                capacity: 1,
                ..ThreadedConfig::default()
            },
        );
        // Capacity 1 with per-message frames: the run must still complete
        // and agree with the simulator on the produced matches.
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        assert_eq!(
            fingerprints(&report.matches[0]),
            fingerprints(&sim.matches[0]),
        );
        assert!(report.metrics.transport.peak_queue_depth >= 1);
    }

    #[test]
    fn telemetry_counters_agree_across_executors() {
        let (deployment, events) = test_deployment();
        let sim = run_simulation(
            &deployment,
            &events,
            &SimConfig {
                telemetry: Some(TelemetrySpec::default()),
                ..SimConfig::default()
            },
        );
        let threaded = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                telemetry: Some(TelemetrySpec::default()),
                ..ThreadedConfig::default()
            },
        );
        // The executors must agree on the run's aggregate metrics …
        assert_eq!(threaded.metrics.sink_matches, sim.metrics.sink_matches);
        assert_eq!(threaded.metrics.messages_sent, sim.metrics.messages_sent);
        assert_eq!(threaded.metrics.join.emitted, sim.metrics.join.emitted);
        assert!(
            sim.metrics.sink_matches > 0,
            "workload must produce matches"
        );
        let s = sim.telemetry.expect("sim telemetry");
        let t = threaded.telemetry.expect("threaded telemetry");
        // Task summaries cover the same join tasks (threaded shards each
        // contribute their local slice; merged and sorted by task id).
        let s_tasks: Vec<usize> = s.tasks.iter().map(|x| x.task).collect();
        let t_tasks: Vec<usize> = t.tasks.iter().map(|x| x.task).collect();
        assert_eq!(s_tasks, t_tasks);
        assert!(!s.series.is_empty(), "sim series sampled");
        assert!(!s.trace.is_empty(), "sim trace recorded");
    }

    /// The `[inputs, queue_depth]` column sums of a run's series.
    fn series_sums(report: Option<&RunTelemetry>) -> [u64; 2] {
        let series = &report.expect("telemetry attached").series;
        series
            .records()
            .fold([0, 0], |[i, q], r| [i + r.inputs, q + r.queue_depth])
    }

    #[test]
    fn series_count_the_inputs_of_this_run_only() {
        let (deployment, events) = test_deployment();
        let (head, tail) = events.split_at(events.len() / 2);
        let telemetry = Some(TelemetrySpec::default());
        let sim_config = SimConfig {
            telemetry: telemetry.clone(),
            ..SimConfig::default()
        };
        let config = ThreadedConfig {
            telemetry,
            ..ThreadedConfig::default()
        };

        // Simulator: a whole run, then a run resumed from a snapshot.
        let whole = run_simulation(&deployment, &events, &sim_config);
        let [inputs, depth] = series_sums(whole.telemetry.as_ref());
        assert_eq!(inputs, whole.metrics.join.inputs);
        assert_eq!(depth, inputs);
        let mut first = SimExecutor::new(&deployment, sim_config.clone());
        first.process_trace(head);
        let snapshot = checkpoint::encode(&first.to_snapshot());
        assert!(
            first.finish().metrics.join.inputs > 0,
            "the head feeds the joins"
        );
        let mut resumed = checkpoint::restore(&deployment, sim_config, &snapshot).unwrap();
        resumed.process_trace(tail);
        let report = resumed.finish();
        let [inputs, depth] = series_sums(report.telemetry.as_ref());
        assert!(inputs > 0, "the tail feeds the joins");
        assert_eq!(inputs, report.metrics.join.inputs);
        assert_eq!(depth, inputs);

        // Threaded: the same, resumed from the head's final snapshot.
        let whole = run_threaded(&deployment, &events, &config);
        let [inputs, depth] = series_sums(whole.telemetry.as_ref());
        assert_eq!(inputs, whole.metrics.join.inputs);
        assert_eq!(depth, inputs);
        let checkpointed = ThreadedConfig {
            checkpoint: true,
            ..config.clone()
        };
        let first = run_threaded(&deployment, head, &checkpointed);
        let snapshot = first.final_snapshot.expect("checkpointing");
        let report = run_threaded_resumed(&deployment, tail, &config, &snapshot).unwrap();
        let [inputs, depth] = series_sums(report.telemetry.as_ref());
        assert!(inputs > 0, "the tail feeds the joins");
        assert_eq!(inputs, report.metrics.join.inputs);
        assert_eq!(depth, inputs);
    }

    #[test]
    fn latency_summary_shape() {
        let report = ThreadedReport {
            matches: vec![],
            metrics: Metrics::new(1),
            wall_time: Duration::from_millis(1),
            events_per_sec: 0.0,
            wall_latencies_ns: vec![50, 10, 30, 20, 40],
            telemetry: None,
            final_snapshot: None,
        };
        assert_eq!(report.latency_summary_ns(), Some([10, 20, 30, 40, 50]));
        let empty = ThreadedReport {
            wall_latencies_ns: vec![],
            ..report
        };
        assert_eq!(empty.latency_summary_ns(), None);
    }

    #[test]
    fn remote_depth_counts_network_hops() {
        let (deployment, _) = test_deployment();
        let d = remote_depth(&deployment);
        assert!(d >= 1, "plan must have at least one network hop");
        assert!(d <= deployment.tasks.len());
    }

    #[test]
    fn release_phases_zero_without_negations() {
        let (deployment, _) = test_deployment();
        let cores = node_cores(&deployment, &ThreadedConfig::default());
        assert_eq!(negation_release_phases(&deployment, &cores), 0);
    }

    #[test]
    fn empty_trace_completes() {
        let (deployment, _) = test_deployment();
        let report = run_threaded(&deployment, &[], &ThreadedConfig::default());
        assert_eq!(report.metrics.events_injected, 0);
        assert!(report.matches[0].is_empty());
    }

    /// One occurrence of the test query — SEQ(AND(t0, t1), t2) — shortly
    /// after `base`, with seqs from `first_seq`.
    fn occurrence(first_seq: u64, base: Timestamp) -> [Event; 3] {
        [
            Event::new(first_seq, t(0), base + 10, n(0)),
            Event::new(first_seq + 1, t(1), base + 20, n(2)),
            Event::new(first_seq + 2, t(2), base + 30, n(0)),
        ]
    }

    #[test]
    fn schedule_is_bounded_by_the_input_not_by_its_timestamps() {
        let (deployment, _) = test_deployment();
        // A silent gap of 10^12 ticks, and a trace stamped in epoch
        // milliseconds: 2 x 10^8 and 3.4 x 10^8 chunks of 5 000 ticks, two
        // of which hold an event.
        const EPOCH: Timestamp = 1_700_000_000_000;
        for bases in [[0, 1_000_000_000_000], [EPOCH, EPOCH + 7_000]] {
            let events: Vec<Event> = bases
                .iter()
                .zip([0, 3])
                .flat_map(|(&base, first_seq)| occurrence(first_seq, base))
                .collect();
            let sim = run_simulation(&deployment, &events, &SimConfig::default());
            assert_eq!(sim.matches[0].len(), 2, "one match per occurrence");
            for checkpoint in [false, true] {
                let config = ThreadedConfig {
                    checkpoint,
                    ..ThreadedConfig::default()
                };
                let started = Instant::now();
                let threaded = run_threaded(&deployment, &events, &config);
                assert!(
                    started.elapsed() < Duration::from_secs(1),
                    "bases {bases:?} took {:?}",
                    started.elapsed()
                );
                assert_eq!(
                    fingerprints(&threaded.matches[0]),
                    fingerprints(&sim.matches[0]),
                    "bases {bases:?}, checkpoint {checkpoint}"
                );
                // One shard per node at the start of each chunk that runs.
                let shards = if checkpoint { 2 * 3 } else { 0 };
                assert_eq!(threaded.metrics.recovery.snapshots_taken, shards);
            }
        }
    }

    /// The test trace — origins interleave across the three nodes — with
    /// one more event in its middle, from an origin outside the network.
    fn trace_with_foreign_origin() -> (Deployment, Vec<Event>) {
        let (deployment, mut events) = test_deployment();
        let mid = events.len() / 2;
        let seq = events.iter().map(|e| e.seq).max().expect("events") + 1;
        events.insert(mid, Event::new(seq, t(0), events[mid].time, n(7)));
        (deployment, events)
    }

    fn local_seqs(events: &[Event], node: usize) -> Vec<u64> {
        let local = events.iter().filter(|e| e.origin.index() == node);
        local.map(|e| e.seq).collect()
    }

    #[test]
    fn nodes_inject_their_events_in_trace_order() {
        let (deployment, events) = trace_with_foreign_origin();
        let interleaved = events.windows(2).filter(|w| w[0].origin != w[1].origin);
        assert!(interleaved.count() > 10, "origins must interleave");
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        let config = ThreadedConfig {
            telemetry: Some(TelemetrySpec {
                trace_capacity: 1 << 16,
                ..TelemetrySpec::default()
            }),
            ..ThreadedConfig::default()
        };
        let threaded = run_threaded(&deployment, &events, &config);
        // The foreign event is ignored, as the simulator ignores it.
        assert_eq!(sim.metrics.events_injected, events.len() as u64 - 1);
        assert_eq!(
            threaded.metrics.events_injected,
            sim.metrics.events_injected
        );
        assert_eq!(
            fingerprints(&threaded.matches[0]),
            fingerprints(&sim.matches[0])
        );
        let trace = threaded.telemetry.expect("telemetry").trace;
        assert_eq!(trace.dropped(), 0);
        for node in 0..3 {
            let injected: Vec<u64> = trace
                .records()
                .filter_map(|r| match r {
                    TraceRecord::EventInjected { node: at, seq, .. } if *at == node => Some(*seq),
                    _ => None,
                })
                .collect();
            assert_eq!(injected, local_seqs(&events, node), "node {node}");
        }
    }

    #[test]
    fn crash_and_resume_keep_counting_local_events() {
        let (deployment, events) = trace_with_foreign_origin();
        let config = ThreadedConfig {
            checkpoint: true,
            // Chunks shorter than the trace: a crash rolls back to a shard
            // saved mid-run.
            chunk_ticks: Some(500),
            telemetry: Some(TelemetrySpec {
                trace_capacity: 1 << 16,
                ..TelemetrySpec::default()
            }),
            ..ThreadedConfig::default()
        };
        let records = |report: &ThreadedReport| {
            let trace = &report.telemetry.as_ref().expect("telemetry").trace;
            assert_eq!(trace.dropped(), 0);
            trace.records().cloned().collect::<Vec<_>>()
        };
        let injected = |records: &[TraceRecord], node: usize| -> Vec<u64> {
            let at_node = records.iter().filter_map(|r| match *r {
                TraceRecord::EventInjected { node: at, seq, .. } if at == node => Some(seq),
                _ => None,
            });
            at_node.collect()
        };
        let baseline = run_threaded(&deployment, &events, &config);
        for node in 0..3 {
            let injected = injected(&records(&baseline), node);
            assert_eq!(injected, local_seqs(&events, node), "node {node}");
        }

        // A crash on node 1 rolls every node back to its chunk-start cursor
        // and re-runs from there: each node injects its events up to the
        // crash, then again from the cursor on. A cursor that were a trace
        // position would skip or repeat events.
        let crash_at = local_seqs(&events, 1).len() as u64 / 2;
        let crashed = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                fault: Some(FaultPlan {
                    node: 1,
                    crash_at,
                    restart_delay: Duration::ZERO,
                }),
                ..config.clone()
            },
        );
        assert_eq!(crashed.metrics.recovery.crashes, 1);
        assert_eq!(
            crashed.metrics.events_injected,
            baseline.metrics.events_injected
        );
        assert_eq!(
            fingerprints(&crashed.matches[0]),
            fingerprints(&baseline.matches[0])
        );
        let trace = records(&crashed);
        let mut cursors = Vec::new();
        for node in 0..3 {
            let cursor = trace.iter().find_map(|r| match *r {
                TraceRecord::Recovered {
                    node: at, cursor, ..
                } if at == node => Some(cursor),
                _ => None,
            });
            let cursor = cursor.expect("every node recovers") as usize;
            let (local, injected) = (local_seqs(&events, node), injected(&trace, node));
            let (before, rerun) = injected.split_at(injected.len() + cursor - local.len());
            assert!(before.len() >= cursor, "node {node}");
            assert_eq!(before, &local[..before.len()], "node {node}");
            assert_eq!(rerun, &local[cursor..], "node {node}");
            cursors.push(cursor);
        }
        assert!(cursors[1] > 0, "the crash restores a mid-run shard");

        // A resumed run counts from the start of its remainder, emits the
        // matches the prefix run did not, and counts only its own work.
        let (prefix, rest) = events.split_at(events.len() / 3);
        let first = run_threaded(&deployment, prefix, &config);
        let snapshot = first.final_snapshot.as_deref().expect("final snapshot");
        let resumed = run_threaded_resumed(&deployment, rest, &config, snapshot).expect("resumes");
        for node in 0..3 {
            assert_eq!(injected(&records(&first), node), local_seqs(prefix, node));
            assert_eq!(injected(&records(&resumed), node), local_seqs(rest, node));
        }
        let across_cut = [&first.matches[0][..], &resumed.matches[0]].concat();
        assert_eq!(
            fingerprints(&across_cut),
            fingerprints(&baseline.matches[0])
        );
        let mut merged = first.metrics.clone();
        merged.merge(&resumed.metrics);
        assert_eq!(merged.events_injected, baseline.metrics.events_injected);
        assert_eq!(merged.sink_matches, baseline.metrics.sink_matches);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time decreases at an origin")]
    fn time_going_backwards_at_one_origin_is_caught_in_debug_builds() {
        let (deployment, _) = test_deployment();
        let events = [
            Event::new(0, t(0), 20, n(0)),
            Event::new(1, t(1), 5, n(2)),
            Event::new(2, t(2), 10, n(0)),
        ];
        run_threaded(&deployment, &events, &ThreadedConfig::default());
    }

    #[test]
    fn drain_barrier_synchronizes_rounds() {
        let barrier = Arc::new(DrainBarrier::new(4));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for round in 0..50u64 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(std::thread::yield_now);
                        // After the barrier, every thread has contributed
                        // to this round.
                        assert!(counter.load(Ordering::Relaxed) >= (round + 1) * 4);
                        barrier.wait(std::thread::yield_now);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    /// Every schedule of two threads through two rounds: no thread leaves
    /// round `r` before both have arrived at it, and the second round
    /// reuses the barrier the first one reset. The main thread takes part;
    /// the arrival counts are plain atomics, since the model serializes
    /// the threads and only the barrier's own operations need to be
    /// scheduling points. Three threads are not modelled: the vendored
    /// loom bounds no schedule's length, and two waiters that yield to
    /// each other spin forever in it.
    #[cfg(loom)]
    #[test]
    fn drain_barrier_model_checked() {
        loom::model(|| {
            let barrier = Arc::new(DrainBarrier::new(2));
            let arrived: Arc<[AtomicU64; 2]> = Arc::new(Default::default());
            let run = |barrier: Arc<DrainBarrier>, arrived: Arc<[AtomicU64; 2]>| {
                for round in &*arrived {
                    round.fetch_add(1, Ordering::Relaxed);
                    barrier.wait(loom::thread::yield_now);
                    assert_eq!(round.load(Ordering::Relaxed), 2, "left a round early");
                }
            };
            let peer = {
                let (barrier, arrived) = (Arc::clone(&barrier), Arc::clone(&arrived));
                loom::thread::spawn(move || run(barrier, arrived))
            };
            run(barrier, arrived);
            peer.join().unwrap();
        });
    }
}
