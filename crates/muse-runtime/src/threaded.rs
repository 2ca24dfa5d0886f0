//! Thread-per-node execution of a deployment for wall-clock latency and
//! throughput measurements (the Fig. 8 experiment of the paper).
//!
//! Each network node runs as one OS thread driving the node core of its
//! tasks — the same node semantics the simulator runs; this module is only
//! the driver: frames, pools, backpressure, barriers, the chunk schedule and
//! crash recovery. Matches cross nodes in batched [`Frame`]s over bounded
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
//! a peer's next phase or chunk, or must be discarded by a crashed node,
//! and is kept unprocessed.
//!
//! # Negation
//!
//! Nodes process a chunk's events in parallel, so a negation guard may
//! arrive *after* the match it should suppress — the simulator, processing
//! in global timestamp order, never observes that race. Negation-hosting
//! joins therefore defer completed candidates and re-check absence at chunk
//! quiescence ([`crate::matcher::JoinTask::release_deferred`]), when every
//! guard timestamped inside the chunk has been delivered. Chains of
//! negation joins release level by level: each chunk runs one extra
//! release-and-drain phase per level ([`negation_release_phases`]).

use crate::checkpoint::{self, CheckpointError, Snapshot};
use crate::deploy::{Deployment, Route};
use crate::flight::{FlightRecord, FlightRing};
use crate::matcher::Match;
use crate::metrics::{Metrics, RecoveryStats, TransportStats};
use crate::node::{match_hash, CoreReport, MuxBuildHasher, NodeCore, Outbox};
use crate::telemetry::{ClockDomain, RunTelemetry, TelemetrySpec, TraceRecord};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use muse_core::event::{Event, Timestamp};
use muse_core::types::PrimId;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deterministic fault-injection plan: crash one node mid-run and recover
/// it from its last chunk-boundary checkpoint (the executor's stand-in
/// for the paper's §7.3 Ambrosia resiliency setup).
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
    /// Virtual-time chunk length; defaults to the workload's largest
    /// window.
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
    /// Sink matches per query.
    pub matches: Vec<Vec<Match>>,
    /// Aggregated metrics (virtual-time latencies unused; see
    /// `wall_latencies_ns`).
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
    /// Encoded flight-recorder dumps published by crashed shards (one per
    /// crash; empty unless a [`FaultPlan`] fired). Decode with
    /// [`crate::flight::decode_dump`] and pretty-print with
    /// [`crate::flight::render_timeline`].
    pub flight_dumps: Vec<Vec<u8>>,
}

impl ThreadedReport {
    /// Five-number summary of wall-clock latencies in nanoseconds
    /// `(min, p25, p50, p75, max)`, as plotted in Fig. 8. Quantiles use
    /// the shared nearest-rank rule
    /// ([`crate::metrics::percentile_nearest_rank`]), so summaries agree
    /// with `Metrics::latency_percentile` on identical samples.
    pub fn latency_summary_ns(&self) -> Option<[u64; 5]> {
        let mut sorted = self.wall_latencies_ns.clone();
        sorted.sort_unstable();
        let pick = |q: f64| crate::metrics::percentile_nearest_rank(&sorted, q);
        Some([pick(0.0)?, pick(0.25)?, pick(0.5)?, pick(0.75)?, pick(1.0)?])
    }
}

/// A match in flight between nodes.
#[derive(Clone)]
struct NodeMsg {
    target: usize,
    slot: usize,
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
#[derive(Clone)]
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

    fn entries(&self) -> &[(PrimId, Event)] {
        match self {
            Self::Single(single) => std::slice::from_ref(single),
            Self::Multi(m) => m.entries(),
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
/// next round observes the zeroed count.
struct DrainBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
}

impl DrainBarrier {
    fn new(n: usize) -> Self {
        Self {
            n: n.max(1),
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
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

/// Crash-recovery coordination shared by the node threads in checkpoint
/// or fault mode.
struct ResilienceShared {
    /// Last chunk-boundary snapshot of each node, encoded (the "durable
    /// storage" a crashed node recovers from).
    shards: Vec<Mutex<Vec<u8>>>,
    /// `chunk index + 1` of the injected crash; 0 while no crash has
    /// happened. Written by the crashing node before it reaches the
    /// crash-coordination barrier, so every node reads a consistent value
    /// right after it.
    crashed_chunk: AtomicU64,
    /// Encoded flight-recorder dump of each node, published by the crash
    /// path alongside the recovery snapshot (empty while no crash).
    flight_dumps: Vec<Mutex<Vec<u8>>>,
}

/// Flight-recorder records retained per shard in resilient mode.
const FLIGHT_CAPACITY: usize = 256;

/// Runs a deployment with one thread per network node.
///
/// Precondition: each origin's events are non-decreasing in `time` (origins
/// may interleave freely); a node injects in slice order, so an event stamped
/// before its predecessor would enter its chunk late. Only debug builds
/// assert it: the typed error waits for the session's fallible entry point
/// (ROADMAP 5(c), 9(e)) rather than a `try_` twin of this function.
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
/// had not yet consumed. The snapshot must be quiescent (no in-flight
/// deliveries — true of every snapshot the executors produce at event or
/// chunk boundaries); otherwise [`CheckpointError::NotQuiescent`] is
/// returned.
pub fn run_threaded_resumed(
    deployment: &Deployment,
    events: &[Event],
    config: &ThreadedConfig,
    snapshot: &[u8],
) -> Result<ThreadedReport, CheckpointError> {
    let mut snap = checkpoint::decode_for(deployment, snapshot)?;
    if !snap.pending.is_empty() {
        return Err(CheckpointError::NotQuiescent);
    }
    // Restore on the caller, so a snapshot that does not fit the plan is an
    // error here and the node threads cannot fail. Node 0 absorbs the
    // snapshot's run totals (see `NodeCore::restore`), so the merged report
    // continues them.
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
                .max()
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
    let mut max_seq = 0;
    for (at, event) in events.iter().enumerate() {
        max_seq = max_seq.max(event.seq);
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
    let inject_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..=max_seq as usize).map(|_| AtomicU64::new(0)).collect());
    let resilient = config.checkpoint || config.fault.is_some();
    let shared: Option<Arc<ResilienceShared>> = resilient.then(|| {
        Arc::new(ResilienceShared {
            shards: (0..num_nodes).map(|_| Mutex::new(Vec::new())).collect(),
            crashed_chunk: AtomicU64::new(0),
            flight_dumps: (0..num_nodes).map(|_| Mutex::new(Vec::new())).collect(),
        })
    });
    let schedule = ChunkSchedule {
        chunk,
        chunks: &chunks,
        rounds_per_chunk,
        release_phases,
    };
    let start = Instant::now();

    let report_parts: Vec<(CoreReport, Option<Snapshot>)> = std::thread::scope(|scope| {
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
            let shared = shared.clone();
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
                send_log: Vec::new(),
                recv_log: Default::default(),
                suppressed: Vec::new(),
                logs_active: false,
                dedup_active: false,
                crash_started: None,
                flight: FlightRing::new(
                    node as u16,
                    if shared.is_some() { FLIGHT_CAPACITY } else { 0 },
                ),
                shared,
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
    for (part, shard) in report_parts {
        metrics.merge(&part.metrics);
        for (q, ms) in part.matches.into_iter().enumerate() {
            matches[q].extend(ms);
        }
        wall_latencies_ns.extend(part.wall_latencies_ns);
        if let (Some(merged), Some(shard)) = (&mut final_state, shard) {
            merged.merge_shard(shard);
        }
        if let (Some(merged), Some(shard)) = (&mut telemetry, part.telemetry) {
            merged.series.absorb(shard.series);
            merged.trace.absorb(shard.trace);
            merged.provenance.absorb(shard.provenance);
            merged.rates.merge(&shard.rates);
            merged.tasks.extend(shard.tasks);
        }
    }
    let flight_dumps: Vec<Vec<u8>> = shared
        .as_ref()
        .map(|s| {
            s.flight_dumps
                .iter()
                .map(|d| std::mem::take(&mut *d.lock().expect("flight dump lock")))
                .filter(|d| !d.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let final_snapshot = final_state.map(|state| checkpoint::encode(&state));
    if let Some(merged) = &mut telemetry {
        // Shards were absorbed node by node; read in time order.
        merged.series.sort_by_key(|r| (r.t, r.task));
        merged.trace.sort_by_key(TraceRecord::t);
        merged.provenance.sort_by_key(|r| r.t);
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
        flight_dumps,
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
    /// runs while the core is borrowed; folded into the metrics whenever
    /// they leave the thread (shards, end of run).
    stats: TransportStats,
    /// Wall-clock injection mark per event seq (0 = never injected),
    /// shared by all nodes: the baseline of sink latencies.
    inject_ns: Arc<Vec<AtomicU64>>,
    start: Instant,
    /// Fault plan from the config, when fault injection is enabled.
    fault: Option<FaultPlan>,
    /// Shared shard storage and crash flag (checkpoint or fault mode).
    shared: Option<Arc<ResilienceShared>>,
    /// Crash-recovery counters, kept OUTSIDE the core's metrics so the
    /// crashing node's state rollback cannot erase the record of its own
    /// recovery; folded into `metrics.recovery` when the thread finishes.
    recovery: RecoveryStats,
    /// Local events injected so far (drives [`FaultPlan::crash_at`]).
    injected_local: u64,
    /// Whether this run's planned crash has already fired (single-shot).
    crashed: bool,
    /// Fault mode, pre-crash: messages flushed to the planned-crash node
    /// this chunk, replayed to it after the crash (the peers' side of the
    /// Ambrosia-style logged-call replay).
    send_log: Vec<NodeMsg>,
    /// Fault mode, pre-crash: multiset of messages ingested from the
    /// planned-crash node this chunk, keyed by `(target, slot, mux match
    /// hash)` — the receive-side replay-dedup filter.
    recv_log: HashMap<(usize, usize, u64), u32, MuxBuildHasher>,
    /// Target tasks of the duplicate deliveries suppressed so far, handed
    /// to the telemetry at the end of the run (ingest can run while the
    /// core is borrowed).
    suppressed: Vec<usize>,
    /// Whether chunk logs are being recorded (fault mode, until the crash
    /// has happened).
    logs_active: bool,
    /// Whether re-deliveries from the crashed node are being deduplicated
    /// against `recv_log` (peers, from the crash to the chunk's end).
    dedup_active: bool,
    /// Wall-clock mark of the injected crash (downtime + recovery timer).
    crash_started: Option<Instant>,
    /// Bounded black box of recent transport/checkpoint/injection steps;
    /// recording only in resilient mode (capacity 0 otherwise), dumped by
    /// the crash path.
    flight: FlightRing,
}

/// First backoff sleep of a blocked fault-mode send.
const SEND_BACKOFF_START: Duration = Duration::from_micros(1);

/// Backoff ceiling: a blocked fault-mode sender keeps retrying at this
/// bounded cadence (doubling up to the cap) instead of parking
/// indefinitely on a channel whose receiver may have crashed.
const SEND_BACKOFF_CAP: Duration = Duration::from_micros(256);

/// One node thread: drives `core` through the chunk schedule. `local` lists
/// the positions in `events` of this node's events.
fn run_node(
    mut core: NodeCore<'_>,
    mut runner: NodeRunner,
    events: &[Event],
    local: &[usize],
    schedule: ChunkSchedule<'_>,
    checkpoint: bool,
) -> (CoreReport, Option<Snapshot>) {
    let node = runner.node;
    let fault_mode = runner.fault.is_some();
    let mut next = 0usize;
    for &chunk_idx in schedule.chunks {
        // Inclusive, so the last chunk of the time domain keeps its last tick.
        let last_tick = (chunk_idx * schedule.chunk).saturating_add(schedule.chunk - 1);
        if runner.shared.is_some() {
            // Every chunk starts from quiescence: persist this node's
            // shard (the durable state a crash rolls back to).
            runner.save_shard(&core, next);
        }
        if fault_mode {
            runner.begin_chunk_logs(chunk_idx);
        }
        let mut crashed_here = false;
        while next < local.len() && events[local[next]].time <= last_tick {
            if runner.crash_due() {
                runner.crash(chunk_idx);
                crashed_here = true;
                break;
            }
            runner.drain(&mut core);
            core.inject(&mut runner, &events[local[next]]);
            core.maybe_sample(&runner);
            next += 1;
        }
        if !crashed_here {
            runner.flush_all();
        }
        if fault_mode {
            // Crash coordination. Barrier A publishes the crash flag
            // consistently; the crashed node then discards its inbox and
            // restores its shard while peers hold their sends; barrier B
            // orders the discard before the replay traffic.
            runner.barrier_steal();
            let crash_chunk = runner
                .shared
                .as_ref()
                .map(|s| s.crashed_chunk.load(Ordering::Acquire))
                .unwrap_or(0);
            if crash_chunk == chunk_idx + 1 {
                let fault_node = runner.fault.as_ref().map(|f| f.node).unwrap_or(usize::MAX);
                if node == fault_node {
                    next = runner.recover(&mut core);
                } else {
                    runner.dedup_active = true;
                }
                runner.barrier_steal();
                if node == fault_node {
                    // Replay the rolled-back part of the chunk: re-inject
                    // the local events from the restored cursor. Sends are
                    // regenerated; peers dedup re-deliveries they already
                    // processed against their receive logs.
                    while next < local.len() && events[local[next]].time <= last_tick {
                        runner.drain(&mut core);
                        core.inject(&mut runner, &events[local[next]]);
                        next += 1;
                    }
                    if let Some(started) = runner.crash_started.take() {
                        runner.recovery.recovery_ns += started.elapsed().as_nanos() as u64;
                    }
                } else {
                    runner.resend_log(&mut core);
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
    // End-of-run state shard, captured BEFORE `finish` folds the join
    // stats: snapshots keep `metrics.join` unfolded.
    let shard = checkpoint.then(|| runner.build_shard(&core, next));
    core.metrics.transport.merge(&runner.stats);
    core.metrics.recovery.merge(&runner.recovery);
    if let Some(tel) = core.telemetry.as_mut() {
        for task in runner.suppressed.drain(..) {
            tel.on_suppressed(task);
        }
    }
    (core.finish(runner.now()), shard)
}

impl Outbox for NodeRunner {
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn on_inject(&mut self, event: &Event, now: u64) {
        self.injected_local += 1;
        if !self.flight.is_disabled() {
            self.flight.push(FlightRecord::Inject {
                t: now,
                seq: event.seq,
                ty: event.ty.0,
                time: event.time,
            });
        }
        if let Some(slot) = self.inject_ns.get(event.seq as usize) {
            // First write wins (0 means "never injected"), so a crash
            // replay keeps the original mark and a recovered match's
            // latency includes the downtime it survived.
            let _ = slot.compare_exchange(0, now.max(1), Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// A thread has no scheduler: the core delivers local matches inline.
    fn local(&mut self, _target: usize, _slot: usize, m: Match) -> Option<Match> {
        Some(m)
    }

    fn remote(&mut self, dest: usize, target: usize, slot: usize, m: Match) {
        let m = InFlight::of(m);
        self.enqueue(dest, NodeMsg { target, slot, m });
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
            .get(newest.seq as usize)
            .map_or(0, |a| a.load(Ordering::Acquire));
        (injected != 0).then(|| now.saturating_sub(injected))
    }
}

impl NodeRunner {
    /// This node's state as a snapshot shard: the core's slice plus the
    /// live transport counters and the local event cursor. Shards of all
    /// nodes merge into one whole-run [`Snapshot`].
    fn build_shard(&self, core: &NodeCore<'_>, cursor: usize) -> Snapshot {
        let mut snap = core.save();
        snap.metrics.transport.merge(&self.stats);
        snap.cursors = vec![0; self.out_bufs.len()];
        snap.cursors[self.node] = cursor as u64;
        snap
    }

    /// Encodes this node's state and stores it as the chunk-boundary
    /// shard — the durable state a crash rolls back to.
    fn save_shard(&mut self, core: &NodeCore<'_>, cursor: usize) {
        let bytes = checkpoint::encode(&self.build_shard(core, cursor));
        self.recovery.snapshots_taken += 1;
        self.recovery.snapshot_bytes += bytes.len() as u64;
        self.flight.push(FlightRecord::Checkpoint {
            t: self.now(),
            bytes: bytes.len() as u64,
        });
        if let Some(shared) = &self.shared {
            *shared.shards[self.node].lock().expect("shard lock") = bytes;
        }
    }

    /// Resets the per-chunk replay logs (fault mode). Logging stops once
    /// the planned crash has fired in an *earlier* chunk — no second
    /// crash can need the logs. The current chunk still logs even when
    /// the flag is already up: a node crashing at its very first
    /// injection can publish the flag before its peers begin the chunk,
    /// and their logs are exactly what the recovery will replay.
    fn begin_chunk_logs(&mut self, chunk_idx: u64) {
        self.send_log.clear();
        self.recv_log.clear();
        self.dedup_active = false;
        self.logs_active = self.shared.as_ref().is_some_and(|s| {
            let c = s.crashed_chunk.load(Ordering::Relaxed);
            c == 0 || c == chunk_idx + 1
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
    /// after the next barrier), drop every piece of volatile state, and
    /// sleep out the configured downtime. The inbox is discarded later in
    /// [`Self::recover`]; until then barrier waits keep stealing from it
    /// so peers blocked on this node's bounded channel stay live.
    fn crash(&mut self, chunk_idx: u64) {
        self.crashed = true;
        self.crash_started = Some(Instant::now());
        self.recovery.crashes += 1;
        self.flight.push(FlightRecord::Crash {
            t: self.now(),
            chunk: chunk_idx,
        });
        if let Some(shared) = &self.shared {
            shared.crashed_chunk.store(chunk_idx + 1, Ordering::Release);
            // The black box: publish this shard's recent history next to
            // the snapshot it will recover from.
            *shared.flight_dumps[self.node]
                .lock()
                .expect("flight dump lock") = self.flight.encode();
        }
        self.backlog.clear();
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

    /// Post-crash restoration: discard every in-flight frame addressed to
    /// the old incarnation (peers replay their chunk logs afterwards),
    /// decode the last shard, and roll the core back to it. Returns the
    /// restored event cursor.
    fn recover(&mut self, core: &mut NodeCore<'_>) -> usize {
        self.flight
            .push(FlightRecord::RecoveryStart { t: self.now() });
        self.backlog.clear();
        while let Ok(frame) = self.channels.inbox.try_recv() {
            self.channels.depth[self.node].fetch_sub(1, Ordering::Relaxed);
            let Frame { origin, mut msgs } = frame;
            msgs.clear();
            let _ = self.channels.ret_senders[origin].send(msgs);
        }
        let bytes = self.shared.as_ref().expect("fault mode has shards").shards[self.node]
            .lock()
            .expect("shard lock")
            .clone();
        let mut snap = checkpoint::decode(&bytes).expect("own shard decodes");
        core.restore(&mut snap).expect("own shard matches the plan");
        // The shard's metrics carry the transport counters up to the
        // checkpoint; the live ones roll back with the rest of the state.
        self.stats = TransportStats::default();
        let cursor = snap.cursors.get(self.node).copied().unwrap_or(0) as usize;
        self.flight.push(FlightRecord::RecoveryDone {
            t: self.now(),
            cursor: cursor as u64,
        });
        cursor
    }

    /// Replays every message this node flushed to the crashed node during
    /// the chunk — the peers' half of the logged-call replay. Replayed
    /// deliveries are not new network transmissions (the §4.4 message
    /// metric counted them when first shipped), so they bypass the mux
    /// accounting and are tallied separately.
    fn resend_log(&mut self, core: &mut NodeCore<'_>) {
        let Some(dest) = self.fault.as_ref().map(|f| f.node) else {
            return;
        };
        let log = std::mem::take(&mut self.send_log);
        self.recovery.replayed_messages += log.len() as u64;
        self.flight.push(FlightRecord::Replay {
            t: self.now(),
            msgs: log.len() as u32,
        });
        for msg in log {
            if let Some(tel) = core.telemetry.as_mut() {
                tel.on_replayed(msg.target, 1);
            }
            self.enqueue(dest, msg);
        }
    }

    /// Processes the backlog and every frame currently in the inbox;
    /// returns whether there was anything to process. Each match node is
    /// built here, on the thread whose join will store and evict it.
    fn drain(&mut self, core: &mut NodeCore<'_>) -> bool {
        let mut worked = false;
        loop {
            while let Some(msg) = self.backlog.pop_front() {
                worked = true;
                core.deliver(self, msg.target, msg.slot, msg.m.into_match());
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
    ///
    /// In fault mode, messages from the planned-crash node additionally
    /// pass the replay-dedup filter: while the crash is being replayed,
    /// any message this node already ingested earlier in the chunk is
    /// dropped (the channel is FIFO per sender, so the pre-crash copy
    /// always arrives before its replay).
    fn ingest(&mut self, mut frame: Frame) {
        self.channels.depth[self.node].fetch_sub(1, Ordering::Relaxed);
        if !self.flight.is_disabled() {
            self.flight.push(FlightRecord::FrameRecv {
                t: self.now(),
                from: frame.origin as u16,
                msgs: frame.msgs.len() as u32,
            });
        }
        let filtered = (self.logs_active || self.dedup_active)
            && self
                .fault
                .as_ref()
                .is_some_and(|f| f.node == frame.origin && f.node != self.node);
        if filtered {
            for msg in frame.msgs.drain(..) {
                let key = (msg.target, msg.slot, match_hash(msg.m.entries()));
                if self.dedup_active {
                    if let Some(count) = self.recv_log.get_mut(&key) {
                        *count -= 1;
                        if *count == 0 {
                            self.recv_log.remove(&key);
                        }
                        self.recovery.suppressed_sends += 1;
                        self.suppressed.push(msg.target);
                        continue;
                    }
                }
                *self.recv_log.entry(key).or_insert(0) += 1;
                self.backlog.push_back(msg);
            }
        } else {
            self.backlog.extend(frame.msgs.drain(..));
        }
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
        if self.logs_active
            && self
                .fault
                .as_ref()
                .is_some_and(|f| f.node == dest && f.node != self.node)
        {
            self.send_log.extend(msgs.iter().cloned());
        }
        let t = &mut self.stats;
        t.frames_sent += 1;
        t.messages_framed += msgs.len() as u64;
        t.batch_hist.record(msgs.len() as u64);
        if !self.flight.is_disabled() {
            self.flight.push(FlightRecord::FrameSent {
                t: self.now(),
                to: dest as u16,
                msgs: msgs.len() as u32,
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
    use crate::sim::{run_simulation, SimConfig};
    use muse_core::algorithms::amuse::{amuse, AMuseConfig};
    use muse_core::graph::PlanContext;
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::{Pattern, Query};
    use muse_core::types::{EventTypeId, NodeId, QueryId};
    use std::collections::BTreeSet;

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

    fn fingerprints(ms: &[Match]) -> BTreeSet<Vec<u64>> {
        ms.iter().map(Match::fingerprint).collect()
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
            flight_dumps: vec![],
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
        let consumed = |events: &[Event]| -> Vec<u64> {
            (0..3)
                .map(|node| local_seqs(events, node).len() as u64)
                .collect()
        };
        let cursors = |report: &ThreadedReport| {
            let snapshot = report.final_snapshot.as_deref().expect("final snapshot");
            checkpoint::decode(snapshot).expect("decodes").cursors
        };
        let config = ThreadedConfig {
            checkpoint: true,
            ..ThreadedConfig::default()
        };
        let baseline = run_threaded(&deployment, &events, &config);
        assert_eq!(cursors(&baseline), consumed(&events));

        // A crash rolls node 1 back to its shard's cursor and replays from
        // there: a cursor that were a trace position would skip or repeat
        // events.
        let crashed = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                fault: Some(FaultPlan {
                    node: 1,
                    crash_at: consumed(&events)[1] / 2,
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
        assert_eq!(cursors(&crashed), cursors(&baseline));

        // A resumed run counts from the start of its remainder.
        let (prefix, rest) = events.split_at(events.len() / 3);
        let first = run_threaded(&deployment, prefix, &config);
        let snapshot = first.final_snapshot.as_deref().expect("final snapshot");
        let resumed = run_threaded_resumed(&deployment, rest, &config, snapshot).expect("resumes");
        assert_eq!(cursors(&first), consumed(prefix));
        assert_eq!(cursors(&resumed), consumed(rest));
        assert_eq!(
            fingerprints(&resumed.matches[0]),
            fingerprints(&baseline.matches[0])
        );
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
}
