//! Checkpointing of executor state — the stand-in for Ambrosia's "virtual
//! resiliency" (§7.3 of the paper).
//!
//! The paper's case-study engine runs each node inside an Ambrosia
//! *immortal* that checkpoints the application state (input queues and
//! partial matches) and replays logged calls after a failure. Here the
//! equivalent durable state is a [`Snapshot`]: per-task join-engine state
//! (buffered partial matches, negation assemblers, watermarks, counters),
//! in-flight deliveries, the transmission-multiplexing sent-sets, metrics,
//! and collected sink matches. A snapshot taken mid-run and restored into
//! a fresh executor resumes to exactly the same results as an
//! uninterrupted run (verified by the executor and resilience tests).
//!
//! # One schema, both executors
//!
//! The same snapshot schema serves the simulator and the threaded
//! executor: the simulator checkpoints between injections
//! ([`crate::sim::SimExecutor`]), and the threaded executor checkpoints at
//! chunk-quiescence barriers and per-node during fault recovery
//! ([`crate::threaded::run_threaded`] with checkpointing or a fault plan
//! enabled). Because both executors produce and consume the same bytes, a
//! run can be snapshotted under one executor and resumed under the other
//! (the schema round-trip tests exercise both directions). Executor-
//! specific fields are simply empty on the other side: the simulator
//! never has event cursors or wall-clock latencies; a quiesced threaded
//! snapshot never has pending deliveries.
//!
//! # Format
//!
//! The body is encoded with the [`crate::codec`] wire format (not
//! `serde_json` — snapshots of large runs are dominated by buffered
//! matches, which the codec encodes at wire cost), wrapped in a versioned
//! envelope:
//!
//! ```text
//! magic "MUSE" (u32) · version (u16) · plan fingerprint (u64) · body
//! ```
//!
//! The plan fingerprint ([`crate::deploy::Deployment::fingerprint`])
//! guards restores: state grafted onto a different plan would silently
//! corrupt join buffers, so [`restore`] (and every other decode path)
//! fails with [`CheckpointError::PlanMismatch`] instead. Unknown versions
//! fail with [`CheckpointError::UnsupportedVersion`]; truncated or
//! malformed bytes with [`CheckpointError::Malformed`] — never a panic.
//!
//! The current format is version 3: each `NSEQ` negation of a join state
//! ([`JoinState::negations`]) carries its forbidden-match store and, for a
//! composite forbidden pattern, the nested [`JoinState`] of the join that
//! assembles it (version 2 carried an evaluator state there).
//!
//! The one sanctioned way *across* plans is [`map_snapshot`] /
//! [`restore_mapped`]: given a certified-safe `muse-verify`
//! [`MigrationPlan`], state is re-keyed task-by-task from the old
//! deployment onto the new one (live migration of a running network).

use crate::codec::{
    encode_match, try_decode_match, try_get_u16, try_get_u32, try_get_u64, try_get_u8,
};
use crate::deploy::{Deployment, TaskKind};
use crate::matcher::{JoinState, Match, StoreState};
use crate::metrics::{JoinStats, Metrics, TransportStats};
use crate::sim::{SimConfig, SimExecutor};
use bytes::{BufMut, BytesMut};
use muse_telemetry::{HistSnapshot, LogHistogram};
use muse_verify::{CarryMode, MigrationPlan};

/// Leading magic of every snapshot ("MUSE" in ASCII).
pub const SNAPSHOT_MAGIC: u32 = 0x4d55_5345;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 3;

/// Errors raised by snapshot encode/decode/restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u16),
    /// The snapshot was produced under a different deployment plan.
    PlanMismatch {
        /// Fingerprint of the deployment being restored into.
        expected: u64,
        /// Fingerprint recorded in the snapshot header.
        found: u64,
        /// Where the snapshot's task structure first diverges from the
        /// target deployment (empty when the decode path could not tell).
        detail: String,
    },
    /// A cross-plan restore was attempted without a certified-safe
    /// [`muse_verify::MigrationPlan`]; the message summarizes why the
    /// verifier refused.
    MigrationRejected(String),
    /// The bytes are truncated or structurally invalid.
    Malformed,
    /// The snapshot's task structure does not fit the deployment (slot or
    /// negation counts differ despite an equal plan fingerprint — only
    /// possible with corrupted state).
    Shape(&'static str),
    /// The snapshot holds in-flight deliveries, which the restoring
    /// executor cannot represent (the threaded executor resumes only from
    /// quiescent snapshots).
    NotQuiescent,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "snapshot magic missing"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            CheckpointError::PlanMismatch {
                expected,
                found,
                detail,
            } => {
                write!(
                    f,
                    "snapshot was taken under a different plan \
                     (deployment {expected:#018x}, snapshot {found:#018x})"
                )?;
                if detail.is_empty() {
                    Ok(())
                } else {
                    write!(f, "; {detail}")
                }
            }
            CheckpointError::MigrationRejected(why) => {
                write!(f, "cross-plan restore refused: {why}")
            }
            CheckpointError::Malformed => write!(f, "snapshot bytes are malformed"),
            CheckpointError::Shape(what) => write!(f, "snapshot shape mismatch: {what}"),
            CheckpointError::NotQuiescent => {
                write!(
                    f,
                    "snapshot holds in-flight deliveries; executor needs quiescence"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One in-flight match delivery (the simulator's scheduled queue; always
/// empty in quiesced threaded-executor snapshots).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingDelivery {
    /// Virtual delivery time.
    pub time: u64,
    /// Sequence number of the triggering event.
    pub trigger: u64,
    /// Scheduling tiebreak (hop counter).
    pub sub: u64,
    /// Receiving task index.
    pub target: usize,
    /// Input slot at the receiver.
    pub slot: usize,
    /// The delivered match.
    pub m: Match,
}

/// A decoded executor snapshot — the unit of checkpointing, shared by the
/// simulator and the threaded executor.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Fingerprint of the producing deployment plan.
    pub plan: u64,
    /// Per-task dynamic join state, parallel to `Deployment::tasks`
    /// (`None` for stateless source tasks).
    pub tasks: Vec<Option<JoinState>>,
    /// In-flight deliveries (simulator only).
    pub pending: Vec<PendingDelivery>,
    /// The simulator's delivery tiebreak counter.
    pub next_sub: u64,
    /// Collected metrics (crash-recovery counters excluded by design:
    /// a crash must not roll back the record of its own recovery).
    pub metrics: Metrics,
    /// Sink matches per query (parallel to `Deployment::queries`).
    pub matches: Vec<Vec<Match>>,
    /// Wall-clock sink latencies (threaded executor only; the simulator
    /// carries its virtual-time latencies inside `metrics`).
    pub wall_latencies_ns: Vec<u64>,
    /// Transmission-multiplexing memory as `(stream sig, from node, to
    /// node, match hash)` — restoring it keeps replayed sends from
    /// double-counting network messages.
    pub sent: Vec<(u64, u16, u16, u64)>,
    /// Per-node next-event cursors into the node-local event partitions
    /// (threaded executor only; empty for the simulator).
    pub cursors: Vec<u64>,
}

impl Snapshot {
    /// An empty snapshot scaffold for a deployment (used by the threaded
    /// executor's per-node shard assembly).
    pub fn empty(deployment: &Deployment) -> Self {
        Self {
            plan: deployment.fingerprint(),
            tasks: vec![None; deployment.tasks.len()],
            pending: Vec::new(),
            next_sub: 0,
            metrics: Metrics::new(deployment.num_nodes),
            matches: vec![Vec::new(); deployment.queries.len()],
            wall_latencies_ns: Vec::new(),
            sent: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Merges another snapshot shard into this one: task states and sent
    /// entries are unioned (shards own disjoint tasks/nodes), metrics
    /// merge, matches and latencies concatenate, cursors take the
    /// element-wise maximum.
    pub fn merge_shard(&mut self, other: Snapshot) {
        debug_assert_eq!(self.plan, other.plan);
        for (slot, state) in self.tasks.iter_mut().zip(other.tasks) {
            if state.is_some() {
                *slot = state;
            }
        }
        self.pending.extend(other.pending);
        self.next_sub = self.next_sub.max(other.next_sub);
        self.metrics.merge(&other.metrics);
        for (into, from) in self.matches.iter_mut().zip(other.matches) {
            into.extend(from);
        }
        self.wall_latencies_ns.extend(other.wall_latencies_ns);
        self.sent.extend(other.sent);
        if self.cursors.len() < other.cursors.len() {
            self.cursors.resize(other.cursors.len(), 0);
        }
        for (i, c) in other.cursors.into_iter().enumerate() {
            self.cursors[i] = self.cursors[i].max(c);
        }
    }
}

/// Serializes a simulator's state into a durable snapshot.
pub fn snapshot(executor: &SimExecutor<'_>) -> Result<Vec<u8>, CheckpointError> {
    Ok(encode(&executor.to_snapshot()))
}

/// Restores a simulator from a snapshot against the same deployment.
///
/// The snapshot may come from either executor: a quiesced threaded-
/// executor snapshot restores into the simulator directly (its pending
/// queue is empty by construction).
pub fn restore<'a>(
    deployment: &'a Deployment,
    config: SimConfig,
    bytes: &[u8],
) -> Result<SimExecutor<'a>, CheckpointError> {
    let snap = decode_for(deployment, bytes)?;
    SimExecutor::from_snapshot(deployment, config, snap)
}

/// Decodes a snapshot and verifies it against a deployment's plan
/// fingerprint.
pub fn decode_for(deployment: &Deployment, bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
    let snap = decode(bytes)?;
    let expected = deployment.fingerprint();
    if snap.plan != expected {
        return Err(CheckpointError::PlanMismatch {
            expected,
            found: snap.plan,
            detail: shape_divergence(deployment, &snap),
        });
    }
    if snap.tasks.len() != deployment.tasks.len() {
        return Err(CheckpointError::Shape("task count differs from deployment"));
    }
    if snap.matches.len() != deployment.queries.len() {
        return Err(CheckpointError::Shape(
            "query count differs from deployment",
        ));
    }
    Ok(snap)
}

/// Describes where a snapshot's task structure first diverges from a
/// deployment — the part of a [`CheckpointError::PlanMismatch`] an operator
/// can act on. When every task state fits (the fingerprints differ only in
/// windows, routes, rates, or attribution, which leave the state vector's
/// shape unchanged), says so instead of naming a task.
fn shape_divergence(deployment: &Deployment, snap: &Snapshot) -> String {
    if snap.tasks.len() != deployment.tasks.len() {
        return format!(
            "snapshot carries {} task states, the deployment has {} tasks",
            snap.tasks.len(),
            deployment.tasks.len()
        );
    }
    if snap.matches.len() != deployment.queries.len() {
        return format!(
            "snapshot carries {} per-query match streams, the deployment has {} queries",
            snap.matches.len(),
            deployment.queries.len()
        );
    }
    for (i, saved) in snap.tasks.iter().enumerate() {
        let label = deployment.task_label(i);
        match (&deployment.tasks[i].kind, saved) {
            (TaskKind::Source { .. }, Some(_)) => {
                return format!(
                    "first diverging task {label}: snapshot holds join state \
                     where the deployment places a source"
                );
            }
            (TaskKind::Join { .. }, None) => {
                return format!(
                    "first diverging task {label}: snapshot holds no join state \
                     where the deployment places a join"
                );
            }
            (TaskKind::Join { slots }, Some(state)) if state.stores.len() != slots.len() => {
                return format!(
                    "first diverging task {label}: snapshot join state has {} input \
                     stores, the deployment expects {}",
                    state.stores.len(),
                    slots.len()
                );
            }
            _ => {}
        }
    }
    "every task state fits the target's shape; the plans differ in \
     placement, windows, routes, or attribution"
        .to_string()
}

/// Maps a snapshot taken under `old` into a snapshot restorable under
/// `new`, following a certified [`MigrationPlan`] from
/// `muse-verify`'s plan-diff pass — the runtime half of live migration.
///
/// Physical tasks are paired by [`Deployment::task_key`] (the same
/// shared-collapse key the verifier profiles), duplicates in declaration
/// order. Tasks the plan marks [`CarryMode::Carry`]/[`CarryMode::Replay`]
/// take the old task's join state verbatim; everything else starts from a
/// freshly instantiated state (`slack` must match the restoring executor's
/// eviction slack so fresh and grafted states share a shape). Sink matches
/// follow their [`QueryId`](muse_core::types::QueryId); dropped queries'
/// matches are discarded. Transmission-multiplexing memory is filtered to
/// stream signatures the new plan still emits. The result claims `new`'s
/// fingerprint and restores through the ordinary
/// [`SimExecutor::from_snapshot`] / threaded resume paths.
///
/// # Errors
///
/// [`CheckpointError::MigrationRejected`] when `plan.safe` is `false` —
/// an uncertified mapping would silently corrupt join buffers, which is
/// exactly what the verifier exists to rule out. Otherwise the usual
/// decode errors, [`CheckpointError::PlanMismatch`] when the snapshot was
/// not taken under `old`, and [`CheckpointError::NotQuiescent`] when
/// in-flight deliveries exist (quiesce before migrating).
pub fn map_snapshot(
    old: &Deployment,
    new: &Deployment,
    plan: &MigrationPlan,
    slack: f64,
    bytes: &[u8],
) -> Result<Snapshot, CheckpointError> {
    use std::collections::{HashMap, HashSet, VecDeque};
    if !plan.safe {
        let why = plan
            .actions
            .iter()
            .find(|a| a.mode == CarryMode::Fresh && a.from.is_some() && a.to.is_some())
            .map(|a| format!(" (first unsafe task: {})", a.detail))
            .unwrap_or_default();
        return Err(CheckpointError::MigrationRejected(format!(
            "the migration plan is not certified safe{why}; \
             run `muse-verify migrate` for the full diagnostic report"
        )));
    }
    let snap = decode_for(old, bytes)?;
    if !snap.pending.is_empty() {
        return Err(CheckpointError::NotQuiescent);
    }

    // Old tasks by migration key, duplicates queued in declaration order —
    // the same order the verifier's profile pass saw them.
    let mut old_by_key: HashMap<muse_verify::TaskKey, VecDeque<usize>> = HashMap::new();
    for i in 0..old.tasks.len() {
        old_by_key.entry(old.task_key(i)).or_default().push_back(i);
    }
    // Certified carries by destination key.
    let mut carry_by_to: HashMap<muse_verify::TaskKey, VecDeque<muse_verify::TaskKey>> =
        HashMap::new();
    for a in &plan.actions {
        if let (Some(from), Some(to)) = (a.from, a.to) {
            if matches!(a.mode, CarryMode::Carry | CarryMode::Replay) {
                carry_by_to.entry(to).or_default().push_back(from);
            }
        }
    }

    let mut tasks = Vec::with_capacity(new.tasks.len());
    for i in 0..new.tasks.len() {
        let carried = carry_by_to
            .get_mut(&new.task_key(i))
            .and_then(VecDeque::pop_front)
            .and_then(|from| old_by_key.get_mut(&from).and_then(VecDeque::pop_front))
            .and_then(|old_idx| snap.tasks[old_idx].clone());
        tasks.push(match carried {
            Some(state) => Some(state),
            None => new.make_join(i, slack).map(|j| j.save_state()),
        });
    }

    let old_query_idx: HashMap<_, _> = old
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| (q.id(), i))
        .collect();
    let matches = new
        .queries
        .iter()
        .map(|q| {
            old_query_idx
                .get(&q.id())
                .map(|&i| snap.matches[i].clone())
                .unwrap_or_default()
        })
        .collect();

    let live_sigs: HashSet<u64> = new.tasks.iter().map(|t| t.stream_sig).collect();
    let sent = snap
        .sent
        .iter()
        .filter(|&&(sig, from, to, _)| {
            live_sigs.contains(&sig)
                && (from as usize) < new.num_nodes
                && (to as usize) < new.num_nodes
        })
        .copied()
        .collect();

    let mut metrics = snap.metrics.clone();
    metrics.per_node_processed.resize(new.num_nodes, 0);
    let mut cursors = snap.cursors.clone();
    if !cursors.is_empty() {
        cursors.resize(new.num_nodes, 0);
    }

    Ok(Snapshot {
        plan: new.fingerprint(),
        tasks,
        pending: Vec::new(),
        next_sub: snap.next_sub,
        metrics,
        matches,
        wall_latencies_ns: snap.wall_latencies_ns.clone(),
        sent,
        cursors,
    })
}

/// Restores a simulator under `new` from a snapshot taken under `old`,
/// through a certified [`MigrationPlan`] — [`map_snapshot`] followed by the
/// ordinary snapshot-restore path (which re-validates every grafted state's
/// shape). The fresh states use `config.slack`, keeping them identical to
/// what the executor would build itself.
pub fn restore_mapped<'a>(
    old: &Deployment,
    new: &'a Deployment,
    plan: &MigrationPlan,
    config: SimConfig,
    bytes: &[u8],
) -> Result<SimExecutor<'a>, CheckpointError> {
    let slack = config.slack;
    let snap = map_snapshot(old, new, plan, slack, bytes)?;
    SimExecutor::from_snapshot(new, config, snap)
}

/// Encodes a snapshot into its versioned byte form.
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_u32(SNAPSHOT_MAGIC);
    buf.put_u16(SNAPSHOT_VERSION);
    buf.put_u64(snap.plan);
    buf.put_u32(snap.tasks.len() as u32);
    for task in &snap.tasks {
        put_opt_join(&mut buf, task.as_ref());
    }
    buf.put_u32(snap.pending.len() as u32);
    for p in &snap.pending {
        buf.put_u64(p.time);
        buf.put_u64(p.trigger);
        buf.put_u64(p.sub);
        buf.put_u32(p.target as u32);
        buf.put_u32(p.slot as u32);
        put_match(&mut buf, &p.m);
    }
    buf.put_u64(snap.next_sub);
    put_metrics(&mut buf, &snap.metrics);
    buf.put_u32(snap.matches.len() as u32);
    for per_query in &snap.matches {
        buf.put_u32(per_query.len() as u32);
        for m in per_query {
            put_match(&mut buf, m);
        }
    }
    buf.put_u32(snap.wall_latencies_ns.len() as u32);
    for &l in &snap.wall_latencies_ns {
        buf.put_u64(l);
    }
    buf.put_u32(snap.sent.len() as u32);
    for &(sig, from, to, mhash) in &snap.sent {
        buf.put_u64(sig);
        buf.put_u16(from);
        buf.put_u16(to);
        buf.put_u64(mhash);
    }
    buf.put_u32(snap.cursors.len() as u32);
    for &c in &snap.cursors {
        buf.put_u64(c);
    }
    buf.into_vec()
}

/// Decodes a snapshot from bytes (no plan check — see [`decode_for`]).
pub fn decode(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
    let buf = &mut &bytes[..];
    let magic = try_get_u32(buf).ok_or(CheckpointError::Malformed)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = try_get_u16(buf).ok_or(CheckpointError::Malformed)?;
    if version != SNAPSHOT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let plan = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let num_tasks = get_len(buf)?;
    let mut tasks = Vec::with_capacity(num_tasks);
    for _ in 0..num_tasks {
        tasks.push(get_opt_join(buf, 0)?);
    }
    let num_pending = get_len(buf)?;
    let mut pending = Vec::with_capacity(num_pending);
    for _ in 0..num_pending {
        let time = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
        let trigger = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
        let sub = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
        let target = try_get_u32(buf).ok_or(CheckpointError::Malformed)? as usize;
        let slot = try_get_u32(buf).ok_or(CheckpointError::Malformed)? as usize;
        let m = get_match(buf)?;
        pending.push(PendingDelivery {
            time,
            trigger,
            sub,
            target,
            slot,
            m,
        });
    }
    let next_sub = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let metrics = get_metrics(buf)?;
    let num_queries = get_len(buf)?;
    let mut matches = Vec::with_capacity(num_queries);
    for _ in 0..num_queries {
        let n = get_len(buf)?;
        let mut per_query = Vec::with_capacity(n);
        for _ in 0..n {
            per_query.push(get_match(buf)?);
        }
        matches.push(per_query);
    }
    let n = get_len(buf)?;
    let mut wall_latencies_ns = Vec::with_capacity(n);
    for _ in 0..n {
        wall_latencies_ns.push(try_get_u64(buf).ok_or(CheckpointError::Malformed)?);
    }
    let n = get_len(buf)?;
    let mut sent = Vec::with_capacity(n);
    for _ in 0..n {
        let sig = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
        let from = try_get_u16(buf).ok_or(CheckpointError::Malformed)?;
        let to = try_get_u16(buf).ok_or(CheckpointError::Malformed)?;
        let mhash = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
        sent.push((sig, from, to, mhash));
    }
    let n = get_len(buf)?;
    let mut cursors = Vec::with_capacity(n);
    for _ in 0..n {
        cursors.push(try_get_u64(buf).ok_or(CheckpointError::Malformed)?);
    }
    if !buf.is_empty() {
        return Err(CheckpointError::Malformed);
    }
    Ok(Snapshot {
        plan,
        tasks,
        pending,
        next_sub,
        metrics,
        matches,
        wall_latencies_ns,
        sent,
        cursors,
    })
}

// ---------------------------------------------------------------------
// Body field codecs.

fn get_len(buf: &mut &[u8]) -> Result<usize, CheckpointError> {
    let n = try_get_u32(buf).ok_or(CheckpointError::Malformed)? as usize;
    // A length prefix can never exceed the remaining bytes (every element
    // is at least one byte) — reject early so a corrupt length cannot
    // trigger a huge pre-allocation.
    if n > buf.len() {
        return Err(CheckpointError::Malformed);
    }
    Ok(n)
}

fn put_match(buf: &mut BytesMut, m: &Match) {
    use bytes::Buf;
    buf.put_slice(encode_match(m).chunk());
}

fn get_match(buf: &mut &[u8]) -> Result<Match, CheckpointError> {
    try_decode_match(buf).ok_or(CheckpointError::Malformed)
}

fn put_store(buf: &mut BytesMut, s: &StoreState) {
    buf.put_u32(s.matches.len() as u32);
    for m in &s.matches {
        put_match(buf, m);
    }
    buf.put_u64(s.horizon);
    buf.put_u64(s.drained_at);
    buf.put_u64(s.evicted);
}

fn get_store(buf: &mut &[u8]) -> Result<StoreState, CheckpointError> {
    let n = get_len(buf)?;
    let mut matches = Vec::with_capacity(n);
    for _ in 0..n {
        matches.push(get_match(buf)?);
    }
    let horizon = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let drained_at = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let evicted = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    Ok(StoreState {
        matches,
        horizon,
        drained_at,
        evicted,
    })
}

fn put_join(buf: &mut BytesMut, j: &JoinState) {
    buf.put_u32(j.stores.len() as u32);
    for s in &j.stores {
        put_store(buf, s);
    }
    buf.put_u32(j.negations.len() as u32);
    for (assembler, forbidden) in &j.negations {
        put_opt_join(buf, assembler.as_ref());
        put_store(buf, forbidden);
    }
    buf.put_u64(j.max_time);
    buf.put_u32(j.deferred.len() as u32);
    for m in &j.deferred {
        put_match(buf, m);
    }
    put_join_stats(buf, &j.stats);
}

/// An optional join state: a task's (absent for sources) or a negation's
/// forbidden-pattern assembler (absent for single-primitive patterns).
fn put_opt_join(buf: &mut BytesMut, j: Option<&JoinState>) {
    match j {
        None => buf.put_u8(0),
        Some(state) => {
            buf.put_u8(1);
            put_join(buf, state);
        }
    }
}

/// `depth` counts enclosing assemblers: one per `NSEQ` nested inside
/// another's negated child, so a well-formed state stays below the
/// primitive count and a corrupt one cannot recurse the decoder off the
/// stack.
fn get_opt_join(buf: &mut &[u8], depth: usize) -> Result<Option<JoinState>, CheckpointError> {
    match try_get_u8(buf).ok_or(CheckpointError::Malformed)? {
        0 => Ok(None),
        1 if depth <= muse_core::types::MAX_PRIMS => get_join(buf, depth).map(Some),
        _ => Err(CheckpointError::Malformed),
    }
}

fn get_join(buf: &mut &[u8], depth: usize) -> Result<JoinState, CheckpointError> {
    let n = get_len(buf)?;
    let mut stores = Vec::with_capacity(n);
    for _ in 0..n {
        stores.push(get_store(buf)?);
    }
    let n = get_len(buf)?;
    let mut negations = Vec::with_capacity(n);
    for _ in 0..n {
        let assembler = get_opt_join(buf, depth + 1)?;
        let forbidden = get_store(buf)?;
        negations.push((assembler, forbidden));
    }
    let max_time = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let n = get_len(buf)?;
    let mut deferred = Vec::with_capacity(n);
    for _ in 0..n {
        deferred.push(get_match(buf)?);
    }
    let stats = get_join_stats(buf)?;
    Ok(JoinState {
        stores,
        negations,
        max_time,
        deferred,
        stats,
    })
}

fn put_join_stats(buf: &mut BytesMut, s: &JoinStats) {
    for v in [
        s.inputs,
        s.probes,
        s.guard_rejects,
        s.merge_attempts,
        s.merge_successes,
        s.emitted,
        s.evicted,
        s.peak_buffered,
    ] {
        buf.put_u64(v);
    }
}

fn get_join_stats(buf: &mut &[u8]) -> Result<JoinStats, CheckpointError> {
    let mut vals = [0u64; 8];
    for v in &mut vals {
        *v = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    }
    Ok(JoinStats {
        inputs: vals[0],
        probes: vals[1],
        guard_rejects: vals[2],
        merge_attempts: vals[3],
        merge_successes: vals[4],
        emitted: vals[5],
        evicted: vals[6],
        peak_buffered: vals[7],
    })
}

fn put_hist(buf: &mut BytesMut, h: &LogHistogram) {
    let snap = HistSnapshot::from(h.clone());
    buf.put_u64(snap.count);
    buf.put_u64(snap.sum);
    buf.put_u64(snap.min);
    buf.put_u64(snap.max);
    buf.put_u32(snap.buckets.len() as u32);
    for &(i, c) in &snap.buckets {
        buf.put_u32(i);
        buf.put_u64(c);
    }
}

fn get_hist(buf: &mut &[u8]) -> Result<LogHistogram, CheckpointError> {
    let count = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let sum = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let min = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let max = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let n = get_len(buf)?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        let i = try_get_u32(buf).ok_or(CheckpointError::Malformed)?;
        let c = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
        buckets.push((i, c));
    }
    Ok(LogHistogram::from(HistSnapshot {
        count,
        sum,
        min,
        max,
        buckets,
    }))
}

fn put_metrics(buf: &mut BytesMut, m: &Metrics) {
    for v in [
        m.events_injected,
        m.messages_sent,
        m.bytes_sent,
        m.local_deliveries,
        m.sink_matches,
        m.latency_samples_dropped,
    ] {
        buf.put_u64(v);
    }
    buf.put_u32(m.per_node_processed.len() as u32);
    for &v in &m.per_node_processed {
        buf.put_u64(v);
    }
    buf.put_u32(m.latencies.len() as u32);
    for &v in &m.latencies {
        buf.put_u64(v);
    }
    put_join_stats(buf, &m.join);
    let t = &m.transport;
    for v in [
        t.frames_sent,
        t.messages_framed,
        t.blocked_sends,
        t.pool_allocs,
        t.pool_reuses,
        t.peak_queue_depth,
    ] {
        buf.put_u64(v);
    }
    put_hist(buf, &t.batch_hist);
    let d = &m.discrimination;
    for v in [d.events, d.candidates_considered, d.candidates_admitted] {
        buf.put_u64(v);
    }
    put_hist(buf, &d.candidate_hist);
    // `m.recovery` is intentionally not encoded: recovery counters live
    // outside the rolled-back state (see `RecoveryStats`).
}

fn get_metrics(buf: &mut &[u8]) -> Result<Metrics, CheckpointError> {
    let mut head = [0u64; 6];
    for v in &mut head {
        *v = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    }
    let n = get_len(buf)?;
    let mut per_node_processed = Vec::with_capacity(n);
    for _ in 0..n {
        per_node_processed.push(try_get_u64(buf).ok_or(CheckpointError::Malformed)?);
    }
    let n = get_len(buf)?;
    let mut latencies = Vec::with_capacity(n);
    for _ in 0..n {
        latencies.push(try_get_u64(buf).ok_or(CheckpointError::Malformed)?);
    }
    let join = get_join_stats(buf)?;
    let mut tvals = [0u64; 6];
    for v in &mut tvals {
        *v = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    }
    let batch_hist = get_hist(buf)?;
    let mut dvals = [0u64; 3];
    for v in &mut dvals {
        *v = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    }
    let candidate_hist = get_hist(buf)?;
    Ok(Metrics {
        events_injected: head[0],
        messages_sent: head[1],
        bytes_sent: head[2],
        local_deliveries: head[3],
        sink_matches: head[4],
        latency_samples_dropped: head[5],
        per_node_processed,
        latencies,
        join,
        transport: TransportStats {
            frames_sent: tvals[0],
            messages_framed: tvals[1],
            blocked_sends: tvals[2],
            pool_allocs: tvals[3],
            pool_reuses: tvals[4],
            peak_queue_depth: tvals[5],
            batch_hist,
        },
        recovery: Default::default(),
        discrimination: crate::metrics::DiscriminationStats {
            events: dvals[0],
            candidates_considered: dvals[1],
            candidates_admitted: dvals[2],
            candidate_hist,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::algorithms::amuse::{amuse, AMuseConfig};
    use muse_core::event::{Event, Payload, Value};
    use muse_core::graph::PlanContext;
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::{CmpOp, Pattern, Predicate, Query};
    use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, QueryId};

    /// One event type per node (type id = node id), each at rate 1.
    fn one_type_per_node(n: u16) -> Network {
        (0..n)
            .map(EventTypeId)
            .fold(NetworkBuilder::new(n.into(), n.into()), |net, t| {
                net.node(NodeId(t.0), [t]).rate(t, 1.0)
            })
            .build()
    }

    fn deploy(net: &Network, pattern: &Pattern, window: u64) -> Deployment {
        deploy_with(net, pattern, vec![], window)
    }

    fn deploy_with(
        net: &Network,
        pattern: &Pattern,
        predicates: Vec<Predicate>,
        window: u64,
    ) -> Deployment {
        let q = Query::build(QueryId(0), pattern, predicates, window).unwrap();
        let plan = amuse(&q, net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), net, &plan.table);
        Deployment::new(&plan.graph, &ctx)
    }

    fn two_node_deployment(window: u64) -> Deployment {
        let [t0, t1] = [0, 1].map(|t| Pattern::leaf(EventTypeId(t)));
        deploy(&one_type_per_node(2), &Pattern::seq([t0, t1]), window)
    }

    /// [`two_node_deployment`] with the predicate `A.k = B.k` on attribute
    /// 0: both slots of the join are keyed on `k`.
    fn keyed_two_node_deployment(window: u64) -> Deployment {
        let [t0, t1] = [0, 1].map(|t| Pattern::leaf(EventTypeId(t)));
        let k = AttrId(0);
        let same_k = Predicate::binary((PrimId(0), k), CmpOp::Eq, (PrimId(1), k), 0.25);
        deploy_with(
            &one_type_per_node(2),
            &Pattern::seq([t0, t1]),
            vec![same_k],
            window,
        )
    }

    /// `NSEQ(A, SEQ(B, D), C)` with A, B, D, C produced at nodes 0..4: the
    /// sink join hosts a forbidden-pattern assembler.
    fn composite_guard_deployment(window: u64) -> Deployment {
        let [a, b, d, c] = [0, 1, 2, 3].map(|t| Pattern::leaf(EventTypeId(t)));
        let pattern = Pattern::nseq(a, Pattern::seq([b, d]), c);
        deploy(&one_type_per_node(4), &pattern, window)
    }

    #[test]
    fn snapshot_roundtrip_empty_executor() {
        let deployment = two_node_deployment(100);
        let executor = SimExecutor::new(&deployment, SimConfig::default());
        let bytes = snapshot(&executor).unwrap();
        let restored = restore(&deployment, SimConfig::default(), &bytes).unwrap();
        assert_eq!(restored.metrics().events_injected, 0);
        assert!(restored.matches().iter().all(Vec::is_empty));
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let deployment = two_node_deployment(100);
        // Garbage, empty, and every truncation of a valid snapshot must be
        // rejected with an error, never a panic.
        assert!(restore(&deployment, SimConfig::default(), b"not a snapshot").is_err());
        assert!(restore(&deployment, SimConfig::default(), b"").is_err());
        let executor = SimExecutor::new(&deployment, SimConfig::default());
        let bytes = snapshot(&executor).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                restore(&deployment, SimConfig::default(), &bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(restore(&deployment, SimConfig::default(), &padded).is_err());
    }

    #[test]
    fn plan_mismatch_rejected() {
        let d1 = two_node_deployment(100);
        let d2 = two_node_deployment(200); // different window ⇒ different plan
        let executor = SimExecutor::new(&d1, SimConfig::default());
        let bytes = snapshot(&executor).unwrap();
        let err = match restore(&d2, SimConfig::default(), &bytes) {
            Err(e) => e,
            Ok(_) => panic!("expected PlanMismatch, got a restored executor"),
        };
        match &err {
            CheckpointError::PlanMismatch {
                expected,
                found,
                detail,
            } => {
                assert_eq!(*expected, d2.fingerprint());
                assert_eq!(*found, d1.fingerprint());
                // Only the window differs, so every task shape still fits —
                // the detail must say so rather than blame a task.
                assert!(detail.contains("fits the target's shape"), "{detail}");
            }
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        let text = err.to_string();
        assert!(
            text.contains(&format!("{:#018x}", d2.fingerprint())),
            "{text}"
        );
        assert!(
            text.contains(&format!("{:#018x}", d1.fingerprint())),
            "{text}"
        );
        assert!(text.contains("fits the target's shape"), "{text}");
    }

    #[test]
    fn plan_mismatch_names_first_diverging_task() {
        // Structurally different plans: the snapshot's task vector cannot
        // line up, and the error names where it first diverges.
        let d1 = two_node_deployment(100);
        let t0 = EventTypeId(0);
        let t1 = EventTypeId(1);
        let t2 = EventTypeId(2);
        let net = NetworkBuilder::new(2, 3)
            .node(NodeId(0), [t0, t2])
            .node(NodeId(1), [t1])
            .rate(t0, 1.0)
            .rate(t1, 1.0)
            .rate(t2, 1.0)
            .build();
        let pattern = Pattern::seq([Pattern::leaf(t0), Pattern::leaf(t1), Pattern::leaf(t2)]);
        let d2 = deploy(&net, &pattern, 100);
        let executor = SimExecutor::new(&d1, SimConfig::default());
        let bytes = snapshot(&executor).unwrap();
        match restore(&d2, SimConfig::default(), &bytes) {
            Err(CheckpointError::PlanMismatch { detail, .. }) => {
                assert!(
                    detail.contains("task states") || detail.contains("first diverging task"),
                    "{detail}"
                );
            }
            Err(other) => panic!("expected PlanMismatch, got {other:?}"),
            Ok(_) => panic!("expected PlanMismatch, got a restored executor"),
        }
    }

    #[test]
    fn unsupported_version_rejected() {
        let deployment = two_node_deployment(100);
        let executor = SimExecutor::new(&deployment, SimConfig::default());
        let mut bytes = snapshot(&executor).unwrap();
        // Version field sits right after the 4-byte magic.
        bytes[4] = 0xff;
        assert!(matches!(
            restore(&deployment, SimConfig::default(), &bytes),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
        // Version 1 carried a latency histogram in the metrics block that
        // later versions do not, and version 2 a sub-evaluator state where
        // version 3 has the negation's assembler: both are refused by
        // number, not misread.
        for old in [1u16, 2] {
            bytes[4..6].copy_from_slice(&old.to_be_bytes());
            assert_eq!(
                decode(&bytes).err(),
                Some(CheckpointError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn snapshot_decode_is_lossless() {
        let ev = |seq, ty: u16, time| Event::new(seq, EventTypeId(ty), time, NodeId(ty));
        let kev = |seq, ty: u16, time, k: i64| {
            let payload = Payload::from_pairs(vec![(AttrId(0), Value::Int(k))]);
            Event::with_payload(seq, EventTypeId(ty), time, NodeId(ty), payload)
        };
        // (deployment, trace, events processed before the snapshot,
        // forbidden-pattern assemblers in the plan)
        let cases = [
            (
                two_node_deployment(100),
                vec![ev(0, 0, 10), ev(1, 1, 20), ev(2, 0, 30)],
                3,
                0,
            ),
            // The snapshot catches the forbidden SEQ(B, D) half-assembled:
            // B@20 sits in the assembler, D@25 is still to come, and only
            // together do they suppress (A@10, C@30) and (A@10, C@50).
            (
                composite_guard_deployment(100),
                vec![
                    ev(0, 0, 10),
                    ev(1, 1, 20),
                    ev(2, 2, 25),
                    ev(3, 3, 30),
                    ev(4, 0, 40),
                    ev(5, 3, 50),
                ],
                2,
                1,
            ),
            // Four As under three keys are buffered at the snapshot; each B
            // that follows must merge with the As of its key only — which a
            // restore that left the restored entries unkeyed would not do.
            (
                keyed_two_node_deployment(100),
                vec![
                    kev(0, 0, 10, 1),
                    kev(1, 0, 12, 2),
                    kev(2, 0, 14, 3),
                    kev(3, 0, 16, 1),
                    kev(4, 1, 20, 1),
                    kev(5, 1, 22, 2),
                    kev(6, 1, 24, 3),
                    kev(7, 1, 26, 9),
                ],
                4,
                0,
            ),
        ];
        for (deployment, events, split, assemblers) in cases {
            let mut executor = SimExecutor::new(&deployment, SimConfig::default());
            executor.process_trace(&events[..split]);
            let snap = executor.to_snapshot();
            let decoded = decode_for(&deployment, &encode(&snap)).unwrap();
            assert_eq!(decoded, snap);
            assert!(decoded.metrics.sink_matches > 0 || decoded.metrics.events_injected > 0);

            // Without its assembler states the snapshot no longer fits the
            // plan's negation joins, and the restore says so.
            let mut stripped = decoded.clone();
            let negations = stripped
                .tasks
                .iter_mut()
                .flatten()
                .flat_map(|j| &mut j.negations);
            assert_eq!(negations.filter_map(|(a, _)| a.take()).count(), assemblers);
            if assemblers > 0 {
                assert!(matches!(
                    SimExecutor::from_snapshot(&deployment, SimConfig::default(), stripped),
                    Err(CheckpointError::Shape(_))
                ));
            }

            // The restored executor finishes the trace like an
            // uninterrupted run.
            let mut resumed =
                SimExecutor::from_snapshot(&deployment, SimConfig::default(), decoded).unwrap();
            resumed.process_trace(&events[split..]);
            let whole = crate::sim::run_simulation(&deployment, &events, &SimConfig::default());
            let fingerprints = |ms: &[Match]| ms.iter().map(Match::fingerprint).collect::<Vec<_>>();
            assert_eq!(
                fingerprints(&resumed.matches()[0]),
                fingerprints(&whole.matches[0])
            );
            // Restored store entries probe exactly like the ones they were
            // saved from: equality keys are recomputed, not lost.
            assert_eq!(
                resumed.finish().metrics.join.merge_attempts,
                whole.metrics.join.merge_attempts
            );
        }
    }
}
