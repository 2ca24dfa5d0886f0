//! Checkpointing of executor state — the stand-in for Ambrosia's "virtual
//! resiliency" (§7.3 of the paper).
//!
//! The paper's case-study engine runs each node inside an Ambrosia
//! *immortal* that checkpoints the application state (input queues and
//! partial matches) and replays logged calls after a failure. Here the
//! equivalent durable state is a [`Snapshot`] of a quiescent run: what a
//! restored executor needs to emit the same future matches. That is the
//! per-task join-engine state (buffered partial matches, negation
//! assemblers, watermarks) and the node-owned buffer of each shared join
//! input, all bounded by the window. It holds no history: neither output
//! (sink matches, latency samples) nor counters (metrics, join and
//! eviction counts), which grow with the run, nor a position in the
//! trace, which the resuming caller supplies. So a restored executor
//! reports only its own work: the prefix run's matches followed by the
//! resumed run's equal an uninterrupted run's, as a multiset, and the
//! prefix run's [`crate::metrics::Metrics`] merged with the resumed run's
//! equal its counters (the executor and resilience tests check both). The
//! threaded executor's in-run crash rollback keeps the account it rewinds
//! to beside the snapshot, not in it ([`crate::threaded`]).
//!
//! # One schema, both executors
//!
//! The same snapshot schema serves the simulator and the threaded
//! executor: the simulator checkpoints between injections
//! ([`crate::sim::SimExecutor`]), and the threaded executor checkpoints at
//! chunk-quiescence barriers and per-node during fault recovery
//! ([`crate::threaded::run_threaded`] with checkpointing or a fault plan
//! enabled). Both snapshot only quiescent state, so a snapshot holds no
//! in-flight delivery and no deferred negation candidate. Because both
//! executors produce and consume the same bytes, a run can be snapshotted
//! under one executor and resumed under the other (the schema round-trip
//! tests exercise both directions).
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
//! corrupt join buffers, so [`decode_for`] (and every other decode path)
//! fails with [`CheckpointError::PlanMismatch`] instead. Unknown versions
//! fail with [`CheckpointError::UnsupportedVersion`]; truncated or
//! malformed bytes with [`CheckpointError::Malformed`] — never a panic.
//!
//! The current format is version 8: each piece of state is stored once. A
//! join input two or more joins store has one buffer
//! ([`Snapshot::buffers`]), and each reader's [`JoinState`] keeps only its
//! own horizon for it. Each `NSEQ` negation of a join state
//! ([`JoinState::negations`]) carries its forbidden-match store and, for a
//! composite forbidden pattern, the nested [`JoinState`] of the join that
//! assembles it. Version 7 also carried the run's metrics, each join's
//! counters, each store's eviction count and the threaded executor's
//! event cursors; version 6 the sink matches, the wall latency samples
//! and each join's deferred candidates (none at quiescence). Versions 1
//! to 7 are refused by number.
//!
//! The one sanctioned way *across* plans is [`map_snapshot`]: given a
//! certified-safe `muse-verify` [`MigrationPlan`], state is re-keyed
//! task-by-task from the old deployment onto the new one (live migration
//! of a running network).

use crate::codec::{
    encode_match, try_decode_match, try_get_u16, try_get_u32, try_get_u64, try_get_u8,
};
use crate::deploy::{Deployment, TaskKind};
use crate::matcher::{JoinState, Match, StoreState};
use bytes::{BufMut, BytesMut};
use muse_verify::{CarryMode, MigrationPlan};

/// Leading magic of every snapshot ("MUSE" in ASCII).
pub const SNAPSHOT_MAGIC: u32 = 0x4d55_5345;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 8;

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
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A decoded executor snapshot — the unit of checkpointing, shared by the
/// simulator and the threaded executor.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Fingerprint of the producing deployment plan.
    pub plan: u64,
    /// Per-task dynamic join state, parallel to `Deployment::tasks`
    /// (`None` for stateless source tasks).
    pub tasks: Vec<Option<JoinState>>,
    /// The buffer of each join input, parallel to `Deployment::inputs`:
    /// `Some` exactly for an input two or more joins store
    /// ([`Deployment::shared_readers`]). Such a reader's store state for
    /// the input's slot holds no matches, only its own horizon.
    pub buffers: Vec<Option<StoreState>>,
}

impl Snapshot {
    /// An empty snapshot scaffold for a deployment (used by the threaded
    /// executor's per-node shard assembly).
    pub fn empty(deployment: &Deployment) -> Self {
        Self {
            plan: deployment.fingerprint(),
            tasks: vec![None; deployment.tasks.len()],
            buffers: vec![None; deployment.inputs.len()],
        }
    }

    /// Merges another snapshot shard into this one: task states and
    /// buffers are unioned (shards own disjoint tasks and inputs).
    pub fn merge_shard(&mut self, other: Snapshot) {
        debug_assert_eq!(self.plan, other.plan);
        for (slot, state) in self.tasks.iter_mut().zip(other.tasks) {
            if state.is_some() {
                *slot = state;
            }
        }
        for (slot, state) in self.buffers.iter_mut().zip(other.buffers) {
            if state.is_some() {
                *slot = state;
            }
        }
    }
}

/// Decodes a snapshot and verifies it against a deployment's plan
/// fingerprint. The snapshot may come from either executor, and restores
/// into either ([`crate::sim::SimExecutor::from_snapshot`],
/// [`crate::threaded::run_threaded_resumed`]).
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
/// freshly instantiated state. A carried reader's stored matches follow it
/// across a change in sharing: a shared input of `new` takes its buffer
/// from its first carried reader's old storage (the old buffer, or the
/// reader's own store), so a fresh reader
/// reads the input's recent matches, as every reader of it does; a carried
/// reader that stores its input alone in `new` but read a buffer in `old`
/// takes the buffer's matches into its own store. The result claims
/// `new`'s fingerprint and restores
/// through the ordinary [`crate::sim::SimExecutor::from_snapshot`] /
/// threaded resume paths, which re-validate every grafted state's shape.
///
/// # Errors
///
/// [`CheckpointError::MigrationRejected`] when `plan.safe` is `false` —
/// an uncertified mapping would silently corrupt join buffers, which is
/// exactly what the verifier exists to rule out. Otherwise the usual
/// decode errors, and [`CheckpointError::PlanMismatch`] when the snapshot
/// was not taken under `old`.
pub fn map_snapshot(
    old: &Deployment,
    new: &Deployment,
    plan: &MigrationPlan,
    bytes: &[u8],
) -> Result<Snapshot, CheckpointError> {
    use std::collections::{HashMap, VecDeque};
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

    // Per new task, the old task whose join state it carries.
    let carried_from: Vec<Option<usize>> = (0..new.tasks.len())
        .map(|i| {
            let from = carry_by_to.get_mut(&new.task_key(i))?.pop_front()?;
            let old_idx = old_by_key.get_mut(&from)?.pop_front()?;
            snap.tasks[old_idx].is_some().then_some(old_idx)
        })
        .collect();
    let mut tasks: Vec<_> = (0..new.tasks.len())
        .map(|i| match carried_from[i] {
            Some(old_idx) => snap.tasks[old_idx].clone(),
            // Empty stores at watermark 0, whatever the reach.
            None => new.make_join(i, 0).map(|j| j.save_state()),
        })
        .collect();
    // The old buffer a carried reader stored its input in, if it was shared.
    let old_buffer = |task: usize, slot: usize| -> Option<StoreState> {
        let old_task = carried_from[task]?;
        let input = old.input_of(old_task, slot)?;
        let stored = old.shared_readers(input).contains(&(old_task, slot));
        snap.buffers.get(input)?.clone().filter(|_| stored)
    };
    let mut buffers = vec![None; new.inputs.len()];
    for (input, buffer) in buffers.iter_mut().enumerate() {
        let readers = new.shared_readers(input);
        if readers.is_empty() {
            for &(task, slot) in &new.inputs[input].readers {
                let store = tasks[task].as_mut().and_then(|j| j.stores.get_mut(slot));
                if let (Some(store), Some(from)) = (store, old_buffer(task, slot)) {
                    *store = StoreState {
                        horizon: store.horizon,
                        ..from
                    };
                }
            }
            continue;
        }
        let first = readers
            .iter()
            .find(|&&(task, _)| carried_from[task].is_some());
        let state = first.and_then(|&(task, slot)| {
            old_buffer(task, slot).or_else(|| tasks[task].as_ref()?.stores.get(slot).cloned())
        });
        *buffer = Some(state.unwrap_or_default());
        for &(task, slot) in &readers {
            if let Some(store) = tasks[task].as_mut().and_then(|j| j.stores.get_mut(slot)) {
                store.matches.clear();
            }
        }
    }

    Ok(Snapshot {
        plan: new.fingerprint(),
        tasks,
        buffers,
    })
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
    buf.put_u32(snap.buffers.len() as u32);
    for buffer in &snap.buffers {
        match buffer {
            None => buf.put_u8(0),
            Some(store) => {
                buf.put_u8(1);
                put_store(&mut buf, store);
            }
        }
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
    let num_buffers = get_len(buf)?;
    let mut buffers = Vec::with_capacity(num_buffers);
    for _ in 0..num_buffers {
        buffers.push(match try_get_u8(buf).ok_or(CheckpointError::Malformed)? {
            0 => None,
            1 => Some(get_store(buf)?),
            _ => return Err(CheckpointError::Malformed),
        });
    }
    if !buf.is_empty() {
        return Err(CheckpointError::Malformed);
    }
    Ok(Snapshot {
        plan,
        tasks,
        buffers,
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
}

fn get_store(buf: &mut &[u8]) -> Result<StoreState, CheckpointError> {
    let n = get_len(buf)?;
    let mut matches = Vec::with_capacity(n);
    for _ in 0..n {
        matches.push(get_match(buf)?);
    }
    let horizon = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    let drained_at = try_get_u64(buf).ok_or(CheckpointError::Malformed)?;
    Ok(StoreState {
        matches,
        horizon,
        drained_at,
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
    Ok(JoinState {
        stores,
        negations,
        max_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, SimExecutor};
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
        let bytes = encode(&executor.to_snapshot());
        let snap = decode_for(&deployment, &bytes).unwrap();
        let restored = SimExecutor::from_snapshot(&deployment, SimConfig::default(), snap).unwrap();
        assert_eq!(restored.metrics().events_injected, 0);
        assert!(restored.matches().iter().all(Vec::is_empty));
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let deployment = two_node_deployment(100);
        // Garbage, empty, and every truncation of a valid snapshot must be
        // rejected with an error, never a panic.
        assert!(decode_for(&deployment, b"not a snapshot").is_err());
        assert!(decode_for(&deployment, b"").is_err());
        let executor = SimExecutor::new(&deployment, SimConfig::default());
        let bytes = encode(&executor.to_snapshot());
        for cut in 0..bytes.len() {
            assert!(
                decode_for(&deployment, &bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_for(&deployment, &padded).is_err());
    }

    #[test]
    fn plan_mismatch_rejected() {
        let d1 = two_node_deployment(100);
        let d2 = two_node_deployment(200); // different window ⇒ different plan
        let executor = SimExecutor::new(&d1, SimConfig::default());
        let bytes = encode(&executor.to_snapshot());
        let err = match decode_for(&d2, &bytes) {
            Err(e) => e,
            Ok(_) => panic!("expected PlanMismatch, got a decoded snapshot"),
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
        let bytes = encode(&executor.to_snapshot());
        match decode_for(&d2, &bytes) {
            Err(CheckpointError::PlanMismatch { detail, .. }) => {
                assert!(
                    detail.contains("task states") || detail.contains("first diverging task"),
                    "{detail}"
                );
            }
            Err(other) => panic!("expected PlanMismatch, got {other:?}"),
            Ok(_) => panic!("expected PlanMismatch, got a decoded snapshot"),
        }
    }

    #[test]
    fn unsupported_version_rejected() {
        let deployment = two_node_deployment(100);
        let executor = SimExecutor::new(&deployment, SimConfig::default());
        let mut bytes = encode(&executor.to_snapshot());
        // Version field sits right after the 4-byte magic.
        bytes[4] = 0xff;
        assert!(matches!(
            decode_for(&deployment, &bytes),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
        // Version 1 carried a latency histogram in the metrics block that
        // later versions do not, version 2 a sub-evaluator state where later
        // versions have the negation's assembler, version 3 a
        // transmission-multiplexing set after the wall latencies, and
        // version 4 an in-flight delivery queue where later versions have
        // the shared buffers, version 5 virtual-time latencies in the
        // metrics block, version 6 the sink matches and wall latencies
        // after it and deferred candidates in each join state, and version
        // 7 the metrics block, event cursors, join counters and eviction
        // counts: all are refused by number, not misread.
        for old in [1u16, 2, 3, 4, 5, 6, 7] {
            bytes[4..6].copy_from_slice(&old.to_be_bytes());
            assert_eq!(
                decode(&bytes).err(),
                Some(CheckpointError::UnsupportedVersion(old))
            );
        }
    }

    /// A snapshot holds state, not output. On a relay-style plan, where
    /// every `A` crosses to the sink's node and waits a window there for
    /// its `B`s, a run of four times the events emits four times the
    /// matches, and its snapshot is about as large, under both executors.
    #[test]
    fn snapshot_size_is_flat_in_emitted_matches() {
        use crate::threaded::{run_threaded, ThreadedConfig};
        let deployment = two_node_deployment(20);
        let events: Vec<Event> = (0..1_600u64)
            .map(|seq| {
                let ty = (seq % 2) as u16;
                Event::new(seq, EventTypeId(ty), seq, NodeId(ty))
            })
            .collect();
        let sim = |n: usize| {
            let mut executor = SimExecutor::new(&deployment, SimConfig::default());
            executor.process_trace(&events[..n]);
            let bytes = encode(&executor.to_snapshot());
            (executor.metrics().sink_matches, bytes.len())
        };
        let threaded = |n: usize| {
            let config = ThreadedConfig {
                checkpoint: true,
                ..ThreadedConfig::default()
            };
            let report = run_threaded(&deployment, &events[..n], &config);
            let bytes = report.final_snapshot.expect("checkpoint mode");
            (report.metrics.sink_matches, bytes.len())
        };
        let runs = [
            ("sim", [sim(400), sim(1_600)]),
            ("threaded", [threaded(400), threaded(1_600)]),
        ];
        for (executor, [(short_matches, short_len), (long_matches, long_len)]) in runs {
            assert!(
                short_matches > 0 && long_matches > 3 * short_matches,
                "{executor}: {short_matches} then {long_matches} sink matches"
            );
            assert!(
                2 * long_len <= 3 * short_len,
                "{executor}: the snapshot grew from {short_len} to {long_len} bytes"
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
            let stores = decoded.tasks.iter().flatten().flat_map(|j| &j.stores);
            assert!(stores.into_iter().any(|s| !s.matches.is_empty()));

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
            // uninterrupted run: after the prefix's matches, it emits the
            // rest, in order, and counts the rest of the work.
            let mut resumed =
                SimExecutor::from_snapshot(&deployment, SimConfig::default(), decoded).unwrap();
            resumed.process_trace(&events[split..]);
            let (head, tail) = (executor.finish(), resumed.finish());
            let whole = crate::sim::run_simulation(&deployment, &events, &SimConfig::default());
            assert_eq!(
                [&head.matches[0][..], &tail.matches[0]].concat(),
                whole.matches[0]
            );
            // Restored store entries probe exactly like the ones they were
            // saved from: equality keys are recomputed, not lost.
            let mut merged = head.metrics;
            merged.merge(&tail.metrics);
            assert_eq!(merged, whole.metrics);
        }
    }
}
