//! The node core: what a MuSE node *is* and *does*, independent of the clock
//! that drives it.
//!
//! A [`NodeCore`] owns the state of the tasks it hosts — their [`JoinTask`]s,
//! the [`Metrics`], the sink matches per query, the transmission-multiplexing
//! `sent` set, telemetry — and implements the node semantics once: inject an
//! event into the source tasks at its origin, deliver a match to a join,
//! attribute sink matches to their queries, account once-per-node shipping
//! (§4.4), fan the outputs out, sample, checkpoint, and restore. It never
//! schedules anything: every delivery it causes is handed to the driver's
//! [`Outbox`].
//!
//! Two drivers run cores. [`crate::sim`] hosts every task in one core and
//! orders deliveries on a virtual-clock heap; [`crate::threaded`] runs one
//! core per network node on its own thread and moves matches in frames.
//! Because both reach the node semantics through this module, their match
//! sets, transmission counts, snapshots and telemetry agree by construction.
//!
//! # Delivery order
//!
//! A remote delivery always goes through the driver. A node-local delivery
//! is *offered* to the driver ([`Outbox::local`]): the simulator keeps it and
//! schedules it on its heap, which yields the global `(time, trigger, hop)`
//! order that the `NSEQ` absence check relies on; the threaded driver hands
//! it back, and the core delivers it depth-first before routing the next
//! output — a thread has no scheduler, and its negation joins defer their
//! absence check to chunk quiescence instead.

use crate::checkpoint::{CheckpointError, Snapshot};
use crate::codec::encoded_len;
use crate::deploy::{Deployment, TaskKind};
use crate::matcher::{JoinTask, Match};
use crate::metrics::Metrics;
use crate::telemetry::{task_summaries, ClockDomain, ExecTelemetry, RunTelemetry, TelemetrySpec};
use muse_core::event::{Event, Timestamp};
use muse_core::types::PrimId;
use std::collections::HashSet;

/// The driver side of a [`NodeCore`]: where deliveries go and what time it
/// is. Statically dispatched — the core's methods are generic over it.
pub(crate) trait Outbox {
    /// The current time on the driver's clock: virtual ticks for the
    /// simulator, wall nanoseconds since the run started for threads.
    fn now(&self) -> u64;

    /// Called once per accepted event (one with at least one candidate
    /// source task), before any of its matches is routed.
    fn on_inject(&mut self, _event: &Event, _now: u64) {}

    /// Offers a delivery to `target` on the emitting task's own node. A
    /// driver that schedules deliveries keeps the match and returns `None`;
    /// one that does not returns it, and the core delivers it inline.
    fn local(&mut self, target: usize, slot: usize, m: Match) -> Option<Match>;

    /// Sends a delivery to `target` on the remote node `dest`.
    fn remote(&mut self, dest: usize, target: usize, slot: usize, m: Match);

    /// The latency sample of a sink match emitted at `now`, on the driver's
    /// clock; `None` when no injection time can be attributed to the match
    /// (the core then counts a dropped sample instead of recording a bogus
    /// one).
    fn sink_latency(&self, m: &Match, now: u64) -> Option<u64>;
}

/// What a finished core hands back to its driver.
pub(crate) struct CoreReport {
    pub metrics: Metrics,
    pub matches: Vec<Vec<Match>>,
    pub wall_latencies_ns: Vec<u64>,
    pub telemetry: Option<RunTelemetry>,
}

/// The state and behaviour of the tasks hosted in one place.
pub(crate) struct NodeCore<'a> {
    deployment: &'a Deployment,
    /// The node whose tasks this core hosts; `None` hosts every task (the
    /// simulator runs the whole network in one core).
    node: Option<usize>,
    /// Join store eviction slack.
    slack: f64,
    /// The driver's clock: decides where latency samples are kept and
    /// whether negation joins defer (see [`Self::make_join`]).
    clock: ClockDomain,
    /// Join state per task, parallel to `Deployment::tasks` (`None` for
    /// sources and for tasks hosted elsewhere).
    joins: Vec<Option<JoinTask>>,
    pub metrics: Metrics,
    /// Sink matches per query (parallel to `Deployment::queries`).
    matches: Vec<Vec<Match>>,
    /// Wall-clock sink latencies. Virtual-tick samples live in
    /// `metrics.latencies` instead: a snapshot that moved between drivers
    /// carries both, and they must not mix.
    wall_latencies_ns: Vec<u64>,
    /// Already-transmitted streams `(stream sig, from, to, match hash)` —
    /// the [`Snapshot`]'s key shape. Identical matches of semantically
    /// identical tasks are shipped to a node once and multiplexed there
    /// (cross-query stream reuse at runtime). Holds entries only for
    /// streams that two tasks of a node emit (see [`Self::fan_out`]), so it
    /// stays empty — in memory and in snapshots — where no stream is shared.
    sent: HashSet<(u64, u16, u16, u64), MuxBuildHasher>,
    /// Observational; not checkpointed, untouched by [`Self::restore`].
    pub telemetry: Option<ExecTelemetry>,
    /// Newest event timestamp delivered to any hosted join (the watermark
    /// behind the series' lag column).
    max_seen: Timestamp,
}

impl<'a> NodeCore<'a> {
    /// A core with fresh state for the tasks of `node` (all tasks if `None`).
    pub fn new(
        deployment: &'a Deployment,
        node: Option<usize>,
        slack: f64,
        clock: ClockDomain,
        telemetry: Option<&TelemetrySpec>,
    ) -> Self {
        let mut core = Self {
            deployment,
            node,
            slack,
            clock,
            joins: Vec::new(),
            metrics: Metrics::new(deployment.num_nodes),
            matches: vec![Vec::new(); deployment.queries.len()],
            wall_latencies_ns: Vec::new(),
            sent: HashSet::default(),
            telemetry: telemetry
                .map(|spec| ExecTelemetry::new(clock, spec, deployment.tasks.len())),
            max_seen: 0,
        };
        core.joins = (0..deployment.tasks.len())
            .map(|i| core.make_join(i))
            .collect();
        core
    }

    fn hosts(&self, task: usize) -> bool {
        self.node
            .is_none_or(|n| self.deployment.tasks[task].node.index() == n)
    }

    /// Instantiates a hosted join from the plan (`None` for sources and
    /// foreign tasks). Wall-clock drivers run nodes in parallel, so a
    /// negation guard can arrive after the match it should suppress: their
    /// negation joins defer candidates until [`Self::release_deferred`].
    /// Under the virtual clock deliveries are globally ordered and emit
    /// directly.
    fn make_join(&self, task: usize) -> Option<JoinTask> {
        if !self.hosts(task) {
            return None;
        }
        let mut join = self.deployment.make_join(task, self.slack)?;
        if self.clock == ClockDomain::WallNanos && join.has_negations() {
            join.set_defer_negation(true);
        }
        Some(join)
    }

    /// The sink matches collected so far, per query.
    pub fn matches(&self) -> &[Vec<Match>] {
        &self.matches
    }

    /// Newest event timestamp delivered to any hosted join.
    pub fn max_seen(&self) -> Timestamp {
        self.max_seen
    }

    /// Whether `task` is a join hosted by this core.
    pub fn has_join(&self, task: usize) -> bool {
        self.joins.get(task).is_some_and(Option::is_some)
    }

    /// Whether `task` is a hosted join running an `NSEQ` absence check.
    pub fn hosts_negation(&self, task: usize) -> bool {
        self.joins[task]
            .as_ref()
            .is_some_and(JoinTask::has_negations)
    }

    /// Injects one event into the source tasks at its origin, consulting
    /// the deployment's discrimination index first: candidate tasks whose
    /// predicate bands reject the event are pruned without evaluating a
    /// single predicate.
    pub fn inject<O: Outbox>(&mut self, out: &mut O, event: &Event) {
        let deployment = self.deployment;
        let candidates = deployment.candidates_for(event.origin, event.ty);
        if candidates.is_empty() {
            return;
        }
        self.metrics.events_injected += 1;
        self.metrics.record_processed(event.origin.index());
        let now = out.now();
        out.on_inject(event, now);
        if let Some(tel) = &mut self.telemetry {
            tel.on_inject(now, event.origin.index(), candidates[0].task, event);
        }
        let mut admitted = 0u64;
        for cand in candidates {
            let admits = cand.admits(event);
            if let Some(tel) = &mut self.telemetry {
                tel.on_candidate(cand.task, admits);
            }
            if !admits {
                continue;
            }
            admitted += 1;
            let task = cand.task;
            let TaskKind::Source {
                prim, predicates, ..
            } = &deployment.tasks[task].kind
            else {
                unreachable!("candidates_for returns source tasks");
            };
            let query = &deployment.queries[deployment.tasks[task].query_idx];
            let passes = predicates.iter().all(|&pi| {
                query.predicates()[pi].evaluate(|p| (p == *prim).then_some(event)) == Some(true)
            });
            if !passes {
                continue;
            }
            if let Some(tel) = &mut self.telemetry {
                tel.on_emit(task, event.time, 1);
            }
            self.fan_out(out, task, Match::single(*prim, event.clone()));
        }
        self.metrics
            .discrimination
            .observe(candidates.len() as u64, admitted);
    }

    /// Delivers a match to input `slot` of the hosted join `target` and
    /// processes everything the join emits.
    pub fn deliver<O: Outbox>(&mut self, out: &mut O, target: usize, slot: usize, m: Match) {
        self.metrics
            .record_processed(self.deployment.tasks[target].node.index());
        self.max_seen = self.max_seen.max(m.last_time());
        if let Some(tel) = &mut self.telemetry {
            tel.on_delivery(target);
        }
        let outs = self.joins[target]
            .as_mut()
            .expect("deliveries target hosted joins")
            .on_match(slot, m);
        self.emit(out, target, outs);
    }

    /// Re-checks and releases the deferred candidates of every hosted
    /// negation join (the threaded driver calls this once per release
    /// phase, at chunk quiescence, when all in-window guards have arrived).
    pub fn release_deferred<O: Outbox>(&mut self, out: &mut O) {
        for task in 0..self.joins.len() {
            let released = match self.joins[task].as_mut() {
                Some(join) if join.has_negations() => join.release_deferred(),
                _ => continue,
            };
            self.emit(out, task, released);
        }
    }

    /// Sink attribution (or merge telemetry) for a join's outputs, then
    /// their fan-out.
    fn emit<O: Outbox>(&mut self, out: &mut O, task: usize, outs: Vec<Match>) {
        if outs.is_empty() {
            return;
        }
        let deployment = self.deployment;
        let spec = &deployment.tasks[task];
        let node = spec.node.index();
        if let Some(tel) = &mut self.telemetry {
            for m in &outs {
                tel.on_emit(task, m.last_time(), 1);
            }
        }
        if spec.is_sink {
            // One physical sink may feed many logical queries (shared
            // deployments): attribute each match — and its latency
            // bookkeeping — to every subscriber so per-query match sets
            // are identical to independent evaluation.
            let now = out.now();
            let prov = self
                .telemetry
                .as_ref()
                .map_or(0, |tel| tel.provenance_sample());
            for m in &outs {
                let mhash = if prov != 0 {
                    match_hash(m.entries())
                } else {
                    0
                };
                let latency = out.sink_latency(m, now);
                for &query_idx in &deployment.sink_queries[task] {
                    self.metrics.sink_matches += 1;
                    match (latency, self.clock) {
                        (Some(l), ClockDomain::VirtualTicks) => self.metrics.latencies.push(l),
                        (Some(l), ClockDomain::WallNanos) => self.wall_latencies_ns.push(l),
                        // Invariant: `sink_matches == latency samples +
                        // latency_samples_dropped` — a loss is counted,
                        // never hidden.
                        (None, _) => self.metrics.latency_samples_dropped += 1,
                    }
                    if let Some(tel) = &mut self.telemetry {
                        let query = &deployment.queries[query_idx];
                        tel.on_sink(now, node, task, query, query_idx, m, mhash);
                    }
                    self.matches[query_idx].push(m.clone());
                }
            }
        } else if let Some(tel) = &mut self.telemetry {
            let now = out.now();
            for m in &outs {
                let span = m.last_time().saturating_sub(m.first_time());
                tel.on_merge(now, node, task, m.len(), span);
            }
        }
        for m in outs {
            self.fan_out(out, task, m);
        }
    }

    /// Routes one emitted match along the deployment's precomputed
    /// [`crate::deploy::Fanout`], counting a network message once per
    /// (match, remote node): §4.4 ships a match to a node once and shares
    /// it among the node's placements. A task emits each match once, so its
    /// transmissions are counted directly; only a task whose
    /// `(node, stream signature)` another task shares
    /// ([`Deployment::stream_shared`]) can emit a match the node has already
    /// shipped, and only it hashes the match and consults `sent`. An
    /// unshared stream allocates nothing here — the fanout is borrowed, match
    /// clones are reference-counted, the encoded size is computed, not
    /// encoded; a shared stream adds one `sent` key per counted
    /// transmission. What a delivery allocates is the driver's business
    /// (see [`crate::threaded`]).
    fn fan_out<O: Outbox>(&mut self, out: &mut O, task: usize, m: Match) {
        let deployment = self.deployment;
        let fanout = &deployment.fanouts[task];
        let spec = &deployment.tasks[task];
        if !fanout.remote_nodes.is_empty() {
            let shared = deployment.stream_shared(task);
            let mhash = if shared { match_hash(m.entries()) } else { 0 };
            let mut bytes: Option<u64> = None;
            for &n in &fanout.remote_nodes {
                if !shared
                    || self
                        .sent
                        .insert((spec.stream_sig, spec.node.0, n as u16, mhash))
                {
                    let b = *bytes.get_or_insert_with(|| encoded_len(&m) as u64);
                    self.metrics.messages_sent += 1;
                    self.metrics.bytes_sent += b;
                    if let Some(tel) = &mut self.telemetry {
                        tel.on_ship(out.now(), spec.node.index(), n, task, b);
                    }
                }
            }
            for &(dest, target, slot) in &fanout.remote {
                out.remote(dest, target, slot, m.clone());
            }
        }
        for &(target, slot) in &fanout.local {
            debug_assert!(
                deployment.tasks[target].node == spec.node,
                "local route must stay on the node"
            );
            self.metrics.local_deliveries += 1;
            if let Some(m) = out.local(target, slot, m.clone()) {
                self.deliver(out, target, slot, m);
            }
        }
    }

    /// Samples the series when the cadence has elapsed on the driver's
    /// clock (which is read only when telemetry is on).
    pub fn maybe_sample<O: Outbox>(&mut self, out: &O) {
        if let Some(tel) = &self.telemetry {
            let now = out.now();
            if tel.sample_due(now) {
                self.sample(now);
            }
        }
    }

    /// Emits one series record per hosted join. Queue depth is the number
    /// of deliveries the task consumed since the previous sample, and
    /// watermark lag is measured against [`Self::max_seen`].
    fn sample(&mut self, now: u64) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        for (i, join) in self.joins.iter().enumerate() {
            let Some(join) = join else { continue };
            let stats = join.stats();
            let queue_depth = tel.drained_since(i);
            tel.record_task_sample(
                now,
                i,
                self.deployment.tasks[i].node.index(),
                self.deployment.task_label(i),
                queue_depth,
                join.buffered() as u64,
                self.max_seen.saturating_sub(join.last_seen()),
                [stats.inputs, stats.probes, stats.evicted, stats.emitted],
            );
        }
        tel.end_sample(now);
    }

    /// This core's slice of a [`Snapshot`]: hosted join states, its `sent`
    /// entries, and its share of the run totals. Slices of all nodes merge
    /// into one whole-run snapshot ([`Snapshot::merge_shard`]); drivers add
    /// what only they know (pending deliveries, event cursors).
    pub fn save(&self) -> Snapshot {
        let mut snap = Snapshot::empty(self.deployment);
        for (slot, join) in snap.tasks.iter_mut().zip(&self.joins) {
            *slot = join.as_ref().map(JoinTask::save_state);
        }
        snap.metrics = self.metrics.clone();
        snap.matches = self.matches.clone();
        snap.wall_latencies_ns = self.wall_latencies_ns.clone();
        snap.sent = self.sent.iter().copied().collect();
        snap.sent.sort_unstable();
        snap
    }

    /// Rolls this core back to its slice of `snap`: every hosted join is
    /// re-instantiated from the plan and the saved state grafted on, the
    /// `sent` entries this core originated are reloaded, and the run totals
    /// (metrics, sink matches, wall latencies) are *moved* out of `snap` —
    /// when several cores restore from one whole-run snapshot, the first
    /// continues the interrupted totals and the others start from zero.
    ///
    /// Fails when the snapshot's task structure does not fit the plan; the
    /// core is then partially restored and must be dropped.
    pub fn restore(&mut self, snap: &mut Snapshot) -> Result<(), CheckpointError> {
        let deployment = self.deployment;
        if snap.tasks.len() != deployment.tasks.len() {
            return Err(CheckpointError::Shape("task count differs from deployment"));
        }
        if snap.matches.len() != deployment.queries.len() {
            return Err(CheckpointError::Shape(
                "query count differs from deployment",
            ));
        }
        for task in 0..deployment.tasks.len() {
            if !self.hosts(task) {
                continue;
            }
            self.joins[task] = match (self.make_join(task), snap.tasks[task].take()) {
                (None, None) => None,
                (Some(mut join), Some(state)) => {
                    join.restore_state(state).map_err(CheckpointError::Shape)?;
                    Some(join)
                }
                (None, Some(_)) => {
                    return Err(CheckpointError::Shape("join state for a source task"))
                }
                (Some(_), None) => {
                    return Err(CheckpointError::Shape("missing join state for a join task"))
                }
            };
        }
        let node = self.node;
        self.sent = snap
            .sent
            .iter()
            .copied()
            .filter(|&(_, from, _, _)| node.is_none_or(|n| from as usize == n))
            .collect();
        self.metrics = std::mem::replace(&mut snap.metrics, Metrics::new(deployment.num_nodes));
        self.matches = std::mem::replace(
            &mut snap.matches,
            vec![Vec::new(); deployment.queries.len()],
        );
        self.wall_latencies_ns = std::mem::take(&mut snap.wall_latencies_ns);
        if self.clock == ClockDomain::WallNanos {
            // Sink matches the snapshot carries without a wall-latency
            // sample (all of them, when the simulator took it — it measures
            // event-time lag, not wall time) count as dropped samples.
            self.metrics.latency_samples_dropped = self
                .metrics
                .sink_matches
                .saturating_sub(self.wall_latencies_ns.len() as u64);
        }
        self.max_seen = self
            .joins
            .iter()
            .flatten()
            .map(JoinTask::last_seen)
            .max()
            .unwrap_or(0);
        Ok(())
    }

    /// Ends the run: a final series sample at `now`, the per-join engine
    /// counters folded into the metrics (snapshots keep them unfolded, in
    /// the saved join states, so a resumed run folds them exactly once),
    /// and the telemetry sealed with this core's task summaries.
    pub fn finish(mut self, now: u64) -> CoreReport {
        self.sample(now);
        for join in self.joins.iter().flatten() {
            self.metrics.join.merge(join.stats());
        }
        let telemetry = self.telemetry.take().map(|tel| {
            let hosted = (0..self.joins.len()).filter(|&i| self.hosts(i));
            let tasks = task_summaries(self.deployment, hosted, &self.joins, &tel);
            tel.finish(tasks)
        });
        CoreReport {
            metrics: self.metrics,
            matches: self.matches,
            wall_latencies_ns: self.wall_latencies_ns,
            telemetry,
        }
    }
}

/// The hasher for the transmission-multiplexing `sent` sets.
///
/// The set keys are stream signatures and [`match_hash`] values — both
/// already well mixed — so SipHash's keyed preimage resistance buys
/// nothing here while its per-insert cost shows up in the send path (the
/// set grows with every unique transmission). One multiply-and-rotate
/// round per word keeps the tuple components from cancelling and costs a
/// few cycles.
#[derive(Default)]
pub(crate) struct MuxHasher(u64);

impl std::hash::Hasher for MuxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(26);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64)
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64)
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64)
    }
}

/// `HashSet` state for [`MuxHasher`]-keyed multiplexing sets.
pub(crate) type MuxBuildHasher = std::hash::BuildHasherDefault<MuxHasher>;

/// A compact hash of a match's constituent events, given as its
/// [`Match::entries`] (for transmission
/// multiplexing, replay dedup and provenance sampling; collisions only skew
/// a metric, never the results).
pub(crate) fn match_hash(entries: &[(PrimId, Event)]) -> u64 {
    // Only the constituent events identify the physical payload: primitive
    // operator ids are receiver-side interpretation and differ across
    // queries for semantically identical streams. Each seq is finalized
    // through splitmix64 and combined with a commutative add, so the hash
    // is independent of entry order without sorting (and allocating) a
    // scratch vector on the send path.
    let mut acc: u64 = 0;
    for (_, e) in entries {
        let mut x = e.seq.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = acc.wrapping_add(x ^ (x >> 31));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Sharing;
    use crate::matcher::Evaluator;
    use muse_core::algorithms::amuse::AMuseConfig;
    use muse_core::algorithms::multi_query::amuse_workload;
    use muse_core::catalog::Catalog;
    use muse_core::graph::PlanContext;
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::{Pattern, Predicate};
    use muse_core::types::{EventTypeId, NodeId};
    use muse_core::workload::Workload;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, VecDeque};

    /// A recording fake driver: every delivery, local or remote, queues
    /// FIFO; remote ones are also logged as `(dest, target)`.
    #[derive(Default)]
    struct Recorder {
        now: u64,
        queue: VecDeque<(usize, usize, Match)>,
        remote: Vec<(usize, usize)>,
    }

    impl Outbox for Recorder {
        fn now(&self) -> u64 {
            self.now
        }
        fn local(&mut self, target: usize, slot: usize, m: Match) -> Option<Match> {
            self.queue.push_back((target, slot, m));
            None
        }
        fn remote(&mut self, dest: usize, target: usize, slot: usize, m: Match) {
            self.remote.push((dest, target));
            self.queue.push_back((target, slot, m));
        }
        fn sink_latency(&self, m: &Match, now: u64) -> Option<u64> {
            Some(now.saturating_sub(m.last_time()))
        }
    }

    /// Injects each event and delivers the queue to quiescence.
    fn drive(core: &mut NodeCore<'_>, out: &mut Recorder, events: &[Event]) {
        for event in events {
            out.now = event.time;
            core.inject(out, event);
            while let Some((target, slot, m)) = out.queue.pop_front() {
                core.deliver(out, target, slot, m);
            }
        }
    }

    fn fresh(deployment: &Deployment) -> NodeCore<'_> {
        NodeCore::new(deployment, None, 1.0, ClockDomain::VirtualTicks, None)
    }

    fn t(i: u16) -> EventTypeId {
        EventTypeId(i)
    }

    fn fig1_network() -> Network {
        NetworkBuilder::new(3, 3)
            .node(NodeId(0), [t(0), t(2)])
            .node(NodeId(1), [t(0), t(1)])
            .node(NodeId(2), [t(1)])
            .rate(t(0), 20.0)
            .rate(t(1), 20.0)
            .rate(t(2), 1.0)
            .build()
    }

    /// The Fig. 1 query of the paper (as in the simulator's tests),
    /// registered once per entry of `windows`, planned and deployed.
    fn fig1_deployment(windows: &[Timestamp], sharing: Sharing) -> Deployment {
        let net = fig1_network();
        let robots = Pattern::seq([
            Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
            Pattern::leaf(t(2)),
        ]);
        let workload = Workload::from_patterns(
            Catalog::with_anonymous_types(3),
            windows
                .iter()
                .map(|&w| (robots.clone(), Vec::<Predicate>::new(), w)),
        )
        .unwrap();
        let plan = amuse_workload(&workload, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(workload.queries(), &net, &plan.table);
        Deployment::new_with(&plan.merged, &ctx, sharing)
    }

    fn fig1_trace(seed: u64) -> Vec<Event> {
        muse_sim::traces::generate_traces(
            &fig1_network(),
            &muse_sim::traces::TraceConfig {
                duration: 30.0,
                ticks_per_unit: 100.0,
                rate_scale: 0.05,
                key_domain: 0,
                band_domain: 0,
                seed,
            },
        )
    }

    /// The Fig. 1 query registered `copies` times, and a trace for it.
    fn fig1(copies: usize, sharing: Sharing) -> (Deployment, Vec<Event>) {
        (
            fig1_deployment(&vec![5_000; copies], sharing),
            fig1_trace(13),
        )
    }

    fn fingerprints(matches: &[Match]) -> BTreeSet<Vec<u64>> {
        matches.iter().map(Match::fingerprint).collect()
    }

    #[test]
    fn fifo_driven_core_reproduces_the_evaluator() {
        let (deployment, events) = fig1(1, Sharing::Shared);
        let mut core = fresh(&deployment);
        drive(&mut core, &mut Recorder::default(), &events);
        let central = Evaluator::for_query(&deployment.queries[0]).run(&events);
        assert!(!central.is_empty(), "trace should produce matches");
        assert_eq!(fingerprints(&core.matches()[0]), fingerprints(&central));
        assert_eq!(core.metrics.sink_matches as usize, central.len());
    }

    #[test]
    fn identical_match_ships_once_per_remote_node() {
        // Independent twins emit every match twice from the same node
        // under the same stream signature: both copies are delivered, one
        // is counted.
        let (twins, events) = fig1(2, Sharing::Independent);
        let (single, _) = fig1(1, Sharing::Shared);
        let (mut a, mut b) = (fresh(&twins), fresh(&single));
        let (mut out_a, mut out_b) = (Recorder::default(), Recorder::default());
        drive(&mut a, &mut out_a, &events);
        drive(&mut b, &mut out_b, &events);
        assert!(b.metrics.messages_sent > 0);
        assert_eq!(out_a.remote.len(), 2 * out_b.remote.len());
        assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
        assert_eq!(a.metrics.bytes_sent, b.metrics.bytes_sent);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The mux rule: consulting `sent` only for tasks that share their
        /// `(node, stream signature)` counts exactly what consulting it for
        /// every task counts, keeps the set empty elsewhere, and still
        /// dedupes where two tasks do emit the same stream.
        #[test]
        fn sent_is_consulted_only_where_it_can_hit(
            shape in 0usize..3,
            narrow in 1_000u64..5_000,
            trace_seed in 0u64..50,
        ) {
            // One task per stream; `Independent` twins; one plan under two
            // windows (equal stream signatures, two tasks per stream).
            let as_built = match shape {
                0 => fig1_deployment(&[5_000], Sharing::Shared),
                1 => fig1_deployment(&[5_000, 5_000], Sharing::Independent),
                _ => fig1_deployment(&[5_000, narrow], Sharing::Shared),
            };
            let override_marks = |shared: bool| {
                let mut d = as_built.clone();
                d.set_all_streams_shared(shared);
                d
            };
            let (always, never) = (override_marks(true), override_marks(false));
            let events = fig1_trace(trace_seed);
            let run = |deployment| {
                let mut core = fresh(deployment);
                drive(&mut core, &mut Recorder::default(), &events);
                core
            };
            let (built, always, never) = (run(&as_built), run(&always), run(&never));

            prop_assert!(built.metrics.messages_sent > 0);
            prop_assert_eq!(built.metrics.messages_sent, always.metrics.messages_sent);
            prop_assert_eq!(built.metrics.bytes_sent, always.metrics.bytes_sent);
            for (b, a) in built.matches().iter().zip(always.matches()) {
                prop_assert_eq!(fingerprints(b), fingerprints(a));
            }
            let marked: BTreeSet<(u64, u16)> = (0..as_built.tasks.len())
                .filter(|&i| as_built.stream_shared(i))
                .map(|i| (as_built.tasks[i].stream_sig, as_built.tasks[i].node.0))
                .collect();
            prop_assert_eq!(marked.is_empty(), shape == 0);
            prop_assert_eq!(built.save().sent.is_empty(), shape == 0);
            prop_assert!(built
                .sent
                .iter()
                .all(|&(sig, from, _, _)| marked.contains(&(sig, from))));
            // Where streams are shared the set earns its keep: counting
            // every emission of every task would overcount.
            prop_assert_eq!(
                built.metrics.messages_sent < never.metrics.messages_sent,
                shape != 0
            );
        }
    }

    #[test]
    fn shared_sink_attributes_each_match_to_every_query() {
        let (deployment, events) = fig1(2, Sharing::Shared);
        assert_eq!(deployment.queries.len(), 2);
        let mut core = fresh(&deployment);
        drive(&mut core, &mut Recorder::default(), &events);
        let central = Evaluator::for_query(&deployment.queries[0]).run(&events);
        for per_query in core.matches() {
            assert_eq!(fingerprints(per_query), fingerprints(&central));
        }
        assert_eq!(core.metrics.sink_matches as usize, 2 * central.len());
        assert_eq!(core.metrics.latencies.len(), 2 * central.len());
    }

    #[test]
    fn telemetry_observes_without_touching_the_account() {
        let (deployment, events) = fig1(1, Sharing::Shared);
        let run = |spec: Option<&TelemetrySpec>| {
            let mut core = NodeCore::new(&deployment, None, 1.0, ClockDomain::VirtualTicks, spec);
            drive(&mut core, &mut Recorder::default(), &events);
            core.finish(events.last().map_or(0, |e| e.time))
        };
        let off = run(None);
        let on = run(Some(&TelemetrySpec::default()));
        assert!(off.metrics.sink_matches > 0, "trace should produce matches");
        assert!(off.telemetry.is_none());
        assert!(!on.telemetry.expect("attached").trace.is_empty());
        assert_eq!(on.metrics, off.metrics);
    }

    #[test]
    fn save_restore_continue_equals_uninterrupted() {
        let (deployment, events) = fig1(1, Sharing::Shared);
        let mut full = fresh(&deployment);
        drive(&mut full, &mut Recorder::default(), &events);

        let (head, tail) = events.split_at(events.len() / 2);
        let mut first = fresh(&deployment);
        drive(&mut first, &mut Recorder::default(), head);
        let mut snap = first.save();
        drop(first);
        let mut resumed = fresh(&deployment);
        resumed.restore(&mut snap).unwrap();
        drive(&mut resumed, &mut Recorder::default(), tail);

        let whole = full.save();
        assert_eq!(resumed.save(), whole);

        // Per-node cores each take their slice of a whole-run snapshot (the
        // first one the run totals); the slices merge back into it.
        let mut rest = whole.clone();
        let mut merged = Snapshot::empty(&deployment);
        for node in 0..deployment.num_nodes {
            let mut core = NodeCore::new(&deployment, Some(node), 1.0, full.clock, None);
            core.restore(&mut rest).unwrap();
            assert_eq!(core.metrics.sink_matches > 0, node == 0);
            merged.merge_shard(core.save());
        }
        merged.sent.sort_unstable();
        assert_eq!(merged, whole);
    }
}
