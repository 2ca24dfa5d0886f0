//! The node core: what a MuSE node *is* and *does*, independent of the clock
//! that drives it.
//!
//! A [`NodeCore`] owns the state of the tasks it hosts — their [`JoinTask`]s,
//! the [`Metrics`], the sink matches per query, telemetry — and implements
//! the node semantics once: inject an event into the source tasks at its
//! origin, deliver a match to a join, attribute sink matches to their
//! queries, charge shipping once per destination node (§4.4, decided by the
//! deployment), fan the outputs out, sample, checkpoint, and restore. It never
//! schedules anything: every delivery it causes is handed to the driver's
//! [`Outbox`].
//!
//! # Shared join inputs
//!
//! A delivery goes to a join *input* ([`crate::deploy::InputSpec`]), not to
//! one join: every slot the input feeds reads it. When two or more of them
//! store it, the core owns one [`MatchStore`] for the input and
//! [`NodeCore::deliver`] runs in three steps — every reader probes with the
//! match and applies its guards, in reader order; the core stores the match
//! once and drains the buffer once; then the readers' outputs fan out. All
//! readers see the insert at one instant, after all of them were
//! triggered, so each pair is still found once, by its later arrival. The
//! buffer keeps matches for slack × the widest reader window behind its
//! newest entry, so it holds everything any reader's own horizon keeps, and
//! each reader reads it above that horizon; ties sit in arrival order, as
//! in a reader's own store. An input one join stores stays in that join.
//!
//! Most readers of a delivery cannot match it, so the core rules them out
//! before they probe, in two steps. A reader's [`Gate`] compares one
//! timestamp per partner slot: the newest first timestamp delivered to the
//! input that slot reads. When it lies more than the reader's window
//! before the delivery's newest event, that slot holds nothing to merge
//! with, and the join is not asked. Otherwise the core asks the join's
//! read-only key-aware check ([`JoinTask::can_match_shared`]). A
//! ruled-out reader only counts the input and advances its watermark and
//! eviction ([`JoinTask::pass`]), exactly what its probe would have done
//! without emitting; its physical drains fall on the same inputs. Joins with
//! `NSEQ` checks are always asked to probe, because every input they admit
//! may feed their guards.
//!
//! Two drivers run cores. [`crate::sim`] hosts every task in one core and
//! carries cross-node deliveries in a FIFO queue on a virtual clock;
//! [`crate::threaded`] runs one core per network node on its own thread and
//! moves matches in frames. Because both reach the node semantics through
//! this module, their match sets, transmission counts, snapshots and
//! telemetry agree by construction.
//!
//! # Delivery order
//!
//! A remote delivery always goes through the driver ([`Outbox::remote`]). A
//! node-local one never does: the core delivers it inline, depth-first,
//! before routing the next output, under both drivers. Within one event's
//! cascade the order cannot change a match set — skip-till-any-match
//! selects a set of trace positions, and an `NSEQ` guard that can suppress
//! a candidate is strictly earlier in trace order than the event that
//! completes it. Across nodes, only the threaded driver races: its negation
//! joins defer their absence check to chunk quiescence.

use crate::checkpoint::{CheckpointError, Snapshot};
use crate::codec::encoded_len;
use crate::deploy::{Deployment, TaskKind};
use crate::matcher::join::{default_stride, term_key};
use crate::matcher::{JoinTask, Match, MatchStore, StoreState, StoredMatch};
use crate::metrics::{JoinStats, Metrics};
use crate::telemetry::{task_summaries, ClockDomain, ExecTelemetry, RunTelemetry, TelemetrySpec};
use muse_core::event::{Event, Timestamp};
use muse_core::types::PrimId;

/// The driver side of a [`NodeCore`]: where deliveries go and what time it
/// is. Statically dispatched — the core's methods are generic over it.
pub(crate) trait Outbox {
    /// The current time on the driver's clock: virtual ticks for the
    /// simulator, wall nanoseconds since the run started for threads.
    fn now(&self) -> u64;

    /// Called once per accepted event (one with at least one candidate
    /// source task), before any of its matches is routed.
    fn on_inject(&mut self, _event: &Event, _now: u64) {}

    /// Sends a delivery to join input `input` on the remote node `dest`.
    fn remote(&mut self, dest: usize, input: usize, m: Match);

    /// The wall-clock latency sample of a sink match emitted at `now`;
    /// `None` when no injection time can be attributed to the match (the
    /// core then counts a dropped sample instead of recording a bogus one).
    /// Only a core on the wall clock asks: the simulator keeps no samples.
    fn sink_latency(&self, _m: &Match, _now: u64) -> Option<u64> {
        None
    }
}

/// What a finished core hands back to its driver.
pub(crate) struct CoreReport {
    pub metrics: Metrics,
    pub matches: Vec<Vec<Match>>,
    pub wall_latencies_ns: Vec<u64>,
    pub telemetry: Option<RunTelemetry>,
}

/// A core's account at one moment: its output lengths (sink matches per
/// query, wall-latency samples), its metrics and each hosted join's
/// counters. A snapshot holds none of these, so a driver that rolls a core
/// back to a snapshot rewinds it to the mark taken with it
/// ([`NodeCore::rewind`]).
pub(crate) struct CoreMark {
    matches: Vec<usize>,
    wall_samples: usize,
    /// The metrics, shared buffers' evictions folded in: a restored
    /// buffer counts its evictions from zero.
    pub metrics: Metrics,
    /// Per task, a hosted join's counters.
    joins: Vec<Option<JoinStats>>,
}

/// A hosted input two or more joins store (see "Shared join inputs").
struct SharedInput {
    /// Index into `Deployment::inputs`.
    input: usize,
    /// Its readers that store it ([`Deployment::shared_readers`]).
    readers: Vec<(usize, usize)>,
    /// Per reader of the input (parallel to its `InputSpec::readers`): what
    /// rules the reader out without asking its join; `None` for a negation
    /// guard slot or a join with negation checks, which is always asked.
    gates: Vec<Option<Gate>>,
    /// How far behind its newest entry the buffer keeps matches: slack ×
    /// the widest reader window, the longest any reader keeps them.
    reach: Timestamp,
    /// Minimum horizon progress between physical drains.
    stride: Timestamp,
    /// The buffer's largest live count since the core was built or
    /// restored: readers observe the count only when it exceeds this.
    peak: usize,
}

/// A shared input reader's partners, as the node sees them: a delivery
/// whose newest event lies more than `window` after the newest entry of a
/// partner slot's input can merge with nothing in that slot.
struct Gate {
    /// The reader's query window.
    window: Timestamp,
    /// The inputs its other positive slots read.
    partners: Vec<usize>,
}

impl Gate {
    /// Whether a match ending at `last` cannot complete at the reader, given
    /// an upper bound of each input's newest first timestamp.
    fn rules_out(&self, newest: &[Timestamp], last: Timestamp) -> bool {
        let oldest = last.saturating_sub(self.window);
        self.partners.iter().any(|&p| newest[p] < oldest)
    }
}

/// The state and behaviour of the tasks hosted in one place.
pub(crate) struct NodeCore<'a> {
    deployment: &'a Deployment,
    /// The node whose tasks this core hosts; `None` hosts every task (the
    /// simulator runs the whole network in one core).
    node: Option<usize>,
    /// Join store eviction slack.
    slack: f64,
    /// The driver's clock: decides whether sink matches take latency
    /// samples and whether negation joins defer (see [`Self::make_join`]).
    clock: ClockDomain,
    /// Join state per task, parallel to `Deployment::tasks` (`None` for
    /// sources and for tasks hosted elsewhere).
    joins: Vec<Option<JoinTask>>,
    /// The hosted inputs two or more joins store, parallel to `buffers`.
    shared: Vec<SharedInput>,
    /// One store per shared input: what its readers' shared slots read.
    buffers: Vec<MatchStore>,
    /// Per `Deployment::inputs` entry, its index in `shared` (`None` when
    /// one join stores it, or it is hosted elsewhere).
    shared_of: Vec<Option<usize>>,
    /// Per `Deployment::inputs` entry, the largest first timestamp
    /// delivered to it: never below that of the newest entry its store
    /// holds, so a [`Gate`] reading it rules out only what the join would.
    newest: Vec<Timestamp>,
    pub metrics: Metrics,
    /// Sink matches per query (parallel to `Deployment::queries`).
    matches: Vec<Vec<Match>>,
    /// Wall-clock sink latencies; a core on the virtual clock takes none.
    wall_latencies_ns: Vec<u64>,
    /// Observational and not checkpointed; [`Self::rewind`] only rebases
    /// its series deltas on the rewound join counters.
    pub telemetry: Option<ExecTelemetry>,
    /// Newest event timestamp delivered to any hosted join (the watermark
    /// behind the series' lag column).
    max_seen: Timestamp,
    /// Deliveries to shared-input readers that their gates ruled out.
    #[cfg(test)]
    gate_rule_outs: usize,
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
            shared: Vec::new(),
            buffers: Vec::new(),
            shared_of: vec![None; deployment.inputs.len()],
            newest: vec![0; deployment.inputs.len()],
            metrics: Metrics::new(deployment.num_nodes),
            matches: vec![Vec::new(); deployment.queries.len()],
            wall_latencies_ns: Vec::new(),
            telemetry: telemetry
                .map(|spec| ExecTelemetry::new(clock, spec, deployment.tasks.len())),
            max_seen: 0,
            #[cfg(test)]
            gate_rule_outs: 0,
        };
        for (input, spec) in deployment.inputs.iter().enumerate() {
            if core.node.is_some_and(|n| spec.node.index() != n) {
                continue;
            }
            let readers = deployment.shared_readers(input);
            let Some(widest) = readers
                .iter()
                .map(|&(task, _)| deployment.queries[deployment.tasks[task].query_idx].window())
                .max()
            else {
                continue;
            };
            core.shared_of[input] = Some(core.shared.len());
            core.shared.push(SharedInput {
                input,
                readers,
                gates: Vec::new(),
                // The eviction span `JoinTask` computes for the widest reader.
                reach: (widest as f64 * slack) as Timestamp,
                stride: default_stride(widest),
                peak: 0,
            });
            core.buffers.push(MatchStore::new());
        }
        core.joins = (0..deployment.tasks.len())
            .map(|i| core.make_join(i))
            .collect();
        for b in 0..core.shared.len() {
            core.shared[b].gates = core.gates(core.shared[b].input);
        }
        core.attach_shared();
        core
    }

    /// The gates of a shared input's readers, in `InputSpec::readers` order.
    fn gates(&self, input: usize) -> Vec<Option<Gate>> {
        let deployment = self.deployment;
        deployment.inputs[input]
            .readers
            .iter()
            .map(|&(task, slot)| {
                let join = self.joins[task].as_ref()?;
                if join.has_negations() || join.slots()[slot].negated {
                    return None;
                }
                let partners = (0..join.slots().len())
                    .filter(|&i| i != slot && !join.slots()[i].negated)
                    .map(|i| {
                        deployment
                            .input_of(task, i)
                            .expect("a join slot has an input")
                    })
                    .collect();
                Some(Gate {
                    window: deployment.queries[deployment.tasks[task].query_idx].window(),
                    partners,
                })
            })
            .collect()
    }

    fn hosts(&self, task: usize) -> bool {
        self.node
            .is_none_or(|n| self.deployment.tasks[task].node.index() == n)
    }

    /// Points every shared input's readers at its buffer.
    fn attach_shared(&mut self) {
        for (b, shared) in self.shared.iter().enumerate() {
            for &(task, slot) in &shared.readers {
                if let Some(join) = self.joins[task].as_mut() {
                    join.share_slot(slot, b);
                }
            }
        }
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

    /// This core's account now.
    pub fn mark(&self) -> CoreMark {
        let mut metrics = self.metrics.clone();
        for buffer in &self.buffers {
            metrics.join.evicted += buffer.evicted();
        }
        CoreMark {
            matches: self.matches.iter().map(Vec::len).collect(),
            wall_samples: self.wall_latencies_ns.len(),
            metrics,
            joins: (self.joins.iter())
                .map(|join| Some(*join.as_ref()?.stats()))
                .collect(),
        }
    }

    /// Rewinds the account to `mark`, right after a [`Self::restore`] of
    /// the snapshot taken with it: drops the outputs emitted since, and
    /// puts the metrics and each hosted join's counters back.
    pub fn rewind(&mut self, mark: &CoreMark) {
        for (matches, &len) in self.matches.iter_mut().zip(&mark.matches) {
            matches.truncate(len);
        }
        self.wall_latencies_ns.truncate(mark.wall_samples);
        self.metrics = mark.metrics.clone();
        for (task, stats) in mark.joins.iter().enumerate() {
            if let (Some(join), Some(stats)) = (&mut self.joins[task], stats) {
                join.set_stats(*stats);
                if let Some(tel) = &mut self.telemetry {
                    tel.rebase(task, stats);
                }
            }
        }
    }

    /// Newest event timestamp delivered to any hosted join.
    pub fn max_seen(&self) -> Timestamp {
        self.max_seen
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

    /// Delivers a match to the hosted join input `input` — to every join
    /// slot reading it — and processes everything the joins emit. The one
    /// delivery path: see "Shared join inputs" for the order.
    pub fn deliver<O: Outbox>(&mut self, out: &mut O, input: usize, m: Match) {
        let deployment = self.deployment;
        let spec = &deployment.inputs[input];
        for _ in &spec.readers {
            self.metrics.record_processed(spec.node.index());
        }
        self.max_seen = self.max_seen.max(m.last_time());
        self.newest[input] = self.newest[input].max(m.first_time());
        let Some(b) = self.shared_of[input] else {
            // At most one reader stores the match, in its own store.
            let (&(task, slot), rest) = spec.readers.split_last().expect("an input has a reader");
            for &(task, slot) in rest {
                self.deliver_to(out, task, slot, m.clone());
            }
            self.deliver_to(out, task, slot, m);
            return;
        };
        let entry = StoredMatch {
            first: m.first_time(),
            last: m.last_time(),
            key: spec.key.and_then(|term| term_key(&m, term)),
            m,
        };
        let mut emitted = Vec::new();
        let shared = &mut self.shared[b];
        for (&(task, slot), gate) in spec.readers.iter().zip(&shared.gates) {
            let join = self.joins[task]
                .as_mut()
                .expect("deliveries target hosted joins");
            #[cfg(test)]
            {
                self.gate_rule_outs += usize::from(
                    gate.as_ref()
                        .is_some_and(|g| g.rules_out(&self.newest, entry.last)),
                );
            }
            if gate.as_ref().is_some_and(|g| {
                g.rules_out(&self.newest, entry.last)
                    || !join.can_match_shared(slot, &entry, &self.buffers)
            }) {
                join.pass(entry.last);
                continue;
            }
            let outs = join.on_shared(slot, &entry, &self.buffers);
            if !outs.is_empty() {
                emitted.push((task, outs));
            }
        }
        let buffer = &mut self.buffers[b];
        buffer.insert_keyed(entry);
        buffer.advance_horizon(
            buffer.latest_first().saturating_sub(shared.reach),
            shared.stride,
        );
        let live = buffer.len();
        if live > shared.peak {
            shared.peak = live;
            for &(task, _) in &shared.readers {
                if let Some(join) = self.joins[task].as_mut() {
                    join.observe_shared(live);
                }
            }
        }
        for (task, outs) in emitted {
            self.emit(out, task, outs);
        }
    }

    /// Delivers a match to one join slot that reads its input alone.
    fn deliver_to<O: Outbox>(&mut self, out: &mut O, task: usize, slot: usize, m: Match) {
        let outs = self.joins[task]
            .as_mut()
            .expect("deliveries target hosted joins")
            .on_match_in(slot, m, &self.buffers);
        self.emit(out, task, outs);
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
            // are identical to independent evaluation. Only wall time has
            // a latency to sample: under the virtual clock a match is
            // emitted at its newest event's time.
            let now = out.now();
            let sampled = self.clock == ClockDomain::WallNanos;
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
                let latency = sampled.then(|| out.sink_latency(m, now));
                for &query_idx in &deployment.sink_queries[task] {
                    self.metrics.sink_matches += 1;
                    match latency {
                        None => {}
                        Some(Some(l)) => self.wall_latencies_ns.push(l),
                        // Invariant on the wall clock: `sink_matches ==
                        // latency samples + latency_samples_dropped` — a
                        // loss is counted, never hidden.
                        Some(None) => self.metrics.latency_samples_dropped += 1,
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
    /// [`crate::deploy::Fanout`] — one delivery per destination input —
    /// charging one network message per node in
    /// its `charged_nodes`: §4.4 ships a match to a node once and shares it
    /// among the node's placements, and the deployment decided which task
    /// pays for each (stream, destination). A task emits each match once,
    /// so that is the whole account. Nothing here allocates — the fanout is
    /// borrowed, match clones are reference-counted, the encoded size is
    /// computed, not encoded. What a delivery allocates is the executor's
    /// business (see [`crate::threaded`]).
    fn fan_out<O: Outbox>(&mut self, out: &mut O, task: usize, m: Match) {
        let deployment = self.deployment;
        let fanout = &deployment.fanouts[task];
        let spec = &deployment.tasks[task];
        if !fanout.charged_nodes.is_empty() {
            let bytes = encoded_len(&m) as u64;
            for &n in &fanout.charged_nodes {
                self.metrics.messages_sent += 1;
                self.metrics.bytes_sent += bytes;
                if let Some(tel) = &mut self.telemetry {
                    tel.on_ship(out.now(), spec.node.index(), n, task, bytes);
                }
            }
        }
        for &(dest, input) in &fanout.remote {
            out.remote(dest, input, m.clone());
        }
        for &input in &fanout.local {
            let readers = &deployment.inputs[input].readers;
            debug_assert!(
                deployment.inputs[input].node == spec.node,
                "local route must stay on the node"
            );
            self.metrics.local_deliveries += readers.len() as u64;
            self.deliver(out, input, m.clone());
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
    /// of deliveries the task consumed since the previous sample — its
    /// `inputs` delta — and watermark lag is measured against
    /// [`Self::max_seen`].
    fn sample(&mut self, now: u64) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        for (i, join) in self.joins.iter().enumerate() {
            let Some(join) = join else { continue };
            tel.record_task_sample(
                now,
                i,
                self.deployment.tasks[i].node.index(),
                self.deployment.task_label(i),
                join.buffered() as u64,
                self.max_seen.saturating_sub(join.last_seen()),
                join.stats(),
            );
        }
        tel.end_sample(now);
    }

    /// This core's slice of a [`Snapshot`]: hosted join states and the
    /// buffers of its shared inputs, but neither its outputs nor its
    /// counters (see [`crate::checkpoint`] and [`Self::mark`]). Slices of
    /// all nodes merge into one whole-run snapshot
    /// ([`Snapshot::merge_shard`]).
    pub fn save(&self) -> Snapshot {
        let mut snap = Snapshot::empty(self.deployment);
        for (slot, join) in snap.tasks.iter_mut().zip(&self.joins) {
            *slot = join.as_ref().map(JoinTask::save_state);
        }
        for (shared, buffer) in self.shared.iter().zip(&self.buffers) {
            snap.buffers[shared.input] = Some(buffer.save_state());
        }
        snap
    }

    /// Rolls this core's state back to its slice of `snap`: every hosted
    /// join is re-instantiated from the plan, with zero counters, and the
    /// saved state grafted on, and the hosted buffers are taken. The
    /// core's account stays: a snapshot holds none ([`Self::rewind`]).
    ///
    /// Fails when the snapshot's task structure does not fit the plan, a
    /// hosted input lacks its buffer or has one it should not (an input has
    /// one exactly when two or more joins store it), a shared input's
    /// reader holds matches of its own, or a buffered match does not assign
    /// exactly the primitives its input or slot carries; the core is then
    /// partially restored and must be dropped.
    pub fn restore(&mut self, snap: &mut Snapshot) -> Result<(), CheckpointError> {
        let deployment = self.deployment;
        if snap.tasks.len() != deployment.tasks.len() {
            return Err(CheckpointError::Shape("task count differs from deployment"));
        }
        if snap.buffers.len() != deployment.inputs.len() {
            return Err(CheckpointError::Shape(
                "buffer count differs from the deployment's inputs",
            ));
        }
        for (input, spec) in deployment.inputs.iter().enumerate() {
            if self.node.is_some_and(|n| spec.node.index() != n) {
                continue;
            }
            match (self.shared_of[input], snap.buffers[input].take()) {
                (Some(b), Some(state)) => self.buffers[b] = self.restore_buffer(b, state, snap)?,
                (None, None) => {}
                (Some(_), None) => {
                    return Err(CheckpointError::Shape(
                        "no buffer for an input two joins store",
                    ))
                }
                (None, Some(_)) => {
                    return Err(CheckpointError::Shape(
                        "a buffer for an input fewer than two joins store",
                    ))
                }
            }
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
        self.attach_shared();
        self.max_seen = self
            .joins
            .iter()
            .flatten()
            .map(JoinTask::last_seen)
            .max()
            .unwrap_or(0);
        // The gates' timestamps, from the stores they bound.
        for (input, spec) in deployment.inputs.iter().enumerate() {
            self.newest[input] = match self.shared_of[input] {
                Some(b) => self.buffers[b].latest_first(),
                None => spec
                    .readers
                    .iter()
                    .filter_map(|&(task, slot)| Some(self.joins[task].as_ref()?.latest_first(slot)))
                    .max()
                    .unwrap_or(0),
            };
        }
        for shared in &mut self.shared {
            shared.peak = 0;
        }
        Ok(())
    }

    /// Rebuilds shared buffer `b` from its saved state, whose readers in
    /// `snap` must hold no matches of their own. The saved horizon is not
    /// trusted: the buffer's horizon trails its newest entry, which no
    /// drain removes, by the buffer's reach.
    fn restore_buffer(
        &self,
        b: usize,
        mut state: StoreState,
        snap: &Snapshot,
    ) -> Result<MatchStore, CheckpointError> {
        let shared = &self.shared[b];
        let own_matches = shared.readers.iter().any(|&(task, slot)| {
            let store = snap.tasks[task].as_ref().and_then(|j| j.stores.get(slot));
            store.is_some_and(|s| !s.matches.is_empty())
        });
        if own_matches {
            return Err(CheckpointError::Shape(
                "a shared input's reader holds matches of its own",
            ));
        }
        let prims = self.deployment.input_prims(shared.input);
        if !prims.is_some_and(|prims| state.matches.iter().all(|m| m.assigns_exactly(prims))) {
            return Err(CheckpointError::Shape(
                "a shared buffer's match primitives differ from its input's",
            ));
        }
        state.horizon = state
            .matches
            .last()
            .map_or(0, Match::first_time)
            .saturating_sub(shared.reach);
        let key = self.deployment.inputs[shared.input].key;
        Ok(MatchStore::restore_keyed(state, |m| {
            key.and_then(|term| term_key(m, term))
        }))
    }

    /// Ends the run: a final series sample at `now`, the per-join engine
    /// counters folded into the metrics, and the telemetry sealed with
    /// this core's task summaries.
    pub fn finish(mut self, now: u64) -> CoreReport {
        self.sample(now);
        for join in self.joins.iter().flatten() {
            self.metrics.join.merge(join.stats());
        }
        // A shared buffer's evictions count once, not once per reader.
        for buffer in &self.buffers {
            self.metrics.join.evicted += buffer.evicted();
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

/// A compact hash of a match's constituent events, given as its
/// [`Match::entries`], for provenance sampling.
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
    use crate::matcher::Evaluator;
    use muse_core::algorithms::amuse::AMuseConfig;
    use muse_core::algorithms::multi_query::amuse_workload;
    use muse_core::catalog::Catalog;
    use muse_core::graph::PlanContext;
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::{Pattern, Predicate};
    use muse_core::types::{EventTypeId, NodeId};
    use muse_core::workload::Workload;
    use std::collections::{BTreeSet, VecDeque};

    /// A recording fake driver: remote deliveries queue FIFO and are logged
    /// as `(dest, input)`; the core makes node-local ones inline.
    #[derive(Default)]
    struct Recorder {
        now: u64,
        queue: VecDeque<(usize, Match)>,
        remote: Vec<(usize, usize)>,
    }

    impl Outbox for Recorder {
        fn now(&self) -> u64 {
            self.now
        }
        fn remote(&mut self, dest: usize, input: usize, m: Match) {
            self.remote.push((dest, input));
            self.queue.push_back((input, m));
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
            while let Some((input, m)) = out.queue.pop_front() {
                core.deliver(out, input, m);
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

    /// The Fig. 1 query of the paper (as in the simulator's tests).
    fn robots() -> Pattern {
        Pattern::seq([
            Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
            Pattern::leaf(t(2)),
        ])
    }

    /// `(pattern, window)` registrations planned and deployed on the Fig. 1
    /// network.
    fn fig1_deployment(registrations: &[(Pattern, Timestamp)]) -> Deployment {
        let net = fig1_network();
        let workload = Workload::from_patterns(
            Catalog::with_anonymous_types(3),
            registrations
                .iter()
                .map(|(p, w)| (p.clone(), Vec::<Predicate>::new(), *w)),
        )
        .unwrap();
        let plan = amuse_workload(&workload, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(workload.queries(), &net, &plan.table);
        Deployment::new(&plan.merged, &ctx)
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
    fn fig1(copies: usize) -> (Deployment, Vec<Event>) {
        (
            fig1_deployment(&vec![(robots(), 5_000); copies]),
            fig1_trace(13),
        )
    }

    fn fingerprints(matches: &[Match]) -> BTreeSet<Vec<u64>> {
        matches.iter().map(Match::fingerprint).collect()
    }

    #[test]
    fn fifo_driven_core_reproduces_the_evaluator() {
        let (deployment, events) = fig1(1);
        let mut core = fresh(&deployment);
        drive(&mut core, &mut Recorder::default(), &events);
        let central = Evaluator::for_query(&deployment.queries[0]).run(&events);
        assert!(!central.is_empty(), "trace should produce matches");
        assert_eq!(fingerprints(&core.matches()[0]), fingerprints(&central));
        assert_eq!(core.metrics.sink_matches as usize, central.len());
    }

    #[test]
    fn identical_match_ships_once_per_remote_node() {
        // `SEQ(t0, t2)` next to Fig. 1's query: t2 is primitive 1 of one and
        // primitive 2 of the other, so node 0 hosts two t2 sources of one
        // stream signature, and both route to node 1. Both copies of every
        // t2 event are delivered; one is charged.
        let seq02 = Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(2))]);
        let twins = fig1_deployment(&[(robots(), 5_000), (seq02, 5_000)]);
        let (single, events) = fig1(1);
        let routed: Vec<usize> = (0..twins.tasks.len())
            .filter(|&i| {
                matches!(twins.tasks[i].kind, TaskKind::Source { ty, .. } if ty == t(2))
                    && !twins.fanouts[i].remote.is_empty()
            })
            .collect();
        assert_eq!(routed.len(), 2, "two t2 sources route off node 0");
        assert_ne!(twins.tasks[routed[0]].prims, twins.tasks[routed[1]].prims);
        assert_eq!(
            twins.tasks[routed[0]].stream_sig,
            twins.tasks[routed[1]].stream_sig
        );
        assert_eq!(twins.fanouts[routed[0]].charged_nodes, [1]);
        assert!(twins.fanouts[routed[1]].charged_nodes.is_empty());

        let (mut a, mut b) = (fresh(&twins), fresh(&single));
        let (mut out_a, mut out_b) = (Recorder::default(), Recorder::default());
        drive(&mut a, &mut out_a, &events);
        drive(&mut b, &mut out_b, &events);
        // Remote deliveries into each twin's receiving input at node 1.
        let [first, second] = [0, 1].map(|k| {
            let input = twins.fanouts[routed[k]].remote[0].1;
            out_a.remote.iter().filter(|&&(_, i)| i == input).count()
        });
        assert!(first > 0);
        assert_eq!(first, second);
        assert!(b.metrics.messages_sent > 0);
        assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
        assert_eq!(a.metrics.bytes_sent, b.metrics.bytes_sent);
    }

    #[test]
    fn shared_sink_attributes_each_match_to_every_query() {
        let (deployment, events) = fig1(2);
        assert_eq!(deployment.queries.len(), 2);
        // On the wall clock, so that every attribution takes a latency
        // sample.
        let mut core = NodeCore::new(&deployment, None, 1.0, ClockDomain::WallNanos, None);
        drive(&mut core, &mut Recorder::default(), &events);
        let central = Evaluator::for_query(&deployment.queries[0]).run(&events);
        for per_query in core.matches() {
            assert_eq!(fingerprints(per_query), fingerprints(&central));
        }
        assert_eq!(core.metrics.sink_matches as usize, 2 * central.len());
        assert_eq!(core.wall_latencies_ns.len(), 2 * central.len());
        assert_eq!(core.metrics.latency_samples_dropped, 0);
    }

    #[test]
    fn telemetry_observes_without_touching_the_account() {
        let (deployment, events) = fig1(1);
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

    /// [`drive`], counting the deliveries to shared-input readers that the
    /// node's gates rule out.
    fn drive_counting_rule_outs(
        core: &mut NodeCore<'_>,
        out: &mut Recorder,
        events: &[Event],
    ) -> usize {
        let before = core.gate_rule_outs;
        drive(core, out, events);
        core.gate_rule_outs - before
    }

    #[test]
    fn restore_between_ruled_out_deliveries_resumes_exactly() {
        // Fig. 1's query next to `SEQ(t0, t2)` and `SEQ(t1, t2)`: nodes 0
        // and 1 store the `t0` stream once for two joins, and node 1 the
        // `t2` stream that completes both `SEQ`s. A window short against
        // the trace makes the gates rule readers out, and the partner
        // entries stored before the save must keep the tail's readers in:
        // a restore that does not re-derive the gates' timestamps loses
        // the tail's matches.
        let seq02 = Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(2))]);
        let seq12 = Pattern::seq([Pattern::leaf(t(1)), Pattern::leaf(t(2))]);
        let deployment = fig1_deployment(&[(robots(), 400), (seq02, 400), (seq12, 400)]);
        let events = fig1_trace(13);
        let mut full = fresh(&deployment);
        assert!(!full.shared.is_empty(), "the joins must share an input");
        let ruled_out = drive_counting_rule_outs(&mut full, &mut Recorder::default(), &events);
        assert!(ruled_out > 0, "the gates must rule readers out");

        // Save just before the event that completes a mid-trace match, so
        // the match's other events are all stored before the save.
        let completing = |m: &Match| m.entries().iter().map(|(_, e)| e.seq).max();
        let split = full
            .matches()
            .iter()
            .flatten()
            .filter_map(completing)
            .filter_map(|seq| events.iter().position(|e| e.seq == seq))
            .min_by_key(|&at| at.abs_diff(events.len() / 2))
            .expect("the trace must match");
        let (head, tail) = events.split_at(split);
        let mut first = fresh(&deployment);
        let before = drive_counting_rule_outs(&mut first, &mut Recorder::default(), head);
        assert!(before > 0, "readers are ruled out before the save");
        let mut snap = first.save();
        let mut resumed = fresh(&deployment);
        resumed.restore(&mut snap).unwrap();
        let after = drive_counting_rule_outs(&mut resumed, &mut Recorder::default(), tail);
        assert!(after > 0, "and after the restore");

        // After the head's matches, the resumed core emits the rest, in
        // order, each once.
        assert_eq!(resumed.save(), full.save());
        let emitted = first.matches().iter().zip(resumed.matches());
        for (q, (head, tail)) in emitted.enumerate() {
            assert_eq!([&head[..], tail].concat(), full.matches()[q], "query {q}");
        }
    }

    #[test]
    fn a_shared_buffer_entry_in_the_wrong_slot_is_refused() {
        // A shared `t0` input's buffer with one entry relabelled to a
        // primitive no query has: the next probe would index a query's
        // order table out of range.
        let seq02 = Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(2))]);
        let seq12 = Pattern::seq([Pattern::leaf(t(1)), Pattern::leaf(t(2))]);
        let deployment = fig1_deployment(&[(robots(), 400), (seq02, 400), (seq12, 400)]);
        let mut core = fresh(&deployment);
        drive(&mut core, &mut Recorder::default(), &fig1_trace(13));
        let mut snap = core.save();
        let matches = snap
            .buffers
            .iter_mut()
            .flatten()
            .map(|buffer| &mut buffer.matches)
            .find(|matches| !matches.is_empty())
            .expect("a shared input buffers matches");
        let entries = matches[0].entries().iter();
        matches[0] = Match::new(entries.map(|(_, e)| (PrimId(7), e.clone())).collect());
        assert_eq!(
            fresh(&deployment).restore(&mut snap),
            Err(CheckpointError::Shape(
                "a shared buffer's match primitives differ from its input's"
            ))
        );
    }

    #[test]
    fn rewind_to_a_mark_counts_the_rerun_once() {
        // A core rolled back to a mid-run save and rewound to the mark taken
        // with it, then driven over the rest again, gives the uninterrupted
        // core's account: outputs, metrics (shared buffers' evictions too)
        // and each join's counters. Telemetry is not rolled back, so the
        // sources' candidate counts in the task summaries are not compared.
        let seq02 = Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(2))]);
        let deployment = fig1_deployment(&[(robots(), 400), (seq02, 400)]);
        let events = fig1_trace(13);
        let spec = TelemetrySpec::default();
        let wall = || NodeCore::new(&deployment, None, 1.0, ClockDomain::WallNanos, Some(&spec));
        let mut full = wall();
        assert!(!full.shared.is_empty(), "the joins must share an input");
        drive(&mut full, &mut Recorder::default(), &events);
        let (head, tail) = events.split_at(events.len() / 2);
        let mut core = wall();
        drive(&mut core, &mut Recorder::default(), head);
        let (mut snap, mark) = (core.save(), core.mark());
        drive(&mut core, &mut Recorder::default(), tail);
        core.restore(&mut snap).unwrap();
        core.rewind(&mark);
        drive(&mut core, &mut Recorder::default(), tail);
        let (rewound, full) = (core.finish(0), full.finish(0));
        assert!(full.metrics.sink_matches > 0 && full.metrics.join.evicted > 0);
        assert_eq!(rewound.metrics, full.metrics);
        assert_eq!(rewound.matches, full.matches);
        assert_eq!(rewound.wall_latencies_ns, full.wall_latencies_ns);
        let joins = |r: CoreReport| -> Vec<_> {
            let tasks = r.telemetry.expect("telemetry").tasks.into_iter();
            let joins = tasks.filter(|s| s.kind != "source");
            joins
                .map(|s| (s.inputs, s.probes, s.emitted, s.evictions, s.peak_live))
                .collect()
        };
        assert_eq!(joins(rewound), joins(full));
    }

    #[test]
    fn save_restore_continue_equals_uninterrupted() {
        let (deployment, events) = fig1(1);
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

        // Per-node cores each take their slice of a whole-run snapshot, and
        // count from zero; the slices merge back into it.
        let mut rest = whole.clone();
        let mut merged = Snapshot::empty(&deployment);
        for node in 0..deployment.num_nodes {
            let mut core = NodeCore::new(&deployment, Some(node), 1.0, full.clock, None);
            core.restore(&mut rest).unwrap();
            assert_eq!(core.metrics, Metrics::new(deployment.num_nodes));
            merged.merge_shard(core.save());
        }
        assert_eq!(merged, whole);
    }
}
