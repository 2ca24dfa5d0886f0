//! Multi-Sink Evaluation (MuSE) graphs (§4.3-§5 of the paper).
//!
//! A MuSE graph is a weighted DAG whose vertices are pairs of a query
//! projection and a network node: vertex `(p, n)` means matches of `p` are
//! generated at node `n`. An edge `((p, n), (p', n'))` routes matches of `p`
//! from `n` to `n'`, where they feed the generation of matches of `p'`.
//! Edges between vertices at the same node are *local* (weight 0); *network*
//! edges carry the sender's output rate times the number of event type
//! bindings it covers, divided by the number of consuming vertices at the
//! target node (matches are shipped once per node and reused, §4.4).
//!
//! Vertices without incoming edges host primitive operators; vertices
//! hosting the root of a workload query are *sinks* — and, unlike all prior
//! operator-placement models, there may be many of them per query.

use crate::binding::{enumerate_bindings, Cover, EventTypeBinding};
use crate::cost::projection_output_rate;
use crate::network::Network;
use crate::projection::{ProjId, Projection, ProjectionTable};
use crate::query::Query;
use crate::types::{NodeId, NodeSet, PrimId, QueryId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A MuSE graph vertex: projection `p` hosted at node `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Vertex {
    /// The hosted projection.
    pub proj: ProjId,
    /// The hosting node.
    pub node: NodeId,
}

impl Vertex {
    /// Creates a vertex.
    pub fn new(proj: ProjId, node: NodeId) -> Self {
        Self { proj, node }
    }

    /// Packed 64-bit key.
    #[inline]
    fn key(self) -> u64 {
        ((self.proj.0 as u64) << 16) | self.node.0 as u64
    }
}

impl std::hash::Hash for Vertex {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.key());
    }
}

/// A minimal multiply-shift hasher for the graph's vertex index. Plan
/// construction clones and merges thousands of small graphs; SipHash
/// dominates that profile, and vertex keys are program-generated (no
/// hash-DoS surface).
#[derive(Debug, Clone, Copy, Default)]
struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct FastHasherBuilder;

impl std::hash::BuildHasher for FastHasherBuilder {
    type Hasher = FastHasher;
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

#[inline]
fn mix64(key: &mut u64, v: u64) {
    let x = (*key ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    *key = x ^ (x >> 29);
}

/// [`MuseGraph::stream_key`] computed directly from an origin-set list
/// (the allocation-free path used by cost evaluation).
fn stream_key_from_origins(proj: &Projection, query: &Query, origins: &[(u32, NodeSet)]) -> u64 {
    let mut key = proj.stream_sig;
    for p in proj.positive_prims(query).iter() {
        mix64(&mut key, query.prim_type(p).0 as u64 + 1);
        let k = (proj.source.0 << 8) | p.0 as u32;
        let bits = origins
            .binary_search_by_key(&k, |(ok, _)| *ok)
            .ok()
            .map(|j| origins[j].1.bits())
            .unwrap_or(0);
        mix64(&mut key, bits as u64);
        mix64(&mut key, (bits >> 64) as u64);
    }
    key
}

/// Streams already flowing in the network because an earlier query's plan
/// established them. The multi-query extension (§6.2) consults this to
/// assign zero cost to transmissions a later plan can reuse: a stream is
/// identified by its semantic content (projection structure in terms of
/// event types, retained predicates, covered bindings) and its endpoints.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SharedTransmissions {
    set: std::collections::HashSet<(u64, NodeId, NodeId)>,
}

impl SharedTransmissions {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the stream is already flowing from `from` to `to`.
    pub fn contains(&self, key: u64, from: NodeId, to: NodeId) -> bool {
        self.set.contains(&(key, from, to))
    }

    /// Registers a stream.
    pub fn insert(&mut self, key: u64, from: NodeId, to: NodeId) {
        self.set.insert((key, from, to));
    }

    /// Registers every network transmission of an adopted plan.
    pub fn absorb(&mut self, graph: &MuseGraph, ctx: &PlanContext<'_>) {
        for (key, from, to) in graph.transmissions(ctx) {
            self.insert(key, from, to);
        }
    }

    /// Number of registered streams.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Returns `true` if no stream is registered.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// Shared lookup context for graph analyses: the workload's queries, the
/// network, and the projection arena the graph's vertices reference.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext<'a> {
    /// Queries of the workload, looked up by [`QueryId`] through
    /// [`PlanContext::query`]: position first (`queries[id.index()]`, which
    /// holds for every [`crate::workload::Workload`], whose ids are dense),
    /// then a linear scan, so any slice — a sub-slice, hand-built ids in
    /// any order — resolves.
    pub queries: &'a [Query],
    /// The event-sourced network.
    pub network: &'a Network,
    /// The projection arena.
    pub table: &'a ProjectionTable,
    /// Streams established by earlier plans, reusable at zero cost.
    pub shared: Option<&'a SharedTransmissions>,
    /// Optional precomputed output rates per [`ProjId`] (indexed by id),
    /// avoiding repeated tree walks in construction inner loops.
    pub rates: Option<&'a [f64]>,
}

impl<'a> PlanContext<'a> {
    /// Creates a context without transmission sharing.
    pub fn new(queries: &'a [Query], network: &'a Network, table: &'a ProjectionTable) -> Self {
        Self {
            queries,
            network,
            table,
            shared: None,
            rates: None,
        }
    }

    /// Enables reuse of the given already-established streams.
    pub fn with_shared(mut self, shared: &'a SharedTransmissions) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Supplies precomputed per-projection output rates (must be indexed by
    /// [`ProjId`] and cover every projection of the table).
    pub fn with_rates(mut self, rates: &'a [f64]) -> Self {
        self.rates = Some(rates);
        self
    }

    /// The projection behind an id.
    pub fn proj(&self, id: ProjId) -> &'a Projection {
        self.table.get(id)
    }

    /// The query with the given id: `O(1)` when the query sits at position
    /// `id.index()`, a linear scan otherwise.
    ///
    /// # Panics
    ///
    /// Panics if no query in the context has the id.
    pub fn query(&self, id: QueryId) -> &'a Query {
        match self.queries.get(id.index()) {
            Some(q) if q.id() == id => Some(q),
            _ => self.queries.iter().find(|q| q.id() == id),
        }
        .expect("projection's source query present in context")
    }

    /// The source query of a projection.
    pub fn query_of(&self, id: ProjId) -> &'a Query {
        self.query(self.proj(id).source)
    }

    /// The output rate `r̂(p) = σ(p) · r̂(root(p))` of a projection.
    pub fn rate_of(&self, id: ProjId) -> f64 {
        if let Some(rates) = self.rates {
            if let Some(&r) = rates.get(id.index()) {
                return r;
            }
        }
        let p = self.proj(id);
        projection_output_rate(p, self.query_of(id), self.network)
    }
}

/// Serialized form of a [`MuseGraph`]: plain vertex and edge lists.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GraphRepr {
    verts: Vec<Vertex>,
    edges: Vec<(u32, u32)>,
}

/// A Multi-Sink Evaluation graph `G = (V, E, c)` (Def. 3).
///
/// Edge weights are not stored: they are fully determined by the graph
/// structure and a [`PlanContext`] (§4.4), see [`MuseGraph::edge_weights`]
/// and [`MuseGraph::cost`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "GraphRepr", into = "GraphRepr")]
pub struct MuseGraph {
    verts: Vec<Vertex>,
    index: HashMap<Vertex, u32, FastHasherBuilder>,
    out_edges: Vec<Vec<u32>>,
    in_edges: Vec<Vec<u32>>,
}

impl From<GraphRepr> for MuseGraph {
    fn from(repr: GraphRepr) -> Self {
        let mut g = MuseGraph::new();
        for v in repr.verts {
            g.add_vertex(v);
        }
        for (a, b) in repr.edges {
            let (va, vb) = (g.verts[a as usize], g.verts[b as usize]);
            g.add_edge(va, vb);
        }
        g
    }
}

impl From<MuseGraph> for GraphRepr {
    fn from(g: MuseGraph) -> Self {
        let edges = g.edge_indices().collect();
        GraphRepr {
            verts: g.verts,
            edges,
        }
    }
}

impl MuseGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex (idempotent) and returns its index.
    pub fn add_vertex(&mut self, v: Vertex) -> u32 {
        if let Some(&i) = self.index.get(&v) {
            return i;
        }
        let i = self.verts.len() as u32;
        self.verts.push(v);
        self.index.insert(v, i);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        i
    }

    /// Returns `true` if the vertex is present.
    pub fn contains_vertex(&self, v: Vertex) -> bool {
        self.index.contains_key(&v)
    }

    /// The internal index of a vertex (the position within
    /// [`MuseGraph::vertices`] and the analyses returned parallel to it).
    pub fn index_of(&self, v: Vertex) -> Option<usize> {
        self.index.get(&v).map(|&i| i as usize)
    }

    /// Adds a directed edge (idempotent), inserting missing endpoints.
    pub fn add_edge(&mut self, from: Vertex, to: Vertex) {
        let a = self.add_vertex(from);
        let b = self.add_vertex(to);
        debug_assert_ne!(a, b, "self-loop in MuSE graph");
        if !self.out_edges[a as usize].contains(&b) {
            self.out_edges[a as usize].push(b);
            self.in_edges[b as usize].push(a);
        }
    }

    /// Returns `true` if the edge is present.
    pub fn has_edge(&self, from: Vertex, to: Vertex) -> bool {
        match (self.index.get(&from), self.index.get(&to)) {
            (Some(&a), Some(&b)) => self.out_edges[a as usize].contains(&b),
            _ => false,
        }
    }

    /// Merges another graph into this one (vertex and edge set union).
    pub fn union_with(&mut self, other: &MuseGraph) {
        for v in &other.verts {
            self.add_vertex(*v);
        }
        for (a, b) in other.edge_indices() {
            self.add_edge(other.verts[a as usize], other.verts[b as usize]);
        }
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Number of edges `|E|`.
    pub fn num_edges(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.verts.iter().copied()
    }

    /// Iterates over all edges as vertex pairs.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.edge_indices()
            .map(|(a, b)| (self.verts[a as usize], self.verts[b as usize]))
    }

    fn edge_indices(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.out_edges
            .iter()
            .enumerate()
            .flat_map(|(a, outs)| outs.iter().map(move |&b| (a as u32, b)))
    }

    /// Direct predecessors of a vertex.
    pub fn predecessors(&self, v: Vertex) -> Vec<Vertex> {
        match self.index.get(&v) {
            Some(&i) => self.in_edges[i as usize]
                .iter()
                .map(|&j| self.verts[j as usize])
                .collect(),
            None => Vec::new(),
        }
    }

    /// Direct successors of a vertex.
    pub fn successors(&self, v: Vertex) -> Vec<Vertex> {
        match self.index.get(&v) {
            Some(&i) => self.out_edges[i as usize]
                .iter()
                .map(|&j| self.verts[j as usize])
                .collect(),
            None => Vec::new(),
        }
    }

    /// Vertices without outgoing edges. In a complete graph for a workload
    /// these host root operators of queries (the *sinks*).
    pub fn sinks(&self) -> Vec<Vertex> {
        self.verts
            .iter()
            .enumerate()
            .filter(|(i, _)| self.out_edges[*i].is_empty())
            .map(|(_, v)| *v)
            .collect()
    }

    /// Vertices without incoming edges (primitive-operator placements).
    pub fn sources(&self) -> Vec<Vertex> {
        self.verts
            .iter()
            .enumerate()
            .filter(|(i, _)| self.in_edges[*i].is_empty())
            .map(|(_, v)| *v)
            .collect()
    }

    /// All vertices hosting a given projection (its *placement* `V_p`).
    pub fn placement_of(&self, proj: ProjId) -> Vec<Vertex> {
        self.verts
            .iter()
            .filter(|v| v.proj == proj)
            .copied()
            .collect()
    }

    /// A topological order of vertex indices.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (construction only produces
    /// DAGs).
    pub fn topo_order(&self) -> Vec<u32> {
        let n = self.verts.len();
        let mut in_deg: Vec<usize> = (0..n).map(|i| self.in_edges[i].len()).collect();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| in_deg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(i);
            for &j in &self.out_edges[i as usize] {
                in_deg[j as usize] -= 1;
                if in_deg[j as usize] == 0 {
                    queue.push(j);
                }
            }
        }
        assert_eq!(order.len(), n, "MuSE graph contains a cycle");
        order
    }

    /// Reachable source origins per vertex, as sorted `(key, nodes)` lists
    /// with `key = (query << 8) | prim`. Sorted-vector merging keeps the
    /// inner loop of plan construction free of hashing.
    fn origin_sets(&self, ctx: &PlanContext<'_>) -> Vec<Vec<(u32, NodeSet)>> {
        #[inline]
        fn key(query: QueryId, prim: PrimId) -> u32 {
            (query.0 << 8) | prim.0 as u32
        }
        let n = self.verts.len();
        let mut origins: Vec<Vec<(u32, NodeSet)>> = vec![Vec::new(); n];
        for i in self.topo_order() {
            let i = i as usize;
            let v = self.verts[i];
            let proj = ctx.proj(v.proj);
            if self.in_edges[i].is_empty() {
                // Source vertex: a primitive placement contributes itself.
                if let Some(prim) = proj.prims.iter().next().filter(|_| proj.is_primitive()) {
                    origins[i] = vec![(key(proj.source, prim), NodeSet::single(v.node))];
                }
            } else {
                let mut merged: Vec<(u32, NodeSet)> = Vec::new();
                for &p in &self.in_edges[i] {
                    for &(k, nodes) in &origins[p as usize] {
                        match merged.binary_search_by_key(&k, |(mk, _)| *mk) {
                            Ok(j) => merged[j].1 = merged[j].1.union(nodes),
                            Err(j) => merged.insert(j, (k, nodes)),
                        }
                    }
                }
                origins[i] = merged;
            }
        }
        origins
    }

    /// Computes the cover `𝔄(v)` of every vertex (Def. 4): per primitive
    /// operator of `v`'s projection, the set of origin nodes whose source
    /// vertex reaches `v`. Returned parallel to the internal vertex order
    /// (pair each with [`MuseGraph::vertices`]).
    pub fn covers(&self, ctx: &PlanContext<'_>) -> Vec<Cover> {
        let origins = self.origin_sets(ctx);
        self.verts
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let proj = ctx.proj(v.proj);
                let query = ctx.query_of(v.proj);
                Cover::new(
                    proj.positive_prims(query)
                        .iter()
                        .map(|p| {
                            let key = (proj.source.0 << 8) | p.0 as u32;
                            let nodes = origins[i]
                                .binary_search_by_key(&key, |(k, _)| *k)
                                .ok()
                                .map(|j| origins[i][j].1)
                                .unwrap_or(NodeSet::empty());
                            (p, nodes)
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// `|𝔄(v)|` for every vertex, without materializing [`Cover`]s — the
    /// hot path of cost evaluation during plan construction.
    pub fn cover_counts(&self, ctx: &PlanContext<'_>) -> Vec<f64> {
        let origins = self.origin_sets(ctx);
        self.verts
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let proj = ctx.proj(v.proj);
                let query = ctx.query_of(v.proj);
                proj.positive_prims(query)
                    .iter()
                    .map(|p| {
                        let key = (proj.source.0 << 8) | p.0 as u32;
                        origins[i]
                            .binary_search_by_key(&key, |(k, _)| *k)
                            .ok()
                            .map(|j| origins[i][j].1.len() as f64)
                            .unwrap_or(0.0)
                    })
                    .product()
            })
            .collect()
    }

    /// Edge weights per §4.4: a local edge weighs 0; a network edge from `v`
    /// into node `n'` weighs `r̂(p) · |𝔄(v)| / |V_{v,n'}|`, where `V_{v,n'}`
    /// are the successors of `v` hosted at `n'` (matches are shipped to a
    /// node once and shared by its placements).
    pub fn edge_weights(&self, ctx: &PlanContext<'_>) -> Vec<((Vertex, Vertex), f64)> {
        let covers = self.covers(ctx);
        let mut out = Vec::with_capacity(self.num_edges());
        for (i, v) in self.verts.iter().enumerate() {
            if self.out_edges[i].is_empty() {
                continue;
            }
            let volume = ctx.rate_of(v.proj) * covers[i].count();
            // Successor count per target node for the sharing division.
            let mut per_node: HashMap<NodeId, f64> = HashMap::new();
            for &j in &self.out_edges[i] {
                *per_node.entry(self.verts[j as usize].node).or_insert(0.0) += 1.0;
            }
            for &j in &self.out_edges[i] {
                let w = self.verts[j as usize];
                let weight = if w.node == v.node {
                    0.0
                } else {
                    volume / per_node[&w.node]
                };
                out.push(((*v, w), weight));
            }
        }
        out
    }

    /// The network cost `c(G) = Σ_e c(e)` of the graph — the total rate with
    /// which matches cross the network under this plan.
    ///
    /// When the context carries [`SharedTransmissions`], streams already
    /// established by earlier plans cost nothing (multi-query reuse, §6.2).
    pub fn cost(&self, ctx: &PlanContext<'_>) -> f64 {
        let origins = self.origin_sets(ctx);
        let mut total = 0.0;
        for (i, v) in self.verts.iter().enumerate() {
            if self.out_edges[i].is_empty() {
                continue;
            }
            let mut remote_nodes = NodeSet::empty();
            for &j in &self.out_edges[i] {
                let n = self.verts[j as usize].node;
                if n != v.node {
                    remote_nodes.insert(n);
                }
            }
            if remote_nodes.is_empty() {
                continue;
            }
            let proj = ctx.proj(v.proj);
            let query = ctx.query_of(v.proj);
            let mut count = 1.0;
            for p in proj.positive_prims(query).iter() {
                let key = (proj.source.0 << 8) | p.0 as u32;
                count *= origins[i]
                    .binary_search_by_key(&key, |(k, _)| *k)
                    .ok()
                    .map(|j| origins[i][j].1.len() as f64)
                    .unwrap_or(0.0);
            }
            let volume = ctx.rate_of(v.proj) * count;
            match ctx.shared {
                None => total += volume * remote_nodes.len() as f64,
                Some(shared) => {
                    let key = stream_key_from_origins(proj, query, &origins[i]);
                    for n in remote_nodes.iter() {
                        if !shared.contains(key, v.node, n) {
                            total += volume;
                        }
                    }
                }
            }
        }
        total
    }

    /// The semantic identity of the match stream produced by vertex `i`:
    /// the projection's precomputed structure/predicate hash mixed with the
    /// covered bindings (event types × origin node sets). Equal keys ⇒
    /// identical streams, even across queries. A 64-bit hash keeps the
    /// multi-query construction inner loop allocation-free; collisions are
    /// astronomically unlikely at plan scale.
    fn stream_key(&self, ctx: &PlanContext<'_>, i: usize, cover: &Cover) -> u64 {
        let v = self.verts[i];
        let proj = ctx.proj(v.proj);
        let query = ctx.query_of(v.proj);
        let mut key = proj.stream_sig;
        for prim in cover.prims().iter() {
            mix64(&mut key, query.prim_type(prim).0 as u64 + 1);
            let bits = cover.nodes_of(prim).bits();
            mix64(&mut key, bits as u64);
            mix64(&mut key, (bits >> 64) as u64);
        }
        key
    }

    /// Enumerates the network transmissions of the plan as
    /// `(stream key, from node, to node)` triples, one per (sender vertex,
    /// target node) pair. Register these in a [`SharedTransmissions`] to let
    /// later plans reuse them.
    pub fn transmissions(&self, ctx: &PlanContext<'_>) -> Vec<(u64, NodeId, NodeId)> {
        let covers = self.covers(ctx);
        let mut out = Vec::new();
        for (i, v) in self.verts.iter().enumerate() {
            if self.out_edges[i].is_empty() {
                continue;
            }
            let mut remote_nodes = NodeSet::empty();
            for &j in &self.out_edges[i] {
                let n = self.verts[j as usize].node;
                if n != v.node {
                    remote_nodes.insert(n);
                }
            }
            if remote_nodes.is_empty() {
                continue;
            }
            let key = self.stream_key(ctx, i, &covers[i]);
            for n in remote_nodes.iter() {
                out.push((key, v.node, n));
            }
        }
        out
    }

    /// Well-formedness (Def. 7): (i) every `(primitive, producing node)`
    /// pair of every query has a vertex; (ii) every non-source vertex's
    /// direct predecessors form a correct combination for its projection
    /// (proper subsets whose union covers it), and every source vertex hosts
    /// a primitive operator at a node generating its type.
    pub fn check_well_formed(&self, ctx: &PlanContext<'_>) -> Result<(), String> {
        // (i) all primitive placements present.
        for query in ctx.queries {
            for prim in query.prims().iter() {
                let ty = query.prim_type(prim);
                let Some(proj) = ctx
                    .table
                    .id_of(query.id(), crate::types::PrimSet::single(prim))
                else {
                    return Err(format!(
                        "no primitive projection registered for {:?} of {:?}",
                        prim,
                        query.id()
                    ));
                };
                for node in ctx.network.producers(ty).iter() {
                    if !self.contains_vertex(Vertex::new(proj, node)) {
                        return Err(format!(
                            "missing primitive vertex ({prim:?} of {:?}, {node:?})",
                            query.id()
                        ));
                    }
                }
            }
        }
        // (ii) local structure.
        for (i, v) in self.verts.iter().enumerate() {
            let proj = ctx.proj(v.proj);
            if self.in_edges[i].is_empty() {
                if !proj.is_primitive() {
                    return Err(format!(
                        "source vertex ({:?}, {:?}) hosts a composite projection",
                        proj.prims, v.node
                    ));
                }
                let prim = proj.prims.iter().next().unwrap();
                let ty = ctx.query_of(v.proj).prim_type(prim);
                if !ctx.network.generates(v.node, ty) {
                    return Err(format!(
                        "primitive vertex ({prim:?}, {:?}) at non-producing node",
                        v.node
                    ));
                }
            } else {
                let mut union = crate::types::PrimSet::empty();
                for p in self.predecessors(*v) {
                    let pp = ctx.proj(p.proj);
                    if pp.source != proj.source {
                        return Err("edge crosses queries".to_string());
                    }
                    if !pp.prims.is_proper_subset(proj.prims) {
                        return Err(format!(
                            "predecessor {:?} is not a proper sub-projection of {:?}",
                            pp.prims, proj.prims
                        ));
                    }
                    union = union.union(pp.prims);
                }
                if union != proj.prims {
                    return Err(format!(
                        "predecessors of ({:?}, {:?}) cover {:?}, need {:?}",
                        proj.prims, v.node, union, proj.prims
                    ));
                }
            }
        }
        Ok(())
    }

    /// *Operational* covers: the bindings each vertex can actually generate
    /// matches for. Unlike the reachability cover of Def. 4 (see
    /// [`MuseGraph::covers`]), a binding counts only if **every** direct
    /// predecessor projection delivers the corresponding sub-bag from some
    /// predecessor vertex (the paper's Property 2 / Example 8 alignment
    /// condition). Enumerates bindings explicitly — validation only.
    pub fn operational_covers(
        &self,
        ctx: &PlanContext<'_>,
        limit: usize,
    ) -> Result<Vec<Vec<EventTypeBinding>>, String> {
        let n = self.verts.len();
        let mut covers: Vec<Vec<EventTypeBinding>> = vec![Vec::new(); n];
        for i in self.topo_order() {
            let i = i as usize;
            let v = self.verts[i];
            let proj = ctx.proj(v.proj);
            let query = ctx.query_of(v.proj);
            if self.in_edges[i].is_empty() {
                if let Some(prim) = proj.prims.iter().next().filter(|_| proj.is_primitive()) {
                    if !query.negated_prims().contains(prim) {
                        covers[i] = vec![EventTypeBinding::new(vec![(prim, v.node)])];
                    }
                }
                continue;
            }
            // Group predecessor vertices by their projection.
            let mut by_proj: HashMap<ProjId, Vec<usize>> = HashMap::new();
            for &p in &self.in_edges[i] {
                by_proj
                    .entry(self.verts[p as usize].proj)
                    .or_default()
                    .push(p as usize);
            }
            let candidates = enumerate_bindings(query, proj.prims, ctx.network, limit)
                .map_err(|e| e.to_string())?;
            covers[i] = candidates
                .into_iter()
                .filter(|b| {
                    by_proj.iter().all(|(pred_proj, pred_idxs)| {
                        let pred = ctx.proj(*pred_proj);
                        let positive = pred.positive_prims(query);
                        if positive.is_empty() {
                            return true; // pure negation guard stream
                        }
                        let sub = b.restrict(positive);
                        pred_idxs.iter().any(|&pi| covers[pi].contains(&sub))
                    })
                })
                .collect();
        }
        Ok(covers)
    }

    /// Completeness (Def. 8): for every query, the vertices hosting the full
    /// query jointly generate all its event type bindings, using the
    /// operational covers (which respect predecessor alignment,
    /// cf. Example 8). Bindings are enumerated, so this check is for
    /// validation on small instances; the `limit` caps the enumeration size.
    pub fn check_complete(&self, ctx: &PlanContext<'_>, limit: usize) -> Result<(), String> {
        let covers = self.operational_covers(ctx, limit)?;
        for query in ctx.queries {
            let bindings = enumerate_bindings(query, query.prims(), ctx.network, limit)
                .map_err(|e| e.to_string())?;
            let full: Vec<usize> = self
                .verts
                .iter()
                .enumerate()
                .filter(|(_, v)| {
                    let p = ctx.proj(v.proj);
                    p.source == query.id() && p.is_full_query(query)
                })
                .map(|(i, _)| i)
                .collect();
            for b in &bindings {
                if !full.iter().any(|&i| covers[i].contains(b)) {
                    return Err(format!(
                        "binding {:?} of {:?} covered by no sink",
                        b,
                        query.id()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Correctness = well-formedness + completeness (§5.2).
    pub fn check_correct(&self, ctx: &PlanContext<'_>, limit: usize) -> Result<(), String> {
        self.check_well_formed(ctx)?;
        self.check_complete(ctx, limit)
    }

    /// The collapsed normal form (Def. 11): iteratively removes non-source
    /// vertices all of whose outgoing edges are local, splicing their
    /// incoming edges onto their successors. Two MuSE graphs are equivalent
    /// iff they have the same collapsed normal form (Property 5).
    pub fn collapsed_normal_form(&self) -> MuseGraph {
        let mut g = self.clone();
        loop {
            let mut removed = None;
            for (i, v) in g.verts.iter().enumerate() {
                if g.in_edges[i].is_empty() || g.out_edges[i].is_empty() {
                    continue;
                }
                let all_local = g.out_edges[i]
                    .iter()
                    .all(|&j| g.verts[j as usize].node == v.node);
                if all_local {
                    removed = Some(i as u32);
                    break;
                }
            }
            let Some(i) = removed else {
                return g;
            };
            g = g.without_vertex_spliced(i);
        }
    }

    /// Rebuilds the graph without vertex `i`, connecting each of its
    /// predecessors to each of its successors.
    fn without_vertex_spliced(&self, i: u32) -> MuseGraph {
        let removed = self.verts[i as usize];
        let mut g = MuseGraph::new();
        for v in &self.verts {
            if *v != removed {
                g.add_vertex(*v);
            }
        }
        for (a, b) in self.edge_indices() {
            if a == i || b == i {
                continue;
            }
            g.add_edge(self.verts[a as usize], self.verts[b as usize]);
        }
        for &p in &self.in_edges[i as usize] {
            for &s in &self.out_edges[i as usize] {
                g.add_edge(self.verts[p as usize], self.verts[s as usize]);
            }
        }
        g
    }

    /// Minimality (§5.4): a correct MuSE graph is *minimal* if no network
    /// edge can be removed without violating correctness. Lemma 1: every
    /// optimal graph is minimal. Checked by re-validating the graph with
    /// each network edge removed (validation-scale instances only; the
    /// `limit` caps binding enumeration as in [`MuseGraph::check_complete`]).
    pub fn is_minimal(&self, ctx: &PlanContext<'_>, limit: usize) -> Result<bool, String> {
        self.check_correct(ctx, limit)?;
        for (from, to) in self.edges() {
            if from.node == to.node {
                continue; // local edges carry no cost (§5.4 concerns network edges)
            }
            let mut without = MuseGraph::new();
            for v in self.vertices() {
                without.add_vertex(v);
            }
            for (a, b) in self.edges() {
                if (a, b) != (from, to) {
                    without.add_edge(a, b);
                }
            }
            if without.check_correct(ctx, limit).is_ok() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The unfolded normal form for graphs with a single underlying
    /// combination (Def. 14): removes edges from vertices whose projection
    /// is not a *direct* predecessor of the target according to `β`
    /// (supplied as a lookup from target prim set to its predecessors'
    /// prim sets). Vertices left without successors that are neither sinks
    /// nor sources are dropped.
    pub fn unfolded_normal_form(
        &self,
        ctx: &PlanContext<'_>,
        beta: &impl Fn(crate::types::PrimSet) -> Option<Vec<crate::types::PrimSet>>,
    ) -> MuseGraph {
        let mut g = MuseGraph::new();
        for v in self.vertices() {
            g.add_vertex(v);
        }
        for (a, b) in self.edges() {
            let target_prims = ctx.proj(b.proj).prims;
            let source_prims = ctx.proj(a.proj).prims;
            let keep = match beta(target_prims) {
                Some(preds) => preds.contains(&source_prims),
                None => true,
            };
            if keep {
                g.add_edge(a, b);
            }
        }
        g
    }

    /// Structural equality (same vertex and edge sets).
    pub fn same_structure(&self, other: &MuseGraph) -> bool {
        if self.num_vertices() != other.num_vertices() || self.num_edges() != other.num_edges() {
            return false;
        }
        self.verts.iter().all(|v| other.contains_vertex(*v))
            && self.edges().all(|(a, b)| other.has_edge(a, b))
    }

    /// Equivalence per Property 5: equal collapsed normal forms.
    pub fn is_equivalent_to(&self, other: &MuseGraph) -> bool {
        self.collapsed_normal_form()
            .same_structure(&other.collapsed_normal_form())
    }

    /// Renders the graph in Graphviz DOT format, with projections rendered
    /// via the catalog and network edges labeled with their weight.
    pub fn to_dot(&self, ctx: &PlanContext<'_>, catalog: &crate::catalog::Catalog) -> String {
        let mut s = String::from("digraph muse {\n  rankdir=BT;\n");
        for (i, v) in self.verts.iter().enumerate() {
            let proj = ctx.proj(v.proj);
            let query = ctx.query_of(v.proj);
            let label = proj.root.render(query.prim_types(), catalog);
            let _ = writeln!(s, "  v{i} [label=\"{label}@n{}\"];", v.node.0);
        }
        for ((a, b), w) in self.edge_weights(ctx) {
            let ai = self.index[&a];
            let bi = self.index[&b];
            if w == 0.0 {
                let _ = writeln!(s, "  v{ai} -> v{bi} [style=dashed];");
            } else {
                let _ = writeln!(s, "  v{ai} -> v{bi} [label=\"{w:.2}\"];");
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::projection::ProjectionTable;
    use crate::query::{Pattern, Query};
    use crate::types::{EventTypeId, PrimSet, QueryId};

    fn t(i: u16) -> EventTypeId {
        EventTypeId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }
    fn ps(prims: impl IntoIterator<Item = u8>) -> PrimSet {
        prims.into_iter().map(PrimId).collect()
    }

    /// Fig. 2 setup: q1 = SEQ(AND(C, L), F); nodes n0={C,F}, n1={C,L},
    /// n2={L}, n3={F}; rates r(C)=r(L)=100, r(F)=1.
    struct Fig2 {
        query: Query,
        network: Network,
        table: ProjectionTable,
        graph: MuseGraph,
        // Projection ids.
        p_c: ProjId,
        p_l: ProjId,
        p_f: ProjId,
        p2: ProjId, // SEQ(L, F)
        p3: ProjId, // AND(C, L)
        pq: ProjId, // full query
    }

    fn fig2() -> Fig2 {
        let query = Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::leaf(t(2)),
            ]),
            vec![],
            1000,
        )
        .unwrap();
        let network = NetworkBuilder::new(4, 3)
            .node(n(0), [t(0), t(2)])
            .node(n(1), [t(0), t(1)])
            .node(n(2), [t(1)])
            .node(n(3), [t(2)])
            .rate(t(0), 100.0)
            .rate(t(1), 100.0)
            .rate(t(2), 1.0)
            .build();
        let mut table = ProjectionTable::new();
        let p_c = table.project_into(&query, ps([0])).unwrap();
        let p_l = table.project_into(&query, ps([1])).unwrap();
        let p_f = table.project_into(&query, ps([2])).unwrap();
        let p2 = table.project_into(&query, ps([1, 2])).unwrap();
        let p3 = table.project_into(&query, ps([0, 1])).unwrap();
        let pq = table.project_into(&query, ps([0, 1, 2])).unwrap();

        let mut g = MuseGraph::new();
        let v1 = Vertex::new(p2, n(0));
        let v2 = Vertex::new(p3, n(0));
        let v3 = Vertex::new(p3, n(1));
        let v4 = Vertex::new(pq, n(0));
        let v5 = Vertex::new(pq, n(1));
        // Primitive inputs of v1 = (SEQ(L,F), n0).
        g.add_edge(Vertex::new(p_l, n(1)), v1);
        g.add_edge(Vertex::new(p_l, n(2)), v1);
        g.add_edge(Vertex::new(p_f, n(0)), v1);
        g.add_edge(Vertex::new(p_f, n(3)), v1);
        // v2 = (AND(C,L), n0): local C, remote Ls.
        g.add_edge(Vertex::new(p_c, n(0)), v2);
        g.add_edge(Vertex::new(p_l, n(1)), v2);
        g.add_edge(Vertex::new(p_l, n(2)), v2);
        // v3 = (AND(C,L), n1): local C and L, remote L from n2.
        g.add_edge(Vertex::new(p_c, n(1)), v3);
        g.add_edge(Vertex::new(p_l, n(1)), v3);
        g.add_edge(Vertex::new(p_l, n(2)), v3);
        // Sinks.
        g.add_edge(v1, v4);
        g.add_edge(v2, v4);
        g.add_edge(v1, v5);
        g.add_edge(v3, v5);
        Fig2 {
            query,
            network,
            table,
            graph: g,
            p_c,
            p_l,
            p_f,
            p2,
            p3,
            pq,
        }
    }

    fn ctx<'a>(f: &'a Fig2) -> PlanContext<'a> {
        PlanContext::new(std::slice::from_ref(&f.query), &f.network, &f.table)
    }

    /// `PlanContext::query` agrees with a linear `find` on a dense workload
    /// (the position hit), a one-query sub-slice and hand-built non-dense
    /// ids (both the scan).
    #[test]
    fn query_lookup_agrees_with_scan() {
        let f = fig2();
        let build = |id: u32, last: u16| {
            Query::build(
                QueryId(id),
                &Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(last))]),
                vec![],
                1000 + u64::from(id),
            )
            .unwrap()
        };
        let workload = crate::workload::Workload::new(
            crate::catalog::Catalog::with_anonymous_types(3),
            (0..5).map(|i| build(i, 1 + (i % 2) as u16)).collect(),
        )
        .unwrap();
        let scan = |qs: &[Query], id: QueryId| qs.iter().position(|q| q.id() == id).unwrap();
        let check = |qs: &[Query]| {
            let ctx = PlanContext::new(qs, &f.network, &f.table);
            for q in qs {
                let found = ctx.query(q.id());
                assert!(std::ptr::eq(found, &qs[scan(qs, q.id())]), "{:?}", q.id());
            }
        };
        let w = workload.queries();
        check(w);
        for i in 0..w.len() {
            check(&w[i..=i]);
        }
        check(&[build(7, 1), build(3, 2)]);
        check(&[build(1, 1), build(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "projection's source query present in context")]
    fn query_lookup_of_a_missing_id_panics() {
        let f = fig2();
        ctx(&f).query(QueryId(1));
    }

    #[test]
    fn structure_queries() {
        let f = fig2();
        let g = &f.graph;
        assert_eq!(g.num_vertices(), 11);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.sources().len(), 6); // all primitive placements
        let sinks = g.sinks();
        assert_eq!(sinks.len(), 2);
        assert!(sinks.contains(&Vertex::new(f.pq, n(0))));
        assert!(sinks.contains(&Vertex::new(f.pq, n(1))));
        assert_eq!(g.placement_of(f.p3).len(), 2);
        assert_eq!(g.predecessors(Vertex::new(f.pq, n(0))).len(), 2);
        assert_eq!(g.successors(Vertex::new(f.p2, n(0))).len(), 2);
    }

    #[test]
    fn covers_match_example6() {
        let f = fig2();
        let c = ctx(&f);
        let covers = f.graph.covers(&c);
        let idx = |v: Vertex| f.graph.vertices().position(|x| x == v).unwrap();
        // v2 covers C from n0 only, L from n1 and n2.
        let v2 = covers[idx(Vertex::new(f.p3, n(0)))].clone();
        assert_eq!(v2.nodes_of(PrimId(0)), NodeSet::single(n(0)));
        assert_eq!(v2.nodes_of(PrimId(1)).len(), 2);
        assert_eq!(v2.count(), 2.0);
        // v3 covers C from n1 only.
        let v3 = covers[idx(Vertex::new(f.p3, n(1)))].clone();
        assert_eq!(v3.nodes_of(PrimId(0)), NodeSet::single(n(1)));
        assert_eq!(v3.count(), 2.0);
        // v1 covers all 4 bindings of SEQ(L, F).
        let v1 = covers[idx(Vertex::new(f.p2, n(0)))].clone();
        assert_eq!(v1.count(), 4.0);
        // Sinks each cover 4 of the 8 query bindings.
        let v4 = covers[idx(Vertex::new(f.pq, n(0)))].clone();
        let v5 = covers[idx(Vertex::new(f.pq, n(1)))].clone();
        assert_eq!(v4.count(), 4.0);
        assert_eq!(v5.count(), 4.0);
        assert_eq!(v4.nodes_of(PrimId(0)), NodeSet::single(n(0)));
        assert_eq!(v5.nodes_of(PrimId(0)), NodeSet::single(n(1)));
    }

    #[test]
    fn edge_weights_follow_cost_model() {
        let f = fig2();
        let c = ctx(&f);
        let weights: HashMap<(Vertex, Vertex), f64> =
            f.graph.edge_weights(&c).into_iter().collect();
        // Example 9: weight of (v1, v5) is r̂(SEQ(L,F)) · 4 = 100·1·4 = 400.
        let w = weights[&(Vertex::new(f.p2, n(0)), Vertex::new(f.pq, n(1)))];
        assert!((w - 400.0).abs() < 1e-9);
        // Local edges weigh 0.
        let w = weights[&(Vertex::new(f.p2, n(0)), Vertex::new(f.pq, n(0)))];
        assert_eq!(w, 0.0);
        let w = weights[&(Vertex::new(f.p_f, n(0)), Vertex::new(f.p2, n(0)))];
        assert_eq!(w, 0.0);
        // Match reuse: (L, n1) feeds v1 and v2, both at n0 → each edge
        // carries r(L)/2.
        let w = weights[&(Vertex::new(f.p_l, n(1)), Vertex::new(f.p2, n(0)))];
        assert!((w - 50.0).abs() < 1e-9);
        // (L, n2) → v3 at n1 is a full r(L) edge.
        let w = weights[&(Vertex::new(f.p_l, n(2)), Vertex::new(f.p3, n(1)))];
        assert!((w - 100.0).abs() < 1e-9);
    }

    #[test]
    fn total_cost_hand_computed() {
        let f = fig2();
        let c = ctx(&f);
        // Network transmissions:
        //   L: n1→n0 (shared by v1, v2) = 100
        //   L: n2→n0 (shared by v1, v2) = 100
        //   L: n2→n1 (for v3)           = 100
        //   L: n1→n1? no — local        = 0
        //   F: n3→n0                    = 1
        //   p2 matches: n0→n1 (4 bindings · rate 100) = 400
        // Total = 701.
        assert!((f.graph.cost(&c) - 701.0).abs() < 1e-9);
        // Cost equals the sum of the edge weights.
        let sum: f64 = f.graph.edge_weights(&c).iter().map(|(_, w)| w).sum();
        assert!((sum - f.graph.cost(&c)).abs() < 1e-9);
    }

    #[test]
    fn fig2_graph_is_correct() {
        let f = fig2();
        let c = ctx(&f);
        f.graph.check_well_formed(&c).unwrap();
        f.graph.check_complete(&c, 10_000).unwrap();
        f.graph.check_correct(&c, 10_000).unwrap();
    }

    #[test]
    fn incomplete_graph_detected() {
        let f = fig2();
        let c = ctx(&f);
        // Remove sink v5: bindings with C from n1 are no longer covered.
        let mut g = MuseGraph::new();
        for (a, b) in f.graph.edges() {
            if b != Vertex::new(f.pq, n(1)) {
                g.add_edge(a, b);
            }
        }
        assert!(g.check_complete(&c, 10_000).is_err());
    }

    #[test]
    fn malformed_missing_primitive_detected() {
        let f = fig2();
        let c = ctx(&f);
        // A graph missing the (C, n1) primitive vertex fails condition (i).
        let mut g = MuseGraph::new();
        for (a, b) in f.graph.edges() {
            if a != Vertex::new(f.p_c, n(1)) {
                g.add_edge(a, b);
            }
        }
        let err = g.check_well_formed(&c).unwrap_err();
        assert!(
            err.contains("missing primitive vertex") || err.contains("cover"),
            "{err}"
        );
    }

    #[test]
    fn malformed_bad_combination_detected() {
        let f = fig2();
        let c = ctx(&f);
        // A sink fed only by p3 = AND(C, L) misses prim F.
        let mut g = MuseGraph::new();
        g.add_edge(Vertex::new(f.p_c, n(0)), Vertex::new(f.p3, n(0)));
        g.add_edge(Vertex::new(f.p_l, n(1)), Vertex::new(f.p3, n(0)));
        g.add_edge(Vertex::new(f.p3, n(0)), Vertex::new(f.pq, n(0)));
        let err = g.check_well_formed(&c).unwrap_err();
        assert!(err.contains("cover") || err.contains("missing"), "{err}");
    }

    #[test]
    fn collapsed_normal_form_splices_local_chains() {
        let f = fig2();
        // Build a graph with a purely-local intermediate vertex: p3 at n0
        // feeding only pq at n0.
        let mut g = MuseGraph::new();
        let v_mid = Vertex::new(f.p3, n(0));
        let v_sink = Vertex::new(f.pq, n(0));
        g.add_edge(Vertex::new(f.p_c, n(0)), v_mid);
        g.add_edge(Vertex::new(f.p_l, n(1)), v_mid);
        g.add_edge(v_mid, v_sink);
        g.add_edge(Vertex::new(f.p2, n(1)), v_sink);
        let cnf = g.collapsed_normal_form();
        assert!(!cnf.contains_vertex(v_mid));
        assert!(cnf.has_edge(Vertex::new(f.p_c, n(0)), v_sink));
        assert!(cnf.has_edge(Vertex::new(f.p_l, n(1)), v_sink));
        // Equivalence: g and its collapsed normal form are equivalent.
        assert!(g.is_equivalent_to(&cnf));
        // The Fig. 2 graph is already in collapsed normal form: v2 has only
        // a local successor... actually v2 → v4 is local and v2 has no other
        // successor, so it collapses. Verify idempotence instead.
        let c1 = f.graph.collapsed_normal_form();
        assert!(c1.same_structure(&c1.collapsed_normal_form()));
    }

    #[test]
    fn fig2_graph_is_minimal() {
        let f = fig2();
        let c = ctx(&f);
        assert_eq!(f.graph.is_minimal(&c, 100_000), Ok(true));
        // A redundant *network* edge — v2's AND(C, L) matches additionally
        // shipped to the second sink, whose bindings the first sink already
        // generates — breaks minimality: removing it restores correctness.
        let mut g2 = f.graph.clone();
        g2.add_edge(Vertex::new(f.p3, n(0)), Vertex::new(f.pq, n(1)));
        assert!(g2.check_well_formed(&c).is_ok());
        assert_eq!(g2.is_minimal(&c, 100_000), Ok(false));
    }

    #[test]
    fn unfolded_normal_form_keeps_direct_predecessors() {
        let f = fig2();
        let c = ctx(&f);
        // β: q ← {p2, p3}; p2 ← {L, F}; p3 ← {C, L}.
        let beta = |prims: PrimSet| -> Option<Vec<PrimSet>> {
            if prims == ps([0, 1, 2]) {
                Some(vec![ps([1, 2]), ps([0, 1])])
            } else if prims == ps([1, 2]) {
                Some(vec![ps([1]), ps([2])])
            } else if prims == ps([0, 1]) {
                Some(vec![ps([0]), ps([1])])
            } else {
                None
            }
        };
        let unfolded = f.graph.unfolded_normal_form(&c, &beta);
        // Fig. 2's graph is already in unfolded normal form w.r.t. its
        // underlying combination: nothing changes.
        assert!(unfolded.same_structure(&f.graph));
        // A graph with an extra shortcut edge (primitive directly into the
        // sink) is folded back.
        let mut with_shortcut = f.graph.clone();
        with_shortcut.add_edge(Vertex::new(f.p_f, n(0)), Vertex::new(f.pq, n(0)));
        let refolded = with_shortcut.unfolded_normal_form(&c, &beta);
        assert!(!refolded.has_edge(Vertex::new(f.p_f, n(0)), Vertex::new(f.pq, n(0))));
        assert!(refolded.same_structure(&f.graph));
    }

    #[test]
    fn union_and_dedup() {
        let f = fig2();
        let mut g = MuseGraph::new();
        g.add_edge(Vertex::new(f.p_c, n(0)), Vertex::new(f.p3, n(0)));
        let before_edges = f.graph.num_edges();
        let mut merged = f.graph.clone();
        merged.union_with(&g);
        // The edge already existed: nothing changes.
        assert_eq!(merged.num_edges(), before_edges);
        assert_eq!(merged.num_vertices(), f.graph.num_vertices());
    }

    #[test]
    fn serde_roundtrip() {
        let f = fig2();
        let json = serde_json::to_string(&f.graph).unwrap();
        let back: MuseGraph = serde_json::from_str(&json).unwrap();
        assert!(back.same_structure(&f.graph));
    }

    #[test]
    fn dot_export_mentions_projections() {
        let f = fig2();
        let c = ctx(&f);
        let mut catalog = crate::catalog::Catalog::new();
        catalog.add_event_type("C").unwrap();
        catalog.add_event_type("L").unwrap();
        catalog.add_event_type("F").unwrap();
        let dot = f.graph.to_dot(&c, &catalog);
        assert!(dot.contains("SEQ(AND(C, L), F)"));
        assert!(dot.contains("style=dashed"));
    }
}
