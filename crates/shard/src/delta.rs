//! Streaming structural updates: [`DeltaBatch`] construction, its check
//! against a graph, and the one splice that applies it.
//!
//! A delta batch names edge and node insertions/deletions against the
//! graph it is applied to.
//! [`ShardedGraph::try_apply`](crate::ShardedGraph::try_apply) checks a
//! batch once, before anything changes ([`DeltaBatch::validate`] runs
//! the same check alone), so a malformed batch from outside is an error,
//! not a panic. The check's one scan of the relations removals name
//! locates the edges they remove; for a batch with node operations it
//! also fixes the batch's node renumbering and resolves the insertions'
//! provisional ids. Every batch then goes through one splice,
//! [`HeteroGraph::splice_edges`]: an edge-only batch by bulk
//! relation-segment copies, a node batch renumbering endpoints during
//! the same copy (node ids shift, so the store re-partitions; see
//! [`DeltaBatch::add_node`]).
//!
//! # Id coordinates
//!
//! Every node id in a batch refers to the **pre-delta** graph.
//! [`DeltaBatch::add_edge`] may additionally reference nodes created by
//! the *same* batch through provisional ids: the `i`-th
//! [`DeltaBatch::add_node`] call gets provisional id
//! `old_num_nodes + i`. Post-delta ids are type-grouped: per node type,
//! the surviving old nodes in ascending order, then the batch's added
//! nodes of that type in call order.
//!
//! # Edge order
//!
//! The splice preserves the relative order of surviving edges within
//! every relation and appends insertions at their relation segment's
//! end, the order a from-scratch graph builder fed the survivors
//! (renumbered) and then the insertions produces. So a
//! spliced graph is indistinguishable from a freshly built one (pinned
//! by `splice_matches_fresh_build` and
//! `node_batches_splice_to_a_fresh_build`), which keeps post-delta
//! sharded execution bit-identical to a fresh unsharded oracle over the
//! same edge list.

use hector_graph::{EdgeSplice, HeteroGraph, NodeMap};
use hector_runtime::HectorError;

/// A batch of structural updates (edge/node inserts and deletes),
/// applied atomically by [`ShardedGraph::apply`](crate::ShardedGraph::apply).
#[derive(Clone, Debug, Default)]
pub struct DeltaBatch {
    /// Edges to insert, `(src, dst, etype)`, appended at their relation
    /// segment's end in call order.
    pub add_edges: Vec<(u32, u32, u32)>,
    /// Edges to delete, matched by `(src, dst, etype)`; each entry
    /// removes one matching edge (the earliest surviving match).
    pub remove_edges: Vec<(u32, u32, u32)>,
    /// Node types of nodes to insert (each appended at its type
    /// segment's end).
    pub add_nodes: Vec<u32>,
    /// Node ids to delete, along with every incident edge.
    pub remove_nodes: Vec<u32>,
}

impl DeltaBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Queues one edge insertion. `src`/`dst` may be provisional ids of
    /// nodes added by this batch (see the module docs).
    #[must_use]
    pub fn add_edge(mut self, src: u32, dst: u32, etype: u32) -> Self {
        self.add_edges.push((src, dst, etype));
        self
    }

    /// Queues one edge deletion, matched by `(src, dst, etype)`.
    #[must_use]
    pub fn remove_edge(mut self, src: u32, dst: u32, etype: u32) -> Self {
        self.remove_edges.push((src, dst, etype));
        self
    }

    /// Queues one node insertion of the given node type. Node ids are
    /// type-grouped, so this shifts every later node id — a batch with
    /// node operations always forces a full re-partition.
    #[must_use]
    pub fn add_node(mut self, ntype: u32) -> Self {
        self.add_nodes.push(ntype);
        self
    }

    /// Queues one node deletion (plus all incident edges). Forces a full
    /// re-partition like [`DeltaBatch::add_node`].
    #[must_use]
    pub fn remove_node(mut self, id: u32) -> Self {
        self.remove_nodes.push(id);
        self
    }

    /// Total queued operations.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.add_edges.len()
            + self.remove_edges.len()
            + self.add_nodes.len()
            + self.remove_nodes.len()
    }

    /// Whether the batch contains node insertions/deletions (which force
    /// a full re-partition when applied).
    #[must_use]
    pub fn has_node_ops(&self) -> bool {
        !self.add_nodes.is_empty() || !self.remove_nodes.is_empty()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops() == 0
    }

    /// Checks the batch against the graph it is about to be applied to,
    /// without changing anything: every condition under which
    /// [`ShardedGraph::apply`](crate::ShardedGraph::apply) would panic
    /// is reported here instead, and
    /// [`ShardedGraph::try_apply`](crate::ShardedGraph::try_apply) runs
    /// the same check. Only the relations that removals name are
    /// scanned.
    ///
    /// # Errors
    ///
    /// [`HectorError::InvalidDelta`] for the first problem found: a node
    /// removal or inserted node type out of range, a batch that removes
    /// every node and adds none, an edge insert whose relation is out of
    /// range or whose endpoint is neither a surviving node nor a node
    /// this batch adds, or an edge removal left without a distinct
    /// matching edge (its relation is out of range, nothing matches, or
    /// more removals name a key than the graph has edges with it).
    pub fn validate(&self, graph: &HeteroGraph) -> Result<(), HectorError> {
        self.claim(graph).map(drop)
    }

    /// Checks the batch against `graph` and splices it: the post-delta
    /// graph and the edge renumbering. The one way a batch applies.
    pub(crate) fn splice(
        &self,
        graph: &HeteroGraph,
    ) -> Result<(HeteroGraph, EdgeSplice), HectorError> {
        let claim = self.claim(graph)?;
        Ok(graph.splice_edges(&claim.edges, &claim.inserts, claim.nodes.as_ref()))
    }

    /// [`DeltaBatch::validate`]'s check, returning on success what the
    /// splice reads ([`Claim`]).
    pub(crate) fn claim(&self, graph: &HeteroGraph) -> Result<Claim, HectorError> {
        let invalid = |detail: String| Err(HectorError::InvalidDelta { detail });
        let (n, ntypes, nrel) = (
            graph.num_nodes(),
            graph.num_node_types(),
            graph.num_edge_types(),
        );
        if let Some(v) = self.remove_nodes.iter().find(|&&v| v as usize >= n) {
            return invalid(format!("node removal {v} out of range for {n} nodes"));
        }
        if let Some(t) = self.add_nodes.iter().find(|&&t| t as usize >= ntypes) {
            return invalid(format!("node insert type {t} out of range for {ntypes}"));
        }
        let mut removed = self.remove_nodes.clone();
        removed.sort_unstable();
        removed.dedup();
        if !removed.is_empty() && removed.len() == n && self.add_nodes.is_empty() {
            return invalid(format!("the batch removes all {n} nodes and adds none"));
        }
        let ids = n + self.add_nodes.len();
        for &(s, d, t) in &self.add_edges {
            if t as usize >= nrel {
                return invalid(format!("edge insert relation {t} out of range for {nrel}"));
            }
            if s as usize >= ids || d as usize >= ids {
                return invalid(format!(
                    "edge insert ({s}, {d}) out of range for {n} nodes and {} added",
                    self.add_nodes.len()
                ));
            }
            if let Some(v) = [s, d]
                .into_iter()
                .find(|v| removed.binary_search(v).is_ok())
            {
                return invalid(format!(
                    "edge insert ({s}, {d}) references removed node {v}"
                ));
            }
        }
        if let Some(key) = self.remove_edges.iter().find(|k| k.2 as usize >= nrel) {
            return invalid(format!(
                "edge removal {key:?}: relation out of range for {nrel}"
            ));
        }

        // Each removal claims one distinct matching edge. The distinct
        // keys, as (etype, dst, src) with how often each is named, sort
        // by relation; one scan of each named relation claims the
        // earliest matches of its keys.
        let mut keys: Vec<(u32, u32, u32)> = self
            .remove_edges
            .iter()
            .map(|&(s, d, t)| (t, d, s))
            .collect();
        keys.sort_unstable();
        let mut wanted: Vec<((u32, u32, u32), usize)> = Vec::new();
        for key in keys {
            match wanted.last_mut() {
                Some((k, c)) if *k == key => *c += 1,
                _ => wanted.push((key, 1)),
            }
        }
        let mut found = vec![0usize; wanted.len()];
        let mut claimed = Vec::with_capacity(self.remove_edges.len());
        let (src, dst) = (graph.src(), graph.dst());
        let mut lo = 0;
        while lo < wanted.len() {
            let t = wanted[lo].0 .0;
            let hi = lo + wanted[lo..].partition_point(|w| w.0 .0 == t);
            let rel = &wanted[lo..hi];
            for e in graph.etype_ptr()[t as usize]..graph.etype_ptr()[t as usize + 1] {
                if let Ok(k) = rel.binary_search_by_key(&(t, dst[e], src[e]), |w| w.0) {
                    if found[lo + k] < rel[k].1 {
                        found[lo + k] += 1;
                        claimed.push(e as u32);
                    }
                }
            }
            lo = hi;
        }
        for &(s, d, t) in &self.remove_edges {
            let k = wanted
                .binary_search_by_key(&(t, d, s), |w| w.0)
                .expect("every removal is a key");
            let key = (s, d, t);
            if found[k] == 0 {
                return invalid(format!("edge removal {key:?} matches no edge in the graph"));
            }
            if found[k] < wanted[k].1 {
                return invalid(format!(
                    "edge removal {key:?} is queued {} times but matches {} edges",
                    wanted[k].1, found[k]
                ));
            }
        }
        let (nodes, inserts) = if self.has_node_ops() {
            let (nodes, provisional) = self.renumbering(graph, &removed);
            let resolve = |v: u32| match (v as usize).checked_sub(n) {
                Some(i) => provisional[i],
                None => nodes.old_to_new[v as usize],
            };
            let inserts = self
                .add_edges
                .iter()
                .map(|&(s, d, t)| (resolve(s), resolve(d), t))
                .collect();
            (Some(nodes), inserts)
        } else {
            (None, self.add_edges.clone())
        };
        Ok(Claim {
            edges: claimed,
            nodes,
            inserts,
        })
    }

    /// The batch's node renumbering over `graph`, whose nodes `removed`
    /// (ascending, distinct) go: per type, the surviving old nodes in
    /// ascending order, then this batch's added nodes of that type in
    /// call order. Also returns the new id of each provisional id.
    fn renumbering(&self, graph: &HeteroGraph, removed: &[u32]) -> (NodeMap, Vec<u32>) {
        let ntypes = graph.num_node_types();
        let mut old_to_new = vec![0u32; graph.num_nodes()];
        for &v in removed {
            old_to_new[v as usize] = NodeMap::REMOVED;
        }
        let mut added = vec![0u32; ntypes];
        for &t in &self.add_nodes {
            added[t as usize] += 1;
        }
        let (mut counts, mut first_added) = (vec![0usize; ntypes], vec![0u32; ntypes]);
        let mut next = 0u32;
        for t in 0..ntypes {
            let first = next;
            for m in &mut old_to_new[graph.ntype_ptr()[t]..graph.ntype_ptr()[t + 1]] {
                if *m != NodeMap::REMOVED {
                    *m = next;
                    next += 1;
                }
            }
            first_added[t] = next;
            next += added[t];
            counts[t] = (next - first) as usize;
        }
        let provisional = self
            .add_nodes
            .iter()
            .map(|&t| {
                first_added[t as usize] += 1;
                first_added[t as usize] - 1
            })
            .collect();
        (NodeMap { counts, old_to_new }, provisional)
    }
}

/// A batch checked against its graph: what
/// [`HeteroGraph::splice_edges`] reads to apply it.
pub(crate) struct Claim {
    /// The edges the removals claim, ascending: for each removal, the
    /// earliest matching edge no earlier removal of the same key took.
    pub(crate) edges: Vec<u32>,
    /// The node renumbering of a batch with node operations.
    pub(crate) nodes: Option<NodeMap>,
    /// The insertions in post-delta ids (provisional ids resolved).
    pub(crate) inserts: Vec<(u32, u32, u32)>,
}

/// What one [`ShardedGraph::apply`](crate::ShardedGraph::apply) did.
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// Graph version after the batch (monotonic; starts at 0 and bumps
    /// once per applied batch).
    pub version: u64,
    /// Operations applied.
    pub ops: usize,
    /// Whether node operations forced a full re-partition.
    pub repartitioned: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::{generate, DatasetSpec, HeteroGraphBuilder};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn graph() -> HeteroGraph {
        generate(&DatasetSpec {
            name: "delta".into(),
            num_nodes: 60,
            num_node_types: 2,
            num_edges: 300,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 5,
        })
    }

    #[test]
    fn batch_builder_counts_ops() {
        let b = DeltaBatch::new()
            .add_edge(0, 1, 0)
            .remove_edge(1, 2, 0)
            .add_node(0)
            .remove_node(3);
        assert_eq!(b.ops(), 4);
        assert!(b.has_node_ops());
        assert!(!b.is_empty());
        assert!(DeltaBatch::new().is_empty());
    }

    /// Multiset of pending edge removals keyed by `(src, dst, etype)`.
    fn removal_counts(batch: &DeltaBatch) -> HashMap<(u32, u32, u32), usize> {
        let mut m = HashMap::new();
        for &key in &batch.remove_edges {
            *m.entry(key).or_insert(0) += 1;
        }
        m
    }

    /// The removal claim as it was before the relation scan: the removal
    /// multiset probed at every edge, the earliest surviving match
    /// claimed. Panics if a removal is left unmatched.
    fn claimed_by_probe(g: &HeteroGraph, batch: &DeltaBatch) -> Vec<u32> {
        let mut pending = removal_counts(batch);
        let mut claimed = Vec::new();
        for e in 0..g.num_edges() {
            match pending.get_mut(&(g.src()[e], g.dst()[e], g.etype()[e])) {
                Some(c) if *c > 0 => {
                    *c -= 1;
                    claimed.push(e as u32);
                }
                _ => {}
            }
        }
        if let Some((key, _)) = pending.iter().find(|(_, &c)| c > 0) {
            panic!("edge removal {key:?} matches no edge in the graph");
        }
        claimed
    }

    /// The splice's reference: a fresh build of the post-delta graph.
    /// Removals are claimed by probing the removal multiset at every
    /// edge of every relation (the formulation the relation scan
    /// replaced); node ids are laid out from a removed-node mask, per
    /// type the survivors then the added nodes; the builder is fed the
    /// surviving edges, renumbered, then the insertions. Panics on a
    /// malformed batch. Returns the graph and the old→new edge id map.
    fn fresh_build(g: &HeteroGraph, batch: &DeltaBatch) -> (HeteroGraph, Vec<Option<u32>>) {
        let (n, nrel) = (g.num_nodes(), g.num_edge_types());
        let mut removed = vec![false; n];
        for &v in &batch.remove_nodes {
            removed[v as usize] = true;
        }
        let mut new_id = vec![None; n];
        let mut provisional = vec![0u32; batch.add_nodes.len()];
        let mut b = HeteroGraphBuilder::new();
        let mut next = 0u32;
        for t in 0..g.num_node_types() {
            let first = next;
            for v in g.ntype_ptr()[t]..g.ntype_ptr()[t + 1] {
                if !removed[v] {
                    new_id[v] = Some(next);
                    next += 1;
                }
            }
            for (i, _) in batch
                .add_nodes
                .iter()
                .enumerate()
                .filter(|a| *a.1 as usize == t)
            {
                provisional[i] = next;
                next += 1;
            }
            b.add_node_type((next - first) as usize);
        }
        assert!(
            batch
                .add_nodes
                .iter()
                .all(|&t| (t as usize) < g.num_node_types()),
            "node insert type out of range"
        );
        assert!(next > 0 || !batch.has_node_ops(), "every node removed");
        assert!(
            batch.add_edges.iter().all(|a| (a.2 as usize) < nrel),
            "edge insert relation out of range"
        );
        let resolve = |v: u32| match (v as usize).checked_sub(n) {
            Some(i) => provisional[i],
            None => new_id[v as usize].expect("edge insert references a removed node"),
        };
        b.reserve_edge_types(nrel);
        let mut pending = removal_counts(batch);
        let mut old_to_new = vec![None; g.num_edges()];
        let mut next = 0u32;
        for t in 0..nrel as u32 {
            #[allow(clippy::needless_range_loop)] // `e` indexes several parallel arrays
            for e in g.etype_ptr()[t as usize]..g.etype_ptr()[t as usize + 1] {
                let key = (g.src()[e], g.dst()[e], t);
                match pending.get_mut(&key) {
                    Some(c) if *c > 0 => *c -= 1, // the earliest survivor goes
                    _ => {
                        if let (Some(s), Some(d)) = (new_id[key.0 as usize], new_id[key.1 as usize])
                        {
                            b.add_edge(s, d, t);
                            old_to_new[e] = Some(next);
                            next += 1;
                        }
                    }
                }
            }
            for &(s, d, _) in batch.add_edges.iter().filter(|a| a.2 == t) {
                b.add_edge(resolve(s), resolve(d), t);
                next += 1;
            }
        }
        if let Some((key, _)) = pending.iter().find(|(_, &c)| c > 0) {
            panic!("edge removal {key:?} matches no edge in the graph");
        }
        (b.build(), old_to_new)
    }

    /// The splice's old→new edge map, as options.
    fn old_to_new(splice: &EdgeSplice) -> Vec<Option<u32>> {
        splice
            .old_to_new()
            .iter()
            .map(|&m| (m != EdgeSplice::REMOVED).then_some(m))
            .collect()
    }

    /// A small multigraph: few nodes, so parallel duplicate edges and
    /// repeated keys are common; `spare` relations stay empty.
    fn arb_multigraph() -> impl Strategy<Value = HeteroGraph> {
        (
            proptest::collection::vec(1usize..6, 1..4),
            1u32..5,
            0usize..3,
            proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..90),
        )
            .prop_map(|(types, rels, spare, edges)| {
                let mut b = HeteroGraphBuilder::new();
                for &c in &types {
                    b.add_node_type(c);
                }
                let n: usize = types.iter().sum();
                b.reserve_edge_types(rels as usize + spare);
                for (s, d, t) in edges {
                    b.add_edge(s % n as u32, d % n as u32, t % rels);
                }
                b.build()
            })
    }

    /// An edge-only batch: removals of distinct existing edges (so a key
    /// with parallel copies can be named several times), in a shuffled
    /// order, plus insertions that may duplicate existing edges.
    fn arb_edge_batch(g: &HeteroGraph, picks: &[(u32, u32, u32)], adds: usize) -> DeltaBatch {
        let (n, e, r) = (
            g.num_nodes() as u32,
            g.num_edges(),
            g.num_edge_types() as u32,
        );
        let mut batch = DeltaBatch::new();
        let mut taken = vec![false; e];
        for &(pick, _, _) in picks.iter().filter(|_| e > 0) {
            let victim = pick as usize % e;
            if !std::mem::replace(&mut taken[victim], true) {
                batch = batch.remove_edge(g.src()[victim], g.dst()[victim], g.etype()[victim]);
            }
        }
        for &(_, s, d) in picks.iter().take(adds) {
            let copy = s as usize % (e + 1);
            batch = if copy < e && d % 2 == 0 {
                batch.add_edge(g.src()[copy], g.dst()[copy], g.etype()[copy])
            } else {
                batch.add_edge(s % n, d % n, (s ^ d) % r)
            };
        }
        batch
    }

    proptest! {
        /// The splice must be indistinguishable from building the
        /// post-delta edge list from scratch with the same ordering
        /// rules, and its old→new map must name the same survivors.
        #[test]
        fn splice_matches_fresh_build(
            g in arb_multigraph(),
            picks in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..12),
            adds in 0usize..12,
        ) {
            let batch = arb_edge_batch(&g, &picks, adds);
            let claim = batch.claim(&g).expect("a batch of existing edges");
            prop_assert_eq!(&claim.edges, &claimed_by_probe(&g, &batch));
            let (spliced, splice) = batch.splice(&g).unwrap();
            let old_to_new = old_to_new(&splice);
            let (fresh, fresh_old_to_new) = fresh_build(&g, &batch);
            prop_assert_eq!(spliced.src(), fresh.src());
            prop_assert_eq!(spliced.dst(), fresh.dst());
            prop_assert_eq!(spliced.etype(), fresh.etype());
            prop_assert_eq!(spliced.etype_ptr(), fresh.etype_ptr());
            prop_assert_eq!(&old_to_new, &fresh_old_to_new);
            prop_assert_eq!(
                old_to_new.iter().filter(|m| m.is_none()).count(),
                batch.remove_edges.len()
            );

            // One removal more of a named key than the graph holds is
            // rejected up front.
            if let Some(&key) = batch.remove_edges.first() {
                let copies = (0..g.num_edges())
                    .filter(|&e| (g.src()[e], g.dst()[e], g.etype()[e]) == key)
                    .count();
                let named = batch.remove_edges.iter().filter(|&&k| k == key).count();
                let mut over = batch.clone();
                for _ in named..=copies {
                    over = over.remove_edge(key.0, key.1, key.2);
                }
                prop_assert!(over.validate(&g).is_err());
            }
        }
    }

    /// Any batch over `g`: ids in `0..n + 4` (past the end, or
    /// provisional), relations and node types up to two past the end,
    /// removals of existing edges and of arbitrary keys, node adds and
    /// removes — every kind mixed in one batch.
    fn arb_any_batch(g: &HeteroGraph, ops: &[(u8, u32, u32, u32)]) -> DeltaBatch {
        let (n, e) = (g.num_nodes() as u32, g.num_edges());
        let (r, nt) = (g.num_edge_types() as u32, g.num_node_types() as u32);
        ops.iter().fold(DeltaBatch::new(), |b, &(kind, s, d, t)| {
            let (s, d) = (s % (n + 4), d % (n + 4));
            match kind {
                0 | 1 => b.add_edge(s, d, t % (r + 2)),
                2 if e > 0 => {
                    let v = t as usize % e;
                    b.remove_edge(g.src()[v], g.dst()[v], g.etype()[v])
                }
                2 | 3 => b.remove_edge(s, d, t % (r + 2)),
                4 => b.add_node(t % (nt + 2)),
                _ => b.remove_node(s),
            }
        })
    }

    proptest! {
        /// `validate` is exactly the reference's panic condition: a batch
        /// it accepts splices, node operations and all, to what the
        /// reference builds, with the expected node and edge counts, and
        /// a batch it rejects makes the reference panic.
        #[test]
        fn validate_accepts_exactly_the_batches_that_apply(
            g in arb_multigraph(),
            ops in proptest::collection::vec(
                (0u8..6, any::<u32>(), any::<u32>(), any::<u32>()),
                0..10,
            ),
        ) {
            let batch = arb_any_batch(&g, &ops);
            let reference = std::panic::catch_unwind(|| fresh_build(&g, &batch));
            let verdict = batch.splice(&g);
            prop_assert_eq!(verdict.is_ok(), reference.is_ok(), "{:?}: {:?}", batch, verdict.err());
            prop_assert_eq!(batch.validate(&g).is_ok(), reference.is_ok());
            if let (Ok((next, splice)), Ok((fresh, fresh_old_to_new))) = (verdict, reference) {
                prop_assert_eq!(&next, &fresh);
                prop_assert_eq!(old_to_new(&splice), fresh_old_to_new);
                let mut gone = batch.remove_nodes.clone();
                gone.sort_unstable();
                gone.dedup();
                prop_assert_eq!(
                    next.num_nodes(),
                    g.num_nodes() + batch.add_nodes.len() - gone.len()
                );
                prop_assert_eq!(next.num_edge_types(), g.num_edge_types());
                if !batch.has_node_ops() {
                    prop_assert_eq!(
                        next.num_edges(),
                        g.num_edges() + batch.add_edges.len() - batch.remove_edges.len()
                    );
                }
            }
        }
    }

    /// A batch with node operations that `validate` accepts: removals of
    /// distinct existing edges, the removal of the first removed edge's
    /// source (a removed node with a claimed incident edge) and of a few
    /// more nodes, the node insertions `added`, an edge from the first
    /// added node to the last (provisional ids on both endpoints), and
    /// insertions between surviving or added nodes.
    fn arb_node_batch(g: &HeteroGraph, picks: &[(u32, u32, u32)], added: &[u32]) -> DeltaBatch {
        let (n, r, nt) = (
            g.num_nodes() as u32,
            g.num_edge_types() as u32,
            g.num_node_types() as u32,
        );
        let mut batch = arb_edge_batch(g, picks, 0);
        if let Some(&(s, _, _)) = batch.remove_edges.first() {
            batch = batch.remove_node(s);
        }
        for &(v, _, _) in picks.iter().step_by(4) {
            batch = batch.remove_node(v % n);
        }
        for &t in added {
            batch = batch.add_node(t % nt);
        }
        let last = n + added.len() as u32 - 1;
        batch = batch.add_edge(n, last, last % r);
        let alive: Vec<u32> = (0..=last)
            .filter(|v| !batch.remove_nodes.contains(v))
            .collect();
        for &(s, d, t) in picks {
            let at = |v: u32| alive[v as usize % alive.len()];
            batch = batch.add_edge(at(s), at(d), t % r);
        }
        batch
    }

    proptest! {
        /// Every accepted node batch splices to exactly what a builder
        /// fed the surviving edges, renumbered, and then the insertions
        /// makes, and its edge map names the same survivors.
        #[test]
        fn node_batches_splice_to_a_fresh_build(
            g in arb_multigraph(),
            picks in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..12),
            added in proptest::collection::vec(any::<u32>(), 1..4),
        ) {
            let batch = arb_node_batch(&g, &picks, &added);
            prop_assert!(batch.validate(&g).is_ok(), "{:?}", batch);
            let (spliced, splice) = batch.splice(&g).unwrap();
            let (fresh, fresh_old_to_new) = fresh_build(&g, &batch);
            prop_assert_eq!(&spliced, &fresh);
            prop_assert_eq!(old_to_new(&splice), fresh_old_to_new);
            prop_assert!(splice.removed().windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(splice.inserted().len(), batch.add_edges.len());
            prop_assert_eq!(
                spliced.num_edges(),
                g.num_edges() - splice.removed().len() + batch.add_edges.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "matches no edge")]
    fn removing_a_missing_edge_panics() {
        let g = graph();
        // (src, dst) pair guaranteed absent: self-loop on the last node
        // with relation 0 would be a coincidence; use an exhaustive miss.
        let miss = (0..g.num_nodes() as u32)
            .flat_map(|s| (0..g.num_nodes() as u32).map(move |d| (s, d)))
            .find(|&(s, d)| {
                !(0..g.num_edges()).any(|e| g.src()[e] == s && g.dst()[e] == d && g.etype()[e] == 0)
            })
            .expect("graph is not complete");
        let mut sharded = crate::ShardedGraph::partition(
            g,
            Box::new(crate::RangePartitioner),
            crate::ShardConfig::new(2),
        );
        let _ = sharded.apply(&DeltaBatch::new().remove_edge(miss.0, miss.1, 0));
    }

    #[test]
    fn node_batches_shift_ids_and_drop_incident_edges() {
        let g = graph();
        let victim = 0u32; // first node of type 0
        let incident = (0..g.num_edges())
            .filter(|&e| g.src()[e] == victim || g.dst()[e] == victim)
            .count();
        let prov = g.num_nodes() as u32; // provisional id of the added node
        let batch = DeltaBatch::new()
            .remove_node(victim)
            .add_node(1)
            .add_edge(prov, prov, 2); // self-loop on the new node
        let (spliced, _) = batch.splice(&g).unwrap();
        spliced.validate();
        assert_eq!(spliced.num_nodes(), g.num_nodes());
        assert_eq!(spliced.nodes_of_type(0), g.nodes_of_type(0) - 1);
        assert_eq!(spliced.nodes_of_type(1), g.nodes_of_type(1) + 1);
        assert_eq!(spliced.num_edges(), g.num_edges() - incident + 1);
        // The added node sits at the end of type 1's segment, carrying
        // the new self-loop.
        let new_id = (spliced.ntype_ptr()[2] - 1) as u32;
        assert!((0..spliced.num_edges())
            .any(|e| spliced.src()[e] == new_id && spliced.dst()[e] == new_id));
    }

    #[test]
    fn validate_reports_every_panic_condition_as_an_error() {
        let g = graph();
        let (n, r) = (g.num_nodes() as u32, g.num_edge_types() as u32);
        let (s, d, t) = (g.src()[0], g.dst()[0], g.etype()[0]);
        let prov = n; // provisional id of the batch's first added node
        let ok = [
            DeltaBatch::new().remove_edge(s, d, t).add_edge(0, 1, 0),
            DeltaBatch::new()
                .add_node(1)
                .add_edge(prov, 0, 0)
                .remove_node(5)
                .remove_edge(s, d, t),
        ];
        for batch in &ok {
            assert_eq!(batch.validate(&g), Ok(()));
        }
        let bad = [
            DeltaBatch::new().add_edge(0, n, 0),
            DeltaBatch::new().add_edge(0, 1, r),
            DeltaBatch::new().remove_edge(s, d, r),
            DeltaBatch::new().remove_node(n),
            DeltaBatch::new().add_node(g.num_node_types() as u32),
            DeltaBatch::new().add_node(0).add_edge(prov + 1, 0, 0),
            DeltaBatch::new().remove_node(4).add_edge(4, 0, 0),
            DeltaBatch::new().remove_node(4).add_edge(0, 4, 0),
        ];
        for batch in &bad {
            let err = batch.validate(&g).unwrap_err();
            assert_eq!(err.kind(), "invalid_delta", "{err}");
        }
    }
}
