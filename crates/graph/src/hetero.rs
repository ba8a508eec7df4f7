//! The [`HeteroGraph`] type and its adjacency views.

use crate::CompactionMap;

/// A heterogeneous graph in the storage layout Hector's kernels consume.
///
/// Invariants checked by [`HeteroGraph::validate`] in its one
/// constructor, [`HeteroGraph::from_relation_parts`], which the builder,
/// the edge splice and extraction all end in:
///
/// * nodes are numbered `0..num_nodes` and **sorted by node type**, with
///   `ntype_ptr` delimiting each type's contiguous id range (this is the
///   "nodes are presorted to enable segment MM" convention of paper §4.1);
/// * edges are **sorted by edge type**, with `etype_ptr[t]..etype_ptr[t+1]`
///   delimiting the edges of type `t` (Fig. 5's "Layout choices");
/// * `src`, `dst`, `etype` are parallel arrays (COO encoding).
#[derive(Clone, Debug, PartialEq)]
pub struct HeteroGraph {
    num_node_types: usize,
    num_edge_types: usize,
    node_type: Vec<u32>,
    ntype_ptr: Vec<usize>,
    src: Vec<u32>,
    dst: Vec<u32>,
    etype: Vec<u32>,
    etype_ptr: Vec<usize>,
}

impl HeteroGraph {
    /// Assembles a graph from relation-sorted parts:
    /// `node_type_counts[t]` nodes of type `t`, and parallel `src` /
    /// `dst` arrays whose edges of relation `t` occupy
    /// `etype_ptr[t]..etype_ptr[t + 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `etype_ptr` does not delimit the edge arrays, or (through
    /// [`HeteroGraph::validate`]) if an endpoint is out of range.
    #[must_use]
    pub fn from_relation_parts(
        node_type_counts: &[usize],
        etype_ptr: Vec<usize>,
        src: Vec<u32>,
        dst: Vec<u32>,
    ) -> HeteroGraph {
        assert_eq!(etype_ptr.first(), Some(&0), "etype_ptr starts at 0");
        assert_eq!(etype_ptr.last(), Some(&src.len()), "etype_ptr ends at E");
        let mut ntype_ptr = vec![0usize; node_type_counts.len() + 1];
        for (t, &c) in node_type_counts.iter().enumerate() {
            ntype_ptr[t + 1] = ntype_ptr[t] + c;
        }
        let mut node_type = vec![0u32; ntype_ptr[node_type_counts.len()]];
        for t in 0..node_type_counts.len() {
            node_type[ntype_ptr[t]..ntype_ptr[t + 1]].fill(t as u32);
        }
        let mut etype = vec![0u32; src.len()];
        for (t, w) in etype_ptr.windows(2).enumerate() {
            etype[w[0]..w[1]].fill(t as u32);
        }
        let g = HeteroGraph {
            num_node_types: node_type_counts.len(),
            num_edge_types: etype_ptr.len() - 1,
            node_type,
            ntype_ptr,
            src,
            dst,
            etype,
            etype_ptr,
        };
        g.validate();
        g
    }

    /// Removes the edges `removed` (ids, strictly ascending) and appends
    /// `inserts` (`(src, dst, etype)`) at their relation segment's end in
    /// call order. Surviving edges keep their relative order within every
    /// relation, so the result equals a builder fed the survivors and
    /// then the insertions. Returns the new graph and the id renumbering
    /// ([`EdgeSplice`]) the index derivations ([`Csc::spliced`],
    /// [`CompactionMap::spliced`]) read.
    ///
    /// Without `nodes` the node set is kept and the runs between removals
    /// are written by bulk copies. With `nodes` the survivors' endpoints
    /// are renumbered through it during the copy, an edge incident to a
    /// node it removes drops too (and is listed in
    /// [`EdgeSplice::removed`]), and `inserts` name new ids.
    ///
    /// # Panics
    ///
    /// Panics if a removed id or an insert's relation is out of range, or
    /// an inserted endpoint is not a node.
    #[must_use]
    pub fn splice_edges(
        &self,
        removed: &[u32],
        inserts: &[(u32, u32, u32)],
        nodes: Option<&NodeMap>,
    ) -> (HeteroGraph, EdgeSplice) {
        debug_assert!(removed.windows(2).all(|w| w[0] < w[1]));
        let nrel = self.num_edge_types;
        let mut adds = inserts.to_vec();
        adds.sort_by_key(|&(_, _, t)| t); // stable: call order within a relation
        if let Some(&(_, _, t)) = adds.last() {
            assert!((t as usize) < nrel, "edge insert relation {t} out of range");
        }
        let cap = self.num_edges() - removed.len() + adds.len();
        let (mut src, mut dst) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut etype_ptr = Vec::with_capacity(nrel + 1);
        etype_ptr.push(0);
        let mut old_to_new = vec![EdgeSplice::REMOVED; self.num_edges()];
        let mut dropped = Vec::with_capacity(removed.len());
        let mut inserted = Vec::with_capacity(adds.len());
        let mut gone = removed.iter().map(|&e| e as usize).peekable();
        let mut added = adds.iter().peekable();
        for t in 0..nrel {
            let (mut run, hi) = (self.etype_ptr[t], self.etype_ptr[t + 1]);
            loop {
                let end = gone.next_if(|&e| e < hi).unwrap_or(hi);
                if let Some(map) = nodes {
                    #[allow(clippy::needless_range_loop)] // `e` indexes several parallel arrays
                    for e in run..end {
                        let s = map.old_to_new[self.src[e] as usize];
                        let d = map.old_to_new[self.dst[e] as usize];
                        if s == NodeMap::REMOVED || d == NodeMap::REMOVED {
                            dropped.push(e as u32);
                            continue;
                        }
                        old_to_new[e] = src.len() as u32;
                        src.push(s);
                        dst.push(d);
                    }
                } else {
                    let base = src.len();
                    src.extend_from_slice(&self.src[run..end]);
                    dst.extend_from_slice(&self.dst[run..end]);
                    for (i, m) in old_to_new[run..end].iter_mut().enumerate() {
                        *m = (base + i) as u32;
                    }
                }
                if end == hi {
                    break;
                }
                dropped.push(end as u32);
                run = end + 1;
            }
            while let Some(&(s, d, _)) = added.next_if(|a| a.2 as usize == t) {
                inserted.push(src.len() as u32);
                src.push(s);
                dst.push(d);
            }
            etype_ptr.push(src.len());
        }
        assert!(gone.next().is_none(), "removed edge id out of range");
        let counts: Vec<usize> = match nodes {
            Some(map) => map.counts.clone(),
            None => (0..self.num_node_types)
                .map(|t| self.nodes_of_type(t))
                .collect(),
        };
        let splice = EdgeSplice {
            old_to_new,
            removed: dropped,
            inserted,
        };
        (
            HeteroGraph::from_relation_parts(&counts, etype_ptr, src, dst),
            splice,
        )
    }

    /// Total number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.node_type.len()
    }

    /// Total number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Number of node types.
    #[must_use]
    pub fn num_node_types(&self) -> usize {
        self.num_node_types
    }

    /// Number of edge types (relations).
    #[must_use]
    pub fn num_edge_types(&self) -> usize {
        self.num_edge_types
    }

    /// Per-node type array (non-decreasing by construction).
    #[must_use]
    pub fn node_type(&self) -> &[u32] {
        &self.node_type
    }

    /// Node-type segment offsets: nodes of type `t` occupy ids
    /// `ntype_ptr[t]..ntype_ptr[t+1]`.
    #[must_use]
    pub fn ntype_ptr(&self) -> &[usize] {
        &self.ntype_ptr
    }

    /// Source node of each edge (COO, sorted by edge type).
    #[must_use]
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// Destination node of each edge (COO, sorted by edge type).
    #[must_use]
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Edge type of each edge (non-decreasing by construction).
    #[must_use]
    pub fn etype(&self) -> &[u32] {
        &self.etype
    }

    /// Edge-type segment offsets: edges of type `t` occupy indices
    /// `etype_ptr[t]..etype_ptr[t+1]` (the paper's `etype_ptr`).
    #[must_use]
    pub fn etype_ptr(&self) -> &[usize] {
        &self.etype_ptr
    }

    /// Number of edges of type `t`.
    #[must_use]
    pub fn edges_of_type(&self, t: usize) -> usize {
        self.etype_ptr[t + 1] - self.etype_ptr[t]
    }

    /// Number of nodes of type `t`.
    #[must_use]
    pub fn nodes_of_type(&self, t: usize) -> usize {
        self.ntype_ptr[t + 1] - self.ntype_ptr[t]
    }

    /// Average in-degree (`num_edges / num_nodes`).
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Builds the compaction map of unique `(source node, edge type)`
    /// pairs (paper §3.2.2). O(E + N).
    #[must_use]
    pub fn compaction_map(&self) -> CompactionMap {
        CompactionMap::build(self)
    }

    /// Builds the CSR view (outgoing edges grouped by source node).
    #[must_use]
    pub fn csr(&self) -> Csr {
        Csr::build(self.num_nodes(), &self.src)
    }

    /// Builds the CSC view (incoming edges grouped by destination node),
    /// which node-aggregation traversal kernels iterate.
    #[must_use]
    pub fn csc(&self) -> Csc {
        let csr = Csr::build(self.num_nodes(), &self.dst);
        Csc {
            ptr: csr.ptr,
            edge_idx: csr.edge_idx,
        }
    }

    /// In-degree of each node per relation, as a flat `[node][etype]`
    /// lookup used for RGCN's `1/c_{v,r}` normalisation. Returned as a
    /// closure-friendly dense vector only when small; callers with large
    /// graphs should use [`HeteroGraph::in_degree`] instead.
    #[must_use]
    pub fn in_degree_per_rel(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes() * self.num_edge_types];
        for e in 0..self.num_edges() {
            deg[self.dst[e] as usize * self.num_edge_types + self.etype[e] as usize] += 1;
        }
        deg
    }

    /// In-degree of each node (all relations).
    #[must_use]
    pub fn in_degree(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes()];
        for &d in &self.dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Checks every structural invariant; run by
    /// [`HeteroGraph::from_relation_parts`] on every graph it assembles.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) {
        assert_eq!(self.ntype_ptr.len(), self.num_node_types + 1);
        assert_eq!(self.etype_ptr.len(), self.num_edge_types + 1);
        assert_eq!(*self.ntype_ptr.last().unwrap(), self.num_nodes());
        assert_eq!(*self.etype_ptr.last().unwrap(), self.num_edges());
        assert_eq!(self.src.len(), self.dst.len());
        assert_eq!(self.src.len(), self.etype.len());
        for w in self.node_type.windows(2) {
            assert!(w[0] <= w[1], "node types must be sorted");
        }
        for w in self.etype.windows(2) {
            assert!(w[0] <= w[1], "edge types must be sorted");
        }
        for t in 0..self.num_edge_types {
            for e in self.etype_ptr[t]..self.etype_ptr[t + 1] {
                assert_eq!(
                    self.etype[e] as usize, t,
                    "etype_ptr inconsistent at edge {e}"
                );
            }
        }
        for (t, &p) in self.ntype_ptr.iter().enumerate().take(self.num_node_types) {
            for n in p..self.ntype_ptr[t + 1] {
                assert_eq!(
                    self.node_type[n] as usize, t,
                    "ntype_ptr inconsistent at node {n}"
                );
            }
        }
        let nn = self.num_nodes() as u32;
        assert!(self.src.iter().all(|&s| s < nn), "src out of range");
        assert!(self.dst.iter().all(|&d| d < nn), "dst out of range");
    }
}

/// Compressed sparse row view: edges grouped by a key node (source for
/// CSR proper). `edge_idx[ptr[v]..ptr[v+1]]` are indices into the COO
/// arrays of the owning [`HeteroGraph`].
#[derive(Clone, Debug)]
pub struct Csr {
    /// Row offsets, length `num_nodes + 1`.
    pub ptr: Vec<usize>,
    /// Edge indices into the parallel COO arrays.
    pub edge_idx: Vec<u32>,
}

impl Csr {
    fn build(num_nodes: usize, key: &[u32]) -> Csr {
        let mut ptr = vec![0usize; num_nodes + 1];
        for &k in key {
            ptr[k as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            ptr[i + 1] += ptr[i];
        }
        let mut cursor = ptr.clone();
        let mut edge_idx = vec![0u32; key.len()];
        for (e, &k) in key.iter().enumerate() {
            edge_idx[cursor[k as usize]] = e as u32;
            cursor[k as usize] += 1;
        }
        Csr { ptr, edge_idx }
    }

    /// Edge indices incident to node `v`.
    #[must_use]
    pub fn edges(&self, v: usize) -> &[u32] {
        &self.edge_idx[self.ptr[v]..self.ptr[v + 1]]
    }
}

/// Compressed sparse column view (incoming edges by destination node).
#[derive(Clone, Debug, PartialEq)]
pub struct Csc {
    /// Column offsets, length `num_nodes + 1`.
    pub ptr: Vec<usize>,
    /// Edge indices into the parallel COO arrays.
    pub edge_idx: Vec<u32>,
}

impl Csc {
    /// Edge indices whose destination is node `v`.
    #[must_use]
    pub fn in_edges(&self, v: usize) -> &[u32] {
        &self.edge_idx[self.ptr[v]..self.ptr[v + 1]]
    }

    /// The CSC of `new`, which `splice` made from the graph this view
    /// indexes, without a rebuild: every in-edge list is remapped through
    /// the splice's old→new ids (survivors keep their ascending order),
    /// and only a destination that gained an edge re-sorts its list.
    /// Equal to `new.csc()`.
    #[must_use]
    pub fn spliced(&self, new: &HeteroGraph, splice: &EdgeSplice) -> Csc {
        let n = self.ptr.len() - 1;
        let mut gained: Vec<(u32, u32)> = splice
            .inserted
            .iter()
            .map(|&e| (new.dst()[e as usize], e))
            .collect();
        gained.sort_unstable();
        let mut gained = gained.into_iter().peekable();
        let mut ptr = Vec::with_capacity(n + 1);
        let mut edge_idx = Vec::with_capacity(new.num_edges());
        for v in 0..n {
            let start = edge_idx.len();
            ptr.push(start);
            for &e in self.in_edges(v) {
                let e = splice.old_to_new[e as usize];
                if e != EdgeSplice::REMOVED {
                    edge_idx.push(e);
                }
            }
            let mut grew = false;
            while let Some((_, e)) = gained.next_if(|&(d, _)| d as usize == v) {
                edge_idx.push(e);
                grew = true;
            }
            if grew {
                edge_idx[start..].sort_unstable();
            }
        }
        ptr.push(edge_idx.len());
        Csc { ptr, edge_idx }
    }
}

/// How [`HeteroGraph::splice_edges`] renumbered a graph's edges: the
/// input of the index derivations that carry a graph's CSC and
/// compaction map across an edge-only splice.
#[derive(Clone, Debug)]
pub struct EdgeSplice {
    old_to_new: Vec<u32>,
    removed: Vec<u32>,
    inserted: Vec<u32>,
}

impl EdgeSplice {
    /// The [`EdgeSplice::old_to_new`] entry of a removed edge.
    pub const REMOVED: u32 = u32::MAX;

    /// New id of each old edge, or [`EdgeSplice::REMOVED`]. Increasing
    /// over the survivors.
    #[must_use]
    pub fn old_to_new(&self) -> &[u32] {
        &self.old_to_new
    }

    /// Old ids of the removed edges, ascending: the named ones and,
    /// under a [`NodeMap`], those incident to a removed node.
    #[must_use]
    pub fn removed(&self) -> &[u32] {
        &self.removed
    }

    /// New ids of the inserted edges, ascending.
    #[must_use]
    pub fn inserted(&self) -> &[u32] {
        &self.inserted
    }
}

/// A renumbering of a graph's nodes, the node input of
/// [`HeteroGraph::splice_edges`]: how many nodes of each type the spliced
/// graph has, and where each old node lands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMap {
    /// Nodes of each type in the spliced graph.
    pub counts: Vec<usize>,
    /// New id of each old node, or [`NodeMap::REMOVED`].
    pub old_to_new: Vec<u32>,
}

impl NodeMap {
    /// The [`NodeMap::old_to_new`] entry of a removed node.
    pub const REMOVED: u32 = u32::MAX;
}

/// Incremental builder for [`HeteroGraph`].
///
/// Edges may be added in any order; [`HeteroGraphBuilder::build`] sorts by
/// edge type (stable, preserving insertion order within a type) and
/// produces the segment pointers.
#[derive(Clone, Debug, Default)]
pub struct HeteroGraphBuilder {
    node_type_counts: Vec<usize>,
    edges: Vec<(u32, u32, u32)>,
    min_edge_types: usize,
}

impl HeteroGraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `count` nodes of a new node type; returns the id range of
    /// the declared nodes as `(first, last_exclusive)`.
    pub fn add_node_type(&mut self, count: usize) -> (u32, u32) {
        let first: usize = self.node_type_counts.iter().sum();
        self.node_type_counts.push(count);
        (first as u32, (first + count) as u32)
    }

    /// Adds an edge `src --etype--> dst`.
    pub fn add_edge(&mut self, src: u32, dst: u32, etype: u32) {
        self.edges.push((src, dst, etype));
    }

    /// Forces the built graph to declare at least `n` edge types, even if
    /// some of them end up with zero edges (their `etype_ptr` segments are
    /// empty). Subgraph extraction relies on this: a sampled minibatch
    /// must keep the full graph's relation count so per-relation weight
    /// stacks keep their shapes across batches.
    pub fn reserve_edge_types(&mut self, n: usize) {
        self.min_edge_types = self.min_edge_types.max(n);
    }

    /// Finalises the graph: a stable counting sort by edge type, so
    /// insertion order survives within every relation.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    #[must_use]
    pub fn build(self) -> HeteroGraph {
        let num_edge_types = self
            .edges
            .iter()
            .map(|&(_, _, t)| t as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_edge_types);
        let mut etype_ptr = vec![0usize; num_edge_types + 1];
        for &(_, _, t) in &self.edges {
            etype_ptr[t as usize + 1] += 1;
        }
        for t in 0..num_edge_types {
            etype_ptr[t + 1] += etype_ptr[t];
        }
        let mut cursor = etype_ptr.clone();
        let (mut src, mut dst) = (vec![0u32; self.edges.len()], vec![0u32; self.edges.len()]);
        for &(s, d, t) in &self.edges {
            let c = &mut cursor[t as usize];
            src[*c] = s;
            dst[*c] = d;
            *c += 1;
        }
        HeteroGraph::from_relation_parts(&self.node_type_counts, etype_ptr, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of paper Fig. 6(a): a citation graph with paper
    /// nodes {0,1,2,a,b} and author node {α}; relations writes/cites/employs.
    pub(crate) fn figure6_graph() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new();
        let (_p0, _) = b.add_node_type(5); // papers: ids 0..5 (0,1,2,a=3,b=4)
        let (alpha, _) = b.add_node_type(1); // author: id 5 (α)
                                             // writes: α→a, α→b ; cites: 1→0, 2→0, a→0, b→1, b→2 ; employs: none
        b.add_edge(alpha, 3, 0); // writes
        b.add_edge(alpha, 4, 0); // writes
        b.add_edge(1, 0, 1); // cites
        b.add_edge(2, 0, 1);
        b.add_edge(3, 0, 1);
        b.add_edge(4, 1, 1);
        b.add_edge(4, 2, 1);
        b.build()
    }

    #[test]
    fn builder_sorts_by_etype_and_sets_ptrs() {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(4);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 3, 1);
        b.add_edge(3, 0, 0);
        let g = b.build();
        assert_eq!(g.etype(), &[0, 0, 1, 2]);
        assert_eq!(g.etype_ptr(), &[0, 2, 3, 4]);
        assert_eq!(g.edges_of_type(0), 2);
        g.validate();
    }

    #[test]
    fn node_types_are_contiguous() {
        let mut b = HeteroGraphBuilder::new();
        let (a0, a1) = b.add_node_type(3);
        let (b0, b1) = b.add_node_type(2);
        assert_eq!((a0, a1), (0, 3));
        assert_eq!((b0, b1), (3, 5));
        let g = b.build();
        assert_eq!(g.node_type(), &[0, 0, 0, 1, 1]);
        assert_eq!(g.ntype_ptr(), &[0, 3, 5]);
        assert_eq!(g.nodes_of_type(0), 3);
    }

    #[test]
    fn figure6_shape() {
        let g = figure6_graph();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.num_edge_types(), 2);
        assert_eq!(g.edges_of_type(0), 2); // writes
        assert_eq!(g.edges_of_type(1), 5); // cites
    }

    #[test]
    fn csc_groups_incoming_edges() {
        let g = figure6_graph();
        let csc = g.csc();
        // Node 0 has incoming cites from 1, 2, a(3).
        let incoming: Vec<u32> = csc
            .in_edges(0)
            .iter()
            .map(|&e| g.src()[e as usize])
            .collect();
        let mut sorted = incoming.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
        // α (node 5) has no incoming edges.
        assert!(csc.in_edges(5).is_empty());
    }

    #[test]
    fn csr_groups_outgoing_edges() {
        let g = figure6_graph();
        let csr = g.csr();
        // α (node 5) writes to a and b.
        let outgoing: Vec<u32> = csr.edges(5).iter().map(|&e| g.dst()[e as usize]).collect();
        let mut sorted = outgoing.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 4]);
    }

    #[test]
    fn degrees() {
        let g = figure6_graph();
        let deg = g.in_degree();
        assert_eq!(deg[0], 3);
        assert_eq!(deg[1], 1);
        assert_eq!(deg[5], 0);
        let dpr = g.in_degree_per_rel();
        // node 0 (row base 0 * 2), relation "cites" (1) has 3 incoming.
        assert_eq!(dpr[1], 3);
        assert_eq!(dpr[0], 0);
        assert!((g.avg_degree() - 7.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = HeteroGraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        g.validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_dangling_edge() {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(2);
        b.add_edge(0, 9, 0);
        let _ = b.build();
    }
}
