//! Graph-derived data bound into an engine: adjacency views, compaction
//! maps, and the byte accounting for the structures a GPU run would hold
//! resident.

use std::sync::{Arc, OnceLock};

use hector_graph::{CompactionMap, Csc, EdgeSplice, HeteroGraph};

/// A heterogeneous graph plus every derived index structure the generated
/// kernels read: CSC (incoming edges), the compaction map of unique
/// `(src, etype)` pairs, and cached per-unique-pair edge types.
///
/// The structures live behind one `Arc`, so cloning a `GraphData` — as
/// every [`Engine::bind`](crate::Engine::bind) does — shares them
/// instead of copying: each engine, trainer and deployment bound to one
/// graph reads the same arrays. Equality compares every structure but
/// the CSC-ordered per-edge maps, which are built on first use from the
/// others.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphData {
    derived: Arc<Derived>,
}

#[derive(Clone, Debug, PartialEq)]
struct Derived {
    graph: HeteroGraph,
    csc: Csc,
    compact: CompactionMap,
    unique_etype: Vec<u32>,
    /// Sorted `(ntype(src), etype)` pair ids (see
    /// [`GraphData::pair_type_of`]) at least one edge uses: the only
    /// pairs a reorder-fused pair weight holds a slab for.
    live_pairs: Vec<u32>,
    /// Dense pair id → slot map: `pair_slot[live_pairs[i]] == i`, and
    /// `u32::MAX` for a dead pair.
    pair_slot: Vec<u32>,
    /// The largest in-degree: the longest in-edge list a dst-node
    /// traversal tile holds.
    max_in_degree: usize,
    in_edges: InEdgeCache,
}

/// Per-edge maps in CSC order: entry `i` of each describes the in-edge
/// at CSC position `i` (edge `csc.edge_idx[i]`), so a run of in-edges
/// reads each map as one slice.
#[derive(Clone, Debug)]
pub(crate) struct InEdgeMaps {
    pub(crate) src: Vec<u32>,
    /// The destination owning each in-edge.
    pub(crate) dst: Vec<u32>,
    pub(crate) etype: Vec<u32>,
    pub(crate) edge_to_unique: Vec<u32>,
}

impl InEdgeMaps {
    fn new(graph: &HeteroGraph, csc: &Csc, compact: &CompactionMap) -> InEdgeMaps {
        let in_csc = |map: &[u32]| csc.edge_idx.iter().map(|&e| map[e as usize]).collect();
        InEdgeMaps {
            src: in_csc(graph.src()),
            dst: in_csc(graph.dst()),
            etype: in_csc(graph.etype()),
            edge_to_unique: in_csc(compact.edge_to_unique()),
        }
    }
}

/// The lazily built [`InEdgeMaps`]: derived from the other structures,
/// so two data equal in those are equal whether or not either built them.
#[derive(Clone, Debug, Default)]
struct InEdgeCache(OnceLock<InEdgeMaps>);

impl PartialEq for InEdgeCache {
    fn eq(&self, _: &InEdgeCache) -> bool {
        true
    }
}

impl GraphData {
    /// Precomputes all derived structures for `graph`.
    ///
    /// This is the preprocessing step the paper's generated host code
    /// performs ("a pass that scans all the functions generated to
    /// collect a list of preprocessing required for the input dataset",
    /// §3.6).
    #[must_use]
    pub fn new(graph: HeteroGraph) -> GraphData {
        let csc = graph.csc();
        let compact = graph.compaction_map();
        GraphData::from_indices(graph, csc, compact)
    }

    /// The data of `graph`, which `splice` made from this data's graph,
    /// with the CSC and compaction map derived from this data's
    /// ([`Csc::spliced`], [`CompactionMap::spliced`]) instead of rebuilt.
    /// Equal to `GraphData::new(graph)`.
    #[must_use]
    pub fn spliced(&self, graph: HeteroGraph, splice: &EdgeSplice) -> GraphData {
        let csc = self.csc().spliced(&graph, splice);
        let compact = self.compact().spliced(self.graph(), &graph, splice);
        GraphData::from_indices(graph, csc, compact)
    }

    fn from_indices(graph: HeteroGraph, csc: Csc, compact: CompactionMap) -> GraphData {
        let unique_etype = compact.unique_etype();
        let max_in_degree = csc.ptr.windows(2).map(|w| w[1] - w[0]).max();
        // Every edge has its unique pair and every pair an edge, so the
        // pairs name the live (ntype(src), etype) slabs.
        let et = graph.num_edge_types();
        let mut live = vec![false; graph.num_node_types() * et];
        for (&s, &t) in compact.unique_row_idx().iter().zip(&unique_etype) {
            live[graph.node_type()[s as usize] as usize * et + t as usize] = true;
        }
        let live_pairs: Vec<u32> = (0..live.len() as u32)
            .filter(|&p| live[p as usize])
            .collect();
        let pair_slot = slots_of(&live_pairs, live.len());
        GraphData {
            derived: Arc::new(Derived {
                graph,
                csc,
                compact,
                unique_etype,
                live_pairs,
                pair_slot,
                max_in_degree: max_in_degree.unwrap_or(0),
                in_edges: InEdgeCache::default(),
            }),
        }
    }

    /// The dense-pair reference: every pair marked live, as if preps
    /// still visited all `nt × et` slabs.
    #[cfg(test)]
    pub(crate) fn with_dense_pairs(self) -> GraphData {
        let pairs = self.type_count(hector_ir::TypeIndex::NodeEdgePair);
        let mut derived = (*self.derived).clone();
        derived.live_pairs = (0..pairs as u32).collect();
        derived.pair_slot = slots_of(&derived.live_pairs, pairs);
        GraphData {
            derived: Arc::new(derived),
        }
    }

    /// The live pairs, ascending: slot `i` of a derived pair stack holds
    /// pair `live_pairs()[i]`.
    pub(crate) fn live_pairs(&self) -> &[u32] {
        &self.derived.live_pairs
    }

    /// The derived-stack slot of the pair of row `row` of `rows` (see
    /// [`GraphData::pair_type_of`]).
    pub(crate) fn pair_slot_of(&self, rows: hector_ir::RowDomain, row: usize) -> usize {
        self.derived.pair_slot[self.pair_type_of(rows, row)] as usize
    }

    /// The largest in-degree: the longest in-edge list a dst-node
    /// traversal tile holds.
    pub(crate) fn max_in_degree(&self) -> usize {
        self.derived.max_in_degree
    }

    /// The per-edge maps in CSC order, built on the first call (the
    /// first dst-node traversal): edge deltas and data no traversal
    /// walks never pay for them.
    pub(crate) fn in_edge_maps(&self) -> &InEdgeMaps {
        let d = &*self.derived;
        d.in_edges
            .0
            .get_or_init(|| InEdgeMaps::new(&d.graph, &d.csc, &d.compact))
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &HeteroGraph {
        &self.derived.graph
    }

    /// Incoming-edge view (dst-node traversal kernels).
    #[must_use]
    pub fn csc(&self) -> &Csc {
        &self.derived.csc
    }

    /// The compaction map.
    #[must_use]
    pub fn compact(&self) -> &CompactionMap {
        &self.derived.compact
    }

    /// Edge type of each unique `(src, etype)` pair.
    #[must_use]
    pub fn unique_etype(&self) -> &[u32] {
        &self.derived.unique_etype
    }

    /// Number of rows in each row domain.
    #[must_use]
    pub fn rows_of(&self, rows: hector_ir::RowDomain) -> usize {
        match rows {
            hector_ir::RowDomain::Edges => self.graph().num_edges(),
            hector_ir::RowDomain::UniquePairs => self.compact().num_unique(),
            hector_ir::RowDomain::Nodes => self.graph().num_nodes(),
        }
    }

    /// Number of rows a variable of the given space occupies.
    #[must_use]
    pub fn rows_of_space(&self, space: hector_ir::Space) -> usize {
        match space {
            hector_ir::Space::Node => self.graph().num_nodes(),
            hector_ir::Space::Edge => self.graph().num_edges(),
            hector_ir::Space::Compact => self.compact().num_unique(),
        }
    }

    /// Bytes of device memory the adjacency and compaction structures
    /// occupy on the GPU (counted toward the run's footprint).
    #[must_use]
    pub fn structure_bytes(&self) -> usize {
        let e = self.graph().num_edges();
        let n = self.graph().num_nodes();
        let u = self.compact().num_unique();
        // COO (src, dst, etype) + etype_ptr + CSC (ptr + edge idx)
        // + unique_row_idx + unique_etype_ptr + edge_to_unique.
        e * 4 * 3
            + (self.graph().num_edge_types() + 1) * 8
            + (n + 1) * 8
            + e * 4
            + u * 4
            + (self.graph().num_edge_types() + 1) * 8
            + e * 4
    }

    /// Number of type slabs a weight with the given index kind needs.
    #[must_use]
    pub fn type_count(&self, per: hector_ir::TypeIndex) -> usize {
        match per {
            hector_ir::TypeIndex::EdgeType => self.graph().num_edge_types(),
            hector_ir::TypeIndex::NodeType => self.graph().num_node_types(),
            hector_ir::TypeIndex::NodeEdgePair => {
                self.graph().num_node_types() * self.graph().num_edge_types()
            }
            hector_ir::TypeIndex::Shared => 1,
        }
    }

    /// Pair-type index (`ntype(src) * num_etypes + etype`) for a row of
    /// the given domain, used by reorder-fused pair weights.
    #[must_use]
    pub fn pair_type_of(&self, rows: hector_ir::RowDomain, row: usize) -> usize {
        let et = self.graph().num_edge_types();
        match rows {
            hector_ir::RowDomain::Edges => {
                let src = self.graph().src()[row] as usize;
                self.graph().node_type()[src] as usize * et + self.graph().etype()[row] as usize
            }
            hector_ir::RowDomain::UniquePairs => {
                let src = self.compact().unique_row_idx()[row] as usize;
                self.graph().node_type()[src] as usize * et + self.unique_etype()[row] as usize
            }
            hector_ir::RowDomain::Nodes => unreachable!("pair weights need edge context"),
        }
    }
}

/// The dense slot map of `live` over `pairs` pair ids.
fn slots_of(live: &[u32], pairs: usize) -> Vec<u32> {
    let mut slot = vec![u32::MAX; pairs];
    for (i, &p) in (0u32..).zip(live) {
        slot[p as usize] = i;
    }
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::HeteroGraphBuilder;

    fn toy() -> GraphData {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(3);
        b.add_node_type(2);
        b.add_edge(0, 3, 0);
        b.add_edge(0, 4, 0);
        b.add_edge(1, 3, 1);
        GraphData::new(b.build())
    }

    #[test]
    fn rows_of_domains() {
        let g = toy();
        assert_eq!(g.rows_of(hector_ir::RowDomain::Edges), 3);
        assert_eq!(g.rows_of(hector_ir::RowDomain::Nodes), 5);
        // Node 0 appears twice with etype 0 → 2 unique pairs overall.
        assert_eq!(g.rows_of(hector_ir::RowDomain::UniquePairs), 2);
    }

    #[test]
    fn type_counts() {
        let g = toy();
        assert_eq!(g.type_count(hector_ir::TypeIndex::EdgeType), 2);
        assert_eq!(g.type_count(hector_ir::TypeIndex::NodeType), 2);
        assert_eq!(g.type_count(hector_ir::TypeIndex::NodeEdgePair), 4);
        assert_eq!(g.type_count(hector_ir::TypeIndex::Shared), 1);
    }

    #[test]
    fn pair_type_index() {
        let g = toy();
        // Edge 0: src 0 (ntype 0), etype 0 → pair 0.
        assert_eq!(g.pair_type_of(hector_ir::RowDomain::Edges, 0), 0);
        // Edge 2: src 1 (ntype 0), etype 1 → pair 1.
        assert_eq!(g.pair_type_of(hector_ir::RowDomain::Edges, 2), 1);
        // Pairs 0 and 1 are the live ones, in slots 0 and 1.
        assert_eq!(g.live_pairs(), [0, 1]);
        assert_eq!(g.pair_slot_of(hector_ir::RowDomain::Edges, 2), 1);
        assert_eq!(g.pair_slot_of(hector_ir::RowDomain::UniquePairs, 0), 0);
    }

    /// Each CSC-ordered map is the per-edge map read through
    /// `csc.edge_idx`, on built and spliced data alike, and building the
    /// maps changes no equality.
    #[test]
    fn in_edge_maps_are_the_edge_maps_in_csc_order() {
        use hector_graph::{generate, DatasetSpec};

        let g = GraphData::new(generate(&DatasetSpec {
            name: "csc_maps".into(),
            num_nodes: 40,
            num_node_types: 2,
            num_edges: 300,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 7,
        }));
        let (graph, splice) =
            g.graph()
                .splice_edges(&[0, 5, 17, 120], &[(3, 4, 1), (9, 2, 0), (9, 2, 0)], None);
        let spliced = g.spliced(graph, &splice);
        for data in [&g, &spliced] {
            let fresh = GraphData::new(data.graph().clone());
            assert_eq!(*data, fresh);
            let (m, graph, csc) = (data.in_edge_maps(), data.graph(), data.csc());
            let via_csc = |map: &[u32]| -> Vec<u32> {
                csc.edge_idx.iter().map(|&e| map[e as usize]).collect()
            };
            assert_eq!(m.src, via_csc(graph.src()));
            assert_eq!(m.dst, via_csc(graph.dst()));
            assert_eq!(m.etype, via_csc(graph.etype()));
            assert_eq!(m.edge_to_unique, via_csc(data.compact().edge_to_unique()));
            // Built on one side only, equal still, both ways round.
            assert!(fresh.derived.in_edges.0.get().is_none());
            assert_eq!(*data, fresh);
            assert_eq!(fresh, *data);
        }
    }

    #[test]
    fn structure_bytes_positive() {
        assert!(toy().structure_bytes() > 0);
    }
}
