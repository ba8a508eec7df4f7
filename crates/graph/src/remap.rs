//! The shared remap-table extraction underneath every "take these nodes
//! and edges of the full graph and re-pack them as a self-contained
//! [`HeteroGraph`]" operation in the workspace.
//!
//! Its one consumer is the runtime's `Subgraph` view, which both a
//! sampled mini-batch and a row-scoped forward's closure are; both rely
//! on the same two layout properties of the full graph:
//!
//! * full-graph node ids are sorted by node type, so an **ascending**
//!   original-id order automatically groups local nodes by type — the
//!   local id order *is* the type-segmented order;
//! * full-graph edges are sorted by relation, so ascending original
//!   edge ids are relation-sorted COO as they stand: local edge `i` ↔
//!   `edge_map[i]`, written straight into
//!   [`HeteroGraph::from_relation_parts`], preserving
//!   the **relative original edge order within every relation**. That
//!   last property is what makes extraction-based execution bit-exact:
//!   per-destination aggregation visits the same contributions in the
//!   same order as a full-graph run.
//!
//! The extracted graph always declares the **full graph's type counts**
//! (empty segments included), so per-relation and per-type parameter
//! stacks keep their shapes across every extraction and one parameter
//! store serves them all.
//!
//! Endpoints are renumbered through a dense local-id table: one `u32`
//! per full-graph node, holding the node's local id or a sentinel for
//! nodes outside the extraction. Filling it costs O(N) — the same order
//! as the sampler's own per-batch visited array — and every edge then
//! resolves both endpoints with two array reads.

use crate::HeteroGraph;

/// Local-id table entry of a full-graph node the extraction left out.
const NOT_EXTRACTED: u32 = u32::MAX;

/// Extracts the given node and edge id sets of `full` as a
/// self-contained [`HeteroGraph`] (see module docs for the layout and
/// type-count guarantees): local node `i` is `node_map[i]`, local edge
/// `i` is `edge_map[i]`.
///
/// `node_map` must be strictly ascending (sorted, deduplicated) original
/// node ids; `edge_map` must be strictly ascending original edge
/// indices, and every extracted edge's endpoints must be in `node_map`.
///
/// # Panics
///
/// Panics if the maps reference ids outside `full`, if an edge endpoint
/// is missing from `node_map`, or if `node_map` contains duplicates.
#[must_use]
pub fn extract_mapped(full: &HeteroGraph, node_map: &[u32], edge_map: &[u32]) -> HeteroGraph {
    debug_assert!(
        node_map.windows(2).all(|w| w[0] < w[1]),
        "node_map must be strictly ascending"
    );
    debug_assert!(
        edge_map.windows(2).all(|w| w[0] < w[1]),
        "edge_map must be strictly ascending"
    );
    let mut local_of = vec![NOT_EXTRACTED; full.num_nodes()];
    for (l, &orig) in node_map.iter().enumerate() {
        local_of[orig as usize] = l as u32;
    }
    let local = |orig: u32| -> u32 {
        let l = local_of[orig as usize];
        assert!(l != NOT_EXTRACTED, "node not extracted");
        l
    };

    // Declare every full-graph node type, empty segments included. The
    // ascending node_map is type-grouped, so each type's local count is
    // one partition_point window over the original type boundaries; the
    // ascending edge_map is relation-sorted, so each relation's local
    // segment is one window over the original relation boundaries.
    let window = |ids: &[u32], ptr: &[usize]| -> Vec<usize> {
        ptr.iter()
            .map(|&p| ids.partition_point(|&i| (i as usize) < p))
            .collect()
    };
    let counts: Vec<usize> = window(node_map, full.ntype_ptr())
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect();
    let etype_ptr = window(edge_map, full.etype_ptr());
    let (src, dst): (Vec<u32>, Vec<u32>) = edge_map
        .iter()
        .map(|&e| (local(full.src()[e as usize]), local(full.dst()[e as usize])))
        .unzip();
    let graph = HeteroGraph::from_relation_parts(&counts, etype_ptr, src, dst);
    debug_assert_eq!(graph.num_edge_types(), full.num_edge_types());
    debug_assert_eq!(graph.num_node_types(), full.num_node_types());
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetSpec};

    fn graph() -> HeteroGraph {
        generate(&DatasetSpec {
            name: "remap".into(),
            num_nodes: 120,
            num_node_types: 3,
            num_edges: 900,
            num_edge_types: 4,
            compaction_ratio: 0.5,
            type_skew: 1.3,
            seed: 33,
        })
    }

    #[test]
    fn extraction_is_edge_exact_and_type_preserving() {
        let g = graph();
        // Every third node, plus all edges fully inside that set.
        let nodes: Vec<u32> = (0..g.num_nodes() as u32).filter(|n| n % 3 != 1).collect();
        let inside = |n: u32| nodes.binary_search(&n).is_ok();
        let edges: Vec<u32> = (0..g.num_edges() as u32)
            .filter(|&e| inside(g.src()[e as usize]) && inside(g.dst()[e as usize]))
            .collect();
        let ex = extract_mapped(&g, &nodes, &edges);
        ex.validate();
        assert_eq!(ex.num_nodes(), nodes.len());
        assert_eq!(ex.num_edges(), edges.len());
        assert_eq!(ex.num_node_types(), g.num_node_types());
        assert_eq!(ex.num_edge_types(), g.num_edge_types());
        for le in 0..ex.num_edges() {
            let oe = edges[le] as usize;
            assert_eq!(nodes[ex.src()[le] as usize], g.src()[oe]);
            assert_eq!(nodes[ex.dst()[le] as usize], g.dst()[oe]);
            assert_eq!(ex.etype()[le], g.etype()[oe]);
        }
        for (l, &o) in nodes.iter().enumerate() {
            assert_eq!(ex.node_type()[l], g.node_type()[o as usize]);
        }
    }

    #[test]
    fn relative_edge_order_within_relations_is_preserved() {
        let g = graph();
        let nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let edges: Vec<u32> = (0..g.num_edges() as u32).filter(|e| e % 2 == 0).collect();
        let ex = extract_mapped(&g, &nodes, &edges);
        // Local edges ascend in original index within each relation
        // segment (the bit-exactness precondition), and each relation
        // segment holds exactly that relation's edges.
        for t in 0..ex.num_edge_types() {
            let (lo, hi) = (ex.etype_ptr()[t], ex.etype_ptr()[t + 1]);
            assert!(edges[lo..hi].windows(2).all(|w| w[0] < w[1]));
            assert!(edges[lo..hi]
                .iter()
                .all(|&e| g.etype()[e as usize] == t as u32));
        }
    }

    #[test]
    #[should_panic(expected = "node not extracted")]
    fn edge_with_an_unextracted_endpoint_panics() {
        let g = graph();
        let e = (0..g.num_edges())
            .find(|&e| g.src()[e] != g.dst()[e])
            .expect("not every edge is a self-loop");
        let nodes: Vec<u32> = (0..g.num_nodes() as u32)
            .filter(|&v| v != g.dst()[e])
            .collect();
        let _ = extract_mapped(&g, &nodes, &[e as u32]);
    }

    #[test]
    fn empty_sets_keep_full_type_counts() {
        let g = graph();
        let ex = extract_mapped(&g, &[0, 1], &[]);
        assert_eq!(ex.num_edges(), 0);
        assert_eq!(ex.num_node_types(), g.num_node_types());
        assert_eq!(ex.etype_ptr().len(), g.num_edge_types() + 1);
    }
}
