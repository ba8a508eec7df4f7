//! Property-based tests for the graph substrate.
//!
//! The `*_matches_*_reference` properties hold the linear-pass builders
//! (compaction map, extraction, edge splice) to the sort- and
//! search-based formulations they replaced, array for array, and the
//! splice's carried indices to a rebuild of the spliced graph.

use hector_graph::{
    extract_mapped, generate, DatasetSpec, EdgeSplice, HeteroGraph, HeteroGraphBuilder,
};
use proptest::prelude::*;

/// A small multigraph with every awkward case in reach: few sources, so
/// `(src, etype)` pairs repeat; node types and trailing relations that
/// may be empty; zero-in-degree and isolated nodes.
fn arb_multigraph() -> impl Strategy<Value = HeteroGraph> {
    (
        proptest::collection::vec(0usize..7, 1..4),
        1u32..6,
        0usize..3,
        1u32..9,
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..120),
    )
        .prop_map(|(types, rels, spare, sources, edges)| {
            let mut b = HeteroGraphBuilder::new();
            for &c in &types {
                b.add_node_type(c);
            }
            let n = types.iter().sum::<usize>() as u32;
            b.reserve_edge_types(rels as usize + spare);
            if n > 0 {
                for (s, d, t) in edges {
                    b.add_edge(s % sources.min(n), d % n, t % rels);
                }
            }
            b.build()
        })
}

/// Either a small multigraph or a generated dataset-shaped graph.
fn arb_graph() -> impl Strategy<Value = HeteroGraph> {
    prop_oneof![arb_multigraph(), arb_spec().prop_map(|s| generate(&s))]
}

/// The compaction map as it was built before the counting sort: a
/// stable per-relation sort of edge ids by source, then run detection.
fn compaction_reference(g: &HeteroGraph) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
    let mut unique_row_idx = Vec::new();
    let mut unique_etype_ptr = vec![0usize; g.num_edge_types() + 1];
    let mut edge_to_unique = vec![0u32; g.num_edges()];
    for t in 0..g.num_edge_types() {
        let mut order: Vec<usize> = (g.etype_ptr()[t]..g.etype_ptr()[t + 1]).collect();
        order.sort_by_key(|&e| g.src()[e]);
        let mut last = u32::MAX;
        for e in order {
            if g.src()[e] != last {
                last = g.src()[e];
                unique_row_idx.push(last);
            }
            edge_to_unique[e] = (unique_row_idx.len() - 1) as u32;
        }
        unique_etype_ptr[t + 1] = unique_row_idx.len();
    }
    (unique_row_idx, unique_etype_ptr, edge_to_unique)
}

/// Extraction as it was done before the dense local-id table: a binary
/// search of `node_map` per endpoint.
fn extraction_reference(full: &HeteroGraph, node_map: &[u32], edge_map: &[u32]) -> HeteroGraph {
    let local = |orig: u32| node_map.binary_search(&orig).expect("node not extracted") as u32;
    let mut b = HeteroGraphBuilder::new();
    for t in 0..full.num_node_types() {
        let lo = node_map.partition_point(|&n| (n as usize) < full.ntype_ptr()[t]);
        let hi = node_map.partition_point(|&n| (n as usize) < full.ntype_ptr()[t + 1]);
        b.add_node_type(hi - lo);
    }
    b.reserve_edge_types(full.num_edge_types());
    for &e in edge_map {
        let e = e as usize;
        b.add_edge(local(full.src()[e]), local(full.dst()[e]), full.etype()[e]);
    }
    b.build()
}

/// The splice as a rebuild: a builder fed every survivor, then each
/// relation's insertions in call order.
fn splice_reference(g: &HeteroGraph, removed: &[u32], inserts: &[(u32, u32, u32)]) -> HeteroGraph {
    let mut b = HeteroGraphBuilder::new();
    for t in 0..g.num_node_types() {
        b.add_node_type(g.nodes_of_type(t));
    }
    b.reserve_edge_types(g.num_edge_types());
    for e in 0..g.num_edges() {
        if removed.binary_search(&(e as u32)).is_err() {
            b.add_edge(g.src()[e], g.dst()[e], g.etype()[e]);
        }
    }
    for &(s, d, t) in inserts {
        b.add_edge(s, d, t);
    }
    b.build()
}

fn arb_spec() -> impl Strategy<Value = DatasetSpec> {
    (
        8usize..200,  // nodes
        1usize..5,    // node types
        4usize..400,  // edges
        1usize..12,   // edge types
        0.1f64..=1.0, // compaction ratio
        0.0f64..2.0,  // skew
        any::<u64>(), // seed
    )
        .prop_map(|(n, nt, e, et, cr, skew, seed)| DatasetSpec {
            name: "prop".into(),
            num_nodes: n,
            num_node_types: nt.min(n),
            num_edges: e,
            num_edge_types: et.min(e),
            compaction_ratio: cr,
            type_skew: skew,
            seed,
        })
}

proptest! {
    #[test]
    fn generated_graphs_satisfy_invariants(spec in arb_spec()) {
        let g = generate(&spec);
        g.validate();
        prop_assert_eq!(g.num_nodes(), spec.num_nodes);
        prop_assert_eq!(g.num_edges(), spec.num_edges);
    }

    #[test]
    fn compaction_map_is_consistent(spec in arb_spec()) {
        let g = generate(&spec);
        let c = g.compaction_map();
        c.validate(&g);
        // Ratio is bounded by construction.
        prop_assert!(c.ratio() > 0.0 && c.ratio() <= 1.0 + 1e-12);
        // Unique pairs never exceed edges, and cover all edges.
        prop_assert!(c.num_unique() <= g.num_edges());
        if g.num_edges() > 0 {
            let max = c.edge_to_unique().iter().copied().max().unwrap() as usize;
            prop_assert_eq!(max + 1, c.num_unique(), "compact rows must be dense");
        }
    }

    #[test]
    fn csc_covers_every_edge_exactly_once(spec in arb_spec()) {
        let g = generate(&spec);
        let csc = g.csc();
        let mut seen = vec![false; g.num_edges()];
        for v in 0..g.num_nodes() {
            for &e in csc.in_edges(v) {
                prop_assert_eq!(g.dst()[e as usize] as usize, v);
                prop_assert!(!seen[e as usize], "edge listed twice");
                seen[e as usize] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn csr_degrees_match_in_degree_counts(spec in arb_spec()) {
        let g = generate(&spec);
        let csr = g.csr();
        let mut out_deg = vec![0usize; g.num_nodes()];
        for &s in g.src() {
            out_deg[s as usize] += 1;
        }
        for (v, &deg) in out_deg.iter().enumerate() {
            prop_assert_eq!(csr.edges(v).len(), deg);
        }
    }

    #[test]
    fn in_degree_per_rel_sums_to_in_degree(spec in arb_spec()) {
        let g = generate(&spec);
        let per_rel = g.in_degree_per_rel();
        let total = g.in_degree();
        for v in 0..g.num_nodes() {
            let s: u32 = per_rel[v * g.num_edge_types()..(v + 1) * g.num_edge_types()]
                .iter()
                .sum();
            prop_assert_eq!(s, total[v]);
        }
    }

    #[test]
    fn compaction_map_matches_stable_sort_reference(g in arb_graph()) {
        let c = g.compaction_map();
        let (rows, ptr, e2u) = compaction_reference(&g);
        prop_assert_eq!(c.unique_row_idx(), &rows[..]);
        prop_assert_eq!(c.unique_etype_ptr(), &ptr[..]);
        prop_assert_eq!(c.edge_to_unique(), &e2u[..]);
    }

    #[test]
    fn extraction_matches_binary_search_reference(
        g in arb_graph(),
        node_bits in proptest::collection::vec(any::<u64>(), 4),
        edge_keep in 0u32..4,
    ) {
        // A random node subset, and a random share of the edges with both
        // endpoints inside it (the subset may leave nodes isolated).
        let keep = |v: usize| (node_bits[v % 4] >> (v / 4 % 64)) & 1 == 1;
        let pick = |e: usize| {
            ((e as u64 ^ node_bits[0]).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62) >= u64::from(edge_keep)
        };
        let node_map: Vec<u32> = (0..g.num_nodes()).filter(|&v| keep(v)).map(|v| v as u32).collect();
        let edge_map: Vec<u32> = (0..g.num_edges())
            .filter(|&e| keep(g.src()[e] as usize) && keep(g.dst()[e] as usize) && pick(e))
            .map(|e| e as u32)
            .collect();
        let want = extraction_reference(&g, &node_map, &edge_map);
        let got = extract_mapped(&g, &node_map, &edge_map);
        prop_assert_eq!(got.node_type(), want.node_type());
        prop_assert_eq!(got.ntype_ptr(), want.ntype_ptr());
        prop_assert_eq!(got.src(), want.src());
        prop_assert_eq!(got.dst(), want.dst());
        prop_assert_eq!(got.etype(), want.etype());
        prop_assert_eq!(got.etype_ptr(), want.etype_ptr());
    }

    #[test]
    fn builder_accepts_any_insertion_order(
        edges in proptest::collection::vec((0u32..10, 0u32..10, 0u32..4), 0..60)
    ) {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(10);
        for &(s, d, t) in &edges {
            b.add_edge(s, d, t);
        }
        let g = b.build();
        g.validate();
        prop_assert_eq!(g.num_edges(), edges.len());
    }

    #[test]
    fn edge_splice_matches_builder_reference_and_carries_indices(
        g in arb_graph(),
        drop_bits in any::<u64>(),
        drop_share in 0u32..4,
        inserts in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..10),
    ) {
        // Removals: a random share of the edges (every edge at share 0,
        // none at 3, parallel copies included). Insertions: random edges,
        // half of them copies of an existing edge's endpoints and relation
        // so that they land on existing (src, etype) pairs.
        let removed: Vec<u32> = (0..g.num_edges() as u32)
            .filter(|&e| ((u64::from(e) ^ drop_bits).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62) >= u64::from(drop_share))
            .collect();
        let (n, e, r) = (g.num_nodes() as u32, g.num_edges(), g.num_edge_types() as u32);
        let inserts: Vec<(u32, u32, u32)> = if n == 0 || r == 0 {
            Vec::new()
        } else {
            inserts
                .iter()
                .map(|&(s, d, t)| match s as usize % (e + 1) {
                    c if c < e && t % 2 == 0 => (g.src()[c], d % n, g.etype()[c]),
                    _ => (s % n, d % n, t % r),
                })
                .collect()
        };
        let (new, splice) = g.splice_edges(&removed, &inserts, None);
        prop_assert_eq!(&new, &splice_reference(&g, &removed, &inserts));
        prop_assert_eq!(splice.removed(), &removed[..]);
        prop_assert_eq!(splice.inserted().len(), inserts.len());
        for (old, &m) in splice.old_to_new().iter().enumerate() {
            if m != EdgeSplice::REMOVED {
                prop_assert_eq!(
                    (new.src()[m as usize], new.dst()[m as usize], new.etype()[m as usize]),
                    (g.src()[old], g.dst()[old], g.etype()[old])
                );
            }
        }
        prop_assert_eq!(g.csc().spliced(&new, &splice), new.csc());
        prop_assert_eq!(g.compaction_map().spliced(&g, &new, &splice), new.compaction_map());
    }
}
