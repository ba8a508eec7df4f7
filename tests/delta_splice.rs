//! Delta-splice properties: an edge-only delta applied to a
//! [`ShardedGraph`] leaves exactly what rebuilding from scratch would,
//! although the store splices its edge arrays in place and carries its
//! graph indices across.
//!
//! Random generated graphs × shard counts {1, 2, 3} × halo depths
//! {1, 2} × the three partitioners × 1–4 edge-only batches. After every
//! apply:
//!
//! * `full()` equals a builder-made reference splice;
//! * `edge_cut_fraction()` equals a fresh partition's;
//! * the carried `full_data()` equals `GraphData::new(full().clone())`,
//!   index by index;
//! * `halo_rows()` equals a fresh partition's of `full()` under the
//!   same ownership.
//!
//! Garbage batches are refused with `InvalidDelta` and change neither
//! the graph, its data, its version nor its halo. CI runs the suite at
//! `PROPTEST_CASES=1024`.

use std::collections::HashMap;

use hector::{
    DatasetSpec, DeltaBatch, GraphData, GreedyEdgeCut, HashPartitioner, HeteroGraph,
    HeteroGraphBuilder, Partitioner, RangePartitioner, ShardConfig, ShardedGraph,
};
use proptest::prelude::*;

/// Replays a fixed ownership, so a fresh partition of the post-delta
/// graph owns nodes as the store does (an edge delta never
/// re-partitions, and `GreedyEdgeCut` would place nodes by the new
/// edges).
struct Fixed(Vec<u32>);

impl Partitioner for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn assign(&self, _: &HeteroGraph, _: usize) -> Vec<u32> {
        self.0.clone()
    }
}

fn partitioner(which: u8) -> Box<dyn Partitioner> {
    match which {
        0 => Box::new(RangePartitioner),
        1 => Box::new(HashPartitioner::new(17)),
        _ => Box::new(GreedyEdgeCut),
    }
}

/// A fresh partition of `g` owned like `store`.
fn fresh(store: &ShardedGraph, g: &HeteroGraph) -> ShardedGraph {
    ShardedGraph::partition(
        g.clone(),
        Box::new(Fixed(store.owner().to_vec())),
        store.config(),
    )
}

/// The post-delta graph as a builder makes it: survivors in order,
/// removals claimed from a multiset probed at every edge (the earliest
/// surviving match goes), insertions appended.
fn reference_splice(g: &HeteroGraph, batch: &DeltaBatch) -> HeteroGraph {
    let mut pending: HashMap<(u32, u32, u32), usize> = HashMap::new();
    for &key in &batch.remove_edges {
        *pending.entry(key).or_default() += 1;
    }
    let mut b = HeteroGraphBuilder::new();
    for t in 0..g.num_node_types() {
        b.add_node_type(g.nodes_of_type(t));
    }
    b.reserve_edge_types(g.num_edge_types());
    for e in 0..g.num_edges() {
        let key = (g.src()[e], g.dst()[e], g.etype()[e]);
        match pending.get_mut(&key) {
            Some(c) if *c > 0 => *c -= 1,
            _ => b.add_edge(key.0, key.1, key.2),
        }
    }
    for &(s, d, t) in &batch.add_edges {
        b.add_edge(s, d, t);
    }
    b.build()
}

/// An edge-only batch over `g`: removals of distinct existing edges
/// (parallel copies of one key may each be named), insertions of random
/// edges or of copies of existing ones.
fn edge_batch(g: &HeteroGraph, picks: &[(u32, u32, u32)]) -> DeltaBatch {
    let (n, e, r) = (
        g.num_nodes() as u32,
        g.num_edges(),
        g.num_edge_types() as u32,
    );
    let mut taken = vec![false; e];
    picks
        .iter()
        .fold(DeltaBatch::new(), |batch, &(kind, a, b)| match kind % 3 {
            0 if e > 0 => {
                let v = a as usize % e;
                if std::mem::replace(&mut taken[v], true) {
                    batch
                } else {
                    batch.remove_edge(g.src()[v], g.dst()[v], g.etype()[v])
                }
            }
            1 if e > 0 => {
                let c = a as usize % e;
                batch.add_edge(g.src()[c], b % n, g.etype()[c])
            }
            _ => batch.add_edge(a % n, b % n, (a ^ b) % r),
        })
}

fn arb_graph() -> impl Strategy<Value = HeteroGraph> {
    (
        4usize..90,
        1usize..4,
        1usize..400,
        1usize..7,
        0.1f64..=1.0,
        any::<u64>(),
    )
        .prop_map(|(n, nt, e, et, cr, seed)| {
            hector::generate(&DatasetSpec {
                name: "delta_splice".into(),
                num_nodes: n,
                num_node_types: nt.min(n),
                num_edges: e,
                num_edge_types: et.min(e),
                compaction_ratio: cr,
                type_skew: 1.0,
                seed,
            })
        })
}

fn assert_same_data(got: &GraphData, want: &GraphData) {
    prop_assert_eq!(&got.csc().ptr, &want.csc().ptr);
    prop_assert_eq!(&got.csc().edge_idx, &want.csc().edge_idx);
    let (gc, wc) = (got.compact(), want.compact());
    prop_assert_eq!(gc.unique_row_idx(), wc.unique_row_idx());
    prop_assert_eq!(gc.unique_etype_ptr(), wc.unique_etype_ptr());
    prop_assert_eq!(gc.edge_to_unique(), wc.edge_to_unique());
    prop_assert_eq!(got.unique_etype(), want.unique_etype());
    // The rest: live (ntype, etype) pairs and the largest in-degree.
    prop_assert!(got == want, "graph data differs beyond its public indices");
}

proptest! {
    #[test]
    fn edge_deltas_leave_what_a_rebuild_would(
        g in arb_graph(),
        k in 1usize..4,
        hops in 1usize..3,
        which in 0u8..3,
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..14),
            1..5,
        ),
    ) {
        let mut store = ShardedGraph::partition(
            g,
            partitioner(which),
            ShardConfig::new(k).hops(hops),
        );
        for (i, picks) in batches.iter().enumerate() {
            let before = store.full().clone();
            let batch = edge_batch(&before, picks);
            let outcome = store.try_apply(&batch).expect("a batch of existing edges");
            prop_assert_eq!(outcome.version, i as u64 + 1);
            prop_assert!(!outcome.repartitioned);
            prop_assert_eq!(store.full(), &reference_splice(&before, &batch));
            let rebuilt = fresh(&store, store.full());
            prop_assert_eq!(store.edge_cut_fraction(), rebuilt.edge_cut_fraction());
            assert_same_data(store.full_data(), &GraphData::new(store.full().clone()));
            prop_assert_eq!(store.halo_rows(), rebuilt.halo_rows());
        }
    }

    #[test]
    fn garbage_batches_are_refused_and_change_nothing(
        g in arb_graph(),
        k in 1usize..4,
        hops in 1usize..3,
        which in 0u8..3,
        warmup in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..8),
        picks in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..8),
        garbage in (0u8..7, any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let mut store = ShardedGraph::partition(
            g,
            partitioner(which),
            ShardConfig::new(k).hops(hops),
        );
        // A valid delta first, so the store's graph is a spliced one.
        let warmup = edge_batch(store.full(), &warmup);
        store.try_apply(&warmup).expect("a batch of existing edges");

        let full = store.full().clone();
        let data = store.full_data().clone();
        let (n, r) = (full.num_nodes() as u32, full.num_edge_types() as u32);
        let nt = full.num_node_types() as u32;
        let batch = edge_batch(&full, &picks);
        let (kind, a, b, x) = garbage;
        let (a, b, x) = (a % n, b % n, x % 3);
        let batch = match kind {
            0 => batch.add_edge(a, n + x, 0),
            1 => batch.add_edge(a, b, r + x),
            2 => batch.remove_edge(a, b, r + x),
            3 => {
                // One removal more of a key than the graph has copies.
                let t = x % r;
                let copies = (0..full.num_edges())
                    .filter(|&e| (full.src()[e], full.dst()[e], full.etype()[e]) == (a, b, t))
                    .count();
                let named = batch.remove_edges.iter().filter(|&&key| key == (a, b, t)).count();
                (named..=copies).fold(batch, |batch, _| batch.remove_edge(a, b, t))
            }
            4 => batch.remove_node(n + x),
            5 => batch.add_node(nt + x),
            _ => (0..n).fold(batch, |batch, v| batch.remove_node(v)),
        };
        let version = store.version();
        let err = store.try_apply(&batch).expect_err("a garbage batch");
        prop_assert_eq!(err.kind(), "invalid_delta");
        prop_assert!(batch.validate(&full).is_err());
        prop_assert_eq!(store.version(), version);
        prop_assert_eq!(store.full(), &full);
        prop_assert!(store.full_data() == &data);
        let rebuilt = fresh(&store, &full);
        prop_assert_eq!(store.halo_rows(), rebuilt.halo_rows());
    }
}
