//! Row-scoped forwards: `Engine::forward_rows(rows)` returns exactly
//! those rows of `Engine::forward`'s output, bit for bit, in the order
//! asked.
//!
//! Random graphs with zero-in-degree nodes and one destination whose
//! in-edges overflow a 32-row block × RGCN/RGAT/HGT × layers {1, 2} ×
//! threads {1, 4} × both backends. Row sets: empty, a single row, every
//! row, and a shuffled subset holding a duplicate. An out-of-range row
//! and an unbound engine each return an error, and the next `forward()`
//! still matches.

mod common;

use common::par;
use hector::prelude::*;
use hector::HeteroGraph;
use proptest::prelude::*;

/// `nodes` nodes over two types; no node `v` with `v % 3 == 0` is a
/// destination (zero in-degree), and node 1 takes `hub` extra in-edges
/// on top of the random ones.
fn arb_graph() -> impl Strategy<Value = HeteroGraph> {
    (
        6usize..40,
        1u32..4,
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..120),
        33usize..60,
    )
        .prop_map(|(nodes, rels, edges, hub)| {
            let mut b = HeteroGraphBuilder::new();
            b.add_node_type(nodes / 2);
            b.add_node_type(nodes - nodes / 2);
            b.reserve_edge_types(rels as usize);
            let n = nodes as u32;
            let dsts: Vec<u32> = (0..n).filter(|v| v % 3 != 0).collect();
            for (s, d, t) in edges {
                b.add_edge(s % n, dsts[d as usize % dsts.len()], t % rels);
            }
            for i in 0..hub as u32 {
                b.add_edge(i * 7 % n, 1, i % rels);
            }
            b.build()
        })
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn forward_rows_are_the_full_forwards_rows(
        g in arb_graph(),
        picks in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        let data = GraphData::new(g.clone());
        let n = g.num_nodes() as u32;
        let mut subset: Vec<u32> = picks.iter().map(|&p| p % n).collect();
        subset.push(subset[0]);
        let row_sets = [Vec::new(), vec![subset[0]], (0..n).collect(), subset];
        for kind in ModelKind::all() {
            for layers in [1, 2] {
                for threads in [1, 4] {
                    for backend in [BackendKind::Interp, BackendKind::Specialized] {
                        let what = format!("{kind:?} layers={layers} threads={threads} {backend:?}");
                        let mut engine = EngineBuilder::new(kind)
                            .dims(8, 8)
                            .layers(layers)
                            .parallel(par(threads, 4))
                            .backend(backend)
                            .seed(11)
                            .build()
                            .unwrap();
                        prop_assert!(engine.forward_rows(&[0]).is_err(), "{}: unbound", what);
                        engine.bind(&data).unwrap().forward().unwrap();
                        let full = engine.output().clone();
                        for rows in &row_sets {
                            let got = engine.forward_rows(rows).unwrap();
                            prop_assert_eq!(got.shape(), &[rows.len(), full.cols()][..], "{}", what);
                            for (i, &v) in rows.iter().enumerate() {
                                prop_assert_eq!(
                                    bits(got.row(i)),
                                    bits(full.row(v as usize)),
                                    "{}: row {} of {:?}", what, v, rows
                                );
                            }
                        }
                        let err = engine.forward_rows(&[0, n]).unwrap_err();
                        prop_assert_eq!(err.kind(), "graph_mismatch", "{}", what);
                        engine.forward().unwrap();
                        prop_assert_eq!(bits(engine.output().data()), bits(full.data()), "{}", what);
                    }
                }
            }
        }
    }
}
