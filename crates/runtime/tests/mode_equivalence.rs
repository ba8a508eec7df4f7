//! Real vs. modeled execution equivalence: the two engine modes must
//! charge the device identically — same simulated time, same launches,
//! same peak memory — for any model, option combination, and graph.
//! (This is what makes the paper-scale modeled experiments trustworthy:
//! they report exactly what a real-mode run would have reported.)

use hector_compiler::CompileOptions;
use hector_graph::{generate, DatasetSpec};
use hector_models::ModelKind;
use hector_runtime::{EngineBuilder, GraphData, Mode, RunReport, Sgd};
use proptest::prelude::*;

/// One inference pass (or, with `training`, one SGD step on seeded
/// labels) of `kind` at `dim × dim` in `mode`.
fn report(
    kind: ModelKind,
    dim: usize,
    opts: &CompileOptions,
    training: bool,
    graph: &GraphData,
    mode: Mode,
) -> RunReport {
    let b = EngineBuilder::new(kind)
        .dims(dim, dim)
        .options(opts.clone())
        .mode(mode);
    if training {
        let mut t = b.build_trainer(Sgd::new(0.0)).unwrap();
        t.bind(graph).unwrap().step().unwrap()
    } else {
        b.build().unwrap().bind(graph).unwrap().forward().unwrap()
    }
}

fn arb_graph() -> impl Strategy<Value = GraphData> {
    (
        10usize..60,
        1usize..4,
        20usize..200,
        1usize..8,
        0.2f64..1.0,
        any::<u64>(),
    )
        .prop_map(|(n, nt, e, et, ratio, seed)| {
            GraphData::new(generate(&DatasetSpec {
                name: "prop".into(),
                num_nodes: n,
                num_node_types: nt,
                num_edges: e,
                num_edge_types: et,
                compaction_ratio: ratio,
                type_skew: 1.0,
                seed,
            }))
        })
}

fn models() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::Rgcn),
        Just(ModelKind::Rgat),
        Just(ModelKind::Hgt)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn modeled_inference_reports_match_real(
        graph in arb_graph(),
        kind in models(),
        compact in any::<bool>(),
        reorder in any::<bool>(),
    ) {
        let opts = CompileOptions { compact, reorder, ..CompileOptions::default() };
        let r = report(kind, 8, &opts, false, &graph, Mode::Real);
        let m = report(kind, 8, &opts, false, &graph, Mode::Modeled);

        prop_assert!((r.elapsed_us - m.elapsed_us).abs() < 1e-6);
        prop_assert_eq!(r.launches, m.launches);
        prop_assert_eq!(r.peak_bytes, m.peak_bytes);
        prop_assert!((r.gemm_us - m.gemm_us).abs() < 1e-6);
        prop_assert!((r.traversal_us - m.traversal_us).abs() < 1e-6);
    }

    #[test]
    fn modeled_training_reports_match_real(
        graph in arb_graph(),
        kind in models(),
    ) {
        let opts = CompileOptions::best();
        let r = report(kind, 6, &opts, true, &graph, Mode::Real);
        let m = report(kind, 6, &opts, true, &graph, Mode::Modeled);

        prop_assert!((r.elapsed_us - m.elapsed_us).abs() < 1e-6);
        prop_assert_eq!(r.launches, m.launches);
        prop_assert!((r.backward_us - m.backward_us).abs() < 1e-6);
        prop_assert!(r.loss.is_some() && m.loss.is_none());
    }
}
