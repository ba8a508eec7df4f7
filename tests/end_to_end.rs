//! End-to-end correctness: compiled Hector kernels must reproduce the
//! dense reference implementations (up to f32 accumulation order) for
//! every model and every optimization combination.

mod common;

use common::{builder, reseed_features};
use hector::prelude::*;
use hector_models::{hgt, reference, rgat, rgcn};
use hector_runtime::cnorm_tensor;
use hector_tensor::assert_close;

fn test_graph(seed: u64) -> GraphData {
    let spec = DatasetSpec {
        name: "e2e".into(),
        num_nodes: 60,
        num_node_types: 3,
        num_edges: 240,
        num_edge_types: 5,
        compaction_ratio: 0.5,
        type_skew: 1.0,
        seed,
    };
    GraphData::new(hector::generate(&spec))
}

fn all_option_combos() -> Vec<CompileOptions> {
    vec![
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ]
}

/// One forward pass with weights from `seed` and features from their own
/// stream (`seed + 1`); returns the output beside the inputs it came from.
fn run_compiled(
    kind: ModelKind,
    opts: &CompileOptions,
    graph: &GraphData,
    dim: usize,
    seed: u64,
) -> (Tensor, ParamStore, Bindings) {
    let mut engine = builder(kind, dim, opts, seed).build().unwrap();
    engine.bind(graph).unwrap();
    reseed_features(&mut engine, seed + 1);
    engine.forward().expect("small graph cannot OOM");
    (
        engine.output().clone(),
        engine.params().clone(),
        engine.bindings().clone(),
    )
}

#[test]
fn rgcn_matches_reference_under_all_options() {
    let graph = test_graph(100);
    for opts in all_option_combos() {
        let (got, params, bindings) = run_compiled(ModelKind::Rgcn, &opts, &graph, 16, 7);
        let expect = reference::rgcn_forward(
            graph.graph(),
            bindings.get("h").unwrap(),
            &cnorm_tensor(&graph),
            params.weight(rgcn::weights::W),
            params.weight(rgcn::weights::W0),
        );
        assert_close(&got, &expect, 1e-3, 1e-4);
    }
}

#[test]
fn rgat_matches_reference_under_all_options() {
    let graph = test_graph(200);
    for opts in all_option_combos() {
        let (got, params, bindings) = run_compiled(ModelKind::Rgat, &opts, &graph, 16, 17);
        let expect = reference::rgat_forward(
            graph.graph(),
            bindings.get("h").unwrap(),
            params.weight(rgat::weights::W),
            params.weight(rgat::weights::W_S),
            params.weight(rgat::weights::W_T),
        );
        assert_close(&got, &expect, 1e-3, 1e-4);
    }
}

#[test]
fn hgt_matches_reference_under_all_options() {
    let graph = test_graph(300);
    for opts in all_option_combos() {
        let (got, params, bindings) = run_compiled(ModelKind::Hgt, &opts, &graph, 16, 27);
        let expect = reference::hgt_forward(
            graph.graph(),
            bindings.get("h").unwrap(),
            params.weight(hgt::weights::W_K),
            params.weight(hgt::weights::W_Q),
            params.weight(hgt::weights::W_M),
            params.weight(hgt::weights::W_A),
            params.weight(hgt::weights::W_O),
        );
        assert_close(&got, &expect, 1e-3, 1e-4);
    }
}

#[test]
fn csr_adjacency_produces_identical_results() {
    let graph = test_graph(400);
    let mut coo = CompileOptions::best();
    coo.adjacency = hector_ir::AdjacencyAccess::Coo;
    let mut csr = CompileOptions::best();
    csr.adjacency = hector_ir::AdjacencyAccess::Csr;
    let (a, ..) = run_compiled(ModelKind::Rgat, &coo, &graph, 8, 3);
    let (b, ..) = run_compiled(ModelKind::Rgat, &csr, &graph, 8, 3);
    assert_close(&a, &b, 1e-6, 1e-6);
}

#[test]
fn isolated_destination_nodes_get_zero_aggregate() {
    // A graph where one node has no incoming edges: RGAT output for it is
    // all zeros (no self loop in RGAT).
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(4);
    b.add_edge(0, 1, 0);
    b.add_edge(2, 1, 0);
    b.add_edge(1, 2, 1);
    let graph = GraphData::new(b.build());
    let (got, ..) = run_compiled(ModelKind::Rgat, &CompileOptions::best(), &graph, 8, 5);
    assert!(
        got.row(3).iter().all(|&x| x == 0.0),
        "node 3 has no in-edges"
    );
    assert!(
        got.row(1).iter().any(|&x| x != 0.0),
        "node 1 aggregates two edges"
    );
}

#[test]
fn deterministic_across_runs() {
    let graph = test_graph(500);
    let (a, ..) = run_compiled(ModelKind::Hgt, &CompileOptions::best(), &graph, 8, 9);
    let (b, ..) = run_compiled(ModelKind::Hgt, &CompileOptions::best(), &graph, 8, 9);
    assert_close(&a, &b, 0.0, 0.0);
}

#[test]
fn larger_dims_stay_correct() {
    let graph = test_graph(600);
    for dim in [32, 64] {
        let (got, params, bindings) =
            run_compiled(ModelKind::Rgcn, &CompileOptions::best(), &graph, dim, 31);
        let expect = reference::rgcn_forward(
            graph.graph(),
            bindings.get("h").unwrap(),
            &cnorm_tensor(&graph),
            params.weight(rgcn::weights::W),
            params.weight(rgcn::weights::W0),
        );
        assert_close(&got, &expect, 1e-3, 1e-4);
    }
}

#[test]
fn graph_with_no_edges_runs_cleanly() {
    // Degenerate but legal: nodes exist, no edges at all. Aggregations
    // produce zeros; GEMMs over zero rows are no-ops.
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(5);
    let graph = GraphData::new(b.build());
    // RGCN still has the nodewise self-loop path. num_edge_types is 0,
    // so the per-relation weight stack is empty — exercise that too.
    let mut engine = builder(ModelKind::Rgcn, 4, &CompileOptions::best(), 1)
        .build()
        .unwrap();
    let report = engine.bind(&graph).unwrap().forward().unwrap();
    let out = engine.output();
    assert_eq!(out.rows(), 5);
    assert!(out.data().iter().all(|v| v.is_finite()));
    assert!(report.launches > 0);
}

#[test]
fn single_node_self_loop_graph() {
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(1);
    b.add_edge(0, 0, 0);
    let graph = GraphData::new(b.build());
    let (got, params, bindings) =
        run_compiled(ModelKind::Rgat, &CompileOptions::best(), &graph, 4, 2);
    // One edge, softmax weight is exactly 1: output = hs.
    let expect = hector_models::reference::rgat_forward(
        graph.graph(),
        bindings.get("h").unwrap(),
        params.weight(hector_models::rgat::weights::W),
        params.weight(hector_models::rgat::weights::W_S),
        params.weight(hector_models::rgat::weights::W_T),
    );
    assert_close(&got, &expect, 1e-4, 1e-5);
}

#[test]
fn laptop_device_config_also_works() {
    let graph = test_graph(700);
    let run = |device| {
        let mut engine = builder(ModelKind::Hgt, 8, &CompileOptions::best(), 6)
            .device(device)
            .build()
            .unwrap();
        engine.bind(&graph).unwrap().forward().unwrap()
    };
    let report = run(DeviceConfig::laptop_4gb());
    // The slower part can never beat the 3090 on the same work (ties are
    // possible when every kernel is launch-overhead-bound).
    let fast_report = run(DeviceConfig::rtx3090());
    assert!(report.elapsed_us >= fast_report.elapsed_us);
    assert!(report.elapsed_us.is_finite() && report.peak_bytes > 0);
}
