//! Multi-layer model stacks through the full pipeline: correctness
//! against a layer-by-layer reference, training convergence, and
//! optimization equivalence on deep programs.

mod common;

use common::cyclic_labels;
use hector::prelude::*;
use hector_models::{reference, stacked};
use hector_runtime::cnorm_tensor;
use hector_tensor::{assert_close, Tensor};

fn graph() -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "stack".into(),
        num_nodes: 40,
        num_node_types: 2,
        num_edges: 150,
        num_edge_types: 4,
        compaction_ratio: 0.5,
        type_skew: 1.0,
        seed: 55,
    }))
}

/// Layer-by-layer reference for the RGCN stack (logits on the last
/// layer, ReLU between layers).
fn rgcn_stack_reference(
    g: &hector::HeteroGraph,
    h: &Tensor,
    cnorm: &Tensor,
    params: &ParamStore,
    layers: usize,
) -> Tensor {
    let mut cur = h.clone();
    for l in 0..layers {
        let w = params.weight(hector_ir::WeightId((2 * l) as u32));
        let w0 = params.weight(hector_ir::WeightId((2 * l + 1) as u32));
        if l + 1 == layers {
            return reference::rgcn_layer(g, &cur, cnorm, w, w0);
        }
        cur = reference::rgcn_forward(g, &cur, cnorm, w, w0);
    }
    cur
}

#[test]
fn two_layer_rgcn_matches_layerwise_reference() {
    let graph = graph();
    for opts in [CompileOptions::unopt(), CompileOptions::best()] {
        let mut engine = EngineBuilder::from_source(stacked::stack(ModelKind::Rgcn, 2, 12, 10, 6))
            .options(opts)
            .seed(3)
            .build()
            .unwrap();
        engine.bind(&graph).unwrap().forward().unwrap();
        let (got, params, bindings) = (engine.output(), engine.params(), engine.bindings());
        let expect = rgcn_stack_reference(
            graph.graph(),
            bindings.get("h").unwrap(),
            &cnorm_tensor(&graph),
            params,
            2,
        );
        assert_close(got, &expect, 1e-3, 1e-4);
    }
}

#[test]
fn three_layer_stack_compiles_and_runs() {
    let graph = graph();
    let mut trainer = EngineBuilder::from_source(stacked::stack(ModelKind::Rgcn, 3, 8, 12, 4))
        .seed(4)
        .build_trainer(Adam::new(0.02))
        .unwrap();
    let module = trainer.engine().module();
    assert!(module.fw_kernels.len() >= 6, "three layers of kernels");
    trainer.bind(&graph).unwrap();
    trainer.set_labels(cyclic_labels(&graph, 4)).unwrap();
    let losses = trainer.epoch(25).unwrap().losses;
    assert!(
        losses.last().unwrap() < &(losses[0] - 0.05),
        "deep stack should train: {losses:?}"
    );
}

#[test]
fn stacked_rgat_all_option_combos_agree() {
    let graph = graph();
    let src = stacked::stack(ModelKind::Rgat, 2, 10, 8, 5);
    let mut outputs = Vec::new();
    for opts in [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ] {
        let mut engine = EngineBuilder::from_source(src.clone())
            .options(opts)
            .seed(5)
            .build()
            .unwrap();
        engine.bind(&graph).unwrap().forward().unwrap();
        outputs.push(engine.output().clone());
    }
    for other in &outputs[1..] {
        assert_close(&outputs[0], other, 2e-3, 2e-4);
    }
}

#[test]
fn deep_stacks_gain_from_reordering_each_layer() {
    // Reordering should remove one GEMM per RGAT layer.
    use hector_ir::KernelSpec;
    let count = |opts: &CompileOptions| {
        hector::compile(&stacked::stack(ModelKind::Rgat, 3, 16, 16, 16), opts)
            .fw_kernels
            .iter()
            .filter(|k| matches!(k, KernelSpec::Gemm(_)))
            .count()
    };
    let unopt = count(&CompileOptions::unopt());
    let reord = count(&CompileOptions::reorder_only());
    assert_eq!(unopt - reord, 3, "one ht GEMM eliminated per layer");
}
