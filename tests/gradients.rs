//! Gradient correctness: the IR-generated backward pass must agree with
//! central finite differences of the loss for every model and every
//! optimization combination (including the chain rule through
//! reorder-fused derived weights).

mod common;

use common::{builder, reseed_features};
use hector::prelude::*;
use hector_ir::WeightId;
use hector_runtime::nll_loss_and_grad;

fn tiny_graph() -> GraphData {
    let spec = DatasetSpec {
        name: "grad".into(),
        num_nodes: 14,
        num_node_types: 2,
        num_edges: 40,
        num_edge_types: 3,
        compaction_ratio: 0.6,
        type_skew: 1.0,
        seed: 77,
    };
    GraphData::new(hector::generate(&spec))
}

/// Computes the loss at the current parameters by running forward only.
fn loss_at(engine: &mut Engine, labels: &[usize]) -> f32 {
    engine.forward().unwrap();
    nll_loss_and_grad(engine.output(), labels).loss
}

/// A do-nothing optimizer: leaves gradients in place for inspection.
struct NoOp;
impl Optimizer for NoOp {
    fn step(&mut self, _p: &mut ParamStore, _prog: &hector_ir::Program) {}
}

fn check_model(kind: ModelKind, opts: &CompileOptions, dim: usize, seed: u64) {
    let graph = tiny_graph();
    let mut engine = builder(kind, dim, opts, seed)
        .training(true)
        .build()
        .unwrap();
    engine.bind(&graph).unwrap();
    reseed_features(&mut engine, seed + 1);
    let labels: Vec<usize> = (0..graph.graph().num_nodes())
        .map(|i| i % dim.min(4))
        .collect();

    // Analytic gradients from one training step (NoOp optimizer keeps
    // both weights and gradients intact).
    let report = engine.train_step(&labels, &mut NoOp).unwrap();
    assert!(report.loss.is_some());
    let weights = engine.module().forward.weights.clone();

    // Finite differences on a sample of weight entries of every
    // non-derived weight.
    let eps = 3e-3f32;
    for (wi, info) in weights.iter().enumerate() {
        if info.derived {
            continue;
        }
        let wid = WeightId(wi as u32);
        let n = engine.params().weight(wid).len();
        let analytic = engine.params().grad(wid).clone();
        let stride = (n / 5).max(1);
        for idx in (0..n).step_by(stride) {
            let orig = engine.params().weight(wid).data()[idx];
            let mut loss_with = |v: f32| {
                engine.params_mut().weight_mut(wid).data_mut()[idx] = v;
                loss_at(&mut engine, &labels)
            };
            let up = loss_with(orig + eps);
            let down = loss_with(orig - eps);
            engine.params_mut().weight_mut(wid).data_mut()[idx] = orig;
            let fd = (up - down) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2 + 0.15 * fd.abs().max(an.abs()),
                "{kind:?} {} weight '{}'[{idx}]: fd={fd} analytic={an}",
                opts.label(),
                info.name,
            );
        }
    }
}

#[test]
fn rgcn_gradients_match_finite_differences() {
    for opts in [CompileOptions::unopt(), CompileOptions::best()] {
        check_model(ModelKind::Rgcn, &opts, 6, 11);
    }
}

#[test]
fn rgat_gradients_match_finite_differences() {
    for opts in [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ] {
        check_model(ModelKind::Rgat, &opts, 6, 23);
    }
}

#[test]
fn hgt_gradients_match_finite_differences() {
    for opts in [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ] {
        check_model(ModelKind::Hgt, &opts, 6, 37);
    }
}

/// A dense graph — 30 nodes, ~600 edges over 3 relations (mean in-degree
/// ≈ 20) with node 7's in-edges removed — where a per-destination sum
/// read back while it is still accumulating is far from the finished
/// one. The 14-node / 40-edge graph above is too sparse to tell them
/// apart within its tolerance.
fn dense_graph() -> GraphData {
    let full = hector::generate(&DatasetSpec {
        name: "grad-dense".into(),
        num_nodes: 30,
        num_node_types: 2,
        num_edges: 620,
        num_edge_types: 3,
        compaction_ratio: 0.5,
        type_skew: 1.0,
        seed: 91,
    });
    let mut b = HeteroGraphBuilder::new();
    for t in 0..full.num_node_types() {
        b.add_node_type(full.nodes_of_type(t));
    }
    b.reserve_edge_types(full.num_edge_types());
    for e in 0..full.num_edges() {
        if full.dst()[e] != 7 {
            b.add_edge(full.src()[e], full.dst()[e], full.etype()[e]);
        }
    }
    let graph = b.build();
    assert_eq!(graph.in_degree()[7], 0);
    assert!(graph.num_edges() >= 10 * graph.num_nodes());
    GraphData::new(graph)
}

/// Every model × every option combination on [`dense_graph`]: per
/// weight, the relative L2 error of the analytic gradient against
/// central differences stays below 2 %. (HGT under compact
/// materialisation once fused its softmax-denominator gradient into an
/// edge-order kernel that read the per-destination sum mid-accumulation:
/// 17–56 % here.)
#[test]
fn dense_graph_gradients_match_finite_differences() {
    let graph = dense_graph();
    let (dim, eps) = (6, 3e-3f32);
    let labels: Vec<usize> = (0..graph.graph().num_nodes()).map(|i| i % 4).collect();
    for kind in ModelKind::all() {
        for opts in [
            CompileOptions::unopt(),
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
            CompileOptions::best(),
        ] {
            let mut engine = builder(kind, dim, &opts, 41)
                .training(true)
                .build()
                .unwrap();
            engine.bind(&graph).unwrap();
            reseed_features(&mut engine, 42);
            engine.train_step(&labels, &mut NoOp).unwrap();
            let weights = engine.module().forward.weights.clone();
            for (wi, info) in weights.iter().enumerate() {
                if info.derived {
                    continue;
                }
                let wid = WeightId(wi as u32);
                let analytic = engine.params().grad(wid).clone();
                let (mut err2, mut norm2) = (0.0f64, 0.0f64);
                for idx in 0..analytic.len() {
                    let orig = engine.params().weight(wid).data()[idx];
                    let mut loss_with = |v: f32| {
                        engine.params_mut().weight_mut(wid).data_mut()[idx] = v;
                        loss_at(&mut engine, &labels)
                    };
                    let fd = (loss_with(orig + eps) - loss_with(orig - eps)) / (2.0 * eps);
                    engine.params_mut().weight_mut(wid).data_mut()[idx] = orig;
                    err2 += f64::from(fd - analytic.data()[idx]).powi(2);
                    norm2 += f64::from(fd).powi(2);
                }
                let rel = (err2 / norm2.max(1e-12)).sqrt();
                assert!(
                    rel <= 0.02,
                    "{kind:?} {} weight '{}': relative L2 error {rel:.3}",
                    opts.label(),
                    info.name,
                );
            }
        }
    }
}
