//! Regression tests for edge-softmax numerical stability.
//!
//! The seed's `edge_softmax` lowered to a bare `exp → sum → div`, so any
//! attention score above ~88 overflowed `exp` in f32 (`inf / inf = NaN`) —
//! HGT training with Adam hit this after ~28 steps and the loss curve
//! ended in NaN. The builder now emits the standard max-stabilised form
//! (subtract the per-destination max before `exp`, detached in backward).
//! These tests pin both overflow and underflow behaviour with extreme
//! attention scores under every optimization combination.

use hector::prelude::*;
use hector_ir::AggNorm;

/// A model that routes a node feature through a dot-product attention
/// score and an edge softmax; the output per destination node is the sum
/// of its incoming softmax weights, which must be exactly 1.
fn softmax_model(width: usize) -> hector::ModelSource {
    let mut m = ModelBuilder::new("softmax_stability");
    let h = m.node_input("h", width);
    let w_s = m.weight_vec_per_etype("w_s", width);
    let att = m.dot("att", m.src(h), m.wvec(w_s));
    let sm = m.edge_softmax("att_sm", att);
    let out = m.aggregate("out", m.edge(sm), None, AggNorm::None);
    m.output(out);
    m.finish()
}

fn graph() -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "softmax_stability".into(),
        num_nodes: 24,
        num_node_types: 2,
        num_edges: 96,
        num_edge_types: 3,
        compaction_ratio: 0.5,
        type_skew: 1.0,
        seed: 11,
    }))
}

/// Runs the model with the node feature pinned to `feature_value` and
/// returns the output tensor rows (one scalar per node).
fn run_with_feature(feature_value: f32, opts: &CompileOptions) -> Vec<f32> {
    let width = 4;
    let g = graph();
    let mut engine = EngineBuilder::from_source(softmax_model(width))
        .options(opts.clone())
        .seed(5)
        .build()
        .unwrap();
    engine.bind(&g).unwrap();
    // Unit weights make the attention score exactly `width * feature`:
    // ±4e3 per edge at |feature| = 1e3, far beyond f32's exp range.
    let params = engine.params_mut();
    for w in 0..params.len() {
        let wid = hector_ir::WeightId(w as u32);
        params.weight_mut(wid).data_mut().fill(1.0);
    }
    let mut bindings = Bindings::new();
    let n = g.graph().num_nodes();
    bindings.set(
        "h",
        Tensor::from_vec(vec![feature_value; n * width], &[n, width]),
    );
    engine.set_bindings(bindings);
    engine.forward().unwrap();
    engine.output().data().to_vec()
}

fn all_option_combos() -> [CompileOptions; 4] {
    [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ]
}

#[test]
fn huge_positive_scores_do_not_overflow() {
    for opts in all_option_combos() {
        let sums = run_with_feature(1e3, &opts);
        for (v, &s) in sums.iter().enumerate() {
            assert!(
                s.is_finite(),
                "{}: node {v} softmax sum is {s}",
                opts.label()
            );
        }
        // Nodes with incoming edges must see their attention sum to 1.
        let g = graph();
        let mut has_in = vec![false; g.graph().num_nodes()];
        for &d in g.graph().dst() {
            has_in[d as usize] = true;
        }
        for (v, &s) in sums.iter().enumerate() {
            if has_in[v] {
                assert!((s - 1.0).abs() < 1e-5, "{}: node {v} sum {s}", opts.label());
            }
        }
    }
}

#[test]
fn huge_negative_scores_do_not_underflow_to_nan() {
    // All-negative attention: without true max-stabilisation every exp
    // underflows to 0 and the division yields 0/0 = NaN.
    for opts in all_option_combos() {
        let sums = run_with_feature(-1e3, &opts);
        for (v, &s) in sums.iter().enumerate() {
            assert!(
                s.is_finite(),
                "{}: node {v} softmax sum is {s}",
                opts.label()
            );
        }
    }
}

#[test]
fn stabilised_softmax_matches_unstabilised_in_safe_range() {
    // In the numerically safe regime the stabilisation must be invisible:
    // softmax sums are 1 exactly as before.
    for opts in all_option_combos() {
        let sums = run_with_feature(0.25, &opts);
        let g = graph();
        let mut has_in = vec![false; g.graph().num_nodes()];
        for &d in g.graph().dst() {
            has_in[d as usize] = true;
        }
        for (v, &s) in sums.iter().enumerate() {
            if has_in[v] {
                assert!((s - 1.0).abs() < 1e-5, "{}: node {v} sum {s}", opts.label());
            }
        }
    }
}
