//! Regression tests for backward-generation bugs found during
//! development (kept as a fine-grained gradient test suite at the
//! runtime level; the model-level checks live in the workspace-root
//! `gradients.rs` integration test).

use hector_compiler::CompileOptions;
use hector_graph::HeteroGraphBuilder;
use hector_ir::{AggNorm, ModelBuilder, Program, WeightId};
use hector_runtime::*;
use hector_tensor::seeded_rng;

struct NoOp;
impl Optimizer for NoOp {
    fn step(&mut self, _p: &mut ParamStore, _prog: &Program) {}
}

fn graph() -> GraphData {
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(3);
    b.add_edge(0, 2, 0);
    b.add_edge(1, 2, 0);
    GraphData::new(b.build())
}

fn generated_graph() -> GraphData {
    GraphData::new(hector_graph::generate(&hector_graph::DatasetSpec {
        name: "g".into(),
        num_nodes: 14,
        num_node_types: 2,
        num_edges: 40,
        num_edge_types: 3,
        compaction_ratio: 0.6,
        type_skew: 1.0,
        seed: 77,
    }))
}

/// Compares the analytic gradients of one (no-op optimizer) training
/// step of `src` on `g` against central finite differences, over the
/// first `max_idx` entries of every non-derived weight in `names` (all
/// of them when `None`). Prints each entry beyond `abs_tol + 10 %` and
/// returns how many there were.
fn fd_mismatches(
    src: hector_ir::builder::ModelSource,
    g: &GraphData,
    labels: &[usize],
    names: Option<&[&str]>,
    max_idx: usize,
    abs_tol: f32,
) -> usize {
    let mut engine = EngineBuilder::from_source(src)
        .options(CompileOptions::unopt())
        .training(true)
        .seed(5)
        .build()
        .unwrap();
    engine.bind(g).unwrap();
    let features = Bindings::standard(&engine.module().forward, g, &mut seeded_rng(6));
    engine.set_bindings(features);
    engine.train_step(labels, &mut NoOp).unwrap();
    let weights = engine.module().forward.weights.clone();
    let eps = 1e-3f32;
    let mut bad = 0;
    for (wi, info) in weights.iter().enumerate() {
        if info.derived || names.is_some_and(|n| !n.contains(&info.name.as_str())) {
            continue;
        }
        let wid = WeightId(wi as u32);
        for idx in 0..engine.params().weight(wid).len().min(max_idx) {
            let orig = engine.params().weight(wid).data()[idx];
            let mut loss_with = |v: f32| {
                engine.params_mut().weight_mut(wid).data_mut()[idx] = v;
                engine.forward().unwrap();
                nll_loss_and_grad(engine.output(), labels).loss
            };
            let up = loss_with(orig + eps);
            let down = loss_with(orig - eps);
            engine.params_mut().weight_mut(wid).data_mut()[idx] = orig;
            let fd = (up - down) / (2.0 * eps);
            let an = engine.params().grad(wid).data()[idx];
            if (fd - an).abs() > abs_tol + 0.1 * fd.abs().max(an.abs()) {
                println!(
                    "  {}[{idx}]: fd={fd:.6} analytic={an:.6} MISMATCH",
                    info.name
                );
                bad += 1;
            }
        }
    }
    bad
}

/// The toy-graph probes print their mismatches without failing: they
/// keep the programs that once broke backward generation compiling and
/// running; the generated-graph checks below assert.
fn check(src: hector_ir::builder::ModelSource, names: &[&str]) {
    fd_mismatches(src, &graph(), &[0, 1, 0], Some(names), usize::MAX, 1e-2);
}

#[test]
fn dot_weightvec_grad() {
    let mut m = ModelBuilder::new("mini");
    let h = m.node_input("h", 2);
    let w = m.weight_per_etype("W", 2, 2);
    let w_s = m.weight_vec_per_etype("w_s", 2);
    let hs = m.typed_linear("hs", m.src(h), w);
    let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
    let att = m.edge_softmax("att", atts);
    let out = m.aggregate("out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
    m.output(out);
    check(m.finish(), &["W", "w_s"]);
}

#[test]
fn no_softmax_grad() {
    let mut m = ModelBuilder::new("mini2");
    let h = m.node_input("h", 2);
    let w = m.weight_per_etype("W", 2, 2);
    let w_s = m.weight_vec_per_etype("w_s", 2);
    let hs = m.typed_linear("hs", m.src(h), w);
    let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
    let out = m.aggregate("out", m.edge(hs), Some(m.edge(atts)), AggNorm::None);
    m.output(out);
    check(m.finish(), &["W", "w_s"]);
}

#[test]
fn full_rgat_tiny() {
    let mut m = ModelBuilder::new("mini3");
    let h = m.node_input("h", 2);
    let w = m.weight_per_etype("W", 2, 2);
    let w_s = m.weight_vec_per_etype("w_s", 2);
    let w_t = m.weight_vec_per_etype("w_t", 2);
    let hs = m.typed_linear("hs", m.src(h), w);
    let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
    let ht = m.typed_linear("ht", m.dst(h), w);
    let attt = m.dot("attt", m.edge(ht), m.wvec(w_t));
    let raw = m.add("raw", m.edge(atts), m.edge(attt));
    let act = m.leaky_relu("act", m.edge(raw));
    let att = m.edge_softmax("att", act);
    let out = m.aggregate("out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
    m.output(out);
    check(m.finish(), &["W", "w_s", "w_t"]);
}

#[test]
fn full_rgat_generated_graph() {
    let g = generated_graph();
    let dim = 4;
    let mut m = ModelBuilder::new("mini4");
    let h = m.node_input("h", dim);
    let w = m.weight_per_etype("W", dim, dim);
    let w_s = m.weight_vec_per_etype("w_s", dim);
    let w_t = m.weight_vec_per_etype("w_t", dim);
    let hs = m.typed_linear("hs", m.src(h), w);
    let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
    let ht = m.typed_linear("ht", m.dst(h), w);
    let attt = m.dot("attt", m.edge(ht), m.wvec(w_t));
    let raw = m.add("raw", m.edge(atts), m.edge(attt));
    let act = m.leaky_relu("act", m.edge(raw));
    let att = m.edge_softmax("att", act);
    let out = m.aggregate("out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
    m.output(out);
    let labels: Vec<usize> = (0..g.graph().num_nodes()).map(|i| i % 4).collect();
    fd_mismatches(m.finish(), &g, &labels, None, 8, 5e-3);
}

fn check_on_generated(src: hector_ir::builder::ModelSource, names: &[&str]) {
    let g = generated_graph();
    let labels: Vec<usize> = (0..g.graph().num_nodes()).map(|i| i % 2).collect();
    let bad = fd_mismatches(src, &g, &labels, Some(names), 6, 5e-3);
    assert_eq!(bad, 0, "{} mismatches", bad);
}

#[test]
fn gen_no_softmax() {
    let mut m = ModelBuilder::new("g1");
    let h = m.node_input("h", 2);
    let w = m.weight_per_etype("W", 2, 2);
    let w_s = m.weight_vec_per_etype("w_s", 2);
    let hs = m.typed_linear("hs", m.src(h), w);
    let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
    let out = m.aggregate("out", m.edge(hs), Some(m.edge(atts)), AggNorm::None);
    m.output(out);
    check_on_generated(m.finish(), &["W", "w_s"]);
}

#[test]
fn gen_softmax() {
    let mut m = ModelBuilder::new("g2");
    let h = m.node_input("h", 2);
    let w = m.weight_per_etype("W", 2, 2);
    let w_s = m.weight_vec_per_etype("w_s", 2);
    let hs = m.typed_linear("hs", m.src(h), w);
    let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
    let att = m.edge_softmax("att", atts);
    let out = m.aggregate("out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
    m.output(out);
    check_on_generated(m.finish(), &["W", "w_s"]);
}

#[test]
fn gen_plain_agg() {
    let mut m = ModelBuilder::new("g3");
    let h = m.node_input("h", 2);
    let w = m.weight_per_etype("W", 2, 2);
    let hs = m.typed_linear("hs", m.src(h), w);
    let out = m.aggregate("out", m.edge(hs), None, AggNorm::None);
    m.output(out);
    check_on_generated(m.finish(), &["W"]);
}
