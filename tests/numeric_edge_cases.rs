//! IEEE edge-case semantics of real-mode execution, pinned on both
//! backends: the sequential oracle (`BackendKind::Interp`) *and* the
//! production micro-op executor (`BackendKind::Specialized`, one chunk
//! and chunked), so the conventions below hold for the reference and
//! for what actually ships.
//!
//! Two classes of numeric corner pinned here:
//!
//! 1. **Non-finite weight slabs.** IEEE mandates `0 × inf = NaN`, so a
//!    poisoned slab must poison the output, never be silently masked.
//!    No GEMM kernel skips a `x == 0.0` input element — neither the
//!    production tiles nor the oracle's scalar rows — so a zero input
//!    meeting an `inf` weight yields `NaN` on both backends.
//!
//! 2. **Zero-in-degree destinations.** Softmax/mean normalization at a
//!    node no edge touched divides an all-zero aggregate by a zero
//!    denominator. The interpreter resolves `0/0` to `0` — the same
//!    convention as the `AggNorm::Max` sweep-back (untouched groups get
//!    a finite default) — while every other division keeps IEEE
//!    semantics. For the built-in softmax models the NaN is *refuted*:
//!    the normalizing division is edgewise, so it never executes at an
//!    isolated destination; the guard matters for node-space
//!    normalizations (explicit mean, degree divisions).

mod common;

use common::{bits, builder, cyclic_labels, par};
use hector::prelude::*;
use hector::{ModelSource, NeighborSampler, Subgraph};
use hector_ir::{AggNorm, Operand};

const BACKENDS: [BackendKind; 2] = [BackendKind::Interp, BackendKind::Specialized];

/// `src` under `opts` on `backend` with `threads` workers over 2-row
/// chunks, bound to `graph` (weights and features from `seed`).
fn bound_engine(
    src: &ModelSource,
    opts: &CompileOptions,
    graph: &GraphData,
    backend: BackendKind,
    threads: usize,
    seed: u64,
) -> Engine {
    let mut engine = EngineBuilder::from_source(src.clone())
        .options(opts.clone())
        .parallel(par(threads, 2))
        .backend(backend)
        .seed(seed)
        .build()
        .expect("valid engine configuration");
    engine.bind(graph).unwrap();
    engine
}

fn forward_bits(engine: &mut Engine) -> Vec<u32> {
    engine.forward().expect("inference fits");
    bits(engine.output())
}

/// A graph whose nodes 0 and 5 have no incoming edges (node 5 also has
/// no outgoing ones — fully isolated).
fn graph_with_isolated_nodes() -> GraphData {
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(6);
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 1);
    b.add_edge(2, 3, 0);
    b.add_edge(0, 4, 1);
    b.add_edge(3, 4, 0);
    GraphData::new(b.build())
}

#[test]
fn zero_input_times_inf_weight_is_nan_not_silently_skipped() {
    for backend in BACKENDS {
        // out = h · W0 (shared weight, node rows). Poison W0[1][0] with inf
        // and zero node 2's features: IEEE says out[2][0] = 0 × inf = NaN.
        let dim = 4;
        let mut m = ModelBuilder::new("inf_w");
        let h = m.node_input("h", dim);
        let w0 = m.weight_shared("W0", dim, dim);
        let out = m.typed_linear("out", m.this(h), w0);
        m.output(out);
        let src = m.finish();
        let graph = graph_with_isolated_nodes();
        let n = graph.graph().num_nodes();
        let mut feats = vec![1.0f32; n * dim];
        feats[2 * dim..3 * dim].fill(0.0); // node 2: all-zero input row
        let mut bindings = Bindings::new();
        bindings.set("h", Tensor::from_vec(feats, &[n, dim]));

        let [seq, par] = [1usize, 4].map(|threads| {
            let opts = CompileOptions::unopt();
            let mut engine = bound_engine(&src, &opts, &graph, backend, threads, 3);
            *engine
                .params_mut()
                .weight_mut(hector_ir::WeightId(0))
                .data_mut()
                .get_mut(dim) // slab 0, row 1, col 0
                .unwrap() = f32::INFINITY;
            engine.set_bindings(bindings.clone());
            forward_bits(&mut engine)
        });
        assert_eq!(seq, par, "non-finite path diverged across thread counts");

        let col0 = f32::from_bits(seq[2 * dim]);
        assert!(
            col0.is_nan(),
            "0 × inf must be NaN, got {col0} (fast path masked the inf)"
        );
        // Finite rows hit the inf directly: 1 × inf = inf.
        assert!(f32::from_bits(seq[0]).is_infinite());
    }
}

#[test]
fn grad_w_keeps_nan_for_zero_input_columns() {
    for backend in BACKENDS {
        // Train out = h · W0 with an inf in W0: the loss (and dy) go NaN,
        // and the weight gradient must be NaN everywhere — including rows
        // whose input column is all zeros, which the `x == 0` fast path
        // would otherwise silently leave at 0 (0 × NaN must be NaN).
        let dim = 4;
        let mut m = ModelBuilder::new("inf_gw");
        let h = m.node_input("h", dim);
        let w0 = m.weight_shared("W0", dim, dim);
        let out = m.typed_linear("out", m.this(h), w0);
        m.output(out);
        let src = m.finish();
        let opts = CompileOptions::unopt().with_training(true);

        let graph = graph_with_isolated_nodes();
        let n = graph.graph().num_nodes();
        // Column 0 of the input is all zeros across every node.
        let feats: Vec<f32> = (0..n * dim)
            .map(|i| if i % dim == 0 { 0.0 } else { 0.5 })
            .collect();
        let mut bindings = Bindings::new();
        bindings.set("h", Tensor::from_vec(feats, &[n, dim]));
        let labels = cyclic_labels(&graph, dim);

        for threads in [1usize, 4] {
            let mut engine = bound_engine(&src, &opts, &graph, backend, threads, 5);
            *engine
                .params_mut()
                .weight_mut(hector_ir::WeightId(0))
                .data_mut()
                .get_mut(dim + 1)
                .unwrap() = f32::INFINITY;
            engine.set_bindings(bindings.clone());
            let mut opt = Sgd::new(0.0); // keep weights; we inspect grads
            let report = engine
                .train_step(&labels, &mut opt)
                .expect("training step fits");
            assert!(
                report.loss.expect("real mode reports loss").is_nan(),
                "inf weight must poison the loss"
            );
            let g = engine.params().grad(hector_ir::WeightId(0));
            // Row 0 of the gradient slab pairs with the all-zero input
            // column: every entry must be NaN, not a masked 0.
            for (j, &gv) in g.slab(0)[..dim].iter().enumerate() {
                assert!(
                    gv.is_nan(),
                    "threads={threads}: grad[0][{j}] = {gv}, expected NaN (0 × NaN skipped)"
                );
            }
        }
    }
}

#[test]
fn node_space_normalization_is_zero_not_nan_at_isolated_nodes() {
    for backend in BACKENDS {
        // Explicit mean normalization in node space: sum of messages divided
        // by an aggregated edge count. Isolated destinations aggregate
        // nothing — numerator and denominator are both 0 — and the 0/0
        // convention must produce 0, mirroring the Max sweep-back, instead
        // of poisoning the output row with NaN.
        let dim = 4;
        let mut m = ModelBuilder::new("mean_norm");
        let h = m.node_input("h", dim);
        let w = m.weight_per_etype("W", dim, dim);
        let msg = m.typed_linear("msg", m.src(h), w);
        let agg = m.aggregate("agg", m.edge(msg), None, AggNorm::None);
        let cnt = m.aggregate("cnt", Operand::Const(1.0), None, AggNorm::None);
        let norm = m.div("norm", m.this(agg), m.this(cnt));
        m.output(norm);
        let src = m.finish();

        let graph = graph_with_isolated_nodes();
        for opts in [CompileOptions::unopt(), CompileOptions::best()] {
            let [seq, par] = [1usize, 4].map(|threads| {
                forward_bits(&mut bound_engine(&src, &opts, &graph, backend, threads, 11))
            });
            assert_eq!(seq, par, "normalization guard diverged across threads");
            for (i, &bits) in seq.iter().enumerate() {
                let v = f32::from_bits(bits);
                assert!(v.is_finite(), "output[{i}] = {v} must be finite");
            }
            // Nodes 0 and 5 have no in-edges: their normalized rows are 0.
            for node in [0usize, 5] {
                for j in 0..dim {
                    assert_eq!(f32::from_bits(seq[node * dim + j]), 0.0);
                }
            }
        }
    }
}

#[test]
fn sampled_subgraphs_pin_zero_in_degree_convention_to_zero() {
    for backend in BACKENDS {
        // Sampled subgraphs *routinely* manufacture zero-in-degree
        // destinations: a fanout cap drops edges, and frontier nodes
        // discovered at the last hop keep none of their own in-edges. This
        // pins the audit result of the `BinOp::Div` 0/0 read path (see
        // exec.rs, "Zero-in-degree destinations") on exactly those graphs:
        // explicit mean normalisation at an isolated destination must
        // produce 0 — not NaN — bit-identically on the sequential and
        // parallel executors, and max-aggregation must sweep untouched rows
        // back to the same finite default.
        let dim = 4;
        let mut m = ModelBuilder::new("sub_mean_norm");
        let h = m.node_input("h", dim);
        let w = m.weight_per_etype("W", dim, dim);
        let msg = m.typed_linear("msg", m.src(h), w);
        let agg = m.aggregate("agg", m.edge(msg), None, AggNorm::None);
        let cnt = m.aggregate("cnt", Operand::Const(1.0), None, AggNorm::None);
        let norm = m.div("norm", m.this(agg), m.this(cnt));
        let mx = m.aggregate("mx", m.edge(msg), None, AggNorm::Max);
        let both = m.add("both", m.this(norm), m.this(mx));
        m.output(both);
        let src = m.finish();

        let full = hector::generate(&DatasetSpec {
            name: "sub_zero_deg".into(),
            num_nodes: 80,
            num_node_types: 2,
            num_edges: 500,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 13,
        });
        // An aggressive fanout cap guarantees plenty of dropped in-edges.
        let sampler = NeighborSampler::new(&full, &SamplerConfig::new(12).fanouts(&[2, 1]), 41);
        let batch = sampler.sample(&full, 0);
        let sub = Subgraph::extract(&full, &batch);
        let graph = GraphData::new(sub.graph().clone());
        let g = graph.graph();
        let isolated: Vec<usize> = (0..g.num_nodes())
            .filter(|&v| g.csc().in_edges(v).is_empty())
            .collect();
        assert!(
            !isolated.is_empty(),
            "the sampled subgraph must contain zero-in-degree nodes for this pin to bite"
        );

        let [seq, par] = [1usize, 4].map(|threads| {
            let opts = CompileOptions::best();
            forward_bits(&mut bound_engine(&src, &opts, &graph, backend, threads, 19))
        });
        assert_eq!(seq, par, "zero-in-degree guard diverged across threads");
        for (i, &bits) in seq.iter().enumerate() {
            let v = f32::from_bits(bits);
            assert!(v.is_finite(), "output[{i}] = {v} must be finite");
        }
        // Isolated destinations: mean term is 0/0 → 0, max term sweeps back
        // to 0 — the whole row is exactly 0.0, not NaN.
        for &node in &isolated {
            for j in 0..dim {
                assert_eq!(
                    f32::from_bits(seq[node * dim + j]),
                    0.0,
                    "node {node} (0 in-edges) col {j}: 0-neighbor convention is 0, not NaN"
                );
            }
        }
    }
}

#[test]
fn softmax_models_stay_finite_on_graphs_with_isolated_nodes() {
    for backend in BACKENDS {
        // The issue hypothesised that zero-in-degree destinations turn the
        // edge softmax's normalizing division into 0/0 = NaN. Refuted for
        // the built-in models: that division is *edgewise*, so it only ever
        // runs for destinations with at least one incoming edge, and the
        // max-stabilised numerator keeps the denominator ≥ 1. This test
        // pins the refutation — inference outputs and five training steps
        // stay finite on a graph with isolated nodes, at 1 and 4 threads.
        let graph = graph_with_isolated_nodes();
        for kind in [ModelKind::Rgat, ModelKind::Hgt] {
            for threads in [1usize, 4] {
                let mut trainer = builder(kind, 8, &CompileOptions::best(), 17)
                    .parallel(par(threads, 2))
                    .backend(backend)
                    .build_trainer(Adam::new(0.01))
                    .unwrap();
                trainer.bind(&graph).unwrap();
                trainer.set_labels(cyclic_labels(&graph, 4)).unwrap();
                for step in 0..5 {
                    let report = trainer.step().expect("training step fits");
                    let loss = report.loss.expect("real mode reports loss");
                    assert!(
                        loss.is_finite(),
                        "{} threads={threads} step {step}: loss {loss}",
                        kind.name()
                    );
                    for &v in trainer.engine().output().data() {
                        assert!(v.is_finite(), "{} non-finite output {v}", kind.name());
                    }
                }
            }
        }
    }
}
