//! Failure modes of the block-fused traversal loop.
//!
//! The production executor keeps a fused kernel's register-local
//! variables in per-chunk scratch — a block of rows, a destination
//! tile's in-edge list, one row per tile destination — instead of
//! `[E, w]` tensors. Scratch is *reused*: whatever the previous block or
//! tile left there is still there. Every case below is built so that a
//! stale row, a missed seed, a mis-sized block or a tile that lets a
//! destination start a pass early changes bits against the sequential
//! oracle (`BackendKind::Interp`), which still runs every local through
//! a zero-filled tensor, one destination at a time.

mod common;

use common::{bits, inference_bits, par, parity, training_bits, weight_bits};
use hector::prelude::*;
use hector::serve::{ServeConfig, ServeHandle};
use hector::{DeltaBatch, HashPartitioner, ShardConfig, ShardedGraph};
use hector_ir::AggNorm;

const BACKENDS: [BackendKind; 2] = [BackendKind::Interp, BackendKind::Specialized];

fn option_combos() -> [CompileOptions; 4] {
    [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ]
}

/// 48 nodes whose in-degrees are laid out to trip scratch reuse inside
/// one 4-row chunk and across chunks: isolated destinations (2, 4, 6)
/// between high-degree ones, in-degrees of exactly one block (node 8:
/// 32), one past it (node 7: 33), well past it (node 1: 40) and past
/// every earlier one (node 5: 70), then a sparse tail. Sources repeat
/// per relation, so compaction has shared rows to work with.
fn scratch_graph() -> GraphData {
    let n = 48u32;
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(20);
    b.add_node_type(28);
    b.reserve_edge_types(3);
    let mut fan_in = |dst: u32, degree: u32| {
        for k in 0..degree {
            b.add_edge((dst + 1 + k * 7) % n, dst, k % 3);
        }
    };
    for (dst, degree) in [(1, 40), (3, 3), (5, 70), (7, 33), (8, 32)] {
        fan_in(dst, degree);
    }
    for dst in 9..n {
        fan_in(dst, dst % 5);
    }
    let graph = b.build();
    let degree = graph.in_degree();
    assert_eq!([degree[2], degree[4], degree[6]], [0, 0, 0]);
    assert_eq!(
        [degree[1], degree[5], degree[7], degree[8]],
        [40, 70, 33, 32]
    );
    GraphData::new(graph)
}

/// 100 nodes whose in-degrees close destination tiles every way a tile
/// can close (at most 32 in-edges and 32 destinations): 40 zero-in-degree
/// destinations in a row (the destination budget), neighbours whose
/// in-degrees sum to exactly 32 and then one more, and to 33 (the edge
/// budget), lone destinations of 33 and 70 in-edges (tiles of several
/// blocks), a zero-in-degree destination between two fed ones (the
/// mid-pass sweep inside a tile), then a sparse tail.
fn tile_graph() -> GraphData {
    let mut degrees: Vec<u32> = vec![3];
    degrees.extend([0; 40]);
    degrees.extend([10, 12, 10, 1]);
    degrees.extend([16, 17]);
    degrees.extend([33, 2, 70, 5]);
    degrees.extend([2, 0, 3]);
    degrees.extend((0..46).map(|i| i % 6));
    let n = degrees.len() as u32;
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(45);
    b.add_node_type(n as usize - 45);
    b.reserve_edge_types(3);
    for (dst, &degree) in (0..).zip(&degrees) {
        for k in 0..degree {
            b.add_edge((dst + 1 + k * 7) % n, dst, k % 3);
        }
    }
    let graph = b.build();
    assert_eq!((n, graph.in_degree()), (100, degrees));
    GraphData::new(graph)
}

/// Forward output, three Adam steps' losses and the trained weights of
/// `chain(threads, backend)` on `g`: production at 1 and 4 threads
/// against the oracle, bit for bit.
fn assert_chain_matches_oracle(
    what: &str,
    g: &GraphData,
    chain: impl Fn(usize, BackendKind) -> EngineBuilder,
) {
    let run = |threads, backend| {
        let bits = inference_bits(chain(threads, backend), g);
        (bits, training_bits(chain(threads, backend), g, 3))
    };
    let oracle = run(1, BackendKind::Interp);
    for threads in [1, 4] {
        let got = run(threads, BackendKind::Specialized);
        assert_eq!(
            oracle, got,
            "{what} diverged from the oracle at {threads} thread(s)"
        );
    }
}

/// [`assert_chain_matches_oracle`] for every model × option combination
/// at 16 × 16 over 4-row chunks.
fn assert_matches_oracle(g: &GraphData, what: &str) {
    for kind in ModelKind::all() {
        for opts in option_combos() {
            let what = format!("{what}: {kind:?} {}", opts.label());
            assert_chain_matches_oracle(&what, g, |threads, backend| {
                parity(kind, &opts, threads, backend, 29)
            });
        }
    }
}

#[test]
fn scratch_reuse_across_blocks_and_destinations_matches_oracle() {
    assert_matches_oracle(&scratch_graph(), "scratch graph");
}

#[test]
fn empty_edge_set_matches_oracle() {
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(5);
    b.add_node_type(4);
    b.reserve_edge_types(3);
    assert_matches_oracle(&GraphData::new(b.build()), "no edges");
}

/// An edge softmax over caller-supplied scores that are all negative:
/// the per-destination maximum must start from `-inf`, not from the `0`
/// (or the previous destination's maximum) a reused scratch row holds,
/// and a destination without in-edges must still read `0`.
#[test]
fn all_negative_scores_seed_the_max_per_destination() {
    let g = scratch_graph();
    let (nodes, edges, width) = (g.graph().num_nodes(), g.graph().num_edges(), 8);
    let source = || {
        let mut m = ModelBuilder::new("negative_scores");
        let h = m.node_input("h", width);
        let score = m.edge_input("score", 1);
        let w = m.weight_per_etype("W", width, width);
        let hs = m.typed_linear("hs", m.src(h), w);
        let att = m.edge_softmax("att", score);
        let out = m.aggregate("out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
        m.output(out);
        m.finish()
    };
    let mut inputs = Bindings::new();
    let feature = |i: usize| 0.25 + (i % 13) as f32 * 0.125;
    let h = (0..nodes * width).map(feature).collect();
    inputs.set("h", Tensor::from_vec(h, &[nodes, width]));
    let scores = (0..edges).map(|e| -1.5 - (e % 11) as f32).collect();
    inputs.set("score", Tensor::from_vec(scores, &[edges, 1]));
    for opts in option_combos() {
        let run = |threads, backend| {
            let mut engine = EngineBuilder::from_source(source())
                .options(opts.clone())
                .parallel(par(threads, 4))
                .backend(backend)
                .seed(3)
                .build()
                .unwrap();
            engine.bind(&g).unwrap();
            engine.set_bindings(inputs.clone());
            let params = engine.params_mut();
            for w in 0..params.len() {
                let wid = hector_ir::WeightId(w as u32);
                params.weight_mut(wid).data_mut().fill(0.125);
            }
            engine.forward().unwrap();
            engine.output().clone()
        };
        let oracle = run(1, BackendKind::Interp);
        assert!(oracle.data().iter().all(|v| v.is_finite()));
        for isolated in [2, 4, 6] {
            assert!(oracle.row(isolated).iter().all(|&v| v == 0.0));
        }
        // Softmax weights sum to one, so a fed destination's output is a
        // convex mix of positive messages (each ≥ 8 · 0.25 · 0.125): a
        // maximum seeded too high would shrink every weight instead.
        assert!(oracle.row(5).iter().all(|&v| v > 0.2));
        for threads in [1, 4] {
            let got = run(threads, BackendKind::Specialized);
            assert_eq!(bits(&oracle), bits(&got), "{} at {threads}", opts.label());
        }
    }
}

/// A hoisted node op reading a register-local maximum: at a destination
/// without in-edges it must see the swept `0`, not the `-inf` seed and
/// not the previous destination's maximum.
#[test]
fn hoisted_reader_of_a_local_max_sees_zero_without_in_edges() {
    let g = scratch_graph();
    let (nodes, edges) = (g.graph().num_nodes(), g.graph().num_edges());
    let source = || {
        let mut m = ModelBuilder::new("local_max");
        let bias = m.node_input("bias", 1);
        let score = m.edge_input("score", 1);
        let top = m.aggregate("top", m.edge(score), None, AggNorm::Max);
        let out = m.add("out", m.this(top), m.this(bias));
        m.output(out);
        m.finish()
    };
    let mut inputs = Bindings::new();
    let bias = (0..nodes).map(|v| v as f32 * 0.5).collect();
    inputs.set("bias", Tensor::from_vec(bias, &[nodes, 1]));
    let scores = (0..edges).map(|e| -2.0 - (e % 7) as f32).collect();
    inputs.set("score", Tensor::from_vec(scores, &[edges, 1]));
    for threads in [1, 4] {
        let [oracle, production] = BACKENDS.map(|backend| {
            let mut engine = EngineBuilder::from_source(source())
                .parallel(par(threads, 4))
                .backend(backend)
                .build()
                .unwrap();
            engine.bind(&g).unwrap();
            engine.set_bindings(inputs.clone());
            engine.forward().unwrap();
            engine.output().clone()
        });
        for isolated in [2usize, 4, 6] {
            assert_eq!(production.row(isolated), [isolated as f32 * 0.5]);
        }
        assert_eq!(bits(&oracle), bits(&production), "{threads} thread(s)");
    }
}

/// Sampled frontiers are mostly zero-in-degree nodes and every batch has
/// another shape: nine consecutive batches through one trainer, so the
/// pooled scratch is resized and reused batch after batch.
#[test]
fn minibatch_epoch_over_changing_shapes_matches_oracle() {
    let g = GraphData::new(hector::generate(&DatasetSpec {
        name: "fused-minibatch".into(),
        num_nodes: 108,
        num_node_types: 3,
        num_edges: 700,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed: 57,
    }));
    let cfg = SamplerConfig::new(12).fanouts(&[4, 3]).pipeline(false);
    for kind in ModelKind::all() {
        let [oracle, production] = BACKENDS.map(|backend| {
            let mut t = common::trainer(kind, &CompileOptions::best(), 4, backend, 17);
            t.bind(&g).unwrap();
            let losses = t.minibatch_epoch(&cfg).expect("epoch fits").losses;
            (losses, weight_bits(t.engine().params()))
        });
        assert!(oracle.0.len() >= 8, "{} batches", oracle.0.len());
        assert!(production.0.iter().all(|l| l.is_finite()), "{kind:?}");
        let loss_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(loss_bits(&oracle.0), loss_bits(&production.0), "{kind:?}");
        assert_eq!(oracle.1, production.1, "{kind:?}: trained weights");
    }
}

/// The serve workloads' shape: two stacked layers at 32 × 32.
#[test]
fn stacked_two_layer_models_match_oracle() {
    let g = scratch_graph();
    for kind in ModelKind::all() {
        assert_chain_matches_oracle(&format!("{kind:?} × 2"), &g, |threads, backend| {
            EngineBuilder::new(kind)
                .dims(32, 32)
                .layers(2)
                .options(CompileOptions::best())
                .parallel(par(threads, 4))
                .backend(backend)
                .seed(43)
        });
    }
}

/// A delta removes the last in-edge of a node under a served attention
/// model: the node becomes a zero-in-degree destination, and its served
/// row must be finite and equal a fresh engine's on the new graph.
#[test]
fn served_row_survives_losing_its_last_in_edge() {
    let g = scratch_graph();
    let full = g.graph().clone();
    let degree = full.in_degree();
    let lonely = (0..full.num_nodes())
        .find(|&v| degree[v] == 1)
        .expect("the sparse tail has in-degree-1 nodes");
    let e = (0..full.num_edges())
        .find(|&e| full.dst()[e] as usize == lonely)
        .unwrap();
    let chain = || {
        EngineBuilder::new(ModelKind::Hgt)
            .dims(16, 16)
            .options(CompileOptions::best())
            .seed(7)
    };
    let mut sharded = ShardedGraph::partition(
        full.clone(),
        Box::new(HashPartitioner::new(3)),
        ShardConfig::new(2),
    );
    let srv = ServeHandle::start(ServeConfig::default());
    srv.deploy("m", chain(), &g).unwrap();
    let delta = DeltaBatch::new().remove_edge(full.src()[e], full.dst()[e], full.etype()[e]);
    srv.apply_delta("m", chain(), &mut sharded, &delta)
        .expect("delta applies");
    srv.drain();
    let post = GraphData::new(sharded.full().clone());
    assert_eq!(post.graph().in_degree()[lonely], 0);
    let mut fresh = chain().build().unwrap();
    fresh.bind(&post).unwrap().forward().unwrap();
    for node in [lonely, 5, 7] {
        let served = srv.submit("m", node).unwrap().wait().unwrap();
        assert!(served.rows[0].iter().all(|v| v.is_finite()), "node {node}");
        let expect: Vec<u32> = fresh
            .output()
            .row(node)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let got: Vec<u32> = served.rows[0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(expect, got, "node {node}");
    }
    srv.shutdown();
}

#[test]
fn tiles_closing_every_way_match_oracle() {
    assert_matches_oracle(&tile_graph(), "tile graph");
}

#[test]
fn stacked_two_layer_models_match_oracle_on_tiles() {
    let g = tile_graph();
    for kind in ModelKind::all() {
        assert_chain_matches_oracle(&format!("{kind:?} × 2"), &g, |threads, backend| {
            EngineBuilder::new(kind)
                .dims(32, 32)
                .layers(2)
                .options(CompileOptions::best())
                .parallel(par(threads, 4))
                .backend(backend)
                .seed(47)
        });
    }
}

/// A per-destination maximum over all-negative scores, read by a hoisted
/// node op and by an edge softmax: inside a tile, the zero-in-degree
/// destination between two fed ones must read the swept `0` and the fed
/// ones their own maximum, not a neighbour's and not the `-inf` seed.
#[test]
fn negative_maxima_inside_a_tile_are_swept_per_destination() {
    let g = tile_graph();
    let (nodes, edges) = (g.graph().num_nodes(), g.graph().num_edges());
    let hoisted_reader = || {
        let mut m = ModelBuilder::new("tile_max");
        let bias = m.node_input("bias", 1);
        let score = m.edge_input("score", 1);
        let top = m.aggregate("top", m.edge(score), None, AggNorm::Max);
        let out = m.add("out", m.this(top), m.this(bias));
        m.output(out);
        m.finish()
    };
    let softmax = || {
        let mut m = ModelBuilder::new("tile_softmax");
        let bias = m.node_input("bias", 1);
        let score = m.edge_input("score", 1);
        let att = m.edge_softmax("att", score);
        let out = m.aggregate("out", m.edge(score), Some(m.edge(att)), AggNorm::None);
        let out = m.add("shifted", m.this(out), m.this(bias));
        m.output(out);
        m.finish()
    };
    let mut inputs = Bindings::new();
    let bias = (0..nodes).map(|v| v as f32 * 0.5).collect();
    inputs.set("bias", Tensor::from_vec(bias, &[nodes, 1]));
    let scores = (0..edges).map(|e| -2.0 - (e % 7) as f32).collect();
    inputs.set("score", Tensor::from_vec(scores, &[edges, 1]));
    for source in [hoisted_reader, softmax] {
        for threads in [1, 4] {
            let [oracle, production] = BACKENDS.map(|backend| {
                let mut engine = EngineBuilder::from_source(source())
                    .parallel(par(threads, 4))
                    .backend(backend)
                    .build()
                    .unwrap();
                engine.bind(&g).unwrap();
                engine.set_bindings(inputs.clone());
                engine.forward().unwrap();
                engine.output().clone()
            });
            assert_eq!(production.row(52), [26.0], "{threads} thread(s)");
            assert!(production.row(51)[0] < 25.5 && production.row(53)[0] < 26.5);
            assert_eq!(bits(&oracle), bits(&production), "{threads} thread(s)");
        }
    }
}
