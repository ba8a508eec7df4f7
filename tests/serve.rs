//! Serving-layer integration: the multi-tenant server must be a pure
//! wrapper over the compiled engines — coalescing, concurrency, and hot
//! swap may change *when* a traversal runs, never *what* it computes.
//!
//! * Every concurrently-served response is bit-identical to a
//!   sequential `Engine::forward` oracle, at 1 and 4 dispatch workers.
//! * k coalesced single-node requests return exactly the rows of one
//!   batched traversal.
//! * Hot swap under sustained load drops and fails nothing.
//! * Every `HectorError` variant is reachable as a typed error — the
//!   fallible public API contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hector::prelude::*;
use hector::serve::{ServeConfig, ServeError, ServeHandle};
use hector::{DeltaBatch, HashPartitioner, HectorError, ShardConfig, ShardedGraph};

fn graph(seed: u64, nodes: usize) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "serve_it".into(),
        num_nodes: nodes,
        num_node_types: 3,
        num_edges: nodes * 5,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed,
    }))
}

fn builder(kind: ModelKind, dims: usize, seed: u64) -> EngineBuilder {
    EngineBuilder::new(kind)
        .dims(dims, dims)
        .options(CompileOptions::best())
        .seed(seed)
}

/// The sequential oracle: one standalone engine, one forward, rows as
/// raw bits.
fn oracle_rows(kind: ModelKind, dims: usize, seed: u64, g: &GraphData) -> Vec<Vec<u32>> {
    let mut engine = builder(kind, dims, seed).build().expect("oracle builds");
    let bound = engine.bind(g).expect("oracle binds");
    bound.forward().expect("oracle fits");
    let out = bound.output();
    (0..out.rows())
        .map(|i| out.row(i).iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn row_bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn concurrent_submissions_are_bit_identical_to_the_sequential_oracle() {
    let g1 = graph(31, 96);
    let g2 = graph(32, 64);
    let tenants = [
        ("rgcn_g1", ModelKind::Rgcn, 16usize, 3u64, &g1),
        ("rgat_g1", ModelKind::Rgat, 8, 4, &g1),
        ("hgt_g2", ModelKind::Hgt, 8, 5, &g2),
    ];
    let oracles: Vec<Vec<Vec<u32>>> = tenants
        .iter()
        .map(|&(_, kind, dims, seed, g)| oracle_rows(kind, dims, seed, g))
        .collect();

    for workers in [1usize, 4] {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(workers));
        for &(name, kind, dims, seed, g) in &tenants {
            srv.deploy(name, builder(kind, dims, seed), g).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let srv = srv.clone();
                let oracles = &oracles;
                let tenants = &tenants;
                s.spawn(move || {
                    for i in 0..30u64 {
                        let which = ((t * 31 + i * 7) % 3) as usize;
                        let (name, _, _, _, g) = tenants[which];
                        let node = ((t * 13 + i * 17) % g.graph().num_nodes() as u64) as usize;
                        let r = srv.submit(name, node).unwrap().wait().unwrap();
                        assert_eq!(
                            row_bits(&r.rows[0]),
                            oracles[which][node],
                            "workers={workers} tenant={name} node={node}: \
                             served row diverged from the sequential oracle"
                        );
                    }
                });
            }
        });
        srv.shutdown();
    }
}

#[test]
fn coalesced_requests_equal_one_batched_traversal() {
    let g = graph(33, 80);
    let oracle = oracle_rows(ModelKind::Rgcn, 16, 9, &g);

    let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
    srv.deploy("m", builder(ModelKind::Rgcn, 16, 9), &g)
        .unwrap();
    srv.pause();
    let singles: Vec<_> = (0..12).map(|n| srv.submit("m", n).unwrap()).collect();
    let batch = srv.submit_batch("m", &[20, 21, 22]).unwrap();
    srv.resume();

    for (n, t) in singles.into_iter().enumerate() {
        let r = t.wait().unwrap();
        assert_eq!(r.coalesced, 13, "all 13 requests fold into one tick");
        assert_eq!(row_bits(&r.rows[0]), oracle[n]);
    }
    let r = batch.wait().unwrap();
    for (i, node) in [20usize, 21, 22].into_iter().enumerate() {
        assert_eq!(row_bits(&r.rows[i]), oracle[node]);
    }

    let stats = srv.stats("m").unwrap();
    assert_eq!(
        stats.forwards, 1,
        "13 coalesced requests must run exactly one traversal"
    );
    assert_eq!(stats.coalesced_requests, 13);
    assert_eq!(stats.completed, 13);
    srv.shutdown();
}

#[test]
fn hot_swap_under_load_drops_no_requests() {
    let g1 = graph(34, 64);
    let g2 = graph(35, 72);
    let min_nodes = 64usize;

    let srv = ServeHandle::start(ServeConfig::default().with_workers(4));
    srv.deploy("m", builder(ModelKind::Rgcn, 8, 11), &g1)
        .unwrap();

    let versions_seen = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let srv = srv.clone();
            let versions_seen = Arc::clone(&versions_seen);
            s.spawn(move || {
                for i in 0..40u64 {
                    let node = ((t * 19 + i) % min_nodes as u64) as usize;
                    let r = srv
                        .submit("m", node)
                        .expect("submit accepted under load")
                        .wait()
                        .expect("no request may fail across a hot swap");
                    versions_seen.fetch_max(r.version, Ordering::Relaxed);
                }
            });
        }
        // Swap model and graph repeatedly while the clients hammer.
        for round in 0..3u64 {
            let (g, seed) = if round % 2 == 0 { (&g2, 12) } else { (&g1, 11) };
            srv.swap("m", builder(ModelKind::Rgcn, 8, seed), g)
                .expect("swap succeeds under load");
        }
    });

    let stats = srv.stats("m").unwrap();
    assert_eq!(stats.completed, 160, "every request was served");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.swaps, 3);
    assert!(
        stats.coalescing_factor() >= 1.0,
        "coalescing factor is well-defined under swap load"
    );
    assert!(versions_seen.load(Ordering::Relaxed) >= 1);
    srv.shutdown();
}

#[test]
fn coalescing_beats_naive_dispatch_on_traversal_count() {
    let g = graph(36, 64);
    for (max_coalesce, expected_max_forwards) in [(1usize, 16u64), (16, 1)] {
        let srv = ServeHandle::start(
            ServeConfig::default()
                .with_workers(1)
                .with_max_coalesce(max_coalesce),
        );
        srv.deploy("m", builder(ModelKind::Rgcn, 8, 13), &g)
            .unwrap();
        srv.pause();
        let tickets: Vec<_> = (0..16).map(|n| srv.submit("m", n).unwrap()).collect();
        srv.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = srv.stats("m").unwrap();
        assert_eq!(stats.completed, 16);
        assert!(
            stats.forwards <= expected_max_forwards,
            "max_coalesce={max_coalesce}: {} forwards",
            stats.forwards
        );
        srv.shutdown();
    }
}

#[test]
fn delta_ingestion_under_load_drops_nothing_and_matches_fresh_oracle() {
    let g = graph(41, 64);
    let full = g.graph().clone();
    let mut sharded = ShardedGraph::partition(
        full.clone(),
        Box::new(HashPartitioner::new(3)),
        ShardConfig::new(4),
    );

    let srv = ServeHandle::start(ServeConfig::default().with_workers(4));
    srv.deploy("dyn", builder(ModelKind::Rgcn, 8, 21), &g)
        .unwrap();
    assert_eq!(srv.stats("dyn").unwrap().graph_version, 0);

    // Edge-only deltas keep node ids stable, so clients can keep
    // hammering the same id range across every graph version.
    let batches = [
        DeltaBatch::new()
            .add_edge(3, 9, 0)
            .add_edge(10, 11, 1)
            .add_edge(0, 63, 2),
        DeltaBatch::new()
            .remove_edge(full.src()[0], full.dst()[0], full.etype()[0])
            .add_edge(5, 5, 3),
        DeltaBatch::new().remove_edge(10, 11, 1).add_edge(7, 2, 0),
    ];

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let srv = srv.clone();
            s.spawn(move || {
                for i in 0..40u64 {
                    let node = ((t * 19 + i) % 64) as usize;
                    srv.submit("dyn", node)
                        .expect("submit accepted while deltas stream in")
                        .wait()
                        .expect("no request may fail across a delta swap");
                }
            });
        }
        // Stream the delta batches in while the clients hammer.
        for batch in &batches {
            let v = srv
                .apply_delta("dyn", builder(ModelKind::Rgcn, 8, 21), &mut sharded, batch)
                .expect("delta applies under load");
            assert_eq!(v, sharded.version());
        }
    });

    let stats = srv.stats("dyn").unwrap();
    assert_eq!(stats.completed, 160, "every request was served");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.swaps, 3, "each delta batch is one hot swap");
    assert_eq!(
        stats.graph_version, 3,
        "the deployment reports the delta generation it serves"
    );

    // Post-delta responses are bit-identical to a fresh unsharded
    // engine built directly on the post-delta graph.
    srv.drain();
    let post = GraphData::new(sharded.full().clone());
    let oracle = oracle_rows(ModelKind::Rgcn, 8, 21, &post);
    for node in [0usize, 3, 9, 11, 31, 63] {
        let r = srv.submit("dyn", node).unwrap().wait().unwrap();
        assert_eq!(
            row_bits(&r.rows[0]),
            oracle[node],
            "node {node}: post-delta response diverged from the fresh oracle"
        );
    }
    srv.shutdown();
}

/// A delta whose swap fails (its builder cannot build) is an error that
/// moves nothing: the store keeps its version and graph, the deployment
/// its versions, and it serves the rows it served before. The same
/// batch under the deployed builder then applies as the next version.
#[test]
fn a_delta_whose_swap_fails_changes_nothing() {
    let g = graph(42, 48);
    let mut sharded = ShardedGraph::partition(
        g.graph().clone(),
        Box::new(HashPartitioner::new(3)),
        ShardConfig::new(2),
    );
    let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
    srv.deploy("m", builder(ModelKind::Rgcn, 8, 22), &g)
        .unwrap();
    let first = DeltaBatch::new().add_edge(1, 2, 0);
    srv.apply_delta("m", builder(ModelKind::Rgcn, 8, 22), &mut sharded, &first)
        .unwrap();
    let served = |srv: &ServeHandle| -> Vec<(u64, Vec<u32>)> {
        (0..48)
            .map(|v| {
                let r = srv.submit("m", v).unwrap().wait().unwrap();
                (r.version, row_bits(&r.rows[0]))
            })
            .collect()
    };
    let (rows, full, stats) = (
        served(&srv),
        sharded.full().clone(),
        srv.stats("m").unwrap(),
    );

    let full_g = g.graph();
    let batch = DeltaBatch::new().add_edge(3, 4, 1).remove_edge(
        full_g.src()[0],
        full_g.dst()[0],
        full_g.etype()[0],
    );
    let unbuildable = builder(ModelKind::Rgcn, 8, 22).dims(0, 4);
    let err = srv
        .apply_delta("m", unbuildable, &mut sharded, &batch)
        .unwrap_err();
    assert!(matches!(err, ServeError::Hector(_)), "{err}");
    assert_eq!(sharded.version(), 1, "the store did not advance");
    assert_eq!(sharded.full(), &full, "the store kept its graph");
    let after = srv.stats("m").unwrap();
    assert_eq!(
        (after.graph_version, after.version, after.swaps),
        (stats.graph_version, stats.version, stats.swaps),
        "the deployment did not move"
    );
    assert_eq!(served(&srv), rows, "the deployment serves the same rows");

    let v = srv
        .apply_delta("m", builder(ModelKind::Rgcn, 8, 22), &mut sharded, &batch)
        .unwrap();
    assert_eq!((v, srv.stats("m").unwrap().graph_version), (2, 2));
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Fallible-API contract: every `HectorError` variant is reachable as a
// typed error, and misuse never panics.
// ---------------------------------------------------------------------------

#[test]
fn graph_mismatch_unbound_engine_and_empty_graph() {
    let mut engine = builder(ModelKind::Rgcn, 8, 1).build().unwrap();
    let err = engine.forward().unwrap_err();
    assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err}");
    assert_eq!(err.kind(), "graph_mismatch");

    let empty = GraphData::new(HeteroGraphBuilder::new().build());
    let err = engine.bind(&empty).unwrap_err();
    assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err}");
}

#[test]
fn shape_mismatch_misshapen_binding_and_wrong_label_count() {
    let g = graph(37, 48);
    let mut engine = builder(ModelKind::Rgcn, 8, 2).build().unwrap();
    engine.bind(&g).unwrap();
    let mut bad = Bindings::new();
    bad.set("h", hector_tensor::Tensor::zeros(&[3, 99]));
    engine.set_bindings(bad);
    let err = engine.forward().unwrap_err();
    assert!(matches!(err, HectorError::ShapeMismatch { .. }), "{err}");
    assert_eq!(err.kind(), "shape_mismatch");

    let mut engine = builder(ModelKind::Rgcn, 8, 2)
        .training(true)
        .build()
        .unwrap();
    engine.bind(&g).unwrap();
    let mut sgd = Sgd::new(0.01);
    let err = engine.train_step(&[0usize; 3], &mut sgd).unwrap_err(); // graph has 48 nodes
    assert!(matches!(err, HectorError::ShapeMismatch { .. }), "{err}");
}

#[test]
fn compile_error_custom_source_without_outputs() {
    let m = ModelBuilder::new("no_outputs");
    let err = EngineBuilder::from_source(m.finish()).build().unwrap_err();
    assert!(matches!(err, HectorError::CompileError { .. }), "{err}");
    assert_eq!(err.kind(), "compile_error");
}

#[test]
fn invalid_config_zero_layers_zero_threads_and_untrained_step() {
    let err = builder(ModelKind::Rgcn, 8, 3)
        .layers(0)
        .build()
        .unwrap_err();
    assert!(matches!(err, HectorError::InvalidConfig { .. }), "{err}");
    assert_eq!(err.kind(), "invalid_config");

    // `with_threads` clamps, so smuggle the misconfiguration in
    // through the public fields — the build must still reject it.
    let zero_threads = ParallelConfig {
        num_threads: 0,
        ..ParallelConfig::sequential()
    };
    let err = builder(ModelKind::Rgcn, 8, 3)
        .parallel(zero_threads)
        .backend(BackendKind::Interp)
        .build()
        .unwrap_err();
    assert!(matches!(err, HectorError::InvalidConfig { .. }), "{err}");

    let g = graph(38, 32);
    let mut engine = builder(ModelKind::Rgcn, 8, 3).build().unwrap();
    engine.bind(&g).unwrap();
    let mut sgd = Sgd::new(0.01);
    let labels = vec![0usize; 32];
    let err = engine.train_step(&labels, &mut sgd).unwrap_err();
    assert!(matches!(err, HectorError::InvalidConfig { .. }), "{err}");
}

#[test]
fn oom_surfaces_as_typed_error_not_panic() {
    let g = graph(39, 64);
    let tiny = DeviceConfig::rtx3090().with_capacity(2048);
    let mut engine = builder(ModelKind::Rgcn, 16, 4)
        .device(tiny)
        .build()
        .unwrap();
    let err = engine.bind(&g).unwrap().forward().unwrap_err();
    assert!(matches!(err, HectorError::Oom(_)), "{err}");
    assert_eq!(err.kind(), "oom");
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn serve_wraps_engine_errors_and_policy_errors_distinctly() {
    let g = graph(40, 48);
    // An engine that OOMs at dispatch time: the request must fail with
    // a wrapped HectorError, not a panic or a hang.
    let tiny = DeviceConfig::rtx3090().with_capacity(2048);
    let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
    srv.deploy("oomy", builder(ModelKind::Rgcn, 16, 5).device(tiny), &g)
        .unwrap();
    let err = srv.submit("oomy", 0).unwrap().wait().unwrap_err();
    assert!(
        matches!(err, ServeError::Hector(HectorError::Oom(_))),
        "{err}"
    );
    assert_eq!(srv.stats("oomy").unwrap().failed, 1);

    // Policy errors stay serving-level.
    assert!(matches!(
        srv.submit("ghost", 0),
        Err(ServeError::UnknownDeployment(_))
    ));
    assert!(matches!(
        srv.submit("oomy", 9999),
        Err(ServeError::BadRequest(_))
    ));
    srv.shutdown();
}
