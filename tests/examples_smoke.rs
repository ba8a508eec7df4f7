//! Smoke tests mirroring every `examples/*.rs` main path at reduced scale,
//! so the examples cannot silently rot: each test exercises the same API
//! sequence (graph construction, engine build, bind, run, report fields)
//! the corresponding example prints. `cargo test` also *compiles* the real
//! example binaries, so together the examples stay both buildable and
//! behaviourally covered.

mod common;

use common::{builder, modeled};
use hector::prelude::*;
use hector_ir::{AggNorm, KernelSpec};

/// `examples/quickstart.rs`: AIFB-like graph, RGAT with best options,
/// real-mode inference with a populated run report.
#[test]
fn quickstart_path() {
    let spec = hector::datasets::aifb().scaled(0.05);
    let graph = GraphData::new(hector::generate(&spec));
    assert!(graph.compact().ratio() > 0.0);

    let mut engine = builder(ModelKind::Rgat, 16, &CompileOptions::best(), 7)
        .build()
        .unwrap();
    assert!(hector::model_source(ModelKind::Rgat, 16, 16).lines > 0);
    assert!(hector::emit(engine.module()).total_lines() > 0);

    let bound = engine.bind(&graph).unwrap();
    let report = bound.forward().expect("fits comfortably");

    let h_out = bound.output();
    assert_eq!(h_out.rows(), graph.graph().num_nodes());
    assert!(h_out.data().iter().all(|v| v.is_finite()));
    assert!(report.elapsed_us > 0.0);
    assert!(report.launches > 0);
    assert!(report.peak_bytes > 0);
}

/// `examples/citation_rgcn.rs`: the hand-built citation graph, unoptimized
/// RGCN, and the virtual-self-loop property for the isolated author node.
#[test]
fn citation_rgcn_path() {
    let mut b = HeteroGraphBuilder::new();
    let (paper0, _) = b.add_node_type(5);
    let (alpha, _) = b.add_node_type(1);
    let (writes, cites) = (0u32, 1u32);
    b.add_edge(alpha, 3, writes);
    b.add_edge(alpha, 4, writes);
    b.add_edge(1, 0, cites);
    b.add_edge(2, 0, cites);
    b.add_edge(3, 0, cites);
    b.add_edge(4, 1, cites);
    b.add_edge(4, 2, cites);
    let graph = GraphData::new(b.build());
    assert_eq!(graph.graph().num_nodes(), 6);
    assert_eq!(graph.graph().in_degree()[paper0 as usize], 3);

    let dim = 8;
    let mut engine = builder(ModelKind::Rgcn, dim, &CompileOptions::unopt(), 1)
        .build()
        .unwrap();
    let bound = engine.bind(&graph).unwrap();
    bound.forward().expect("tiny graph");
    let h = bound.output();
    assert_eq!(h.rows(), 6);
    assert!(h.data().iter().all(|v| v.is_finite()));
    // ReLU output is non-negative everywhere.
    assert!(h.data().iter().all(|&v| v >= 0.0));
}

/// `examples/codegen_inspect.rs`: a custom builder-DSL model compiles to a
/// kernel plan with inspectable generated source.
#[test]
fn codegen_inspect_path() {
    let mut m = ModelBuilder::new("gated_rgcn");
    let h = m.node_input("h", 16);
    let w = m.weight_per_etype("W", 16, 16);
    let gate_vec = m.weight_vec_per_etype("g", 16);
    let msg = m.typed_linear("msg", m.src(h), w);
    let score = m.dot("score", m.edge(msg), m.wvec(gate_vec));
    let gate = m.edge_softmax("gate", score);
    let out = m.aggregate("h_out", m.edge(msg), Some(m.edge(gate)), AggNorm::None);
    m.output(out);
    let source = m.finish();
    assert!(source.lines > 0);

    let module = hector::compile(&source, &CompileOptions::best().with_training(true));
    assert!(module.all_kernels().count() > 0);
    let code = hector::emit(&module);
    assert!(code.cuda_lines() > 0);
    let (_, first_kernel) = &code.kernels[0];
    assert!(first_kernel.contains("__global__"));
}

/// `examples/compaction_demo.rs`: the Fig. 7 compaction map plus the OOM
/// rescue (vanilla OOMs on a small device, compact fits).
#[test]
fn compaction_demo_path() {
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(6);
    b.add_edge(5, 3, 0);
    b.add_edge(5, 4, 0);
    b.add_edge(1, 0, 1);
    b.add_edge(2, 0, 1);
    b.add_edge(3, 0, 1);
    b.add_edge(4, 1, 1);
    b.add_edge(4, 2, 1);
    let graph = GraphData::new(b.build());
    let c = graph.compact();
    assert!(c.num_unique() < graph.graph().num_edges());
    // alpha->a and alpha->b share one compact (src, etype) row.
    assert_eq!(c.edge_to_unique()[0], c.edge_to_unique()[1]);

    // Scaled-down OOM rescue: the example uses 600K edges on a 256 MB
    // device; a tenth of both keeps the same contrast cheaply.
    let spec = DatasetSpec {
        name: "oom-demo".into(),
        num_nodes: 3_000,
        num_node_types: 3,
        num_edges: 60_000,
        num_edge_types: 16,
        compaction_ratio: 0.15,
        type_skew: 1.0,
        seed: 3,
    };
    let big = GraphData::new(hector::generate(&spec));
    let cfg = DeviceConfig::rtx3090().with_capacity(24 << 20);
    let mut results = Vec::new();
    for opts in [CompileOptions::unopt(), CompileOptions::compact_only()] {
        results.push(modeled(ModelKind::Rgat, 64, &opts, false, &big, cfg.clone()).is_ok());
    }
    assert_eq!(
        results,
        vec![false, true],
        "vanilla must OOM, compact must fit"
    );
}

/// `examples/hgt_training.rs`: HGT trains for a few epochs in real mode
/// with finite, decreasing loss.
#[test]
fn hgt_training_path() {
    let spec = hector::datasets::mag().scaled(0.0005);
    let graph = GraphData::new(hector::generate(&spec));
    let (dim, classes) = (8, 4);
    let mut trainer = EngineBuilder::new(ModelKind::Hgt)
        .dims(dim, classes)
        .options(CompileOptions::best())
        .seed(11)
        .build_trainer(Adam::new(0.05))
        .unwrap();
    assert!(!trainer.engine().module().bw_kernels.is_empty());

    trainer.bind(&graph).unwrap();
    let labels: Vec<usize> = (0..graph.graph().num_nodes())
        .map(|i| (i * 7 + 3) % classes)
        .collect();
    trainer.set_labels(labels).unwrap();
    let mut losses = Vec::new();
    for _ in 0..6 {
        let report = trainer.step().expect("fits");
        let loss = report.loss.unwrap();
        assert!(loss.is_finite());
        assert!(report.backward_us > 0.0);
        losses.push(loss);
    }
    assert!(
        losses.last().unwrap() < losses.first().unwrap(),
        "loss should decrease: {losses:?}"
    );
}

/// `examples/minibatch_training.rs`: sampled mini-batch epochs train
/// with finite losses, record sampler stats, and reproduce exactly on a
/// rerun with the same seed.
#[test]
fn minibatch_training_path() {
    let spec = hector::datasets::am().scaled(0.0005);
    let graph = GraphData::new(hector::generate(&spec));
    let run = || {
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 4)
            .options(CompileOptions::best())
            .seed(13)
            .build_trainer(Adam::new(0.02))
            .unwrap();
        trainer.bind(&graph).unwrap();
        let cfg = SamplerConfig::new(32).fanouts(&[4, 3]).pipeline(true);
        let mut losses = Vec::new();
        for epoch in 0..2u64 {
            let report = trainer
                .minibatch_epoch(&cfg.clone().epoch(epoch))
                .expect("fits");
            assert!(report.steps > 0);
            assert!(report.mean_loss().unwrap().is_finite());
            losses.extend(report.losses.iter().map(|l| l.to_bits()));
        }
        let stats = trainer.engine().device().counters().sampler();
        assert!(stats.batches > 0 && stats.nodes > 0 && stats.edges > 0);
        assert!(stats.sample_wall_us > 0.0);
        losses
    };
    assert_eq!(run(), run(), "same seed must reproduce every batch loss");
}

/// `examples/rgat_attention.rs`: all four option combos produce kernel
/// plans and modeled reports, and the optimized plan beats unoptimized
/// simulated time.
#[test]
fn rgat_attention_path() {
    // The example's exact spec: `model_run` never touches the numerics,
    // so full scale is cheap, and the C+R-beats-U contrast needs the low
    // compaction ratio to have enough edges to amortise against.
    let spec = DatasetSpec {
        name: "demo".into(),
        num_nodes: 4_000,
        num_node_types: 3,
        num_edges: 80_000,
        num_edge_types: 12,
        compaction_ratio: 0.2,
        type_skew: 1.5,
        seed: 5,
    };
    let graph = GraphData::new(hector::generate(&spec));
    let mut elapsed = Vec::new();
    for opts in [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ] {
        let source = builder(ModelKind::Rgat, 64, &opts, 2).source();
        let gemms = hector::compile_cached(&source, &opts)
            .fw_kernels
            .iter()
            .filter(|k| matches!(k, KernelSpec::Gemm(_)))
            .count();
        assert!(gemms > 0, "{}: RGAT always has GEMM kernels", opts.label());
        let device = DeviceConfig::rtx3090();
        let report = modeled(ModelKind::Rgat, 64, &opts, false, &graph, device).expect("fits");
        assert!(report.elapsed_us > 0.0);
        elapsed.push(report.elapsed_us);
    }
    assert!(
        elapsed[3] < elapsed[0],
        "C+R ({:.1} us) should beat U ({:.1} us)",
        elapsed[3],
        elapsed[0]
    );
}

/// `examples/serve_demo.rs`: two tenants deployed behind one
/// [`ServeHandle`], a burst of coalesced requests, a hot swap that
/// drops nothing, and populated per-tenant counters.
#[test]
fn serve_demo_path() {
    use hector::serve::{ServeConfig, ServeHandle};

    let spec = |seed, nodes| DatasetSpec {
        name: "serve_demo_smoke".into(),
        num_nodes: nodes,
        num_node_types: 3,
        num_edges: nodes * 5,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed,
    };
    let g1 = GraphData::new(hector::generate(&spec(1, 48)));
    let g2 = GraphData::new(hector::generate(&spec(2, 32)));
    let builder = |kind, dims: usize, seed| {
        EngineBuilder::new(kind)
            .dims(dims, dims)
            .options(CompileOptions::best())
            .seed(seed)
    };

    let srv = ServeHandle::start(ServeConfig::default().with_workers(2).with_max_coalesce(32));
    srv.deploy("rgcn_products", builder(ModelKind::Rgcn, 16, 7), &g1)
        .unwrap();
    srv.deploy("hgt_reviews", builder(ModelKind::Hgt, 8, 9), &g2)
        .unwrap();
    assert_eq!(srv.deployments().len(), 2);

    let tickets: Vec<_> = (0..12)
        .map(|i| {
            let (name, g) = if i % 3 == 0 {
                ("hgt_reviews", &g2)
            } else {
                ("rgcn_products", &g1)
            };
            srv.submit(name, (i * 13) % g.graph().num_nodes()).unwrap()
        })
        .collect();
    for t in tickets {
        let r = t.wait().expect("request served");
        assert!(r.rows[0].iter().all(|v| v.is_finite()));
    }

    let g3 = GraphData::new(hector::generate(&spec(3, 64)));
    let inflight: Vec<_> = (0..6)
        .map(|n| srv.submit("rgcn_products", n).unwrap())
        .collect();
    let v = srv
        .swap("rgcn_products", builder(ModelKind::Rgcn, 16, 7), &g3)
        .unwrap();
    assert_eq!(v, 2);
    for t in inflight {
        t.wait().expect("no request dropped across the swap");
    }

    let s = srv.stats("rgcn_products").unwrap();
    assert_eq!(s.failed + s.timed_out + s.shed, 0);
    assert!(
        s.completed >= 14,
        "8 singles + 6 in-flight: {}",
        s.completed
    );
    assert_eq!(s.swaps, 1);
    assert!(s.coalescing_factor() >= 1.0);
    srv.shutdown();
}

/// `examples/sharded_training.rs`: a destination-partitioned graph
/// trains and runs through a [`hector::ShardedEngine`] bit-identically
/// to the unsharded engine, and a streaming delta advances the store
/// it reports its edge cut and halo rows from.
#[test]
fn sharded_training_path() {
    use hector::{BindSharded, DeltaBatch, GreedyEdgeCut, ShardConfig, ShardedGraph};

    let spec = hector::datasets::aifb().scaled(0.02);
    let graph = hector::generate(&spec);
    let builder = EngineBuilder::new(ModelKind::Rgcn)
        .dims(8, 4)
        .options(CompileOptions::best())
        .training(true)
        .seed(3);

    // The unsharded oracle: same builder, same training trajectory.
    let data = GraphData::new(graph.clone());
    let mut oracle = builder.clone().build().unwrap();
    oracle.bind(&data).unwrap();
    let labels: Vec<usize> = (0..graph.num_nodes()).map(|v| v % 4).collect();
    let mut opt = Adam::new(0.02);
    for _ in 0..3 {
        oracle.train_step(&labels, &mut opt).expect("fits");
    }
    oracle.forward().expect("fits");

    let sharded =
        ShardedGraph::partition(graph.clone(), Box::new(GreedyEdgeCut), ShardConfig::new(3));
    assert!(sharded.edge_cut_fraction() <= 1.0);
    let mut engine = builder.clone().bind_sharded(sharded).unwrap();
    let mut opt = Adam::new(0.02);
    for _ in 0..3 {
        let r = engine.train_step(&labels, &mut opt).expect("fits");
        assert!(r.loss.expect("real mode").is_finite());
    }
    engine.forward().expect("fits");
    assert_eq!(
        engine.output().data(),
        oracle.output().data(),
        "sharded training/forward must be bit-identical to unsharded"
    );

    // A streaming delta advances the graph version; the store reports
    // its edge cut and halo rows from the post-delta graph.
    let batch = DeltaBatch::new().add_edge(0, 1, 0).remove_edge(
        graph.src()[0],
        graph.dst()[0],
        graph.etype()[0],
    );
    let outcome = engine.apply_delta(&batch).expect("delta applies");
    assert_eq!(outcome.version, 1);
    assert!(!outcome.repartitioned);
    let store = engine.sharded();
    assert!(store.edge_cut_fraction() <= 1.0);
    assert!(store.halo_rows() > 0);
    engine.forward().expect("fits");
}

/// `examples/profiling.rs`: a profiled training epoch yields a populated
/// [`ProfileReport`] and a chrome-trace export at the requested path.
/// (The trace recorder is process-global, so the assertions here stay
/// coarse — no other test in this binary reads the trace back.)
#[test]
fn profiling_path() {
    let spec = hector::datasets::aifb().scaled(0.02);
    let graph = GraphData::new(hector::generate(&spec));
    let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
        .dims(16, 16)
        .options(CompileOptions::best())
        .seed(0)
        .build_trainer(Adam::new(0.01))
        .unwrap();
    trainer.bind(&graph).unwrap();
    trainer.step().expect("fits");

    let (result, report) = trainer.profile(|t| t.epoch(3));
    let epoch = result.expect("fits");
    assert_eq!(epoch.losses.len(), 3);
    assert!(report.wall_us > 0.0);
    assert!(!report.kernels.is_empty());
    assert!(format!("{report}").contains("profile:"));

    let out = std::env::temp_dir().join("hector_profiling_smoke_trace.json");
    let out = out.to_str().unwrap().to_string();
    trainer.engine_mut().write_trace(&out).expect("export");
    let json = std::fs::read_to_string(&out).expect("written");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    std::fs::remove_file(&out).ok();
}
