//! Sharded-execution parity: partition → `Engine::forward_rows` over
//! each shard's owned rows → merge must be **bit-identical** to the
//! unsharded engine, at every shard count, thread count, model, and
//! backend — sharding is an execution layout, never a numeric path.
//!
//! * Forward outputs match the unsharded oracle bitwise at shard counts
//!   {1, 2, 3, 8} × executor threads {1, 4} × three models, on both
//!   backends, including multi-layer models (halo hops = layers).
//! * Zero-in-degree nodes and shards whose owned nodes are fully
//!   isolated merge correctly.
//! * Training through the sharded engine stays bitwise on the unsharded
//!   trajectory (the step runs on the full graph).
//! * A delta batch is counted once by its store (version and
//!   operations), and post-delta outputs equal a fresh engine on the
//!   post-delta graph.
//! * Property: random graph × random partitioner × random shard count
//!   never diverges.

use hector::prelude::*;
use hector::{
    BindSharded, DeltaBatch, GreedyEdgeCut, HashPartitioner, HeteroGraph, HeteroGraphBuilder,
    Partitioner, RangePartitioner, ShardConfig, ShardedGraph,
};
use proptest::prelude::*;

fn graph(seed: u64, nodes: usize, edges: usize) -> HeteroGraph {
    hector::generate(&DatasetSpec {
        name: "shard_parity".into(),
        num_nodes: nodes,
        num_node_types: 3,
        num_edges: edges,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.1,
        seed,
    })
}

fn bits(t: &hector_tensor::Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The unsharded oracle: build, bind, forward, raw output bits.
fn oracle_bits(builder: &EngineBuilder, g: &HeteroGraph) -> Vec<u32> {
    let data = GraphData::new(g.clone());
    let mut engine = builder.clone().build().expect("oracle builds");
    engine.bind(&data).expect("oracle binds");
    engine.forward().expect("oracle runs");
    bits(engine.output())
}

fn sharded_bits(builder: &EngineBuilder, g: &HeteroGraph, k: usize, hops: usize) -> Vec<u32> {
    let sharded = ShardedGraph::partition(
        g.clone(),
        Box::new(HashPartitioner::new(k as u64)),
        ShardConfig::new(k).hops(hops),
    );
    let mut eng = builder
        .clone()
        .bind_sharded(sharded)
        .expect("sharded engine builds");
    eng.forward().expect("sharded forward runs");
    bits(eng.output())
}

#[test]
fn forward_matches_unsharded_across_shards_threads_and_models() {
    let g = graph(51, 72, 400);
    for kind in [ModelKind::Rgcn, ModelKind::Rgat, ModelKind::Hgt] {
        for threads in [1usize, 4] {
            let pc = ParallelConfig {
                num_threads: threads,
                ..ParallelConfig::sequential()
            };
            let builder = EngineBuilder::new(kind).dims(8, 8).parallel(pc).seed(5);
            let want = oracle_bits(&builder, &g);
            for k in [1usize, 2, 3, 8] {
                assert_eq!(
                    sharded_bits(&builder, &g, k, 1),
                    want,
                    "{kind:?} threads={threads} shards={k}: sharded forward diverged"
                );
            }
        }
    }
}

#[test]
fn multi_layer_models_need_hops_equal_to_layers() {
    let g = graph(52, 64, 360);
    let builder = EngineBuilder::new(ModelKind::Rgcn)
        .dims(8, 8)
        .layers(2)
        .parallel(ParallelConfig::sequential())
        .seed(6);
    let want = oracle_bits(&builder, &g);
    for k in [2usize, 3, 8] {
        assert_eq!(
            sharded_bits(&builder, &g, k, 2),
            want,
            "shards={k}: 2-layer model with 2-hop halos diverged"
        );
    }
}

#[test]
fn parity_holds_on_both_backends() {
    let g = graph(53, 64, 360);
    for backend in [BackendKind::Interp, BackendKind::Specialized] {
        let builder = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .backend(backend)
            .parallel(ParallelConfig::sequential())
            .seed(7);
        let want = oracle_bits(&builder, &g);
        for k in [1usize, 4] {
            assert_eq!(
                sharded_bits(&builder, &g, k, 1),
                want,
                "backend={backend:?} shards={k}: sharded forward diverged"
            );
        }
    }
}

/// A graph where one node type is entirely isolated (zero degree both
/// ways) and several nodes have zero in-degree. Range partitioning
/// places the isolated tail type in its own shard — an edge-free shard
/// graph — which must still bind, run, and merge its owned rows.
#[test]
fn zero_in_degree_and_isolated_shards_merge_correctly() {
    let mut b = HeteroGraphBuilder::new();
    let (a0, a_end) = b.add_node_type(12);
    let (_iso0, _iso_end) = b.add_node_type(6); // fully isolated tail type
    b.reserve_edge_types(2);
    for v in a0..a_end {
        // Chain within type A; node a0 keeps zero in-degree.
        if v + 1 < a_end {
            b.add_edge(v, v + 1, v % 2);
        }
    }
    let g = b.build();

    let builder = EngineBuilder::new(ModelKind::Rgcn)
        .dims(4, 4)
        .parallel(ParallelConfig::sequential())
        .seed(8);
    let want = oracle_bits(&builder, &g);
    // Range over 3 shards: the last shard owns only isolated nodes.
    let sharded =
        ShardedGraph::partition(g.clone(), Box::new(RangePartitioner), ShardConfig::new(3));
    // A one-hop shard's closure holds exactly the in-edges of the nodes
    // it owns: it is edge-free when no edge ends at one of them.
    let owner = sharded.owner();
    assert!(
        (0..sharded.num_shards() as u32).any(|s| g.dst().iter().all(|&d| owner[d as usize] != s)),
        "the test graph must actually produce an edge-free shard"
    );
    let mut eng = builder
        .clone()
        .bind_sharded(sharded)
        .expect("isolated shard binds");
    eng.forward().expect("isolated shard runs");
    assert_eq!(bits(eng.output()), want, "isolated-shard merge diverged");
}

#[test]
fn training_through_the_sharded_engine_stays_on_the_unsharded_trajectory() {
    let g = graph(54, 60, 320);
    let data = GraphData::new(g.clone());
    let labels: Vec<usize> = (0..g.num_nodes()).map(|v| v % 4).collect();
    let builder = EngineBuilder::new(ModelKind::Rgcn)
        .dims(8, 8)
        .training(true)
        .parallel(ParallelConfig::sequential())
        .seed(9);

    let mut oracle = builder.clone().build().unwrap();
    oracle.bind(&data).unwrap();
    let mut opt = Sgd::new(0.05);
    let mut oracle_losses = Vec::new();
    for _ in 0..3 {
        oracle_losses.push(oracle.train_step(&labels, &mut opt).unwrap().loss);
    }
    oracle.forward().unwrap();
    let want = bits(oracle.output());

    for k in [2usize, 3] {
        let sharded =
            ShardedGraph::partition(g.clone(), Box::new(GreedyEdgeCut), ShardConfig::new(k));
        let mut eng = builder.clone().bind_sharded(sharded).unwrap();
        let mut opt = Sgd::new(0.05);
        let mut losses = Vec::new();
        for _ in 0..3 {
            losses.push(eng.train_step(&labels, &mut opt).unwrap().loss);
        }
        assert_eq!(
            losses, oracle_losses,
            "shards={k}: loss trajectory diverged"
        );
        eng.forward().unwrap();
        assert_eq!(
            bits(eng.output()),
            want,
            "shards={k}: post-training forward diverged"
        );
    }
}

/// The store counts the delta it applies: one version, one operation.
#[test]
fn deltas_invalidate_only_affected_shards_and_match_a_fresh_engine() {
    let g = graph(55, 60, 300);
    let mut sharded =
        ShardedGraph::partition(g.clone(), Box::new(RangePartitioner), ShardConfig::new(4));
    let dst = 5u32;

    let outcome = sharded.apply(&DeltaBatch::new().add_edge(0, dst, 0));
    assert!(!outcome.repartitioned);
    assert_eq!(outcome.version, 1);
    assert_eq!(outcome.ops, 1);

    // Engine-level: apply a second delta through the sharded engine and
    // compare against a fresh unsharded engine on the post-delta graph.
    let builder = EngineBuilder::new(ModelKind::Rgcn)
        .dims(8, 8)
        .parallel(ParallelConfig::sequential())
        .seed(10);
    let mut eng = builder.clone().bind_sharded(sharded).unwrap();
    eng.forward().unwrap();
    let batch =
        DeltaBatch::new()
            .add_edge(7, 2, 1)
            .remove_edge(g.src()[0], g.dst()[0], g.etype()[0]);
    let outcome = eng.apply_delta(&batch).unwrap();
    assert_eq!(outcome.version, 2);
    eng.forward().unwrap();
    assert_eq!(
        bits(eng.output()),
        oracle_bits(&builder, eng.full_graph()),
        "post-delta sharded forward diverged from the fresh oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn partition_execute_merge_never_diverges(
        seed in 0u64..1000,
        nodes in 24usize..72,
        k in 1usize..6,
        which in 0usize..3,
    ) {
        let g = graph(seed, nodes, nodes * 4);
        let partitioner: Box<dyn Partitioner> = match which {
            0 => Box::new(RangePartitioner),
            1 => Box::new(HashPartitioner::new(seed)),
            _ => Box::new(GreedyEdgeCut),
        };
        let builder = EngineBuilder::new(ModelKind::Rgcn)
            .dims(4, 4)
            .parallel(ParallelConfig::sequential())
            .seed(seed);
        let want = oracle_bits(&builder, &g);
        let sharded = ShardedGraph::partition(g, partitioner, ShardConfig::new(k));
        let name = sharded.partitioner_name();
        let mut eng = builder.bind_sharded(sharded).unwrap();
        eng.forward().unwrap();
        prop_assert_eq!(
            bits(eng.output()),
            want,
            "seed={} nodes={} k={} partitioner={}",
            seed, nodes, k, name
        );
    }
}
