//! Sharded execution and streaming graph deltas: an AIFB-like graph
//! partitioned over destination nodes (`HECTOR_SHARDS`, default 4),
//! trained and served through a [`ShardedEngine`] whose merged outputs
//! are **bit-identical** to the unsharded engine, then mutated in place
//! with a [`DeltaBatch`] that splices the store's full graph.
//!
//! [`ShardedEngine`]: hector::ShardedEngine
//! [`DeltaBatch`]: hector::DeltaBatch

use hector::prelude::*;
use hector::{BindSharded, DeltaBatch, GreedyEdgeCut, ShardConfig, ShardedGraph};

fn main() {
    let shards: usize = std::env::var("HECTOR_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let spec = hector::datasets::aifb().scaled(0.05);
    let graph = hector::generate(&spec);
    println!(
        "graph: {} nodes, {} edges, {} relations",
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_edge_types()
    );

    // Partition over destination nodes: each shard owns its output rows
    // and reads a halo of foreign source nodes those rows depend on.
    let sharded = ShardedGraph::partition(
        graph.clone(),
        Box::new(GreedyEdgeCut),
        ShardConfig::new(shards),
    );
    println!(
        "partitioned into {} shards ({}): {:.1}% edge cut, {} halo rows",
        sharded.num_shards(),
        sharded.partitioner_name(),
        sharded.edge_cut_fraction() * 100.0,
        sharded.halo_rows(),
    );

    let classes = 8;
    let builder = EngineBuilder::new(ModelKind::Rgcn)
        .dims(16, classes)
        .options(CompileOptions::best())
        .training(true)
        .seed(3);
    let mut engine = builder
        .clone()
        .bind_sharded(sharded)
        .expect("sharded engine builds");

    // One engine, bound to the full graph: training runs there (bitwise
    // the unsharded trajectory); a forward runs `Engine::forward_rows`
    // on each shard's owned rows and merges them in fixed shard order.
    let labels: Vec<usize> = (0..graph.num_nodes()).map(|v| v % classes).collect();
    let mut opt = Adam::new(0.02);
    println!("\nstep   loss");
    for step in 0..5 {
        let report = engine.train_step(&labels, &mut opt).expect("fits");
        println!("{step:>4}   {:.4}", report.loss.expect("real mode"));
    }
    engine.forward().expect("sharded forward runs");
    println!(
        "merged output: {} rows x {} cols",
        engine.output().rows(),
        engine.output().cols()
    );

    // Streaming deltas: splice edges in and out of the store's full
    // graph, carrying its indices across; the next forward extracts
    // each shard's closure from the post-delta graph.
    let batch = DeltaBatch::new()
        .add_edge(0, 1, 0)
        .add_edge(2, 3, 1)
        .remove_edge(graph.src()[0], graph.dst()[0], graph.etype()[0]);
    let outcome = engine.apply_delta(&batch).expect("delta applies");
    let store = engine.sharded();
    println!(
        "\ndelta v{}: {} ops{}; {:.1}% edge cut, {} halo rows",
        outcome.version,
        outcome.ops,
        if outcome.repartitioned {
            " (full repartition)"
        } else {
            ""
        },
        store.edge_cut_fraction() * 100.0,
        store.halo_rows(),
    );
    engine.forward().expect("fits");
    println!(
        "Rerun with HECTOR_SHARDS={} (or any count): every merged output\n\
         above is bit-identical — sharding changes where rows are\n\
         computed, never what they contain.",
        shards * 2
    );
}
