//! Sharded execution and streaming graph deltas: an AIFB-like graph
//! partitioned over destination nodes (`HECTOR_SHARDS`, default 4),
//! trained and served through a [`ShardedEngine`] whose merged outputs
//! are **bit-identical** to the unsharded engine, then mutated in place
//! with a [`DeltaBatch`] that rebuilds only the affected shards' graphs.
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
    // and replicates a halo of foreign source nodes those rows read.
    let sharded = ShardedGraph::partition(
        graph.clone(),
        Box::new(GreedyEdgeCut),
        ShardConfig::new(shards),
    );
    println!(
        "partitioned into {} shards ({}): {:.1}% edge cut, {} halo rows ({} halo bytes)",
        sharded.num_shards(),
        sharded.partitioner_name(),
        sharded.edge_cut_fraction() * 100.0,
        sharded.halo_rows(),
        sharded.halo_bytes(),
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
    // the unsharded trajectory); a forward runs its parameters on each
    // shard in turn and merges owned rows in fixed shard order.
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

    // Streaming deltas: splice edges in and out of the compacted CSRs.
    // Only shards whose interiors saw a touched destination rebuild
    // their graphs; every shard re-slices its inputs.
    let batch = DeltaBatch::new()
        .add_edge(0, 1, 0)
        .add_edge(2, 3, 1)
        .remove_edge(graph.src()[0], graph.dst()[0], graph.etype()[0]);
    let outcome = engine.apply_delta(&batch).expect("delta applies");
    println!(
        "\ndelta v{}: {} ops, {} of {} shard graphs rebuilt{}",
        outcome.version,
        outcome.ops,
        outcome.affected.len(),
        engine.num_shards(),
        if outcome.repartitioned {
            " (full repartition)"
        } else {
            ""
        },
    );

    // Profile a post-delta forward: the report carries per-shard spans
    // plus a ShardSummary of the engine's own store (shards, edge cut,
    // halo rows).
    let (_, report) = engine.profile(|e| e.forward().expect("fits"));
    println!("\n{report}");
    println!(
        "Rerun with HECTOR_SHARDS={} (or any count): every merged output\n\
         above is bit-identical — sharding changes where rows are\n\
         computed, never what they contain.",
        shards * 2
    );
}
