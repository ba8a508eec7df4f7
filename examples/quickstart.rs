//! Quickstart: build an [`Engine`] for a built-in model, bind a
//! synthetic heterogeneous graph, run inference, and inspect the run
//! report — the whole lifecycle in three calls.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use hector::prelude::*;

fn main() {
    // 1. A heterogeneous graph: a scaled-down copy of the paper's AIFB
    //    dataset (7 node types, 104 edge types).
    let spec = hector::datasets::aifb().scaled(0.1);
    let graph = GraphData::new(hector::generate(&spec));
    println!(
        "graph: {} nodes ({} types), {} edges ({} types), compaction ratio {:.2}",
        graph.graph().num_nodes(),
        graph.graph().num_node_types(),
        graph.graph().num_edges(),
        graph.graph().num_edge_types(),
        graph.compact().ratio(),
    );

    // 2. Build the engine: RGAT with both paper optimizations (compact
    //    materialization + linear operator reordering), compiled through
    //    the process-wide module cache, on the simulated RTX 3090.
    let mut engine = EngineBuilder::new(ModelKind::Rgat)
        .dims(32, 32)
        .options(CompileOptions::best())
        .seed(7)
        .build()
        .unwrap();
    let module = engine.module();
    println!(
        "compiled '{}': {} model lines -> {} kernels, {} generated lines (cache {})",
        module.name,
        hector::model_source(ModelKind::Rgat, 32, 32).lines,
        module.fw_kernels.len(),
        hector::emit(module).total_lines(),
        if engine.was_cache_hit() {
            "hit"
        } else {
            "miss"
        },
    );

    // 3. Bind the graph (parameters + inputs derive from the engine
    //    seed) and run. Warm reruns through the same engine reuse every
    //    buffer — zero heap allocations.
    let bound = engine.bind(&graph).unwrap();
    let report = bound.forward().expect("fits comfortably in 24 GB");

    let h_out = bound.output();
    println!(
        "output: [{} x {}] features; first row starts with {:.4}",
        h_out.rows(),
        h_out.cols(),
        h_out.at2(0, 0)
    );
    println!(
        "simulated GPU: {:.1} us total ({} launches; GEMM {:.1} us, traversal {:.1} us), peak {:.1} MB",
        report.elapsed_us,
        report.launches,
        report.gemm_us,
        report.traversal_us,
        report.peak_bytes as f64 / (1 << 20) as f64,
    );

    // A second identical engine (a sweep, a worker, a test) compiles
    // nothing: the module comes from the cache.
    let twin = EngineBuilder::new(ModelKind::Rgat)
        .dims(32, 32)
        .options(CompileOptions::best())
        .build()
        .unwrap();
    assert!(twin.was_cache_hit());
    let stats = ModuleCache::stats();
    println!(
        "module cache: {} hits / {} misses over {} entries",
        stats.hits, stats.misses, stats.entries,
    );
}
