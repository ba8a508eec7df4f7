//! interp_alloc: allocator traffic and wall clock of the real-mode
//! executor's scratch-arena hot path.
//!
//! A counting global allocator wraps `System` for this binary and
//! reports heap-allocation *events* per forward pass and per training
//! step for RGCN / RGAT / HGT on a generated graph. Every run goes
//! through the engine's persistent run plan, so after warm-up both rows
//! pin at **zero** allocations per run (`tests/run_alloc.rs` asserts
//! it; this target makes the magnitude visible, and the
//! `perf-regression` CI lane gates the JSON below against
//! `ci/alloc_baseline.json`).
//!
//! With `HECTOR_BENCH_JSON=<path>` the table is also written as a
//! machine-readable JSON fragment for the CI lane's `BENCH_PR4.json`
//! artifact. Allocation counts are deterministic (unlike wall clock), so
//! they are the only fields the lane fails on.

use std::time::Instant;

use hector::prelude::*;
use hector_bench::alloc_counter::{alloc_events, CountingAlloc};
use hector_bench::json::JsonWriter;
use hector_bench::{banner, scale};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const DIMS: usize = 32;

fn main() {
    let s = scale();
    banner(
        "interp_alloc: executor allocator traffic (scratch arena + run plan)",
        s,
    );
    let spec = DatasetSpec {
        name: "interp_alloc".into(),
        num_nodes: ((4_000f64 * s) as usize).max(64),
        num_node_types: 4,
        num_edges: ((32_000f64 * s) as usize).max(256),
        num_edge_types: 8,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed: 61,
    };
    let graph = GraphData::new(hector::generate(&spec));
    let edges = graph.graph().num_edges();
    println!(
        "graph: {} nodes, {edges} edges; dims {DIMS}; sequential executor\n",
        graph.graph().num_nodes()
    );
    println!(
        "{:>6} {:>11} {:>12} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "model", "pass", "ms/pass", "allocs/pass", "allocs/krow", "grows", "arena KiB", "steady %"
    );
    let iters = if s >= 1.0 { 3 } else { 5 };
    let mut json = JsonWriter::from_env("interp_alloc");
    for kind in ModelKind::all() {
        let builder = EngineBuilder::new(kind)
            .dims(DIMS, DIMS)
            .options(CompileOptions::best())
            .parallel(ParallelConfig::sequential())
            .seed(23);

        // Forward passes (zero once warm).
        let mut engine = builder.clone().build().expect("valid configuration");
        engine.bind(&graph).expect("bench graph is non-empty");
        engine.forward().expect("warm-up forward fits");
        let (ms, allocs) = timed(iters, || {
            engine.forward().expect("forward fits");
        });
        let sc = *engine.device().counters().scratch();
        report(&mut json, kind.name(), "plan_fwd", ms, allocs, edges, &sc);

        // Training steps (zero once warm).
        let mut trainer = builder
            .build_trainer(Sgd::new(0.01))
            .expect("valid configuration");
        trainer.bind(&graph).expect("bench graph is non-empty");
        trainer.step().expect("warm-up step fits");
        let (ms, allocs) = timed(iters, || {
            trainer.step().expect("training step fits");
        });
        let sc = *trainer.engine().device().counters().scratch();
        report(&mut json, kind.name(), "plan_train", ms, allocs, edges, &sc);
    }
    json.finish();
    println!(
        "\nallocs/pass counts every heap allocation event in the pass; every run reuses \
         the engine's\nrun plan, so both rows pin at zero once warm."
    );
}

/// Times `iters` calls of `f`, returning (ms per call, allocation events
/// per call).
fn timed(iters: u32, mut f: impl FnMut()) -> (f64, f64) {
    let a0 = alloc_events();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(iters);
    let allocs = (alloc_events() - a0) as f64 / f64::from(iters);
    (ms, allocs)
}

#[allow(clippy::too_many_arguments)]
fn report(
    json: &mut JsonWriter,
    model: &str,
    pass: &str,
    ms: f64,
    allocs: f64,
    edges: usize,
    sc: &hector::ScratchStats,
) {
    println!(
        "{model:>6} {pass:>11} {ms:>12.3} {allocs:>12.1} {:>12.3} {:>10} {:>12.1} {:>11.1}%",
        allocs / (edges as f64 / 1e3),
        sc.grows,
        sc.bytes as f64 / 1024.0,
        sc.steady_fraction() * 100.0
    );
    json.record(
        &format!("{model}_{pass}"),
        &[
            ("ms_per_pass", ms),
            ("allocs_per_pass", allocs),
            ("scratch_grows", sc.grows as f64),
            ("plan_grows", sc.plan_grows as f64),
        ],
    );
}
