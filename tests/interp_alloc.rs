//! Zero per-row heap allocations in the executor's steady state.
//!
//! A counting global allocator wraps `System` for this whole test
//! binary; the assertions measure allocation *events* across
//! `Engine::forward`. The first pass materialises the run plan and grows
//! the scratch arena (per-*variable* and per-*kernel* work); after it,
//! nothing in a pass is per row: the executor reads operands as borrowed
//! views and computes into the engine's reusable scratch arena. The
//! proof is scale-invariance: a graph with 8× the edges and 4× the nodes
//! must cost *exactly* the same number of allocation events per forward
//! pass. Any per-row `Vec` in the hot path breaks this by thousands.
//!
//! The engines are pinned to `num_threads = 1`, where every kernel is
//! one chunk; `tests/run_alloc.rs` pins the threaded executor.

mod common;

use hector::prelude::*;
use hector_bench::alloc_counter::{alloc_events, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The allocation counter is process-global, so concurrently running
/// tests would pollute each other's measured windows. Every test
/// serializes on this lock, then lets the harness's own allocations
/// (reporting the test that just released it) die down.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    hector_bench::alloc_counter::settle();
    guard
}

fn graph(nodes: usize, edges: usize) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "alloc".into(),
        num_nodes: nodes,
        num_node_types: 3,
        num_edges: edges,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed: 71,
    }))
}

/// A bound sequential engine of `kind` on a `nodes`/`edges` graph.
fn prepare(kind: ModelKind, nodes: usize, edges: usize) -> Engine {
    let opts = CompileOptions::best();
    let mut engine = common::engine(kind, &opts, 1, BackendKind::Specialized, 9);
    engine.bind(&graph(nodes, edges)).unwrap();
    engine
}

/// Allocation events across one forward pass.
fn forward_allocs(engine: &mut Engine) -> usize {
    let before = alloc_events();
    engine.forward().expect("inference fits");
    alloc_events() - before
}

#[test]
fn steady_state_forward_pass_allocations_do_not_scale_with_rows() {
    let _g = serialize();
    for kind in ModelKind::all() {
        let mut small = prepare(kind, 60, 360);
        let mut large = prepare(kind, 240, 2880);
        // Warm-up: materialises the run plan, grows the scratch arena,
        // caches graph views, sizes the device bookkeeping.
        let cold = forward_allocs(&mut small);
        forward_allocs(&mut large);

        let a_small = forward_allocs(&mut small);
        let a_large = forward_allocs(&mut large);
        assert_eq!(
            a_small,
            a_large,
            "{}: steady-state allocation events must be row-count-invariant \
             (small graph: {a_small}, 8x-edge graph: {a_large})",
            kind.name()
        );
        // And the steady state is itself steady.
        assert_eq!(forward_allocs(&mut large), a_large, "{}", kind.name());
        // Sanity: the cold pass materialised its buffers — the counter
        // is actually live.
        assert!(cold > 0, "counter should observe the cold pass's setup");
    }
}

#[test]
fn scratch_counters_report_zero_growth_once_warm() {
    let _g = serialize();
    let mut p = prepare(ModelKind::Rgat, 80, 640);
    forward_allocs(&mut p); // warm-up run grows the arena
    forward_allocs(&mut p);
    let s = p.device().counters().scratch();
    assert!(s.kernels > 0, "real-mode kernels must be recorded");
    assert_eq!(s.grows, 0, "warm arena must not grow: {s:?}");
    assert_eq!(s.steady_kernels, s.kernels);
    assert!((s.steady_fraction() - 1.0).abs() < 1e-12);
    assert!(s.bytes > 0, "arena footprint should be visible");
}
