//! Counter-accuracy pins: the observability counters must report *exact*
//! values for a graph whose topology is fully known, not merely plausible
//! ones. Three layers are cross-checked against each other:
//!
//! * kernel-invocation counts — one `Kernel` trace span per entry of the
//!   compiled kernel sequence, every run;
//! * [`ParallelStats`] chunk counts — equal to the number of `Worker`
//!   trace spans (every pool job records exactly one, including the
//!   single-chunk inline fast path), and, per kernel, equal to what
//!   [`hector::chunk_ranges`] predicts for the kernel's row domain;
//! * sequential runs — zero chunks, zero worker spans, every launch
//!   counted sequential.
//!
//! The trace recorder is process-global, so every test here serializes on
//! a file-local lock and clears the recorder before running.
//!
//! [`ParallelStats`]: hector_device::ParallelStats

use std::sync::Mutex;

use hector::prelude::*;
use hector::trace::{SpanCat, TraceEvent};
use hector::ModelKind;

static LOCK: Mutex<()> = Mutex::new(());

/// A fixed two-relation graph: one node type of 60 nodes, 90 `cites`
/// edges (i -> i+1 mod 60, i -> i+2 mod 60 for even i) and 30 `likes`
/// edges (i -> (3*i+1) mod 60 for i % 2 == 0).
fn known_graph() -> GraphData {
    let mut b = HeteroGraphBuilder::new();
    let (first, _) = b.add_node_type(60);
    let (cites, likes) = (0u32, 1u32);
    for i in 0..60u32 {
        b.add_edge(first + i, first + (i + 1) % 60, cites);
        if i % 2 == 0 {
            b.add_edge(first + i, first + (i + 2) % 60, cites);
            b.add_edge(first + i, first + (3 * i + 1) % 60, likes);
        }
    }
    let g = GraphData::new(b.build());
    assert_eq!(g.graph().num_nodes(), 60);
    assert_eq!(g.graph().num_edges(), 120);
    g
}

/// Runs one traced forward pass and returns (events, chunks,
/// parallel_launches, sequential_launches, kernel_count).
fn traced_forward(
    par: ParallelConfig,
    dims: usize,
) -> (Vec<TraceEvent>, usize, usize, usize, usize) {
    let graph = known_graph();
    let mut engine = EngineBuilder::new(ModelKind::Rgcn)
        .dims(dims, dims)
        .options(CompileOptions::best())
        .parallel(par)
        .seed(3)
        .build()
        .unwrap();
    let kernel_count = engine.module().fw_kernels.len();
    let bound = engine.bind(&graph).unwrap();
    hector::trace::clear();
    hector::trace::enable();
    bound.forward().expect("tiny graph fits");
    hector::trace::disable();
    let events = hector::trace::take_events();
    let p = *bound.device().counters().parallel();
    (
        events,
        p.chunks,
        p.parallel_launches,
        p.sequential_launches,
        kernel_count,
    )
}

fn count(events: &[TraceEvent], cat: SpanCat) -> usize {
    events.iter().filter(|e| e.cat == cat && !e.instant).count()
}

#[test]
fn sequential_counts_are_exact() {
    let _g = LOCK.lock().unwrap();
    let (events, chunks, par_launches, seq_launches, kernel_count) =
        traced_forward(ParallelConfig::sequential(), 8);

    // One Kernel span per compiled kernel, in sequence order.
    let kernel_spans: Vec<&TraceEvent> =
        events.iter().filter(|e| e.cat == SpanCat::Kernel).collect();
    assert_eq!(kernel_spans.len(), kernel_count);
    for (i, e) in kernel_spans.iter().enumerate() {
        assert_eq!(e.stage as usize, i, "kernel spans carry their index");
    }

    // Sequential mode never touches the pool: no chunks, no worker
    // spans, and every non-fallback kernel counted as sequential.
    assert_eq!(chunks, 0);
    assert_eq!(par_launches, 0);
    assert_eq!(count(&events, SpanCat::Worker), 0);
    let fallbacks = kernel_spans
        .iter()
        .filter(|e| e.name.starts_with("fallback/"))
        .count();
    assert_eq!(seq_launches, kernel_count - fallbacks);

    // Exactly one run span and its phases.
    assert_eq!(count(&events, SpanCat::Run), 1);
    assert!(events.iter().any(|e| e.name == "phase/setup"));
    assert!(events.iter().any(|e| e.name == "phase/bind_inputs"));
}

#[test]
fn parallel_chunks_match_worker_spans_and_prediction() {
    let _g = LOCK.lock().unwrap();
    let threads = 4;
    let min_chunk = 8;
    let par = ParallelConfig::sequential()
        .with_threads(threads)
        .with_min_chunk_rows(min_chunk);
    let (events, chunks, par_launches, _seq_launches, kernel_count) = traced_forward(par, 8);

    let kernel_spans: Vec<&TraceEvent> =
        events.iter().filter(|e| e.cat == SpanCat::Kernel).collect();
    assert_eq!(kernel_spans.len(), kernel_count);

    // Cross-check 1: ParallelStats.chunks equals the number of worker
    // chunk spans — every pool job records exactly one.
    let workers: Vec<&TraceEvent> = events.iter().filter(|e| e.cat == SpanCat::Worker).collect();
    assert_eq!(chunks, workers.len());
    assert!(
        par_launches > 0,
        "60 nodes / 120 edges must split somewhere"
    );
    assert!(
        chunks > par_launches,
        "parallel kernels span multiple chunks"
    );

    // Cross-check 2: per kernel, the worker spans nested inside its
    // interval must match chunk_ranges' split of the kernel's row
    // domain exactly, and their row counts must tile it.
    let mut attributed = 0;
    for k in &kernel_spans {
        let (lo, hi) = (k.start_ns, k.start_ns + k.dur_ns);
        let nested: Vec<&&TraceEvent> = workers
            .iter()
            .filter(|w| w.start_ns >= lo && w.start_ns + w.dur_ns <= hi)
            .collect();
        if nested.is_empty() {
            continue; // safety fallback or sequential path
        }
        let expected = hector::chunk_ranges(k.rows as usize, min_chunk, threads).len();
        assert_eq!(
            nested.len(),
            expected,
            "{}: rows={} split into {} chunks, predicted {}",
            k.name,
            k.rows,
            nested.len(),
            expected
        );
        let rows: u64 = nested.iter().map(|w| w.rows).sum();
        assert_eq!(rows, k.rows, "{}: chunk rows tile the domain", k.name);
        attributed += nested.len();
    }
    assert_eq!(attributed, chunks, "every chunk nests in a kernel span");
}

#[test]
fn parallel_and_sequential_agree_on_kernel_counts() {
    let _g = LOCK.lock().unwrap();
    let (seq_events, .., seq_kernels) = traced_forward(ParallelConfig::sequential(), 12);
    let par = ParallelConfig::sequential()
        .with_threads(4)
        .with_min_chunk_rows(8);
    let (par_events, .., par_kernels) = traced_forward(par, 12);
    assert_eq!(seq_kernels, par_kernels);
    let names = |evs: &[TraceEvent]| -> Vec<&'static str> {
        evs.iter()
            .filter(|e| e.cat == SpanCat::Kernel)
            .map(|e| e.name)
            .collect()
    };
    assert_eq!(names(&seq_events), names(&par_events));
}

#[test]
fn backend_stats_count_prepares_reuses_and_kernels() {
    let _g = LOCK.lock().unwrap();
    let graph = known_graph();
    for kind in [BackendKind::Interp, BackendKind::Specialized] {
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .options(CompileOptions::best())
            .parallel(ParallelConfig::sequential())
            .backend(kind)
            .seed(3)
            .build()
            .unwrap();
        let kernel_count = engine.module().fw_kernels.len() as u64;
        let bound = engine.bind(&graph).unwrap();

        bound.forward().expect("tiny graph fits");
        let b = *bound.device().counters().backend();
        assert_eq!(b.name, kind.name(), "counters identify the backend");
        assert_eq!(b.prepares, 1, "{kind:?}: cold run prepares once");
        assert_eq!(b.plan_reuses, 0);
        assert_eq!(
            b.kernels, kernel_count,
            "{kind:?}: every forward kernel runs on the backend"
        );

        bound.forward().expect("warm forward fits");
        let b = *bound.device().counters().backend();
        assert_eq!(b.prepares, 0, "{kind:?}: warm run prepares nothing");
        assert_eq!(b.plan_reuses, 1, "{kind:?}: warm run reuses the plan");
        assert_eq!(b.kernels, kernel_count, "backend stats are run-scoped");
    }
}

/// Regression: the plan cache used to key on the module's *address*
/// (+ name + kernel counts), so two modules occupying one stack slot —
/// same model, same kernel counts, different options — shared a plan,
/// and the second ran closures built from the first. There is no plan
/// cache to key any more: an engine runs one module and prepares its own
/// plan on its first real run. At the handle level that still means
/// every engine built in one loop-body local must prepare afresh and
/// match a fresh engine.
#[test]
fn plan_cache_does_not_alias_modules_sharing_an_address() {
    let _g = LOCK.lock().unwrap();
    let graph = known_graph();
    for kind in [BackendKind::Interp, BackendKind::Specialized] {
        for opts in [
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
        ] {
            let run = || {
                let mut engine = EngineBuilder::new(ModelKind::Rgat)
                    .dims(8, 8)
                    .options(opts.clone())
                    .parallel(ParallelConfig::sequential())
                    .backend(kind)
                    .seed(5)
                    .build()
                    .unwrap();
                engine
                    .bind(&graph)
                    .unwrap()
                    .forward()
                    .expect("tiny graph fits");
                let out: Vec<u32> = engine.output().data().iter().map(|v| v.to_bits()).collect();
                (out, *engine.device().counters().backend())
            };
            let (got, b) = run();
            assert_eq!(
                b.prepares,
                1,
                "{kind:?} / {}: a different module must be prepared afresh",
                opts.label()
            );
            assert_eq!(b.plan_reuses, 0);
            assert_eq!(
                got,
                run().0,
                "{kind:?} / {}: output differs from a fresh session's",
                opts.label()
            );
        }
    }
}

#[test]
fn profile_report_names_the_backend() {
    let _g = LOCK.lock().unwrap();
    let graph = known_graph();
    for kind in [BackendKind::Interp, BackendKind::Specialized] {
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .options(CompileOptions::best())
            .parallel(ParallelConfig::sequential())
            .backend(kind)
            .seed(3)
            .build()
            .unwrap();
        engine
            .bind(&graph)
            .unwrap()
            .forward()
            .expect("warm-up fits");
        let (result, report) = engine.profile(|e| e.bind(&graph).unwrap().forward());
        result.expect("profiled forward fits");
        assert_eq!(
            report.backend,
            kind.name(),
            "profile reports carry the executing backend"
        );
        assert!(format!("{report}").contains(&format!("backend {}", kind.name())));
    }
    hector::trace::clear();
}
