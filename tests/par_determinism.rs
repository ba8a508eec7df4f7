//! Bit-exact determinism of the parallel real-mode executor.
//!
//! The `hector-par` executor promises that `HECTOR_THREADS` never changes
//! a single output bit: row chunks write disjoint rows directly, while
//! scatter/aggregate contributions are recorded per chunk and replayed in
//! fixed chunk order — the exact floating-point operations of the
//! sequential loop, in the exact sequential order. These tests pin that
//! contract across every optimization combination and all three built-in
//! models, for inference outputs and for five full training steps
//! (losses and every learned weight), plus a property suite over random
//! graphs, thread counts, and chunk sizes. Chunk sizes are deliberately
//! tiny so even the small test graphs split into many chunks.

mod common;

use common::{bits, builder, par};
use hector::prelude::*;
use proptest::prelude::*;

fn graph(seed: u64, nodes: usize, edges: usize) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "par_determinism".into(),
        num_nodes: nodes,
        num_node_types: 3,
        num_edges: edges,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed,
    }))
}

fn all_option_combos(training: bool) -> [CompileOptions; 4] {
    [
        CompileOptions::unopt().with_training(training),
        CompileOptions::compact_only().with_training(training),
        CompileOptions::reorder_only().with_training(training),
        CompileOptions::best().with_training(training),
    ]
}

/// Runs one inference and returns the output tensor as raw f32 bits.
fn inference_bits(
    kind: ModelKind,
    opts: &CompileOptions,
    g: &GraphData,
    threads: usize,
    min_chunk: usize,
) -> Vec<u32> {
    common::inference_bits(
        builder(kind, 16, opts, 7).parallel(par(threads, min_chunk)),
        g,
    )
}

/// Runs `steps` Adam training steps; returns (per-step loss bits, all
/// final weight bits) — the whole training trajectory, bit for bit.
fn training_bits(
    kind: ModelKind,
    opts: &CompileOptions,
    g: &GraphData,
    threads: usize,
    steps: usize,
) -> (Vec<u32>, Vec<u32>) {
    common::training_bits(
        builder(kind, 16, opts, 13).parallel(par(threads, 4)),
        g,
        steps,
    )
}

#[test]
fn inference_is_bit_identical_across_thread_counts() {
    let g = graph(11, 120, 720);
    for kind in ModelKind::all() {
        for opts in all_option_combos(false) {
            let seq = inference_bits(kind, &opts, &g, 1, 4);
            let par = inference_bits(kind, &opts, &g, 4, 4);
            assert_eq!(
                seq,
                par,
                "{} / {}: 4-thread inference diverged from sequential",
                kind.name(),
                opts.label()
            );
        }
    }
}

#[test]
fn five_training_steps_are_bit_identical_across_thread_counts() {
    let g = graph(23, 80, 480);
    for kind in ModelKind::all() {
        for opts in all_option_combos(true) {
            let (seq_loss, seq_w) = training_bits(kind, &opts, &g, 1, 5);
            let (par_loss, par_w) = training_bits(kind, &opts, &g, 4, 5);
            assert_eq!(
                seq_loss,
                par_loss,
                "{} / {}: loss trajectory diverged",
                kind.name(),
                opts.label()
            );
            assert_eq!(
                seq_w,
                par_w,
                "{} / {}: trained weights diverged",
                kind.name(),
                opts.label()
            );
        }
    }
}

#[test]
fn parallel_runs_record_parallel_stats() {
    let g = graph(5, 200, 1200);
    let run = |threads| {
        let mut engine = builder(ModelKind::Rgcn, 16, &CompileOptions::best(), 3)
            .parallel(par(threads, 4))
            .build()
            .unwrap();
        engine.bind(&g).unwrap().forward().unwrap();
        *engine.device().counters().parallel()
    };
    let p = run(4);
    assert!(p.parallel_launches > 0, "pooled kernels must be recorded");
    assert!(p.chunks > 0, "row domains must have split into chunks");
    assert!(p.total_wall_us() > 0.0);

    // And the sequential config records only sequential launches.
    let p = run(1);
    assert_eq!(p.parallel_launches, 0);
    assert!(p.sequential_launches > 0);
    assert_eq!(p.chunks, 0, "num_threads=1 creates no pool");
}

/// The scratch-arena executor at `HECTOR_THREADS ∈ {1, 4}`: repeated
/// runs on a warm engine must stay bit-identical (buffer reuse cannot
/// leak state between kernels or runs), and the arenas — the session
/// scratch *and* the pooled per-chunk worker slots — must reach their
/// zero-growth steady state after one warm-up pass at either count.
#[test]
fn scratch_arena_is_stateless_across_runs_and_thread_counts() {
    let g = graph(31, 100, 600);
    let mut reference: Option<Vec<u32>> = None;
    for threads in [1usize, 4] {
        let mut engine = builder(ModelKind::Hgt, 16, &CompileOptions::best(), 29)
            .parallel(par(threads, 4))
            .build()
            .unwrap();
        engine.bind(&g).unwrap();
        let mut runs = Vec::new();
        for _ in 0..3 {
            engine.forward().expect("inference fits");
            runs.push(bits(engine.output()));
        }
        assert_eq!(runs[0], runs[1], "threads={threads}: warm rerun diverged");
        assert_eq!(runs[1], runs[2], "threads={threads}: warm rerun diverged");
        let s = engine.device().counters().scratch();
        assert!(s.kernels > 0, "scratch stats must be recorded");
        // Steady state at any thread count: the per-chunk worker arenas
        // are pooled on the session, so the last (warm) run grew nothing
        // — sequential and threaded runs alike.
        assert_eq!(s.grows, 0, "threads={threads}: warm arena grew: {s:?}");
        assert!((s.steady_fraction() - 1.0).abs() < 1e-12);
        match &reference {
            None => reference = Some(runs.pop().unwrap()),
            Some(bits) => assert_eq!(bits, &runs[2], "thread counts diverged"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random graph shape × model × optimization combo × thread count ×
    /// chunk size: inference must stay bit-identical to sequential.
    #[test]
    fn random_configs_stay_bit_identical(
        seed in 0u64..1000,
        nodes in 24usize..96,
        edges_per_node in 2usize..8,
        threads in 2usize..6,
        min_chunk in 1usize..32,
        model_ix in 0usize..3,
        opt_ix in 0usize..4,
    ) {
        let g = graph(seed, nodes, nodes * edges_per_node);
        let kind = ModelKind::all()[model_ix];
        let opts = all_option_combos(false)[opt_ix].clone();
        let seq = inference_bits(kind, &opts, &g, 1, min_chunk);
        let par = inference_bits(kind, &opts, &g, threads, min_chunk);
        prop_assert_eq!(seq, par);
    }
}
