//! Cross-backend bit-identity: the specialized compiled-kernel backend
//! must be indistinguishable from the reference interpreter, bit for
//! bit.
//!
//! The specialized backend monomorphizes each lowered kernel into a
//! dispatch-free closure at prepare time (see
//! `crates/runtime/src/backend/spec.rs`), but performs the **exact same
//! floating-point operations in the exact same order** — so every
//! output bit, loss bit, and trained weight bit must match the
//! interpreter, at any thread count. These tests pin that contract for
//! all three built-in models (forward + five Adam steps, threads
//! {1, 4}) and over a property suite of random graphs and
//! configurations.

mod common;

use common::{engine, parity};
use hector::prelude::*;
use proptest::prelude::*;

fn graph(seed: u64, nodes: usize, edges: usize) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "backend_parity".into(),
        num_nodes: nodes,
        num_node_types: 3,
        num_edges: edges,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed,
    }))
}

/// One inference on `backend`; returns the output tensor as raw bits.
fn inference_bits(
    kind: ModelKind,
    opts: &CompileOptions,
    g: &GraphData,
    backend: BackendKind,
    threads: usize,
) -> Vec<u32> {
    common::inference_bits(parity(kind, opts, threads, backend, 7), g)
}

/// Five Adam steps on `backend`; returns (per-step loss bits, all final
/// weight bits) — the whole training trajectory.
fn training_bits(
    kind: ModelKind,
    opts: &CompileOptions,
    g: &GraphData,
    backend: BackendKind,
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    common::training_bits(parity(kind, opts, threads, backend, 13), g, 5)
}

#[test]
fn forward_is_bit_identical_across_backends() {
    let g = graph(17, 120, 720);
    for kind in ModelKind::all() {
        for opts in [CompileOptions::unopt(), CompileOptions::best()] {
            for threads in [1usize, 4] {
                let interp = inference_bits(kind, &opts, &g, BackendKind::Interp, threads);
                let spec = inference_bits(kind, &opts, &g, BackendKind::Specialized, threads);
                assert_eq!(
                    interp,
                    spec,
                    "{} / {} / threads={threads}: specialized forward diverged",
                    kind.name(),
                    opts.label()
                );
            }
        }
    }
}

#[test]
fn five_adam_steps_are_bit_identical_across_backends() {
    let g = graph(29, 80, 480);
    for kind in ModelKind::all() {
        for opts in [
            CompileOptions::unopt().with_training(true),
            CompileOptions::best().with_training(true),
        ] {
            for threads in [1usize, 4] {
                let (il, iw) = training_bits(kind, &opts, &g, BackendKind::Interp, threads);
                let (sl, sw) = training_bits(kind, &opts, &g, BackendKind::Specialized, threads);
                assert_eq!(
                    il,
                    sl,
                    "{} / {} / threads={threads}: loss trajectory diverged",
                    kind.name(),
                    opts.label()
                );
                assert_eq!(
                    iw,
                    sw,
                    "{} / {} / threads={threads}: trained weights diverged",
                    kind.name(),
                    opts.label()
                );
            }
        }
    }
}

#[test]
fn backend_stats_identify_the_backend() {
    let g = graph(3, 60, 240);
    for kind in [BackendKind::Interp, BackendKind::Specialized] {
        let mut e = engine(ModelKind::Rgcn, &CompileOptions::best(), 1, kind, 5);
        e.bind(&g).unwrap().forward().unwrap();
        let b = e.device().counters().backend();
        assert_eq!(b.name, kind.name());
        assert_eq!(b.prepares, 1, "{kind:?}: cold run prepares the plan");
        assert_eq!(b.plan_reuses, 0);
        assert!(b.kernels > 0, "{kind:?}: kernel launches are counted");
        e.forward().unwrap();
        let b = e.device().counters().backend();
        assert_eq!(b.prepares, 0, "{kind:?}: warm run reuses the plan");
        assert_eq!(b.plan_reuses, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random graph shape × model × optimization combo × thread count ×
    /// chunk size: the specialized backend must stay bit-identical to
    /// the interpreter.
    #[test]
    fn random_configs_stay_bit_identical_across_backends(
        seed in 0u64..1000,
        nodes in 24usize..96,
        edges_per_node in 2usize..8,
        threads in 1usize..6,
        model_ix in 0usize..3,
        opt_ix in 0usize..4,
    ) {
        let g = graph(seed, nodes, nodes * edges_per_node);
        let kind = ModelKind::all()[model_ix];
        let opts = [
            CompileOptions::unopt(),
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
            CompileOptions::best(),
        ][opt_ix]
            .clone();
        let interp = inference_bits(kind, &opts, &g, BackendKind::Interp, threads);
        let spec = inference_bits(kind, &opts, &g, BackendKind::Specialized, threads);
        prop_assert_eq!(interp, spec);
    }
}

/// Generated graphs give every edge type one source node type, so a
/// pair-typed weight changes slab only where the edge type does. Here
/// edge type 0 interleaves sources of two node types — its rows are runs
/// of one or two edges alternating between two pair slabs — and most
/// `(ntype, etype)` pairs have no edge at all.
#[test]
fn interleaved_pair_runs_are_bit_identical_across_backends() {
    let mut b = hector::HeteroGraphBuilder::new();
    for _ in 0..3 {
        b.add_node_type(8);
    }
    for i in 0..24u32 {
        // Sources alternate between node types 0 and 1 (ids 0..8, 8..16).
        b.add_edge((i % 2) * 8 + (i / 2) % 8, (i * 7) % 24, 0);
    }
    for i in 0..8u32 {
        b.add_edge(16 + i, i * 3, 1 + i % 3);
    }
    let g = GraphData::new(b.build());
    let opts = CompileOptions::best().with_training(true);
    for kind in ModelKind::all() {
        for threads in [1usize, 4] {
            let interp = inference_bits(kind, &opts, &g, BackendKind::Interp, threads);
            let spec = inference_bits(kind, &opts, &g, BackendKind::Specialized, threads);
            assert_eq!(interp, spec, "{} / threads={threads}: forward", kind.name());
            let interp = training_bits(kind, &opts, &g, BackendKind::Interp, threads);
            let spec = training_bits(kind, &opts, &g, BackendKind::Specialized, threads);
            assert_eq!(
                interp,
                spec,
                "{} / threads={threads}: training",
                kind.name()
            );
        }
    }
}
