//! Optimization-equivalence properties: compact materialization and
//! linear operator reordering are *semantics-preserving* program
//! rewrites, and their resource effects have known signs.

mod common;

use common::{bits, builder, modeled, par, reseed_features};
use hector::prelude::*;
use hector_ir::KernelSpec;
use proptest::prelude::*;

fn graph_from(nodes: usize, edges: usize, etypes: usize, ratio: f64, seed: u64) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "prop".into(),
        num_nodes: nodes,
        num_node_types: 2,
        num_edges: edges,
        num_edge_types: etypes,
        compaction_ratio: ratio,
        type_skew: 1.0,
        seed,
    }))
}

/// One forward pass with weights from `seed` and features from their own
/// stream (`seed + 1000`), on `par` (`None`: the environment's).
fn forward_output(
    kind: ModelKind,
    opts: &CompileOptions,
    graph: &GraphData,
    dim: usize,
    seed: u64,
    par: Option<ParallelConfig>,
) -> Tensor {
    let mut b = builder(kind, dim, opts, seed);
    if let Some(par) = par {
        b = b.parallel(par);
    }
    let mut engine = b.build().unwrap();
    engine.bind(graph).unwrap();
    reseed_features(&mut engine, seed + 1000);
    engine.forward().unwrap();
    engine.output().clone()
}

fn modeled_report(kind: ModelKind, opts: &CompileOptions, graph: &GraphData) -> hector::RunReport {
    modeled(kind, 64, opts, false, graph, DeviceConfig::rtx3090()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_option_combos_agree(
        seed in 0u64..1000,
        ratio in 0.2f64..1.0,
        etypes in 1usize..6,
    ) {
        let graph = graph_from(30, 120, etypes, ratio, seed);
        for kind in [ModelKind::Rgat, ModelKind::Hgt] {
            let base = forward_output(kind, &CompileOptions::unopt(), &graph, 8, seed, None);
            for opts in [
                CompileOptions::compact_only(),
                CompileOptions::reorder_only(),
                CompileOptions::best(),
            ] {
                let out = forward_output(kind, &opts, &graph, 8, seed, None);
                for (a, b) in base.data().iter().zip(out.data().iter()) {
                    prop_assert!(
                        (a - b).abs() < 1e-3 + 1e-3 * b.abs(),
                        "{kind:?} {} diverged: {a} vs {b}",
                        opts.label()
                    );
                }
            }
        }
    }
}

/// Optimization equivalence through the scratch-arena executor at
/// explicit thread counts (`HECTOR_THREADS ∈ {1, 4}` regardless of the
/// ambient environment): every optimization combo must agree with the
/// unoptimized baseline under both the sequential and the parallel
/// interpreter, and each combo must be bit-identical across the two
/// thread counts.
#[test]
fn option_combos_agree_at_one_and_four_threads() {
    let graph = graph_from(40, 200, 4, 0.4, 77);
    for kind in [ModelKind::Rgat, ModelKind::Hgt] {
        for opts in [
            CompileOptions::unopt(),
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
            CompileOptions::best(),
        ] {
            let per_thread =
                [1usize, 4].map(|t| forward_output(kind, &opts, &graph, 8, 13, Some(par(t, 4))));
            assert_eq!(
                bits(&per_thread[0]),
                bits(&per_thread[1]),
                "{kind:?} {}: threads=1 vs threads=4 diverged",
                opts.label()
            );
        }
        // And the combos agree with each other (loose tolerance — the
        // rewrites reassociate float math), at both thread counts.
        for threads in [1usize, 4] {
            let out_of = |opts: &CompileOptions| {
                forward_output(kind, opts, &graph, 8, 13, Some(par(threads, 4)))
            };
            let base = out_of(&CompileOptions::unopt());
            for opts in [
                CompileOptions::compact_only(),
                CompileOptions::reorder_only(),
                CompileOptions::best(),
            ] {
                let out = out_of(&opts);
                for (a, b) in base.data().iter().zip(out.data().iter()) {
                    assert!(
                        (a - b).abs() < 1e-3 + 1e-3 * b.abs(),
                        "{kind:?} {} diverged at {threads} threads: {a} vs {b}",
                        opts.label()
                    );
                }
            }
        }
    }
}

#[test]
fn compaction_reduces_modeled_memory_when_ratio_is_low() {
    let graph = graph_from(2_000, 40_000, 8, 0.2, 5);
    for kind in [ModelKind::Rgat, ModelKind::Hgt] {
        let mut peak = std::collections::HashMap::new();
        for opts in [CompileOptions::unopt(), CompileOptions::compact_only()] {
            peak.insert(opts.label(), modeled_report(kind, &opts, &graph).peak_bytes);
        }
        assert!(
            peak["C"] < peak["U"],
            "{kind:?}: compaction must shrink the footprint ({} vs {})",
            peak["C"],
            peak["U"]
        );
    }
}

#[test]
fn compaction_speeds_up_low_ratio_graphs() {
    let graph = graph_from(2_000, 40_000, 8, 0.15, 9);
    let mut times = std::collections::HashMap::new();
    for opts in [CompileOptions::unopt(), CompileOptions::compact_only()] {
        let report = modeled_report(ModelKind::Rgat, &opts, &graph);
        times.insert(opts.label(), report.elapsed_us);
    }
    assert!(
        times["C"] < times["U"],
        "compaction at ratio 0.15 must be faster: {} vs {}",
        times["C"],
        times["U"]
    );
}

#[test]
fn reordering_removes_a_gemm_from_rgat() {
    let unopt = hector::compile_model_cached(ModelKind::Rgat, 64, 64, &CompileOptions::unopt());
    let reord =
        hector::compile_model_cached(ModelKind::Rgat, 64, 64, &CompileOptions::reorder_only());
    let gemms = |m: &hector::CompiledModule| {
        m.fw_kernels
            .iter()
            .filter(|k| matches!(k, KernelSpec::Gemm(_)))
            .count()
    };
    assert!(gemms(&reord) < gemms(&unopt));
    assert!(
        !reord.forward.preps.is_empty(),
        "reorder introduces weight preps"
    );
}

#[test]
fn best_options_never_slower_than_unopt_on_typical_graphs() {
    // The paper's "best fixed strategy" claim: C+R wins on average. On
    // individual small graphs it can tie, so allow a small margin.
    let graph = graph_from(5_000, 100_000, 16, 0.4, 3);
    for kind in [ModelKind::Rgat, ModelKind::Hgt] {
        let mut t = std::collections::HashMap::new();
        for opts in [CompileOptions::unopt(), CompileOptions::best()] {
            t.insert(opts.label(), modeled_report(kind, &opts, &graph).elapsed_us);
        }
        assert!(
            t["C+R"] <= t["U"] * 1.05,
            "{kind:?}: C+R should not lose: {} vs {}",
            t["C+R"],
            t["U"]
        );
    }
}
