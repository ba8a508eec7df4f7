//! Training behaviour: loss decreases under every model and optimization
//! combination, both optimizers make progress, and derived (reordered)
//! weights stay consistent across steps.

mod common;

use common::{builder, cyclic_labels, modeled, reseed_features};
use hector::prelude::*;

fn train_graph(seed: u64) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "train".into(),
        num_nodes: 40,
        num_node_types: 2,
        num_edges: 160,
        num_edge_types: 4,
        compaction_ratio: 0.5,
        type_skew: 1.0,
        seed,
    }))
}

fn losses(
    kind: ModelKind,
    opts: &CompileOptions,
    optimizer: &mut dyn Optimizer,
    epochs: usize,
    seed: u64,
) -> Vec<f32> {
    let graph = train_graph(seed);
    let mut engine = builder(kind, 8, opts, seed).training(true).build().unwrap();
    engine.bind(&graph).unwrap();
    reseed_features(&mut engine, seed + 1);
    let labels = cyclic_labels(&graph, 4);
    (0..epochs)
        .map(|_| engine.train_step(&labels, optimizer).unwrap().loss.unwrap())
        .collect()
}

#[test]
fn rgcn_converges_with_sgd() {
    let mut sgd = Sgd::new(0.5);
    let l = losses(ModelKind::Rgcn, &CompileOptions::unopt(), &mut sgd, 25, 1);
    assert!(l.last().unwrap() < &(l[0] - 0.1), "loss curve: {l:?}");
}

#[test]
fn rgat_converges_under_all_option_combos() {
    for opts in [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ] {
        let mut adam = Adam::new(0.05);
        let l = losses(ModelKind::Rgat, &opts, &mut adam, 30, 2);
        assert!(
            l.last().unwrap() < &(l[0] - 0.05),
            "RGAT {} loss curve: {l:?}",
            opts.label()
        );
    }
}

#[test]
fn hgt_converges_under_all_option_combos() {
    for opts in [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ] {
        let mut adam = Adam::new(0.05);
        let l = losses(ModelKind::Hgt, &opts, &mut adam, 30, 3);
        assert!(
            l.last().unwrap() < &(l[0] - 0.05),
            "HGT {} loss curve: {l:?}",
            opts.label()
        );
    }
}

#[test]
fn optimized_training_follows_the_same_trajectory() {
    // Same seeds, same model: the optimization passes must not change the
    // training trajectory (they are semantics-preserving), up to f32
    // accumulation noise.
    let mut sgd_a = Sgd::new(0.1);
    let a = losses(ModelKind::Rgat, &CompileOptions::unopt(), &mut sgd_a, 10, 7);
    let mut sgd_b = Sgd::new(0.1);
    let b = losses(ModelKind::Rgat, &CompileOptions::best(), &mut sgd_b, 10, 7);
    for (x, y) in a.iter().zip(b.iter()) {
        assert!(
            (x - y).abs() < 1e-2,
            "trajectories diverged: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn adam_beats_sgd_on_hgt() {
    let mut sgd = Sgd::new(0.05);
    let s = losses(ModelKind::Hgt, &CompileOptions::unopt(), &mut sgd, 20, 9);
    let mut adam = Adam::new(0.05);
    let a = losses(ModelKind::Hgt, &CompileOptions::unopt(), &mut adam, 20, 9);
    assert!(
        a.last().unwrap() <= s.last().unwrap(),
        "adam {a:?} vs sgd {s:?}"
    );
}

#[test]
fn modeled_training_reports_costs_without_loss() {
    let graph = train_graph(11);
    let opts = CompileOptions::best();
    let report = modeled(
        ModelKind::Rgcn,
        16,
        &opts,
        true,
        &graph,
        DeviceConfig::rtx3090(),
    )
    .unwrap();
    assert!(report.loss.is_none());
    assert!(report.backward_us > 0.0);
    assert!(report.forward_us > 0.0);
}
