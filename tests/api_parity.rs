//! The seed contract of the `Engine`/`Trainer` handles.
//!
//! `bind` derives every stochastic artifact from the engine seed in a
//! fixed order (the seed contract in `hector_runtime::engine`):
//! `ParamStore::init`, then `Bindings::standard`, then — trainers only —
//! `random_labels`, all drawn from one `seeded_rng(seed)`. This suite
//! assembles those pieces by hand in contract order (the five-piece flow
//! the tests are named after), injects them into an engine built from an
//! unrelated seed through `params_mut` / `set_bindings` / `set_labels`,
//! and pins that it is bit-identical to the seed-derived engine: outputs,
//! 5 Adam losses and final weights, for all three models on the
//! sequential and the 4-thread executor.

mod common;

use common::{bits, builder, par, weight_bits};
use hector::prelude::*;
use hector_runtime::random_labels;

const SEED: u64 = 42;
/// What the hand-assembled engines are built from: nothing `bind`
/// derives from it may survive the injection.
const OTHER_SEED: u64 = SEED ^ 0x5eed;
const DIMS: usize = 16;

fn graph() -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "api_parity".into(),
        num_nodes: 90,
        num_node_types: 3,
        num_edges: 700,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed: 13,
    }))
}

fn chain(kind: ModelKind, threads: usize, seed: u64) -> EngineBuilder {
    builder(kind, DIMS, &CompileOptions::best(), seed).parallel(par(threads, 128))
}

/// The contract by hand: replaces the bound engine's parameters and
/// features with ones drawn from one `seeded_rng(SEED)` in contract
/// order, and returns the labels the same stream yields next (step 3).
fn inject(engine: &mut Engine, graph: &GraphData) -> Vec<usize> {
    let mut rng = seeded_rng(SEED);
    let params = ParamStore::init(&engine.module().forward, graph, &mut rng);
    let features = Bindings::standard(&engine.module().forward, graph, &mut rng);
    *engine.params_mut() = params;
    engine.set_bindings(features);
    random_labels(&mut rng, graph.graph().num_nodes(), DIMS)
}

#[test]
fn engine_inference_is_bit_identical_to_legacy_session_flow() {
    let graph = graph();
    for kind in ModelKind::all() {
        for threads in [1usize, 4] {
            // Hand-assembled: init and features from one seeded stream.
            let mut hand = chain(kind, threads, OTHER_SEED).build().unwrap();
            hand.bind(&graph).unwrap();
            inject(&mut hand, &graph);
            let hand_report = hand.forward().expect("fits");

            // Seed-derived: build, bind, forward.
            let mut engine = chain(kind, threads, SEED).build().unwrap();
            let bound = engine.bind(&graph).unwrap();
            let report = bound.forward().expect("fits");

            assert_eq!(
                hand.output().data(),
                bound.output().data(),
                "{kind:?} threads={threads}: outputs must be bit-identical"
            );
            assert_eq!(
                hand_report.launches, report.launches,
                "{kind:?}: same kernel plan"
            );
            assert!(
                (hand_report.elapsed_us - report.elapsed_us).abs() < 1e-9,
                "{kind:?}: same simulated time"
            );
        }
    }
}

#[test]
fn trainer_is_bit_identical_to_legacy_training_flow() {
    let graph = graph();
    for kind in ModelKind::all() {
        for threads in [1usize, 4] {
            // Hand-assembled: all three contract steps, 5 Adam steps.
            let mut hand = chain(kind, threads, OTHER_SEED)
                .build_trainer(Adam::new(0.01))
                .unwrap();
            hand.bind(&graph).unwrap();
            let labels = inject(hand.engine_mut(), &graph);
            hand.set_labels(labels.clone()).unwrap();
            let hand_losses = hand.epoch(5).expect("fits").losses;
            hand.forward().expect("fits");

            // Seed-derived: one builder call, bind, 5 steps.
            let mut trainer = chain(kind, threads, SEED)
                .classes(DIMS)
                .build_trainer(Adam::new(0.01))
                .unwrap();
            trainer.bind(&graph).unwrap();
            assert_eq!(trainer.labels(), &labels[..], "{kind:?}: same label stream");
            let epoch = trainer.epoch(5).expect("fits");
            assert_eq!(
                hand_losses, epoch.losses,
                "{kind:?} threads={threads}: per-step losses must be bit-identical"
            );
            trainer.forward().expect("fits");
            assert_eq!(
                hand.engine().output().data(),
                trainer.engine().output().data(),
                "{kind:?} threads={threads}: post-training outputs must be bit-identical"
            );

            // Weights too: the optimizer walked the same trajectory.
            assert_eq!(
                weight_bits(hand.engine().params()),
                weight_bits(trainer.engine().params()),
                "{kind:?} threads={threads}: every weight must match bitwise"
            );
        }
    }
}

#[test]
fn engine_parallel_and_sequential_agree() {
    // The handles inherit the executor's bit-determinism: the same
    // engine config at 1 and 4 threads produces identical outputs.
    let graph = graph();
    for kind in ModelKind::all() {
        let outputs: Vec<Vec<u32>> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let mut engine = chain(kind, threads, SEED).build().unwrap();
                let bound = engine.bind(&graph).unwrap();
                bound.forward().expect("fits");
                bits(bound.output())
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "{kind:?}: thread-count invariance");
    }
}
