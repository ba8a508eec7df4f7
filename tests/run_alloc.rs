//! Whole runs are allocation-free once warm — the per-*run* extension of
//! the per-*pass* invariant in `tests/interp_alloc.rs`.
//!
//! The same counting global allocator wraps `System` for this binary.
//! `Engine::forward` / `Engine::train_step` route every run through
//! the engine's persistent run plan: output/gradient tensors, the loss
//! staging buffer, and the scratch arena are materialised on the first
//! call and reused (zero-filled) afterwards, so after step 1 a
//! sequential training loop performs **exactly zero** heap allocation
//! events — not merely row-invariant, zero. The same holds for the
//! threaded executor: per-chunk worker state (scratch blocks,
//! contribution buffers, scatter staging) is pooled on the engine, so
//! a warm 4-thread run is just as allocation-free as
//! the sequential path — pinned here at `num_threads = 4` alongside the
//! sequential pins.
//!
//! This binary also pins the tracing subsystem's zero-overhead-when-off
//! claim: every executor loop calls `hector_trace::span_start()` (one
//! relaxed atomic load when disabled, as here — tracing is never enabled
//! in this binary), so a zero-allocation warm run proves the disabled
//! hot path allocates nothing. `hector_benchmark`'s
//! `trace.overhead_ratio` metric covers the wall-clock half of the
//! claim.

mod common;

use std::sync::{Mutex, MutexGuard};

use common::{bits, cyclic_labels, engine, trainer};
use hector::prelude::*;
use hector_bench::alloc_counter::{alloc_events, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The allocation counter is process-global, so concurrently running
/// tests would see each other's warm-up allocations inside their
/// measured windows. Every test serializes on this lock, then lets the
/// harness's own allocations (reporting the test that just released it,
/// spawning the next) die down.
static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    hector_bench::alloc_counter::settle();
    guard
}

fn graph() -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "run_alloc".into(),
        num_nodes: 120,
        num_node_types: 3,
        num_edges: 960,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed: 77,
    }))
}

/// Thread counts of the suite. `engine`/`trainer` chunk at 4 rows, so
/// at 4 threads the 120-node test graph splits into real chunks on every
/// kernel — the pooled-arena path, not the 1-chunk inline shortcut.
const SEQUENTIAL: usize = 1;
const THREADED: usize = 4;

/// A bound engine of `kind` compiled for training, plus the suite's
/// fixed labels — what `Engine::train_step` needs beside an optimizer.
fn training_engine(kind: ModelKind, threads: usize) -> (Engine, Vec<usize>) {
    let graph = graph();
    let opts = CompileOptions::best().with_training(true);
    let mut e = engine(kind, &opts, threads, BackendKind::Specialized, 5);
    e.bind(&graph).unwrap();
    (e, cyclic_labels(&graph, 4))
}

fn inference_engine(kind: ModelKind, threads: usize) -> Engine {
    let opts = CompileOptions::best();
    let mut e = engine(kind, &opts, threads, BackendKind::Specialized, 6);
    e.bind(&graph()).unwrap();
    e
}

#[test]
fn warm_threaded_train_steps_allocate_nothing() {
    let _g = serialize();
    // The HECTOR_THREADS=4 twin of `warm_train_steps_allocate_nothing`:
    // pooled per-chunk worker arenas make the chunked production
    // executor allocation-free once warm, for every model.
    for kind in ModelKind::all() {
        let (mut engine, labels) = training_engine(kind, THREADED);
        let mut opt = Adam::new(0.01);
        engine
            .train_step(&labels, &mut opt)
            .expect("first step fits");

        let before = alloc_events();
        for _ in 0..5 {
            engine
                .train_step(&labels, &mut opt)
                .expect("warm step fits");
        }
        let allocs = alloc_events() - before;
        assert_eq!(
            allocs,
            0,
            "{}: warm 4-thread train_step must perform zero heap allocations, saw {allocs}",
            kind.name()
        );
        let p = engine.device().counters().parallel();
        assert!(
            p.parallel_launches > 0,
            "{}: kernels must actually have run on the pool",
            kind.name()
        );
        let s = *engine.device().counters().scratch();
        assert_eq!(s.grows, 0, "{}: warm arenas must not grow", kind.name());
    }
}

#[test]
fn warm_threaded_forward_allocates_nothing() {
    let _g = serialize();
    for kind in ModelKind::all() {
        let mut engine = inference_engine(kind, THREADED);
        engine.forward().expect("warm-up forward fits");
        let before = alloc_events();
        for _ in 0..5 {
            engine.forward().expect("warm forward fits");
        }
        let allocs = alloc_events() - before;
        assert_eq!(
            allocs,
            0,
            "{}: warm 4-thread forward must perform zero heap allocations, saw {allocs}",
            kind.name()
        );
        let p = engine.device().counters().parallel();
        assert!(
            p.parallel_launches > 0,
            "{}: kernels must actually have run on the pool",
            kind.name()
        );
    }
}

#[test]
fn warm_train_steps_allocate_nothing() {
    let _g = serialize();
    for kind in ModelKind::all() {
        for use_adam in [false, true] {
            let (mut engine, labels) = training_engine(kind, SEQUENTIAL);
            let mut sgd = Sgd::new(0.01);
            let mut adam = Adam::new(0.01);
            let opt: &mut dyn Optimizer = if use_adam { &mut adam } else { &mut sgd };

            // Step 1 materialises the plan (and Adam's moments).
            let first = engine.train_step(&labels, opt).expect("first step fits");
            assert!(first.loss.is_some());

            let before = alloc_events();
            let mut last_loss = f32::INFINITY;
            for _ in 0..5 {
                let report = engine.train_step(&labels, opt).expect("warm step fits");
                last_loss = report.loss.expect("real-mode training reports loss");
            }
            let allocs = alloc_events() - before;
            assert_eq!(
                allocs,
                0,
                "{} ({}): warm train_step must perform zero heap allocations, saw {allocs}",
                kind.name(),
                if use_adam { "adam" } else { "sgd" },
            );
            assert!(
                last_loss.is_finite(),
                "{}: training must stay finite",
                kind.name()
            );

            // The device counters corroborate: no plan growth after warm-up.
            let s = *engine.device().counters().scratch();
            assert_eq!(
                s.plan_grows,
                0,
                "{}: warm plan must not grow: {s:?}",
                kind.name()
            );
            assert!(s.plan_bytes > 0, "plan footprint should be visible");
        }
    }
}

#[test]
fn warm_trainer_steps_allocate_nothing() {
    let _g = serialize();
    // The Trainer handle hits the plan path by construction: after the
    // first step, `trainer.step()` — the entire user-facing epoch body —
    // performs exactly zero heap allocations.
    for kind in ModelKind::all() {
        let graph = graph();
        let opts = CompileOptions::best();
        let mut trainer = trainer(kind, &opts, SEQUENTIAL, BackendKind::Specialized, 5);
        trainer.bind(&graph).unwrap();
        trainer.step().expect("first step fits");

        let before = alloc_events();
        for _ in 0..5 {
            trainer.step().expect("warm step fits");
        }
        let allocs = alloc_events() - before;
        assert_eq!(
            allocs,
            0,
            "{}: warm trainer.step() must perform zero heap allocations, saw {allocs}",
            kind.name()
        );
        assert!(
            trainer.loss().expect("real mode reports loss").is_finite(),
            "{}: training must stay finite",
            kind.name()
        );
        let s = *trainer.engine().device().counters().scratch();
        assert_eq!(s.plan_grows, 0, "{}: warm plan must not grow", kind.name());
    }
}

#[test]
fn warm_minibatch_steps_allocate_nothing() {
    let _g = serialize();
    // Batch *production* allocates (subgraph extraction builds fresh
    // tensors — that is the producer thread's job in the pipeline); the
    // training step itself must not. After one warm-up call,
    // `trainer.train_batch` on a same-shape batch goes entirely through
    // the engine's persistent run plan: zero heap allocation events.
    for kind in ModelKind::all() {
        let graph = graph();
        let opts = CompileOptions::best();
        let mut trainer = trainer(kind, &opts, SEQUENTIAL, BackendKind::Specialized, 5);
        trainer.bind(&graph).unwrap();
        let batch = trainer
            .minibatch(&SamplerConfig::new(32).fanouts(&[3, 2]).pipeline(false))
            .next()
            .expect("at least one batch");
        trainer.train_batch(&batch).expect("first batch step fits");

        let before = alloc_events();
        for _ in 0..5 {
            trainer.train_batch(&batch).expect("warm batch step fits");
        }
        let allocs = alloc_events() - before;
        assert_eq!(
            allocs,
            0,
            "{}: warm train_batch must perform zero heap allocations, saw {allocs}",
            kind.name()
        );
        assert!(
            trainer.loss().expect("real mode reports loss").is_finite(),
            "{}: batch training must stay finite",
            kind.name()
        );
        let s = *trainer.engine().device().counters().scratch();
        assert_eq!(
            s.plan_grows,
            0,
            "{}: same-shape warm batch must not grow the plan",
            kind.name()
        );
    }
}

#[test]
fn warm_forward_allocates_nothing() {
    let _g = serialize();
    for kind in ModelKind::all() {
        let mut engine = inference_engine(kind, SEQUENTIAL);
        engine.forward().expect("warm-up forward fits");
        let before = alloc_events();
        for _ in 0..5 {
            engine.forward().expect("warm forward fits");
        }
        let allocs = alloc_events() - before;
        assert_eq!(
            allocs,
            0,
            "{}: warm forward must perform zero heap allocations, saw {allocs}",
            kind.name()
        );
    }
}

/// Step N of a warm trainer equals step N of a freshly built one
/// replaying N steps. "Warm" means its run plan is dirty: it already
/// trained four steps and ran a forward pass before rebinding restarted
/// it from the seed, so every step below writes into reused (zero-filled)
/// buffers where the fresh trainer's first step materialises new ones.
#[test]
fn plan_reuse_is_bit_identical_to_fresh_stores() {
    let _g = serialize();
    for kind in ModelKind::all() {
        let graph = graph();
        let fresh_trainer = || {
            let opts = CompileOptions::best();
            let mut t = trainer(kind, &opts, SEQUENTIAL, BackendKind::Specialized, 9);
            t.bind(&graph).unwrap();
            t.set_labels(cyclic_labels(&graph, 4)).unwrap();
            t
        };

        // Fresh-store path.
        let mut fresh = fresh_trainer();
        let fresh_losses = fresh.epoch(4).unwrap().losses;
        fresh.forward().unwrap();

        // Plan-reuse path from identical seeds.
        let mut warm = fresh_trainer();
        warm.epoch(4).unwrap();
        warm.forward().unwrap();
        warm.bind(&graph).unwrap();
        let plan_losses = warm.epoch(4).unwrap().losses;
        assert_eq!(fresh_losses, plan_losses, "{}", kind.name());
        warm.forward().unwrap();
        assert_eq!(
            bits(fresh.engine().output()),
            bits(warm.engine().output()),
            "{}: plan-reuse outputs must be bit-identical",
            kind.name()
        );
    }
}
