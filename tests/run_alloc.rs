//! Whole runs are allocation-free once warm — the per-*run* extension of
//! the per-*pass* invariant in `tests/interp_alloc.rs`.
//!
//! The same counting global allocator wraps `System` for this binary.
//! `Session::forward` / `Session::train_step` route every run through
//! the session's persistent `RunPlan`: output/gradient tensors, the loss
//! staging buffer, and the scratch arena are materialised on the first
//! call and reused (zero-filled) afterwards, so after step 1 a
//! sequential training loop performs **exactly zero** heap allocation
//! events — not merely row-invariant, zero. The same holds for the
//! threaded executor: per-chunk worker state (scratch blocks,
//! contribution buffers, scatter staging) is pooled on the session's
//! `WorkerArenas`, so a warm 4-thread run is just as allocation-free as
//! the sequential path — pinned here at `num_threads = 4` alongside the
//! sequential pins.
//!
//! This binary also pins the tracing subsystem's zero-overhead-when-off
//! claim: every executor loop calls `hector_trace::span_start()` (one
//! relaxed atomic load when disabled, as here — tracing is never enabled
//! in this binary), so a zero-allocation warm run proves the disabled
//! hot path allocates nothing. The `trace_overhead` bench covers the
//! wall-clock half of the claim.

// Exercises the deprecated five-piece Session flow on purpose: these
// suites pin the low-level substrate the handle API is built on.
#![allow(deprecated)]

use std::sync::{Mutex, MutexGuard};

use hector::prelude::*;
use hector_bench::alloc_counter::{alloc_events, CountingAlloc};
use hector_tensor::seeded_rng;

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

fn sequential_session() -> Session {
    Session::with_parallel(
        DeviceConfig::rtx3090(),
        Mode::Real,
        ParallelConfig::sequential(),
    )
}

fn threaded_session() -> Session {
    // Tiny min_chunk so the 120-node test graph splits into real chunks
    // on every kernel — the pooled-arena path, not the 1-chunk inline
    // shortcut.
    Session::with_parallel(
        DeviceConfig::rtx3090(),
        Mode::Real,
        ParallelConfig::sequential()
            .with_threads(4)
            .with_min_chunk_rows(4),
    )
}

#[test]
fn warm_threaded_train_steps_allocate_nothing() {
    let _g = serialize();
    // The HECTOR_THREADS=4 twin of `warm_train_steps_allocate_nothing`:
    // pooled per-chunk worker arenas make the chunked production
    // executor (`Session::with_parallel`'s backend) allocation-free
    // once warm, for every model.
    for kind in ModelKind::all() {
        let graph = graph();
        let module =
            hector::compile_model(kind, 16, 16, &CompileOptions::best().with_training(true));
        let mut rng = seeded_rng(5);
        let mut params = ParamStore::init(&module.forward, &graph, &mut rng);
        let bindings = Bindings::standard(&module.forward, &graph, &mut rng);
        let labels: Vec<usize> = (0..graph.graph().num_nodes()).map(|i| i % 4).collect();
        let mut opt = Adam::new(0.01);
        let mut session = threaded_session();

        session
            .train_step(&module, &graph, &mut params, &bindings, &labels, &mut opt)
            .expect("first step fits");

        let before = alloc_events();
        for _ in 0..5 {
            session
                .train_step(&module, &graph, &mut params, &bindings, &labels, &mut opt)
                .expect("warm step fits");
        }
        let allocs = alloc_events() - before;
        assert_eq!(
            allocs,
            0,
            "{}: warm 4-thread train_step must perform zero heap allocations, saw {allocs}",
            kind.name()
        );
        let p = session.device().counters().parallel();
        assert!(
            p.parallel_launches > 0,
            "{}: kernels must actually have run on the pool",
            kind.name()
        );
        let s = *session.device().counters().scratch();
        assert_eq!(s.grows, 0, "{}: warm arenas must not grow", kind.name());
    }
}

#[test]
fn warm_threaded_forward_allocates_nothing() {
    let _g = serialize();
    for kind in ModelKind::all() {
        let graph = graph();
        let module = hector::compile_model(kind, 16, 16, &CompileOptions::best());
        let mut rng = seeded_rng(6);
        let mut params = ParamStore::init(&module.forward, &graph, &mut rng);
        let bindings = Bindings::standard(&module.forward, &graph, &mut rng);
        let mut session = threaded_session();
        session
            .forward(&module, &graph, &mut params, &bindings)
            .expect("warm-up forward fits");
        let before = alloc_events();
        for _ in 0..5 {
            session
                .forward(&module, &graph, &mut params, &bindings)
                .expect("warm forward fits");
        }
        let allocs = alloc_events() - before;
        assert_eq!(
            allocs,
            0,
            "{}: warm 4-thread forward must perform zero heap allocations, saw {allocs}",
            kind.name()
        );
        let p = session.device().counters().parallel();
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
            let graph = graph();
            let module =
                hector::compile_model(kind, 16, 16, &CompileOptions::best().with_training(true));
            let mut rng = seeded_rng(5);
            let mut params = ParamStore::init(&module.forward, &graph, &mut rng);
            let bindings = Bindings::standard(&module.forward, &graph, &mut rng);
            let labels: Vec<usize> = (0..graph.graph().num_nodes()).map(|i| i % 4).collect();
            let mut sgd = Sgd::new(0.01);
            let mut adam = Adam::new(0.01);
            let opt: &mut dyn Optimizer = if use_adam { &mut adam } else { &mut sgd };
            let mut session = sequential_session();

            // Step 1 materialises the plan (and Adam's moments).
            let (_, first) = session
                .train_step(&module, &graph, &mut params, &bindings, &labels, opt)
                .expect("first step fits");
            assert!(first.loss.is_some());

            let before = alloc_events();
            let mut last_loss = f32::INFINITY;
            for _ in 0..5 {
                let (_, report) = session
                    .train_step(&module, &graph, &mut params, &bindings, &labels, opt)
                    .expect("warm step fits");
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
            let s = *session.device().counters().scratch();
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
        let mut trainer = EngineBuilder::new(kind)
            .dims(16, 16)
            .options(CompileOptions::best())
            .parallel(ParallelConfig::sequential())
            .seed(5)
            .build_trainer(Adam::new(0.01))
            .unwrap();
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
    // the session's persistent run plan: zero heap allocation events.
    for kind in ModelKind::all() {
        let graph = graph();
        let mut trainer = EngineBuilder::new(kind)
            .dims(16, 16)
            .options(CompileOptions::best())
            .parallel(ParallelConfig::sequential())
            .seed(5)
            .build_trainer(Adam::new(0.01))
            .unwrap();
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
        let graph = graph();
        let module = hector::compile_model(kind, 16, 16, &CompileOptions::best());
        let mut rng = seeded_rng(6);
        let mut params = ParamStore::init(&module.forward, &graph, &mut rng);
        let bindings = Bindings::standard(&module.forward, &graph, &mut rng);
        let mut session = sequential_session();
        session
            .forward(&module, &graph, &mut params, &bindings)
            .expect("warm-up forward fits");
        let before = alloc_events();
        for _ in 0..5 {
            session
                .forward(&module, &graph, &mut params, &bindings)
                .expect("warm forward fits");
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

#[test]
fn plan_reuse_is_bit_identical_to_fresh_stores() {
    let _g = serialize();
    for kind in ModelKind::all() {
        let graph = graph();
        let module =
            hector::compile_model(kind, 16, 16, &CompileOptions::best().with_training(true));
        let labels: Vec<usize> = (0..graph.graph().num_nodes()).map(|i| i % 4).collect();

        // Fresh-store path.
        let mut rng = seeded_rng(9);
        let mut params_a = ParamStore::init(&module.forward, &graph, &mut rng);
        let bindings = Bindings::standard(&module.forward, &graph, &mut rng);
        let mut sa = sequential_session();
        let mut opt_a = Adam::new(0.01);
        let mut fresh_losses = Vec::new();
        for _ in 0..4 {
            let (_, r) = sa
                .run_training_step(
                    &module,
                    &graph,
                    &mut params_a,
                    &bindings,
                    &labels,
                    &mut opt_a,
                )
                .unwrap();
            fresh_losses.push(r.loss.unwrap());
        }
        let (fresh_vars, _) = sa
            .run_inference(&module, &graph, &mut params_a, &bindings)
            .unwrap();

        // Plan-reuse path from identical seeds.
        let mut rng = seeded_rng(9);
        let mut params_b = ParamStore::init(&module.forward, &graph, &mut rng);
        let bindings_b = Bindings::standard(&module.forward, &graph, &mut rng);
        let mut sb = sequential_session();
        let mut opt_b = Adam::new(0.01);
        let mut plan_losses = Vec::new();
        for _ in 0..4 {
            let (_, r) = sb
                .train_step(
                    &module,
                    &graph,
                    &mut params_b,
                    &bindings_b,
                    &labels,
                    &mut opt_b,
                )
                .unwrap();
            plan_losses.push(r.loss.unwrap());
        }
        assert_eq!(fresh_losses, plan_losses, "{}", kind.name());
        let out = module.forward.outputs[0];
        let (plan_vars, _) = sb
            .forward(&module, &graph, &mut params_b, &bindings_b)
            .unwrap();
        assert_eq!(
            fresh_vars.tensor(out).data(),
            plan_vars.tensor(out).data(),
            "{}: plan-reuse outputs must be bit-identical",
            kind.name()
        );
    }
}
