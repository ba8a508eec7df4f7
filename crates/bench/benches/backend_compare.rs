//! Execution-backend comparison: the sequential oracle (`interp`) vs
//! the production micro-op executor (`specialized`) at 1 and 4 threads.
//!
//! The production executor resolves every lowered kernel into micro-ops
//! at prepare time — operands, stage assignments, aggregation kinds,
//! and the fusion plan are resolved once instead of per launch — while
//! performing the identical floating-point work in the identical order
//! (pinned by `tests/backend_parity.rs`). This bench measures what that
//! buys on warm forward passes and full training steps for all three
//! built-in models: the 1-thread column shows the per-kernel host work
//! the resolution removes undiluted, the 4-thread column that the win
//! composes with chunking (the ROADMAP's "specialized × threads" row).
//!
//! Every row first asserts bit-identity between the oracle and both
//! production runs, so a speedup can never come from diverging
//! numerics. The headline row is the HGT train step — the deepest
//! kernel pipeline of the three models — with a ≥1.2× speedup target.
//!
//! With `HECTOR_BENCH_JSON=<path>` the measurements are appended to the
//! perf-regression artifact (`backend_compare` fragment; wall clock is
//! informational there — CI machines are too noisy to gate on it).

use std::time::Instant;

use hector::prelude::*;
use hector_bench::{banner, json::JsonWriter, scale};

const DIMS: usize = 32;

fn generated(s: f64) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "backend_compare".into(),
        num_nodes: ((4_000.0 * s) as usize).max(128),
        num_node_types: 4,
        num_edges: ((32_000.0 * s) as usize).max(512),
        num_edge_types: 8,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed: 61,
    }))
}

struct Run {
    wall_ms: f64,
    /// Output bits (forward) or loss+weight bits (training) for the
    /// bit-identity check between backends.
    bits: Vec<u32>,
}

fn session(backend: BackendKind, threads: usize) -> Session {
    Session::with_backend(
        DeviceConfig::rtx3090(),
        Mode::Real,
        ParallelConfig::sequential().with_threads(threads),
        backend,
    )
    .expect("backend is available")
}

fn forward_run(
    kind: ModelKind,
    g: &GraphData,
    backend: BackendKind,
    threads: usize,
    iters: usize,
) -> Run {
    let module = hector::compile_model_cached(kind, DIMS, DIMS, &CompileOptions::best());
    let mut rng = seeded_rng(42);
    let mut params = ParamStore::init(&module.forward, g, &mut rng);
    let bindings = Bindings::standard(&module.forward, g, &mut rng);
    let mut session = session(backend, threads);
    session
        .forward(&module, g, &mut params, &bindings)
        .expect("warm-up fits");
    let start = Instant::now();
    for _ in 0..iters {
        session
            .forward(&module, g, &mut params, &bindings)
            .expect("forward fits");
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / iters as f64;
    let (vars, _) = session
        .forward(&module, g, &mut params, &bindings)
        .expect("forward fits");
    let out = module.forward.outputs[0];
    let bits = vars
        .tensor(out)
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    Run { wall_ms, bits }
}

fn train_run(
    kind: ModelKind,
    g: &GraphData,
    backend: BackendKind,
    threads: usize,
    iters: usize,
) -> Run {
    let module = hector::compile_model_cached(
        kind,
        DIMS,
        DIMS,
        &CompileOptions::best().with_training(true),
    );
    let mut rng = seeded_rng(42);
    let mut params = ParamStore::init(&module.forward, g, &mut rng);
    let bindings = Bindings::standard(&module.forward, g, &mut rng);
    let labels: Vec<usize> = (0..g.graph().num_nodes()).map(|i| i % 4).collect();
    let mut opt = Adam::new(0.01);
    let mut session = session(backend, threads);
    session
        .train_step(&module, g, &mut params, &bindings, &labels, &mut opt)
        .expect("warm-up fits");
    let mut bits = Vec::new();
    let start = Instant::now();
    for _ in 0..iters {
        let (_, report) = session
            .train_step(&module, g, &mut params, &bindings, &labels, &mut opt)
            .expect("train step fits");
        bits.push(report.loss.expect("real mode reports loss").to_bits());
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / iters as f64;
    for w in 0..params.len() {
        let wid = hector_ir::WeightId(w as u32);
        bits.extend(params.weight(wid).data().iter().map(|v| v.to_bits()));
    }
    Run { wall_ms, bits }
}

fn main() {
    let s = scale();
    banner("backend_compare: oracle vs production executor", s);
    let g = generated(s);
    println!(
        "graph: {} nodes, {} edges; dims {DIMS}; {} core(s) available\n",
        g.graph().num_nodes(),
        g.graph().num_edges(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let iters = if s >= 1.0 { 3 } else { 5 };
    let mut out = JsonWriter::from_env("backend_compare");

    println!(
        "{:<16}{:>12}{:>12}{:>12}{:>10}{:>10}  bit-identical",
        "workload", "interp ms", "spec t1 ms", "spec t4 ms", "t1 x", "t4/t1 x"
    );
    let mut hgt_train_speedup = 0.0;
    for kind in ModelKind::all() {
        for training in [false, true] {
            let run = if training { train_run } else { forward_run };
            let interp = run(kind, &g, BackendKind::Interp, 1, iters);
            let spec = run(kind, &g, BackendKind::Specialized, 1, iters);
            let spec_t4 = run(kind, &g, BackendKind::Specialized, 4, iters);
            for (threads, got) in [(1, &spec), (4, &spec_t4)] {
                assert_eq!(
                    interp.bits,
                    got.bits,
                    "{} {} threads={threads}: production diverged from the oracle — \
                     a speedup from different numerics is meaningless",
                    kind.name(),
                    if training { "train" } else { "fwd" }
                );
            }
            let speedup = interp.wall_ms / spec.wall_ms;
            let scaling_t4 = spec.wall_ms / spec_t4.wall_ms;
            let row = format!(
                "{}_{}",
                kind.name().to_lowercase(),
                if training { "train" } else { "fwd" }
            );
            println!(
                "{row:<16}{:>12.3}{:>12.3}{:>12.3}{:>9.2}x{:>9.2}x  yes",
                interp.wall_ms, spec.wall_ms, spec_t4.wall_ms, speedup, scaling_t4
            );
            out.record(
                &row,
                &[
                    ("interp_ms", interp.wall_ms),
                    ("specialized_ms", spec.wall_ms),
                    ("specialized_t4_ms", spec_t4.wall_ms),
                    ("speedup", speedup),
                    ("scaling_t4", scaling_t4),
                ],
            );
            if kind == ModelKind::Hgt && training {
                hgt_train_speedup = speedup;
            }
        }
    }
    out.finish();
    println!(
        "\nheadline: HGT train step {hgt_train_speedup:.2}x at 1 thread (target >=1.2x; \
         every row asserted bit-identical before timing was compared; \
         the 4-thread column is informational — no wall-clock gate)"
    );
}
