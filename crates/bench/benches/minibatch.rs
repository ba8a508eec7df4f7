//! minibatch: sampled mini-batch training throughput and the prefetch
//! pipeline's win over sample-then-train.
//!
//! For each model × thread count, runs one epoch of seeded neighbor
//! sampling + subgraph training two ways on the same trainer:
//!
//! * `sync` — `cfg.pipeline(false)`: every batch is sampled inline,
//!   then trained (sample-then-train; epoch wall = sample + train).
//! * `pipelined` — `cfg.pipeline(true)`: a background producer samples
//!   batch `k+1` while batch `k` trains (epoch wall ≈ max of the two).
//!
//! Both orders produce bit-identical batches and losses (pinned by
//! `tests/minibatch.rs`), so the columns differ only in wall time.
//! Reported per row: seed-nodes-per-second throughput, pure sampling
//! time (the part the pipeline can hide), the device's measured overlap
//! fraction (time the consumer did *not* wait for a batch, out of total
//! production time), and the pipeline speedup. The scaling target —
//! ≥1.2× at 4 threads on the default scale — assumes a spare physical
//! core for the producer thread; on a single-core host producer and
//! trainer timeslice one CPU
//! and the speedup degenerates to ~1×, so the host core count is printed
//! with the results.
//!
//! With `HECTOR_BENCH_JSON=<path>` the rows land in the perf-regression
//! artifact; all fields are wall-clock-derived, hence informational
//! (the lane never gates on them).

use std::time::Instant;

use hector::prelude::*;
use hector_bench::json::JsonWriter;
use hector_bench::{banner, scale};

const DIMS: usize = 32;
const THREADS: [usize; 3] = [1, 2, 4];
const BATCH: usize = 64;

fn graph(s: f64) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "minibatch_bench".into(),
        num_nodes: ((6_000f64 * s) as usize).max(256),
        num_node_types: 4,
        num_edges: ((48_000f64 * s) as usize).max(1024),
        num_edge_types: 8,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed: 71,
    }))
}

fn trainer(kind: ModelKind, threads: usize, g: &GraphData) -> Trainer {
    let mut t = EngineBuilder::new(kind)
        .dims(DIMS, DIMS)
        .options(CompileOptions::best())
        .parallel(ParallelConfig::from_env().with_threads(threads))
        .seed(7)
        .build_trainer(Adam::new(0.01))
        .unwrap();
    t.bind(g).unwrap();
    t
}

struct EpochRun {
    wall_s: f64,
    sample_s: f64,
    overlap: f64,
    seeds_per_sec: f64,
}

fn epoch(t: &mut Trainer, cfg: &SamplerConfig, seeds: usize) -> EpochRun {
    // Sampler stats accumulate across epochs: measure this one as a delta.
    let before = *t.engine().device().counters().sampler();
    let t0 = Instant::now();
    t.minibatch_epoch(cfg).expect("epoch fits");
    let wall_s = t0.elapsed().as_secs_f64();
    let mut stats = *t.engine().device().counters().sampler();
    stats.sample_wall_us -= before.sample_wall_us;
    stats.wait_wall_us -= before.wait_wall_us;
    EpochRun {
        wall_s,
        sample_s: stats.sample_wall_us / 1e6,
        overlap: stats.overlap_fraction(),
        seeds_per_sec: seeds as f64 / wall_s,
    }
}

fn main() {
    let s = scale();
    banner(
        "minibatch: sampled training pipeline vs sample-then-train",
        s,
    );
    let g = graph(s);
    let seeds = g.graph().num_nodes();
    println!(
        "graph: {} nodes, {} edges; batch {BATCH}, fanouts [10, 5]",
        seeds,
        g.graph().num_edges()
    );
    println!(
        "host cores: {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    println!(
        "{:>6} {:>8} {:>12} {:>14} {:>11} {:>12} {:>9} {:>9}",
        "model", "threads", "sync ms", "pipelined ms", "sample ms", "seeds/s", "overlap", "speedup"
    );
    let mut json = JsonWriter::from_env("minibatch");
    for kind in ModelKind::all() {
        for threads in THREADS {
            let mut t = trainer(kind, threads, &g);
            let cfg = SamplerConfig::new(BATCH);
            // Warm epoch: materialises the run plan so both timed
            // epochs run the allocation-free steady state.
            t.minibatch_epoch(&cfg.clone().pipeline(false))
                .expect("warm epoch fits");
            let sync = epoch(&mut t, &cfg.clone().pipeline(false), seeds);
            let pipe = epoch(&mut t, &cfg.clone().pipeline(true), seeds);
            let speedup = sync.wall_s / pipe.wall_s.max(1e-12);
            println!(
                "{:>6} {:>8} {:>12.1} {:>14.1} {:>11.1} {:>12.0} {:>9.2} {:>8.2}x",
                kind.name(),
                threads,
                sync.wall_s * 1e3,
                pipe.wall_s * 1e3,
                pipe.sample_s * 1e3,
                pipe.seeds_per_sec,
                pipe.overlap,
                speedup
            );
            json.record(
                &format!("{}_t{}", kind.name(), threads),
                &[
                    ("sync_ms", sync.wall_s * 1e3),
                    ("pipelined_ms", pipe.wall_s * 1e3),
                    ("sample_ms", pipe.sample_s * 1e3),
                    ("seeds_per_sec", pipe.seeds_per_sec),
                    ("overlap_fraction", pipe.overlap),
                    ("speedup", speedup),
                ],
            );
        }
    }
    println!(
        "\nPipelined and sync epochs train bit-identical batch sequences\n\
         (tests/minibatch.rs); the speedup is pure sampling/training overlap,\n\
         bounded by the 'sample ms' column the producer can hide. Target:\n\
         >= 1.2x at 4 threads at the default scale, given a spare physical\n\
         core for the producer (single-core hosts degenerate to ~1x)."
    );
    json.finish();
}
