//! One benchmark run: set-up (repeated, so its median can be reported),
//! then the three timed phases, the correctness checks, and the
//! assembly of both metric sets. Only the stable handle API is driven
//! (`EngineBuilder`/`Engine`/`Trainer`/`Minibatches`,
//! `ShardedGraph`/`ShardedEngine`/`DeltaBatch`, `ServeHandle`,
//! `serve::http`), with every configuration axis stated explicitly.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hector::prelude::*;
use hector::serve::{ServeConfig, ServeHandle};
use hector::{GraphData, HeteroGraph};

use crate::catalog::{Workload, MODELS};
use crate::phases::serve::{DeltaTarget, Traffic, TENANTS, WRITE_TENANT};
use crate::phases::{full, minibatch, probes, serve};
use crate::spans::{self, Recorder};
use crate::stats::{geomean, mean, median, substream};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUPS: usize = 5;
/// Share of every round, and so of `--seconds`, that is request
/// traffic. Fixed for every workload, so each metric gets the same care
/// everywhere and one bound per metric can hold on all of them.
const SERVE_SHARE: f64 = 0.35;
/// A run takes at least this many rounds, however slow the host.
const MIN_ROUNDS: usize = 3;
/// Deltas applied per round while no request is in flight.
const DELTAS_PER_ROUND: usize = 4;

/// Counts timed operations and collects correctness failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Tally {
    /// One timed operation; `ok` is false on `Err`, a non-finite value
    /// or a missed latency limit.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Metric values by name; `None` for a metric this run had nothing to
/// measure with (say, deltas beside the reads where no writer runs).
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Option<f64>>);

impl Metrics {
    pub fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), Some(value));
    }

    /// The median of `samples`, or "not measured" when there are none.
    pub fn insert_median(&mut self, name: impl Into<String>, samples: &[f64]) {
        self.0
            .insert(name.into(), (!samples.is_empty()).then(|| median(samples)));
    }

    /// # Panics
    ///
    /// Panics on a name no phase reported: the metric tables and the
    /// phases have drifted apart.
    pub fn get(&self, name: &str) -> Option<f64> {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never reported"))
    }
}

/// The samples behind the medians, by metric name, for the
/// human-readable report.
pub type Samples = Vec<(String, Vec<f64>)>;

/// The explicit engine configuration every phase uses: specialized
/// backend, both compiler optimizations, real numerics, a stated thread
/// count, parameters and features derived from the run seed.
pub fn builder(w: &Workload, kind: ModelKind, seed: u64, threads: usize) -> EngineBuilder {
    EngineBuilder::new(kind)
        .dims(w.dims, w.dims)
        .layers(w.layers)
        .options(CompileOptions::best())
        .backend(BackendKind::Specialized)
        .mode(Mode::Real)
        .parallel(ParallelConfig {
            num_threads: threads,
            min_chunk_rows: 128,
        })
        .seed(substream(seed, 2))
}

/// The workload's graph. Its topology is the preset's own (the preset
/// stands for a fixed dataset, as the paper's are): only what is laid
/// over it — parameters, features, labels, sampling, requests, deltas —
/// follows `--seed`. With the topology seeded too, sampled subgraphs
/// came out 1190 to 1601 nodes from one seed to the next and
/// `seeds_per_s` moved by a quarter for no reason a change could cause.
pub fn generate_graph(w: &Workload) -> HeteroGraph {
    hector::generate(&(w.preset)().scaled(w.scale))
}

pub fn all_finite(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// One model's handles, all on 1 compute thread: an inference engine, a
/// full-graph trainer and a trainer for sampled batches.
pub struct ModelStage {
    pub engine: Engine,
    pub seq: Trainer,
    pub sampled: Trainer,
    /// Loss of the first (warm-up) step, for "training made progress".
    pub first_loss: f32,
}

/// Everything set-up builds and the timed phases use.
pub struct Stage {
    pub graph: GraphData,
    pub models: Vec<ModelStage>,
    pub server: ServeHandle,
    /// The write-only tenant the per-round deltas go to.
    pub between_rounds: DeltaTarget,
    /// Read tenant `rgcn`, for the deltas `serve_mixed` applies beside
    /// the reads.
    pub beside_reads: DeltaTarget,
}

impl Drop for Stage {
    fn drop(&mut self) {
        // Joins the dispatcher: no thread outlives its stage.
        self.server.shutdown();
    }
}

/// A trainer (Adam, 0.01) on `threads` compute threads bound to `graph`,
/// and the wall of the bind in ms.
fn bound_trainer(
    w: &Workload,
    kind: ModelKind,
    seed: u64,
    threads: usize,
    graph: &GraphData,
    rec: &mut Recorder,
    op: u64,
) -> Result<(Trainer, f64), HectorError> {
    let (t, _) = rec.timed("runtime.build_trainer", op, |_| {
        builder(w, kind, seed, threads).build_trainer(Adam::new(0.01))
    });
    let mut t = t?;
    let (bound, ms) = rec.timed("runtime.Trainer::bind", op, |_| t.bind(graph).map(|_| ()));
    bound?;
    Ok((t, ms))
}

/// Process start to first timed iteration: generate, derive, build,
/// bind, deploy, warm up. Returns the stage and the per-layer parts of
/// the set-up in ms.
fn setup(
    w: &Workload,
    seed: u64,
    rec: &mut Recorder,
    op: u64,
) -> Result<(Stage, BTreeMap<&'static str, f64>), HectorError> {
    // A process starts with an empty module cache; so does each repeat.
    ModuleCache::clear();
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut note = |name: &'static str, ms: f64| parts.entry(name).or_default().push(ms);

    let (g, ms) = rec.timed("graph.generate", op, |_| generate_graph(w));
    note("graph.generate_ms", ms);
    let (graph, ms) = rec.timed("graph.GraphData::new", op, |_| GraphData::new(g));
    note("graph.graphdata_ms", ms);

    let mut models = Vec::new();
    for (kind, _) in MODELS {
        let (engine, ms) = rec.timed("compiler.build(cold)", op, |_| {
            builder(w, kind, seed, 1).build()
        });
        note("compiler.cold_build_ms", ms);
        let mut engine = engine?;
        let (bound, ms) = rec.timed("runtime.Engine::bind", op, |_| {
            engine.bind(&graph).map(|_| ())
        });
        note("runtime.bind_ms", ms);
        bound?;
        let (first, ms) = rec.timed("runtime.first_forward", op, |_| engine.forward());
        note("runtime.first_forward_ms", ms);
        first?;

        // The same build again is a module-cache hit.
        let (again, ms) = rec.timed("compiler.build(cached)", op, |_| {
            builder(w, kind, seed, 1).build()
        });
        note("compiler.cached_build_ms", ms);
        drop(again?);

        let (seq, ms) = bound_trainer(w, kind, seed, 1, &graph, rec, op)?;
        note("runtime.bind_ms", ms);
        let (sampled, ms) = bound_trainer(w, kind, seed, 1, &graph, rec, op)?;
        note("runtime.bind_ms", ms);
        let mut seq = seq;
        let (step, _) = rec.timed("runtime.first_step", op, |_| seq.step());
        models.push(ModelStage {
            engine,
            seq,
            sampled,
            first_loss: step?.loss.unwrap_or(f32::NAN),
        });
    }

    let server = ServeHandle::start(
        ServeConfig::default()
            .with_queue_capacity(4096)
            .with_max_coalesce(64)
            .with_timeout(Duration::from_secs(2))
            .with_workers(1),
    );
    // From here on the stage owns the server, so an early return still
    // shuts it down.
    let g = graph.graph();
    let stage = Stage {
        between_rounds: DeltaTarget::new(WRITE_TENANT, w, g, substream(seed, 4)),
        beside_reads: DeltaTarget::new(TENANTS[0].0, w, g, substream(seed, 5)),
        graph,
        models,
        server,
    };
    for (name, kind) in TENANTS.into_iter().chain([(WRITE_TENANT, ModelKind::Rgcn)]) {
        let (deployed, ms) = rec.timed("serve.deploy", op, |_| {
            stage
                .server
                .deploy(name, builder(w, kind, seed, 1), &stage.graph)
        });
        note("serve.deploy_ms", ms);
        deployed.map_err(serve::into_hector)?;
        let (warm, _) = rec.timed("serve.first_request", op, |_| {
            stage.server.submit(name, 0).and_then(|t| t.wait())
        });
        warm.map_err(serve::into_hector)?;
    }
    let means = parts.into_iter().map(|(k, v)| (k, mean(&v))).collect();
    Ok((stage, means))
}

/// What one run produced.
pub struct Outcome {
    pub tally: Tally,
    /// The end-to-end metrics of an untraced run, the per-layer metrics
    /// of a traced one.
    pub metrics: Metrics,
    pub samples: Samples,
    pub rounds: usize,
    pub requests: usize,
    pub host: probes::Host,
    pub spans: Vec<spans::Span>,
}

/// `VmHWM` of this process in MB, 0 where `/proc` has no such line.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, HectorError> {
    let origin = Instant::now();
    let mut rec = Recorder::new(traced, origin, 0);
    let mut tally = Tally::default();

    // ---- set-up, repeated -------------------------------------------
    let mut setup_s = Vec::new();
    let mut setup_parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut stage = None;
    for k in 0..SETUPS {
        drop(stage.take()); // one stage resident at a time
        let (built, ms) = rec.timed("setup", k as u64, |rec| setup(w, seed, rec, k as u64));
        let (s, parts) = built?;
        setup_s.push(ms / 1e3);
        for (name, v) in parts {
            setup_parts.entry(name).or_default().push(v);
        }
        stage = Some(s);
    }
    let mut stage = stage.expect("SETUPS > 0");

    // Not part of set-up: the 2-thread twins exist for the bit-equality
    // check and the per-layer scaling numbers. Like the 1-thread trainers
    // they have taken one step before the first round.
    let mut pars = Vec::new();
    for (kind, _) in MODELS {
        let (mut par, _) = bound_trainer(w, kind, seed, 2, &stage.graph, &mut rec, 0)?;
        par.step()?;
        pars.push(par);
    }

    // ---- rounds -----------------------------------------------------
    // A round does one of everything: full-graph forwards and steps,
    // sampled batches, deltas, then a segment of request traffic. Hosts
    // like the one this was written on change speed by a tenth and more
    // for seconds at a time; samples that span the whole run see the mix,
    // where a metric measured in one short window would inherit whichever
    // speed that window had.
    let mut full_out = full::FullOut::default();
    let mut mb = minibatch::MinibatchRun::new();
    let mut traffic = Traffic::new(w, seed, &stage)?;
    let mut delta_ms = Vec::new();
    let mut rounds = 0;
    let start = Instant::now();
    let mut round_s = 0.0;
    // Stop once less than half a round is left, so that runs end near
    // `seconds` whatever a round costs on this workload.
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() + round_s / 2.0 < seconds {
        let (round, round_ms) =
            rec.timed("round", rounds as u64, |rec| -> Result<(), HectorError> {
                let began = Instant::now();
                full::round(
                    &mut stage,
                    &mut pars,
                    rounds,
                    rec,
                    &mut tally,
                    &mut full_out,
                )?;
                mb.round(&mut stage, rounds, rec, &mut tally)?;
                for _ in 0..DELTAS_PER_ROUND {
                    let Stage {
                        server,
                        between_rounds,
                        ..
                    } = &mut stage;
                    let (ms, ok) = between_rounds.apply_next(w, seed, server, rec);
                    tally.op(ok);
                    delta_ms.push(ms);
                }
                let traffic_s = began.elapsed().as_secs_f64() * SERVE_SHARE / (1.0 - SERVE_SHARE);
                traffic.segment(w, seed, &mut stage, traffic_s, rec, &mut tally);
                Ok(())
            });
        round?;
        round_s = round_ms / 1e3;
        rounds += 1;
    }
    full::check_progress(&stage, &full_out, &mut tally);
    let mb_out = mb.out;
    let (serve_out, _) = rec.timed("serve.finish", 0, |rec| {
        traffic.finish(w, seed, &mut stage, rec, &mut tally)
    });
    let serve_out = serve_out?;
    let (shard_out, _) = rec.timed("shard_probe", 0, |rec| {
        probes::shard(w, seed, &mut stage, rec, &mut tally)
    });
    let shard_out = shard_out?;
    // Read before the host probes: their buffers are the benchmark's
    // memory, not the program's.
    let rss = peak_rss_mb();
    drop(stage);
    let host = probes::host();

    // The samples behind the end-to-end medians, for the quartiles the
    // report prints.
    let mut samples: Samples = vec![("setup_s".into(), setup_s.clone())];
    for (m, (_, model)) in MODELS.iter().enumerate() {
        samples.push((format!("infer_ms.{model}"), full_out.fwd[m].clone()));
        samples.push((format!("train_step_ms.{model}"), full_out.step[m].clone()));
        samples.push((
            format!("seeds_per_s.{model}"),
            mb_out.seeds_per_s[m].clone(),
        ));
    }
    samples.push(("serve_p50_ms".into(), serve_out.latency_ms.clone()));
    samples.push(("delta_apply_ms".into(), delta_ms.clone()));

    let per_model = |v: &[Vec<f64>; 3]| geomean(&v.iter().map(|s| median(s)).collect::<Vec<_>>());
    let mut metrics = Metrics::default();
    if traced {
        // ---- per layer: a traced run reports nothing else -------------
        for (name, v) in &setup_parts {
            metrics.insert(*name, median(v));
        }
        full_out.report(&mut metrics);
        mb_out.report(&mut metrics);
        serve_out.report(&mut metrics);
        shard_out.report(&mut metrics, median(&full_out.fwd[0]));
        metrics.insert("tensor.matmul_gflops", host.matmul_gflops);
        metrics.insert("host.stream_gbps", host.stream_gbps);
        metrics.insert(
            "runtime.gemm_roofline",
            full_out.split.gemm_gflops() / host.matmul_gflops,
        );
        // What tracing cost (profiled over plain steps of the same run)
        // and how much of the profiled steps the program's named spans
        // explain.
        metrics.insert(
            "trace.overhead_ratio",
            per_model(&full_out.step_profiled) / per_model(&full_out.step),
        );
        metrics.insert("trace.coverage", full_out.split.coverage());
    } else {
        // ---- end-to-end -------------------------------------------------
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("infer_ms", per_model(&full_out.fwd));
        metrics.insert("train_step_ms", per_model(&full_out.step));
        metrics.insert("seeds_per_s", per_model(&mb_out.seeds_per_s));
        metrics.insert("serve_p50_ms", median(&serve_out.latency_ms));
        metrics.insert("delta_apply_ms", median(&delta_ms));
        metrics.insert("peak_rss_mb", rss);
    }

    Ok(Outcome {
        tally,
        metrics,
        samples,
        rounds,
        requests: serve_out.latency_ms.len(),
        host,
        spans: rec.spans,
    })
}
