//! Untimed probes beside the phases: the k=2 sharded engine (a
//! correctness check in every run, per-layer timings in a traced one)
//! and two measurements of the host, recorded with every result so
//! numbers from different machines are never compared blind.

use std::hint::black_box;
use std::time::Instant;

use hector::prelude::*;
use hector::{BindSharded, RangePartitioner, ShardConfig, ShardedGraph};

use crate::catalog::Workload;
use crate::phases::serve::DeltaPlan;
use crate::run::{builder, Metrics, Stage, Tally};
use crate::spans::Recorder;
use crate::stats::{median, substream};

#[derive(Default)]
pub struct ShardOut {
    partition_ms: f64,
    bind_ms: f64,
    infer_ms: Vec<f64>,
    edge_cut_fraction: f64,
    halo_rows: f64,
    engine_delta_ms: Vec<f64>,
    graph_apply_ms: Vec<f64>,
}

/// Partitions the workload's graph in two, binds RGCN over the shards,
/// and checks the merged forward against the unsharded engine bit for
/// bit. A traced run also times repeated forwards and delta
/// application at both levels (`ShardedEngine::apply_delta`,
/// `ShardedGraph::apply`).
pub fn shard(
    w: &Workload,
    seed: u64,
    stage: &mut Stage,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<ShardOut, HectorError> {
    let mut out = ShardOut::default();
    let partition = |rec: &mut Recorder| {
        rec.timed("shard.ShardedGraph::partition", 0, |_| {
            ShardedGraph::partition(
                stage.graph.graph().clone(),
                Box::new(RangePartitioner),
                ShardConfig::new(2).hops(w.layers),
            )
        })
    };
    let (sharded, ms) = partition(rec);
    out.partition_ms = ms;
    out.edge_cut_fraction = sharded.edge_cut_fraction();
    out.halo_rows = sharded.halo_rows() as f64;
    let (engine, ms) = rec.timed("shard.bind_sharded", 0, |_| {
        builder(w, ModelKind::Rgcn, seed, 1).bind_sharded(sharded)
    });
    out.bind_ms = ms;
    let mut engine = engine?;
    let reps = if rec.is_on() { 5 } else { 1 };
    for k in 0..reps {
        let (r, ms) = rec.timed("shard.ShardedEngine::forward", k, |_| engine.forward());
        r?;
        out.infer_ms.push(ms);
    }
    let reference = stage.models[0].engine.output().data();
    let merged = engine.output().data();
    tally.check(
        merged.len() == reference.len()
            && merged
                .iter()
                .zip(reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        || "ShardedEngine k=2 output differs from Engine::forward".to_string(),
    );
    if rec.is_on() {
        let mut deltas = DeltaPlan::new(stage.graph.graph(), substream(seed, 6));
        let (mut storage, _) = partition(rec);
        for k in 0..4 {
            let batch = deltas.next_batch();
            let (r, ms) = rec.timed("shard.ShardedEngine::apply_delta", k, |_| {
                engine.apply_delta(&batch)
            });
            r?;
            out.engine_delta_ms.push(ms);
            let (_, ms) = rec.timed("shard.ShardedGraph::apply", k, |_| storage.apply(&batch));
            out.graph_apply_ms.push(ms);
        }
    }
    Ok(out)
}

impl ShardOut {
    pub fn report(&self, metrics: &mut Metrics, unsharded_fwd_ms: f64) {
        let infer = median(&self.infer_ms);
        metrics.insert("shard.partition_ms", self.partition_ms);
        metrics.insert("shard.bind_ms", self.bind_ms);
        metrics.insert("shard.infer_k2_ms", infer);
        metrics.insert("shard.overhead_ratio", infer / unsharded_fwd_ms);
        metrics.insert("shard.edge_cut_fraction", self.edge_cut_fraction);
        metrics.insert("shard.halo_rows", self.halo_rows);
        metrics.insert("shard.engine_delta_ms", median(&self.engine_delta_ms));
        metrics.insert("shard.graph_apply_ms", median(&self.graph_apply_ms));
    }
}

/// Two numbers about the machine, measured in every run.
pub struct Host {
    pub nproc: usize,
    /// `hector_tensor::matmul_into`, 4096x64 by 64x64: the dense rate
    /// the runtime's GEMM kernels are compared with.
    pub matmul_gflops: f64,
    /// Triad `a[i] = b[i] + s * c[i]` over three 32 MB arrays.
    pub stream_gbps: f64,
}

/// Best of a few repeats: the host's capability, not its typical load.
pub fn host() -> Host {
    let (m, k, n) = (4096, 64, 64);
    let x = vec![0.5f32; m * k];
    let wt = vec![0.25f32; k * n];
    let mut y = vec![0f32; m * n];
    let mut matmul_gflops = 0f64;
    for _ in 0..8 {
        y.fill(0.0);
        let t = Instant::now();
        hector_tensor::matmul_into(black_box(&x), black_box(&wt), &mut y, m, k, n);
        black_box(&y);
        matmul_gflops =
            matmul_gflops.max(2.0 * (m * k * n) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }

    let len = 8 << 20;
    let (b, c) = (vec![1f32; len], vec![2f32; len]);
    let mut a = vec![0f32; len];
    let mut stream_gbps = 0f64;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(black_box(&b)).zip(black_box(&c)) {
            *a = b + 3.0 * c;
        }
        black_box(&a);
        stream_gbps = stream_gbps.max(3.0 * (len * 4) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        matmul_gflops,
        stream_gbps,
    }
}
