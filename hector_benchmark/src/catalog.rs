//! What the benchmark runs and what it reports: the workloads (sets of
//! inputs) and the two metric tables. `BENCHMARK.json` at the
//! repository root carries the same names, units, directions, reasons
//! and bounds; a unit test keeps the two in step.

use hector::prelude::*;

/// One set of inputs. Every workload runs the same program — set-up,
/// full-graph rounds, minibatch rounds, open-loop serving with deltas —
/// so every end-to-end metric is defined on every workload; what differs
/// is the generated graph, the model shape, and whether deltas also land
/// while requests are being served.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Table-3 preset (relation count, degree, compaction ratio) the
    /// graph is generated from, scaled by `scale`.
    pub preset: fn() -> DatasetSpec,
    pub scale: f64,
    pub dims: usize,
    pub layers: usize,
    /// A writer thread applies a delta every 250 ms beside the request
    /// stream.
    pub writes_beside_reads: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "full_gemm",
        why: "aifb preset x1.0 (7.3k nodes, 49k edges, 104 relations, compaction 0.92), dims 64, 1 layer: many small relation slabs, so typed-linear GEMM and the optimizer dominate a step",
        preset: hector::datasets::aifb,
        scale: 1.0,
        dims: 64,
        layers: 1,
        writes_beside_reads: false,
    },
    Workload {
        name: "full_trav",
        why: "biokg preset x0.02 (1.9k nodes, 96k edges, mean in-degree 51, compaction 0.18), dims 64, 1 layer: edge softmax and aggregation traversal dominate, GEMM is small",
        preset: hector::datasets::biokg,
        scale: 0.02,
        dims: 64,
        layers: 1,
        writes_beside_reads: false,
    },
    Workload {
        name: "minibatch",
        why: "mutag preset x0.1 (2.7k nodes, 14.8k edges, 50 relations), dims 64, 1 layer: the smallest sampled subgraphs, so per-launch overhead, gather and the dense optimizer dominate a batch",
        preset: hector::datasets::mutag,
        scale: 0.1,
        dims: 64,
        layers: 1,
        writes_beside_reads: false,
    },
    Workload {
        name: "serve_read",
        why: "aifb preset x0.3, dims 32, 2 stacked layers, read-only traffic: queue, coalesce, forward, scatter with nothing else running, so a read-path change shows cleanly",
        preset: hector::datasets::aifb,
        scale: 0.3,
        dims: 32,
        layers: 2,
        writes_beside_reads: false,
    },
    Workload {
        name: "serve_mixed",
        why: "serve_read's inputs plus an edge delta every 250 ms beside the reads: a read-side cache or a heavier bind shows as read latency under swaps; steps and batches repeat serve_read's (A/A)",
        preset: hector::datasets::aifb,
        scale: 0.3,
        dims: 32,
        layers: 2,
        writes_beside_reads: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The three models every phase interleaves, and their metric suffixes.
pub const MODELS: [(ModelKind, &str); 3] = [
    (ModelKind::Rgcn, "rgcn"),
    (ModelKind::Rgat, "rgat"),
    (ModelKind::Hgt, "hgt"),
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: true,
    }
}

/// What a user of the stack waits for or pays; printed by `--trace 0`.
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s"),
    lower("infer_ms", "ms"),
    lower("train_step_ms", "ms"),
    higher("seeds_per_s", "1/s"),
    lower("serve_p50_ms", "ms"),
    lower("delta_apply_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers (the crates), timed from outside through public calls;
/// printed by `--trace 1`.
pub const PER_LAYER: [MetricDef; 65] = [
    lower("compiler.cold_build_ms", "ms"),
    lower("compiler.cached_build_ms", "ms"),
    lower("compiler.launches_per_step.rgcn", "count"),
    lower("compiler.launches_per_step.rgat", "count"),
    lower("compiler.launches_per_step.hgt", "count"),
    lower("graph.generate_ms", "ms"),
    lower("graph.graphdata_ms", "ms"),
    lower("graph.sample_ms_per_batch", "ms"),
    lower("graph.subgraph_nodes_per_batch", "count"),
    lower("graph.subgraph_edges_per_batch", "count"),
    lower("runtime.bind_ms", "ms"),
    lower("runtime.first_forward_ms", "ms"),
    lower("runtime.fwd_ms.rgcn", "ms"),
    lower("runtime.fwd_ms.rgat", "ms"),
    lower("runtime.fwd_ms.hgt", "ms"),
    lower("runtime.step_ms.rgcn", "ms"),
    lower("runtime.step_ms.rgat", "ms"),
    lower("runtime.step_ms.hgt", "ms"),
    lower("runtime.step_par_ms.rgcn", "ms"),
    lower("runtime.step_par_ms.rgat", "ms"),
    lower("runtime.step_par_ms.hgt", "ms"),
    lower("runtime.gemm_share", "%"),
    lower("runtime.traversal_share", "%"),
    lower("runtime.fallback_share", "%"),
    lower("runtime.optimizer_share", "%"),
    lower("runtime.loss_share", "%"),
    lower("runtime.other_share", "%"),
    higher("runtime.gemm_gflops", "GFLOP/s"),
    higher("tensor.matmul_gflops", "GFLOP/s"),
    higher("host.stream_gbps", "GB/s"),
    higher("runtime.gemm_roofline", "ratio"),
    lower("runtime.batch_step_ms.rgcn", "ms"),
    lower("runtime.batch_step_ms.rgat", "ms"),
    lower("runtime.batch_step_ms.hgt", "ms"),
    higher("par.scaling_t2", "ratio"),
    higher("par.prefetch_gain", "ratio"),
    lower("par.wait_ms_per_batch", "ms"),
    lower("shard.partition_ms", "ms"),
    lower("shard.bind_ms", "ms"),
    lower("shard.infer_k2_ms", "ms"),
    lower("shard.overhead_ratio", "ratio"),
    lower("shard.edge_cut_fraction", "ratio"),
    lower("shard.halo_rows", "count"),
    lower("shard.engine_delta_ms", "ms"),
    lower("shard.graph_apply_ms", "ms"),
    lower("serve.deploy_ms", "ms"),
    lower("serve.swap_ms", "ms"),
    lower("serve.delta_beside_reads_ms", "ms"),
    lower("serve.direct_fwd_ms.rgcn", "ms"),
    lower("serve.direct_fwd_ms.hgt", "ms"),
    higher("serve.coalescing_factor", "ratio"),
    lower("serve.forwards_per_s", "1/s"),
    lower("serve.latency_over_fwd", "ratio"),
    lower("serve.p90_ms", "ms"),
    lower("serve.p99_ms", "ms"),
    higher("serve.burst_rps", "1/s"),
    lower("serve.http_req_ms", "ms"),
    lower("serve.shed", "count"),
    lower("serve.timed_out", "count"),
    lower("serve.gen_late_ms_max", "ms"),
    lower("device.peak_mb.rgcn", "MB"),
    lower("device.peak_mb.rgat", "MB"),
    lower("device.peak_mb.hgt", "MB"),
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.coverage", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn check_metrics(listed: &[Json], table: &[MetricDef]) {
        assert_eq!(listed.len(), table.len());
        for (j, m) in listed.iter().zip(table) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            let better = if m.higher { "higher" } else { "lower" };
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(better),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let doc = manifest();
        let listed = doc.get("workloads").unwrap().as_arr();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (j, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        check_metrics(doc.get("end_to_end").unwrap().as_arr(), &END_TO_END);
        check_metrics(doc.get("per_layer").unwrap().as_arr(), &PER_LAYER);
        for j in doc.get("end_to_end").unwrap().as_arr() {
            let bound = j.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
