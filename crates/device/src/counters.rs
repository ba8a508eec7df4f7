//! Architectural counters aggregated per kernel category and phase,
//! backing the Fig. 12-style reports.

use std::collections::HashMap;

use crate::{DeviceConfig, KernelCategory, KernelCost, Phase};

/// Aggregated metrics for one `(category, phase)` bucket.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CategoryMetrics {
    /// Number of kernel launches.
    pub launches: usize,
    /// Total simulated duration, microseconds (including launch overhead).
    pub duration_us: f64,
    /// Total in-flight (busy) time, microseconds.
    pub busy_us: f64,
    /// Total floating-point operations.
    pub flops: f64,
    /// Total DRAM traffic in bytes.
    pub bytes: f64,
    /// Total atomic operations.
    pub atomics: f64,
    /// Sum of per-kernel IPC weighted by busy time (divide by `busy_us`
    /// for the average IPC).
    ipc_weighted: f64,
}

impl CategoryMetrics {
    /// Average achieved GFLOP/s over the bucket's busy time.
    #[must_use]
    pub fn achieved_gflops(&self) -> f64 {
        if self.busy_us <= 0.0 {
            0.0
        } else {
            self.flops / (self.busy_us * 1e-6) / 1e9
        }
    }

    /// Average DRAM throughput as a percentage of peak.
    #[must_use]
    pub fn dram_throughput_pct(&self, cfg: &DeviceConfig) -> f64 {
        if self.busy_us <= 0.0 {
            0.0
        } else {
            let gbps = self.bytes / (self.busy_us * 1e-6) / 1e9;
            gbps / cfg.dram_bw_gbps * 100.0
        }
    }

    /// Busy-time-weighted average IPC proxy.
    #[must_use]
    pub fn avg_ipc(&self) -> f64 {
        if self.busy_us <= 0.0 {
            0.0
        } else {
            self.ipc_weighted / self.busy_us
        }
    }
}

/// Host-side parallel-execution statistics for one run (executed kernels
/// only: a cost-model walk runs no kernel, so it never records here). These
/// measure *wall-clock host time* of the functional interpreter, unlike
/// every other counter in this module, which measures *simulated device
/// time* — the two must never be summed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ParallelStats {
    /// Kernel executions that went through the `hector-par` pool.
    pub parallel_launches: usize,
    /// Kernel executions that took the exact sequential code path
    /// (`num_threads = 1`, unsplittable domains, or safety fallbacks).
    pub sequential_launches: usize,
    /// Total row chunks executed across all parallel kernels.
    pub chunks: usize,
    /// Host wall-clock time in GEMM-template kernel execution, µs.
    pub gemm_wall_us: f64,
    /// Host wall-clock time in traversal-template kernel execution, µs.
    pub traversal_wall_us: f64,
}

impl ParallelStats {
    /// Total host wall-clock execution time recorded, µs.
    #[must_use]
    pub fn total_wall_us(&self) -> f64 {
        self.gemm_wall_us + self.traversal_wall_us
    }
}

/// Scratch-arena statistics of the real-mode interpreter hot path (host
/// side, like [`ParallelStats`]). The interpreter computes every operand
/// read, op result, and GEMM row in reusable executor-owned buffers;
/// these counters make the steady state observable: a warm
/// forward/training pass records zero growth events — zero per-row heap
/// allocations (pinned by `tests/run_alloc.rs`). The parallel executor's
/// per-chunk worker arenas are pooled on the session, so threaded runs
/// reach the same zero once every slot has grown to its high-water mark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Arena buffer-growth (heap allocation) events, including the
    /// pooled per-chunk worker arenas of the parallel executor.
    pub grows: usize,
    /// High-water arena footprint observed, bytes (session arena only —
    /// the pooled worker slots are not included).
    pub bytes: usize,
    /// Kernel executions that completed without growing any arena — the
    /// zero-allocation steady state.
    pub steady_kernels: usize,
    /// Total real-mode kernel executions recorded.
    pub kernels: usize,
    /// Run-plan buffer (re)materialisation events across runs
    /// (`Engine::forward` / `Engine::train_step`): variables whose live
    /// intervals never overlap share one buffer, which grows only to fit
    /// its biggest member, so a warm run records zero.
    pub plan_grows: usize,
    /// High-water footprint of the run plan's persistent buffers, bytes:
    /// the shared variable buffers plus the loss-gradient staging buffer.
    /// It follows the peak of simultaneously live variables, not their
    /// sum.
    pub plan_bytes: usize,
}

impl ScratchStats {
    /// Fraction of kernel executions that ran entirely from warm scratch.
    #[must_use]
    pub fn steady_fraction(&self) -> f64 {
        if self.kernels == 0 {
            0.0
        } else {
            self.steady_kernels as f64 / self.kernels as f64
        }
    }
}

/// Mini-batch sampler statistics (host side, like [`ParallelStats`]):
/// one record per consumed batch, covering both halves of the
/// producer/consumer pipeline. `sample_wall_us` is time spent *producing*
/// batches (sampling + subgraph extraction + binding slicing, measured on
/// whichever thread ran it); `wait_wall_us` is time the *consumer*
/// spent blocked waiting for a batch to arrive. With the prefetch
/// pipeline on, sampling overlaps training and the wait collapses —
/// [`SamplerStats::overlap_fraction`] is the observable for that.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SamplerStats {
    /// Batches consumed.
    pub batches: usize,
    /// Total sampled nodes across batches (seeds + neighbors).
    pub nodes: usize,
    /// Total sampled edges across batches.
    pub edges: usize,
    /// Host wall-clock time producing batches, µs.
    pub sample_wall_us: f64,
    /// Host wall-clock time the consumer spent blocked on batch
    /// arrival, µs.
    pub wait_wall_us: f64,
}

impl SamplerStats {
    /// Fraction of batch-production time hidden behind training compute:
    /// `1 - wait / sample`, clamped to `[0, 1]`. Without a pipeline the
    /// consumer waits for every batch to be produced (≈ 0); with the
    /// prefetch pipeline saturated it approaches 1.
    #[must_use]
    pub fn overlap_fraction(&self) -> f64 {
        if self.sample_wall_us <= 0.0 {
            0.0
        } else {
            (1.0 - self.wait_wall_us / self.sample_wall_us).clamp(0.0, 1.0)
        }
    }
}

/// Execution-backend statistics for one run (real mode only). Identifies
/// *which* backend (`hector_runtime::BackendKind`) ran the kernels and
/// whether the engine's execution plan was built by this run or reused —
/// a warm run reports `plan_reuses = 1`, `prepares = 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Stable backend name ("interp", "specialized"); `""` until a
    /// real-mode run records.
    pub name: &'static str,
    /// Plan builds this run: 1 on an engine's first real run, 0 after.
    pub prepares: u64,
    /// Runs that reused the engine's execution plan.
    pub plan_reuses: u64,
    /// Kernel launches routed through the backend this run.
    pub kernels: u64,
}

/// Per-`(category, phase)` counter store for one run.
///
/// # Reset contract
///
/// Counters fall into two scopes with distinct lifetimes:
///
/// * **Run-scoped** (kernel buckets, [`ParallelStats`],
///   [`ScratchStats`], [`BackendStats`]) — cleared by [`Counters::reset`]
///   at the start of every `Engine::forward` / `Engine::train_step`.
/// * **Accumulating** ([`SamplerStats`]) — survives [`Counters::reset`]
///   because mini-batch records land *between* runs; measure an epoch as
///   the difference of two snapshots.
///
/// The process-global trace (`hector_trace::stats()`) is shared state
/// no `Counters` method clears; use `hector_trace::clear`. A graph
/// store counts its own deltas (`ShardedGraph::version` and each
/// `DeltaOutcome`), so nothing here does.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    buckets: HashMap<(KernelCategory, Phase), CategoryMetrics>,
    parallel: ParallelStats,
    scratch: ScratchStats,
    backend: BackendStats,
    sampler: SamplerStats,
}

impl Counters {
    /// Creates an empty counter store.
    #[must_use]
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Records one kernel launch.
    pub fn record(&mut self, cost: &KernelCost, cfg: &DeviceConfig) {
        let m = self.buckets.entry((cost.category, cost.phase)).or_default();
        let busy = cost.busy_us(cfg);
        m.launches += 1;
        m.duration_us += cost.duration_us(cfg);
        m.busy_us += busy;
        m.flops += cost.flops;
        m.bytes += cost.bytes();
        m.atomics += cost.atomic_ops;
        m.ipc_weighted += cost.ipc(cfg) * busy;
    }

    /// Metrics for one bucket (zero-default if nothing was recorded).
    #[must_use]
    pub fn get(&self, category: KernelCategory, phase: Phase) -> CategoryMetrics {
        self.buckets
            .get(&(category, phase))
            .cloned()
            .unwrap_or_default()
    }

    /// Total launches across all buckets.
    #[must_use]
    pub fn total_launches(&self) -> usize {
        self.buckets.values().map(|m| m.launches).sum()
    }

    /// Duration spent in a category (both phases), microseconds.
    #[must_use]
    pub fn category_duration_us(&self, category: KernelCategory) -> f64 {
        self.buckets
            .iter()
            .filter(|((c, _), _)| *c == category)
            .map(|(_, m)| m.duration_us)
            .sum()
    }

    /// Duration spent in a phase (all categories), microseconds.
    #[must_use]
    pub fn phase_duration_us(&self, phase: Phase) -> f64 {
        self.buckets
            .iter()
            .filter(|((_, p), _)| *p == phase)
            .map(|(_, m)| m.duration_us)
            .sum()
    }

    /// Records one real-mode host kernel execution (parallel or
    /// sequential) for the per-stage wall-clock and chunk report.
    pub fn record_host_exec(
        &mut self,
        category: KernelCategory,
        parallel: bool,
        wall_us: f64,
        chunks: usize,
    ) {
        let p = &mut self.parallel;
        if parallel {
            p.parallel_launches += 1;
        } else {
            p.sequential_launches += 1;
        }
        p.chunks += chunks;
        match category {
            KernelCategory::Gemm => p.gemm_wall_us += wall_us,
            KernelCategory::Traversal => p.traversal_wall_us += wall_us,
            // Copy/fallback kernels are not row-parallelised; fold their
            // (rare) host time into the traversal bucket rather than
            // inventing a third stage.
            _ => p.traversal_wall_us += wall_us,
        }
    }

    /// Host-side parallel-execution statistics.
    #[must_use]
    pub fn parallel(&self) -> &ParallelStats {
        &self.parallel
    }

    /// Records one real-mode kernel execution's scratch-arena activity.
    pub fn record_scratch(&mut self, grows: usize, bytes: usize) {
        let s = &mut self.scratch;
        s.grows += grows;
        s.bytes = s.bytes.max(bytes);
        s.kernels += 1;
        if grows == 0 {
            s.steady_kernels += 1;
        }
    }

    /// Records one run's plan-buffer activity (`Engine::forward` /
    /// `Engine::train_step`).
    pub fn record_plan(&mut self, grows: usize, bytes: usize) {
        let s = &mut self.scratch;
        s.plan_grows += grows;
        s.plan_bytes = s.plan_bytes.max(bytes);
    }

    /// Interpreter scratch-arena statistics.
    #[must_use]
    pub fn scratch(&self) -> &ScratchStats {
        &self.scratch
    }

    /// Records which execution backend this run launches kernels on and
    /// whether its plan was reused. Called once per real-mode run, right
    /// after the per-run reset.
    pub fn record_backend(&mut self, name: &'static str, plan_reused: bool) {
        let b = &mut self.backend;
        b.name = name;
        if plan_reused {
            b.plan_reuses += 1;
        } else {
            b.prepares += 1;
        }
    }

    /// Adds `n` kernel launches to the backend accounting.
    pub fn record_backend_kernels(&mut self, n: u64) {
        self.backend.kernels += n;
    }

    /// Execution-backend statistics for the current run.
    #[must_use]
    pub fn backend(&self) -> &BackendStats {
        &self.backend
    }

    /// Records one consumed mini-batch: its size, the host time spent
    /// producing it, and the time the consumer spent blocked on its
    /// arrival (see [`SamplerStats`]).
    pub fn record_sampler_batch(
        &mut self,
        nodes: usize,
        edges: usize,
        sample_wall_us: f64,
        wait_wall_us: f64,
    ) {
        let s = &mut self.sampler;
        s.batches += 1;
        s.nodes += nodes;
        s.edges += edges;
        s.sample_wall_us += sample_wall_us;
        s.wait_wall_us += wait_wall_us;
    }

    /// Mini-batch sampler statistics.
    #[must_use]
    pub fn sampler(&self) -> &SamplerStats {
        &self.sampler
    }

    /// Clears the per-run counters (kernel buckets, parallel, scratch,
    /// backend). Sampler statistics survive: they describe a mini-batch
    /// *epoch* spanning many runs — the per-run reset at the start of
    /// each training step must not wipe the batches recorded between
    /// runs.
    pub fn reset(&mut self) {
        self.buckets.clear();
        self.parallel = ParallelStats::default();
        self.scratch = ScratchStats::default();
        self.backend = BackendStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(cat: KernelCategory, phase: Phase, flops: f64) -> KernelCost {
        let mut c = KernelCost::new(cat, phase);
        c.flops = flops;
        c.bytes_read = flops / 4.0;
        c.items = 1e4;
        c
    }

    #[test]
    fn record_accumulates() {
        let cfg = DeviceConfig::rtx3090();
        let mut c = Counters::new();
        c.record(&cost(KernelCategory::Gemm, Phase::Forward, 1e9), &cfg);
        c.record(&cost(KernelCategory::Gemm, Phase::Forward, 1e9), &cfg);
        let m = c.get(KernelCategory::Gemm, Phase::Forward);
        assert_eq!(m.launches, 2);
        assert!((m.flops - 2e9).abs() < 1.0);
        assert!(m.duration_us > 0.0);
    }

    #[test]
    fn buckets_are_separate() {
        let cfg = DeviceConfig::rtx3090();
        let mut c = Counters::new();
        c.record(&cost(KernelCategory::Gemm, Phase::Forward, 1e9), &cfg);
        c.record(&cost(KernelCategory::Traversal, Phase::Backward, 1e6), &cfg);
        assert_eq!(c.get(KernelCategory::Gemm, Phase::Forward).launches, 1);
        assert_eq!(
            c.get(KernelCategory::Traversal, Phase::Backward).launches,
            1
        );
        assert_eq!(c.get(KernelCategory::Copy, Phase::Forward).launches, 0);
        assert_eq!(c.total_launches(), 2);
    }

    #[test]
    fn derived_metrics_positive() {
        let cfg = DeviceConfig::rtx3090();
        let mut c = Counters::new();
        c.record(&cost(KernelCategory::Gemm, Phase::Forward, 1e10), &cfg);
        let m = c.get(KernelCategory::Gemm, Phase::Forward);
        assert!(m.achieved_gflops() > 0.0);
        assert!(m.dram_throughput_pct(&cfg) > 0.0);
        assert!(m.avg_ipc() > 0.0);
    }

    #[test]
    fn parallel_stats_record_merge_reset() {
        let mut c = Counters::new();
        c.record_host_exec(KernelCategory::Gemm, true, 120.0, 8);
        c.record_host_exec(KernelCategory::Traversal, true, 80.0, 4);
        c.record_host_exec(KernelCategory::Traversal, false, 5.0, 0);
        let p = c.parallel();
        assert_eq!(p.parallel_launches, 2);
        assert_eq!(p.sequential_launches, 1);
        assert_eq!(p.chunks, 12);
        assert!((p.gemm_wall_us - 120.0).abs() < 1e-12);
        assert!((p.traversal_wall_us - 85.0).abs() < 1e-12);
        assert!((p.total_wall_us() - 205.0).abs() < 1e-12);

        c.reset();
        assert_eq!(*c.parallel(), ParallelStats::default());
    }

    #[test]
    fn phase_and_category_rollups() {
        let cfg = DeviceConfig::rtx3090();
        let mut c = Counters::new();
        c.record(&cost(KernelCategory::Gemm, Phase::Forward, 1e9), &cfg);
        c.record(&cost(KernelCategory::Traversal, Phase::Forward, 1e6), &cfg);
        c.record(&cost(KernelCategory::Gemm, Phase::Backward, 1e9), &cfg);
        let fw = c.phase_duration_us(Phase::Forward);
        let bw = c.phase_duration_us(Phase::Backward);
        let gemm = c.category_duration_us(KernelCategory::Gemm);
        let trav = c.category_duration_us(KernelCategory::Traversal);
        assert!(fw > 0.0 && bw > 0.0 && gemm > 0.0);
        assert!((fw + bw - (gemm + trav)).abs() < 1e-9);
    }

    /// Every rate helper must return 0.0 — never NaN or a panic — on an
    /// empty (freshly reset) store. Report code divides these into
    /// percentages and formats them; a NaN would poison every downstream
    /// aggregate silently.
    #[test]
    fn empty_rate_helpers_are_zero_not_nan() {
        let cfg = DeviceConfig::rtx3090();
        let c = Counters::new();
        let m = c.get(KernelCategory::Gemm, Phase::Forward);
        assert_eq!(m.achieved_gflops(), 0.0);
        assert_eq!(m.dram_throughput_pct(&cfg), 0.0);
        assert_eq!(m.avg_ipc(), 0.0);
        assert_eq!(c.scratch().steady_fraction(), 0.0);
        assert_eq!(c.sampler().overlap_fraction(), 0.0);
        // Zero-duration but non-zero work: still finite, still zero.
        let z = SamplerStats {
            batches: 1,
            nodes: 100,
            edges: 50,
            sample_wall_us: 0.0,
            wait_wall_us: 0.0,
        };
        assert_eq!(z.overlap_fraction(), 0.0);
    }

    /// `reset()` is run-scoped: sampler stats survive it and keep
    /// accumulating.
    #[test]
    fn reset_scopes() {
        let cfg = DeviceConfig::rtx3090();
        let mut c = Counters::new();
        c.record(&cost(KernelCategory::Gemm, Phase::Forward, 1e9), &cfg);
        c.record_host_exec(KernelCategory::Gemm, true, 10.0, 2);
        c.record_scratch(1, 64);
        c.record_sampler_batch(100, 50, 20.0, 5.0);

        c.reset();
        assert_eq!(c.total_launches(), 0);
        assert_eq!(*c.parallel(), ParallelStats::default());
        assert_eq!(*c.scratch(), ScratchStats::default());
        assert_eq!(c.sampler().batches, 1, "sampler is epoch-scoped");
        assert_eq!(c.sampler().nodes, 100);

        c.record_sampler_batch(10, 5, 2.0, 1.0);
        c.reset();
        assert_eq!(c.sampler().batches, 2);
        assert_eq!(c.sampler().nodes, 110);
    }
}
