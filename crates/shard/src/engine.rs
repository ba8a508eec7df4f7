//! Parallel per-shard execution: [`ShardedEngine`] and the
//! [`BindSharded`] builder extension.
//!
//! `builder.bind_sharded(sharded)` produces one engine (run plan) per
//! shard plus one **authoritative full-graph engine**, all built from
//! the same [`EngineBuilder`] template (the process-wide module cache
//! deduplicates compilation). Forward passes run the shards concurrently
//! on a `hector-par` pool, then perform a deterministic **boundary
//! exchange**: each shard's owned output rows are copied into the merged
//! output in fixed shard order. Ownership is a partition, so the rows
//! are disjoint and the merge is order-independent data-wise — the fixed
//! order makes it deterministic byte-for-byte anyway.
//!
//! # Parity contracts
//!
//! * **Forward** is bitwise identical to the unsharded engine at every
//!   shard count and thread count (see the crate docs for why; pinned by
//!   `tests/shard_parity.rs`). Per-shard inputs are sliced from the full
//!   engine's seed-derived bindings through the shard remap tables
//!   ([`gather_bindings`]), and per-shard parameters are clones of the
//!   full engine's — extraction preserves type counts, so shapes match.
//! * **Training** executes on the authoritative full-graph engine:
//!   gradient accumulation order is not reproducible from per-shard
//!   partial sums under floating-point addition, so
//!   [`ShardedEngine::train_step`] delegates to the full engine
//!   (bit-identical to unsharded training by construction) and marks the
//!   shard parameter mirrors dirty; the next forward resynchronises
//!   them. Distributed backward with a deterministic gradient reduction
//!   is future work (see ROADMAP).
//! * **Deltas**: [`ShardedEngine::apply_delta`] applies the batch to the
//!   sharded graph, re-binds the full engine (freshly seed-derived
//!   parameters — the post-delta state equals a fresh engine built on
//!   the post-delta graph, the oracle the serving tests compare
//!   against), and re-binds only the affected shards.

use std::sync::Mutex;

use hector_graph::HeteroGraph;
use hector_ir::VarInfo;
use hector_par::{ParallelConfig, ThreadPool};
use hector_runtime::{
    gather_bindings, Engine, EngineBuilder, GraphData, HectorError, Optimizer, ProfileReport,
    RunReport, ShardSummary,
};
use hector_tensor::Tensor;

use hector_device::shard_probe;

use crate::{DeltaBatch, DeltaOutcome, ShardedGraph};

/// Builder extension that produces a [`ShardedEngine`]. Implemented for
/// [`EngineBuilder`]; a separate trait because the runtime crate cannot
/// see [`ShardedGraph`] (the shard crate sits above it in the workspace
/// DAG).
pub trait BindSharded {
    /// Consumes the builder and the sharded graph, producing one engine
    /// per shard plus the authoritative full-graph engine.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineBuilder::build`] / `Engine::bind` failures
    /// (invalid configuration, an empty full graph).
    fn bind_sharded(self, sharded: ShardedGraph) -> Result<ShardedEngine, HectorError>;
}

impl BindSharded for EngineBuilder {
    fn bind_sharded(self, sharded: ShardedGraph) -> Result<ShardedEngine, HectorError> {
        ShardedEngine::new(self, sharded)
    }
}

/// A zeroed report for aggregation.
fn zero_report() -> RunReport {
    RunReport {
        elapsed_us: 0.0,
        peak_bytes: 0,
        launches: 0,
        gemm_us: 0.0,
        traversal_us: 0.0,
        copy_us: 0.0,
        fallback_us: 0.0,
        forward_us: 0.0,
        backward_us: 0.0,
        loss: None,
    }
}

fn accumulate(into: &mut RunReport, r: &RunReport) {
    into.elapsed_us += r.elapsed_us;
    into.peak_bytes = into.peak_bytes.max(r.peak_bytes);
    into.launches += r.launches;
    into.gemm_us += r.gemm_us;
    into.traversal_us += r.traversal_us;
    into.copy_us += r.copy_us;
    into.fallback_us += r.fallback_us;
    into.forward_us += r.forward_us;
    into.backward_us += r.backward_us;
}

/// One engine per shard, a boundary-exchange merge, and an authoritative
/// full-graph engine for training and delta re-derivation. Built by
/// [`BindSharded::bind_sharded`]; see the module docs for the parity
/// contracts.
pub struct ShardedEngine {
    builder: EngineBuilder,
    full: Engine,
    sharded: ShardedGraph,
    /// Per-shard engines; `None` for shards that own no nodes (an empty
    /// graph cannot be bound — and has no rows to contribute anyway).
    engines: Vec<Option<Engine>>,
    inputs: Vec<VarInfo>,
    pool: ThreadPool,
    output: Tensor,
    out_width: usize,
    /// Set by [`ShardedEngine::train_step`]; the next forward clones the
    /// full engine's parameters back into every shard engine.
    params_dirty: bool,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("sharded", &self.sharded)
            .field("out_width", &self.out_width)
            .field("params_dirty", &self.params_dirty)
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    fn new(builder: EngineBuilder, sharded: ShardedGraph) -> Result<ShardedEngine, HectorError> {
        let mut full = builder.clone().build()?;
        full.bind(sharded.full_data())?;
        let inputs: Vec<VarInfo> = full
            .module()
            .forward
            .inputs
            .iter()
            .map(|&v| full.module().forward.var(v).clone())
            .collect();
        let out_width = full
            .module()
            .forward
            .var(full.module().forward.outputs[0])
            .width;
        let threads = ParallelConfig::from_env()
            .num_threads
            .min(sharded.num_shards())
            .max(1);
        let pool = ThreadPool::new(threads);
        let output = Tensor::zeros(&[sharded.full().num_nodes(), out_width]);
        let mut engine = ShardedEngine {
            builder,
            full,
            sharded,
            engines: Vec::new(),
            inputs,
            pool,
            output,
            out_width,
            params_dirty: false,
        };
        engine.engines = (0..engine.sharded.num_shards()).map(|_| None).collect();
        for s in 0..engine.sharded.num_shards() {
            engine.rebind_shard(s)?;
        }
        Ok(engine)
    }

    /// (Re)creates shard `s`'s engine against the shard's current graph,
    /// then installs mirrored parameters and sliced bindings.
    fn rebind_shard(&mut self, s: usize) -> Result<(), HectorError> {
        let shard = self.sharded.shard(s);
        if shard.owned().is_empty() {
            self.engines[s] = None;
            return Ok(());
        }
        let data = GraphData::new(shard.graph().clone());
        let mut eng = match self.engines[s].take() {
            Some(eng) => eng, // keep the session's warm plan/scratch
            None => self.builder.clone().build()?,
        };
        eng.bind(&data)?;
        self.resync_shard(s, eng)
    }

    /// Installs the full engine's parameters and freshly sliced bindings
    /// into a shard engine (the shard graph is already bound).
    fn resync_shard(&mut self, s: usize, mut eng: Engine) -> Result<(), HectorError> {
        let shard = self.sharded.shard(s);
        *eng.params_mut() = self.full.params().clone();
        let bindings = gather_bindings(
            &self.inputs,
            eng.graph(),
            self.full.bindings(),
            shard.node_map(),
            shard.edge_map(),
        );
        eng.set_bindings(bindings);
        self.engines[s] = Some(eng);
        Ok(())
    }

    /// Clones the full engine's current parameters into every shard
    /// engine (after training steps advanced them).
    fn resync_params(&mut self) {
        for eng in self.engines.iter_mut().flatten() {
            *eng.params_mut() = self.full.params().clone();
        }
        self.params_dirty = false;
    }

    /// Runs one forward pass: every shard concurrently on the pool, then
    /// the deterministic boundary exchange (owned rows copied in fixed
    /// shard order). The merged output is bitwise identical to the
    /// unsharded engine's.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error (in shard order).
    pub fn forward(&mut self) -> Result<RunReport, HectorError> {
        if self.params_dirty {
            self.resync_params();
        }
        // One job (engine, output slot) per bound shard; uncontended locks.
        let jobs: Vec<Mutex<(&mut Engine, Option<_>)>> = self
            .engines
            .iter_mut()
            .flatten()
            .map(|eng| Mutex::new((eng, None)))
            .collect();
        self.pool.for_each_chunk(jobs.len(), 1, |_, r| {
            for job in &jobs[r] {
                let (eng, slot) = &mut *job.lock().expect("shard job lock");
                let tr = hector_trace::span_start();
                let rows = eng.graph().graph().num_edges() as u64;
                *slot = Some(eng.forward());
                if let Some(t0) = tr {
                    hector_trace::record_span(
                        "shard/forward",
                        hector_trace::SpanCat::Shard,
                        t0,
                        rows,
                        0,
                        0.0,
                    );
                }
            }
        });

        let mut report = zero_report();
        for job in jobs {
            if let (_, Some(r)) = job.into_inner().expect("a shard panic resumed above") {
                accumulate(&mut report, &r?);
            }
        }

        // Boundary exchange: owned rows land in the merged output in
        // fixed shard order. Rows are disjoint (ownership partitions the
        // nodes), so the order only pins byte-level determinism.
        let tr = hector_trace::span_start();
        let w = self.out_width;
        let mut exchanged = 0u64;
        for (s, eng) in self.engines.iter().enumerate() {
            let Some(eng) = eng.as_ref() else { continue };
            let shard = self.sharded.shard(s);
            let local = eng.output().data();
            let merged = self.output.data_mut();
            for (&orig, &loc) in shard.owned().iter().zip(shard.owned_local()) {
                let (o, l) = (orig as usize * w, loc as usize * w);
                merged[o..o + w].copy_from_slice(&local[l..l + w]);
            }
            exchanged += shard.owned().len() as u64;
        }
        shard_probe::record_exchange(exchanged);
        if let Some(t0) = tr {
            hector_trace::record_span(
                "shard/exchange",
                hector_trace::SpanCat::Shard,
                t0,
                exchanged,
                0,
                0.0,
            );
        }
        Ok(report)
    }

    /// Runs one training step on the **authoritative full-graph engine**
    /// (bit-identical to unsharded training; see the module docs) and
    /// marks the shard parameter mirrors dirty for the next forward.
    ///
    /// # Errors
    ///
    /// See `Engine::train_step`.
    pub fn train_step(
        &mut self,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> Result<RunReport, HectorError> {
        let report = self.full.train_step(labels, optimizer)?;
        self.params_dirty = true;
        Ok(report)
    }

    /// Applies one delta batch: updates the sharded storage
    /// ([`ShardedGraph::try_apply`]), re-binds the full engine against
    /// the store's post-delta graph data (freshly seed-derived
    /// parameters and bindings — the fresh-oracle contract), re-binds
    /// exactly the affected shards, and refreshes every shard's
    /// parameter mirror and sliced bindings.
    ///
    /// # Errors
    ///
    /// [`HectorError::InvalidDelta`] for a batch [`DeltaBatch::validate`]
    /// rejects (a batch that removes every node included), before
    /// anything changes; otherwise propagates bind failures.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaOutcome, HectorError> {
        let outcome = self.sharded.try_apply(batch)?;
        self.full.bind(self.sharded.full_data())?;
        self.output = Tensor::zeros(&[self.sharded.full().num_nodes(), self.out_width]);
        for s in 0..self.engines.len() {
            if outcome.repartitioned || outcome.affected.contains(&s) {
                self.rebind_shard(s)?;
            } else if let Some(eng) = self.engines[s].take() {
                // Structure unchanged, but edge-space bindings shifted
                // with the splice and the full engine re-derived its
                // parameters — refresh both.
                self.resync_shard(s, eng)?;
            }
        }
        self.params_dirty = false;
        Ok(outcome)
    }

    /// The merged output (one row per full-graph node) from the latest
    /// [`ShardedEngine::forward`].
    #[must_use]
    pub fn output(&self) -> &Tensor {
        &self.output
    }

    /// The sharded graph storage.
    #[must_use]
    pub fn sharded(&self) -> &ShardedGraph {
        &self.sharded
    }

    /// The full (unsharded) graph.
    #[must_use]
    pub fn full_graph(&self) -> &HeteroGraph {
        self.sharded.full()
    }

    /// Number of shards (including ones that own no nodes).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// Profiles a closure over this engine — the sharded counterpart of
    /// `Engine::profile`: tracing covers the closure, and the report
    /// additionally carries the shard span table (`shard/forward`,
    /// `shard/exchange`, ...) and a [`ShardSummary`] snapshot of the
    /// shard probe.
    pub fn profile<T>(&mut self, f: impl FnOnce(&mut ShardedEngine) -> T) -> (T, ProfileReport) {
        let was_on = hector_trace::is_enabled();
        let _stale = hector_trace::take_events();
        hector_trace::enable();
        let out = f(self);
        if !was_on {
            hector_trace::disable();
        }
        let events = hector_trace::take_events();
        let mut report = hector_trace::report::build_report(&events, &[]);
        let stats = shard_probe::snapshot();
        report.shard_stats = Some(ShardSummary {
            shards: self.sharded.num_shards(),
            edge_cut_fraction: self.sharded.edge_cut_fraction(),
            halo_rows: self.sharded.halo_rows() as u64,
            plan_invalidations: stats.plan_invalidations,
            delta_ops: stats.delta_ops,
        });
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashPartitioner, ShardConfig};
    use hector_graph::{generate, DatasetSpec};
    use hector_models::ModelKind;
    use hector_runtime::Sgd;

    fn graph() -> HeteroGraph {
        generate(&DatasetSpec {
            name: "shard_engine".into(),
            num_nodes: 80,
            num_node_types: 2,
            num_edges: 500,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 11,
        })
    }

    fn builder() -> EngineBuilder {
        EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .parallel(ParallelConfig::sequential())
            .seed(7)
    }

    #[test]
    fn sharded_forward_is_bit_identical_to_unsharded() {
        let g = graph();
        let data = GraphData::new(g.clone());
        let mut oracle = builder().build().unwrap();
        oracle.bind(&data).unwrap().forward().unwrap();

        for k in [1usize, 3] {
            let sharded = ShardedGraph::partition(
                g.clone(),
                Box::new(HashPartitioner::new(2)),
                ShardConfig::new(k),
            );
            let mut eng = builder().bind_sharded(sharded).unwrap();
            eng.forward().unwrap();
            assert_eq!(
                eng.output().data(),
                oracle.output().data(),
                "k={k}: sharded forward diverged"
            );
        }
    }

    #[test]
    fn train_step_matches_unsharded_and_resyncs_shards() {
        let g = graph();
        let data = GraphData::new(g.clone());
        let mut oracle = builder().training(true).build().unwrap();
        oracle.bind(&data).unwrap();
        let labels: Vec<usize> = (0..g.num_nodes()).map(|v| v % 4).collect();
        let mut opt = Sgd::new(0.1);
        oracle.train_step(&labels, &mut opt).unwrap();
        oracle.forward().unwrap();

        let sharded = ShardedGraph::partition(
            g.clone(),
            Box::new(HashPartitioner::new(2)),
            ShardConfig::new(3),
        );
        let mut eng = builder().training(true).bind_sharded(sharded).unwrap();
        let mut opt2 = Sgd::new(0.1);
        let report = eng.train_step(&labels, &mut opt2).unwrap();
        assert!(report.loss.is_some(), "full-graph training reports a loss");
        eng.forward().unwrap();
        assert_eq!(
            eng.output().data(),
            oracle.output().data(),
            "post-training sharded forward diverged"
        );
    }

    #[test]
    fn apply_delta_matches_fresh_oracle() {
        let g = graph();
        let sharded = ShardedGraph::partition(
            g.clone(),
            Box::new(HashPartitioner::new(2)),
            ShardConfig::new(2),
        );
        let mut eng = builder().bind_sharded(sharded).unwrap();
        eng.forward().unwrap();
        let batch = DeltaBatch::new().add_edge(g.src()[0], g.dst()[0], g.etype()[0]);
        let outcome = eng.apply_delta(&batch).unwrap();
        assert_eq!(outcome.version, 1);
        eng.forward().unwrap();

        // Fresh unsharded oracle over the post-delta graph.
        let data = GraphData::new(eng.full_graph().clone());
        let mut oracle = builder().build().unwrap();
        oracle.bind(&data).unwrap().forward().unwrap();
        assert_eq!(
            eng.output().data(),
            oracle.output().data(),
            "post-delta sharded forward diverged from the fresh oracle"
        );
    }

    #[test]
    fn full_engine_shares_the_full_graph_data_across_deltas() {
        let g = graph();
        let sharded = ShardedGraph::partition(
            g.clone(),
            Box::new(HashPartitioner::new(2)),
            ShardConfig::new(2),
        );
        let mut eng = builder().bind_sharded(sharded).unwrap();
        let shared = |eng: &ShardedEngine| {
            std::ptr::eq(eng.full.graph().graph(), eng.sharded.full_data().graph())
        };
        assert!(shared(&eng));
        eng.apply_delta(&DeltaBatch::new().add_edge(0, 1, 0))
            .unwrap();
        assert!(shared(&eng));
    }

    #[test]
    fn malformed_delta_is_an_error_and_changes_nothing() {
        let g = graph();
        let sharded = ShardedGraph::partition(
            g.clone(),
            Box::new(HashPartitioner::new(2)),
            ShardConfig::new(2),
        );
        let mut eng = builder().bind_sharded(sharded).unwrap();
        eng.forward().unwrap();
        let before = eng.output().data().to_vec();
        let n = g.num_nodes() as u32;
        let (s, d, t) = (g.src()[0], g.dst()[0], g.etype()[0]);
        let twice = (0..g.num_edges())
            .filter(|&e| (g.src()[e], g.dst()[e], g.etype()[e]) == (s, d, t))
            .count();
        let mut claim_too_many = DeltaBatch::new();
        for _ in 0..=twice {
            claim_too_many = claim_too_many.remove_edge(s, d, t);
        }
        for batch in [
            DeltaBatch::new().add_edge(0, n, 0),
            DeltaBatch::new().add_edge(0, 1, g.num_edge_types() as u32),
            DeltaBatch::new().remove_edge(s, d, g.num_edge_types() as u32),
            claim_too_many,
            DeltaBatch::new().remove_node(n),
        ] {
            let err = eng.apply_delta(&batch).unwrap_err();
            assert_eq!(err.kind(), "invalid_delta", "{err}");
            assert_eq!(eng.sharded().version(), 0);
            assert_eq!(eng.full_graph().num_edges(), g.num_edges());
        }
        eng.forward().unwrap();
        assert_eq!(eng.output().data(), &before[..]);
    }

    #[test]
    fn a_delta_that_removes_every_node_is_refused_and_changes_nothing() {
        let mut b = hector_graph::HeteroGraphBuilder::new();
        b.add_node_type(4);
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(s, d, 0);
        }
        let g = b.build();
        let sharded = ShardedGraph::partition(
            g.clone(),
            Box::new(crate::RangePartitioner),
            ShardConfig::new(2),
        );
        let mut eng = builder().bind_sharded(sharded).unwrap();
        eng.forward().unwrap();
        let before = eng.output().data().to_vec();
        let everything = (0..4).fold(DeltaBatch::new(), |b, v| b.remove_node(v));
        assert_eq!(everything.validate(&g).unwrap_err().kind(), "invalid_delta");
        let err = eng.apply_delta(&everything).unwrap_err();
        assert_eq!(err.kind(), "invalid_delta", "{err}");
        assert_eq!(eng.sharded().version(), 0);
        assert_eq!(eng.full_graph(), &g);
        eng.forward().unwrap();
        assert_eq!(eng.output().data(), &before[..]);
        // Removing every node but adding one leaves a graph to bind.
        let replaced = everything.add_node(0);
        assert!(eng.apply_delta(&replaced).is_ok());
        assert_eq!(eng.full_graph().num_nodes(), 1);
    }

    #[test]
    fn profile_carries_shard_summary() {
        let g = graph();
        let sharded = ShardedGraph::partition(
            g.clone(),
            Box::new(HashPartitioner::new(2)),
            ShardConfig::new(2),
        );
        let mut eng = builder().bind_sharded(sharded).unwrap();
        let (_, report) = eng.profile(|e| e.forward().unwrap());
        let stats = report
            .shard_stats
            .expect("sharded profile sets the summary");
        assert_eq!(stats.shards, 2);
        assert!(!report.shard.is_empty(), "shard spans recorded");
        assert!(report.shard.iter().any(|a| a.name == "shard/exchange"));
    }
}
