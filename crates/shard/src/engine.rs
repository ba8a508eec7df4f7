//! Sharded execution: [`ShardedEngine`] and the [`BindSharded`] builder
//! extension.
//!
//! `builder.bind_sharded(sharded)` builds **one engine**, bound to the
//! full graph. A sharded forward runs that engine's
//! [`Engine::forward_rows`] on each shard's owned rows in fixed shard
//! order, and writes the rows it returns into the merged output (the
//! **boundary exchange**). Ownership is a partition, so the rows are
//! disjoint and the merge is order-independent data-wise — the fixed
//! order makes it deterministic byte for byte anyway.
//!
//! # Parity contracts
//!
//! * **Forward** is bitwise identical to the unsharded engine at every
//!   shard count and thread count (see the crate docs for why; pinned by
//!   `tests/shard_parity.rs`).
//! * **Training** runs on the full graph: gradient accumulation order is
//!   not reproducible from per-shard partial sums under floating-point
//!   addition, so [`ShardedEngine::train_step`] is the engine's
//!   (bit-identical to unsharded training by construction). The next
//!   forward runs the trained parameters on every shard.
//! * **Deltas**: [`ShardedEngine::apply_delta`] re-binds the engine to
//!   the store's post-delta graph data and commits the delta only if
//!   the bind succeeds ([`ShardedGraph::try_apply_with`]). The bind
//!   derives parameters afresh from the seed, so the post-delta state
//!   equals a fresh engine built on the post-delta graph, the oracle
//!   the serving tests compare against.

use hector_graph::HeteroGraph;
use hector_runtime::{Engine, EngineBuilder, HectorError, Optimizer, RunReport};
use hector_tensor::Tensor;

use crate::{DeltaBatch, DeltaOutcome, ShardedGraph};

/// Builder extension that produces a [`ShardedEngine`]. Implemented for
/// [`EngineBuilder`]; a separate trait because the runtime crate cannot
/// see [`ShardedGraph`] (the shard crate sits above it in the workspace
/// DAG).
pub trait BindSharded {
    /// Consumes the builder and the sharded graph, producing one engine
    /// bound to the full graph.
    ///
    /// # Errors
    ///
    /// [`HectorError::InvalidConfig`] when the sharded graph's halo
    /// depth is not the depth the model reads ([`ShardConfig::hops`]
    /// other than the forward program's receptive depth); otherwise
    /// propagates
    /// [`EngineBuilder::build`] / `Engine::bind` failures (invalid
    /// configuration, an empty full graph).
    ///
    /// [`ShardConfig::hops`]: crate::ShardConfig::hops
    fn bind_sharded(self, sharded: ShardedGraph) -> Result<ShardedEngine, HectorError>;
}

impl BindSharded for EngineBuilder {
    fn bind_sharded(self, sharded: ShardedGraph) -> Result<ShardedEngine, HectorError> {
        ShardedEngine::new(self, sharded)
    }
}

/// One engine bound to the full graph, run on each shard's owned rows,
/// with a boundary-exchange merge. Built by [`BindSharded::bind_sharded`];
/// see the module docs for the parity contracts.
pub struct ShardedEngine {
    full: Engine,
    sharded: ShardedGraph,
    output: Tensor,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("sharded", &self.sharded)
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    fn new(builder: EngineBuilder, sharded: ShardedGraph) -> Result<ShardedEngine, HectorError> {
        let mut full = builder.build()?;
        let forward = &full.module().forward;
        let (depth, hops) = (forward.receptive_depth(), sharded.config().hops);
        if hops != depth {
            return Err(HectorError::InvalidConfig {
                detail: format!(
                    "the model reads {depth} hops back but the shards carry a {hops}-hop halo \
                     (partition with ShardConfig::hops({depth}))"
                ),
            });
        }
        let out_width = forward.var(forward.outputs[0]).width;
        full.bind(sharded.full_data())?;
        Ok(ShardedEngine {
            full,
            output: Tensor::zeros(&[sharded.full().num_nodes(), out_width]),
            sharded,
        })
    }

    /// Runs one forward pass: [`Engine::forward_rows`] on every shard's
    /// owned rows in fixed order, each followed by its part of the
    /// boundary exchange (the rows copied into the merged output). The
    /// merged output is bitwise identical to the unsharded engine's.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error (in shard order); only
    /// the shards before it have then refreshed their merged rows.
    pub fn forward(&mut self) -> Result<(), HectorError> {
        let owner = self.sharded.owner();
        for s in 0..self.sharded.num_shards() as u32 {
            let owned: Vec<u32> = (0..owner.len() as u32)
                .filter(|&v| owner[v as usize] == s)
                .collect();
            let tr = hector_trace::span_start();
            let rows = self.full.forward_rows(&owned)?;
            for (i, &v) in owned.iter().enumerate() {
                self.output.row_mut(v as usize).copy_from_slice(rows.row(i));
            }
            if let Some(t0) = tr {
                let rows = owned.len() as u64;
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
        Ok(())
    }

    /// Runs one training step on the full graph (bit-identical to
    /// unsharded training; see the module docs). The next forward runs
    /// the updated parameters on every shard.
    ///
    /// # Errors
    ///
    /// See `Engine::train_step`.
    pub fn train_step(
        &mut self,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> Result<RunReport, HectorError> {
        self.full.train_step(labels, optimizer)
    }

    /// Applies one delta batch: re-binds the engine against the store's
    /// post-delta graph data (freshly seed-derived parameters and
    /// bindings — the fresh-oracle contract), and commits the delta to
    /// the store only if that bind succeeds
    /// ([`ShardedGraph::try_apply_with`]).
    ///
    /// # Errors
    ///
    /// [`HectorError::InvalidDelta`] for a batch [`DeltaBatch::validate`]
    /// rejects (a batch that removes every node included), before
    /// anything changes; otherwise propagates bind failures, after which
    /// the store is unchanged.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaOutcome, HectorError> {
        let outcome = self
            .sharded
            .try_apply_with(batch, |data, _| self.full.bind(data).map(drop))?;
        self.output = Tensor::zeros(&[self.sharded.full().num_nodes(), self.output.cols()]);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashPartitioner, ShardConfig};
    use hector_graph::{generate, DatasetSpec};
    use hector_models::ModelKind;
    use hector_runtime::{GraphData, ParallelConfig, Sgd};

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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn oracle_bits(builder: &EngineBuilder, g: &HeteroGraph) -> Vec<u32> {
        let mut oracle = builder.clone().build().unwrap();
        oracle.bind(&GraphData::new(g.clone())).unwrap();
        oracle.forward().unwrap();
        bits(oracle.output())
    }

    fn two_layers(kind: ModelKind, threads: usize) -> EngineBuilder {
        EngineBuilder::new(kind)
            .dims(8, 8)
            .layers(2)
            .parallel(ParallelConfig {
                num_threads: threads,
                min_chunk_rows: 16,
            })
            .seed(7)
    }

    /// A halo shallower than the model's receptive depth would leave
    /// owned rows short of contributions, and a deeper one would count
    /// halo rows no forward reads: the bind refuses both, and the exact
    /// depth binds and merges bit for bit.
    #[test]
    fn a_halo_shallower_than_the_model_is_refused() {
        let g = graph();
        for kind in ModelKind::all() {
            let builder = two_layers(kind, 1);
            let want = oracle_bits(&builder, &g);
            for k in [2usize, 3] {
                let partition = |hops| {
                    ShardedGraph::partition(
                        g.clone(),
                        Box::new(HashPartitioner::new(2)),
                        ShardConfig::new(k).hops(hops),
                    )
                };
                for hops in [1, 3] {
                    let err = builder.clone().bind_sharded(partition(hops)).unwrap_err();
                    assert_eq!(err.kind(), "invalid_config", "{kind:?} k={k}: {err}");
                }
                let mut eng = builder.clone().bind_sharded(partition(2)).unwrap();
                eng.forward().unwrap();
                assert_eq!(bits(eng.output()), want, "{kind:?} k={k}");
            }
        }
    }

    /// Multi-layer attention models stay on the unsharded engine's bits
    /// through a forward, two training steps and an edge delta (against
    /// a fresh engine on the post-delta graph).
    #[test]
    fn two_layer_attention_models_match_unsharded_through_training_and_deltas() {
        let g = graph();
        let labels: Vec<usize> = (0..g.num_nodes()).map(|v| v % 4).collect();
        for kind in [ModelKind::Rgat, ModelKind::Hgt] {
            for threads in [1usize, 4] {
                let builder = two_layers(kind, threads).training(true);
                let what = format!("{kind:?} threads={threads}");
                let mut oracle = builder.clone().build().unwrap();
                oracle.bind(&GraphData::new(g.clone())).unwrap();
                oracle.forward().unwrap();
                let sharded = ShardedGraph::partition(
                    g.clone(),
                    Box::new(HashPartitioner::new(2)),
                    ShardConfig::new(3).hops(2),
                );
                let mut eng = builder.clone().bind_sharded(sharded).unwrap();
                eng.forward().unwrap();
                assert_eq!(bits(eng.output()), bits(oracle.output()), "{what}");

                let (mut opt, mut opt2) = (Sgd::new(0.1), Sgd::new(0.1));
                for _ in 0..2 {
                    oracle.train_step(&labels, &mut opt).unwrap();
                    eng.train_step(&labels, &mut opt2).unwrap();
                }
                oracle.forward().unwrap();
                eng.forward().unwrap();
                assert_eq!(
                    bits(eng.output()),
                    bits(oracle.output()),
                    "{what}: after training"
                );

                let batch = DeltaBatch::new()
                    .add_edge(g.src()[0], g.dst()[0], g.etype()[0])
                    .remove_edge(g.src()[1], g.dst()[1], g.etype()[1]);
                eng.apply_delta(&batch).unwrap();
                eng.forward().unwrap();
                assert_eq!(
                    bits(eng.output()),
                    oracle_bits(&builder, eng.full_graph()),
                    "{what}: after a delta"
                );
            }
        }
    }
}
