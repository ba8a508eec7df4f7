//! Sharded graph storage, a sharded forward over one engine, and
//! streaming delta ingestion.
//!
//! A shard is a set of rows. This crate partitions a heterogeneous graph
//! over **destination nodes**: shard `s` owns a subset of nodes and
//! answers for exactly those nodes' output rows. Nothing else is kept
//! per shard. [`ShardedEngine`] runs its one full-graph engine's
//! `Engine::forward_rows` on each shard's owned rows in turn, which
//! extracts their exact in-closure for that run alone:
//!
//! * the **interior** — the owned nodes expanded `depth - 1` steps
//!   backward along edges (so a `depth`-layer model sees every
//!   contribution an interior node's output depends on);
//! * every edge whose destination is interior;
//! * the **halo** — the sources of those edges outside the interior,
//!   owned by other shards and read here.
//!
//! [`ShardedGraph::halo_rows`] counts the same closures at
//! [`ShardConfig::hops`] without extracting them.
//!
//! # Bit-identity
//!
//! Sharded forward output is **bitwise identical** to the unsharded
//! engine at every shard count, thread count, and partitioner (pinned
//! by `tests/shard_parity.rs`): `Engine::forward_rows` returns exactly
//! those rows of `Engine::forward` — the closure keeps every in-edge of
//! every interior node in its relative order and recomputes `cnorm` on
//! them — and ownership is a partition, so the merge writes every row
//! once, in fixed shard order.
//!
//! Set [`ShardConfig::hops`] to the model's layer count:
//! [`BindSharded::bind_sharded`] refuses a halo depth other than the
//! forward program's receptive depth with [`HectorError::InvalidConfig`]
//! (a shallower halo misses contributions, a deeper one counts rows no
//! forward reads).
//!
//! # Streaming deltas
//!
//! The store owns its full graph as a [`GraphData`]: the graph plus the
//! CSC and compaction indices every engine bound to it reads
//! ([`ShardedGraph::full_data`]; engines take it as an `Arc` clone).
//! [`ShardedGraph::try_apply`] consumes [`DeltaBatch`]es in two steps:
//! it first computes the post-delta graph data, owners and edge cut
//! without changing anything, then commits them.
//! [`ShardedGraph::try_apply_with`] runs a caller's step between the two
//! (a rebind or a deployment swap), and commits only if it succeeds.
//!
//! Every batch is checked once and goes through one splice
//! ([`HeteroGraph::splice_edges`]). An edge-only batch costs what it
//! changes:
//!
//! * the check's one scan of the relations its removals name also
//!   locates the removed edges;
//! * the edge arrays are spliced by bulk relation-segment copies, and
//!   the CSC and compaction map are carried across
//!   ([`GraphData::spliced`]) instead of rebuilt;
//! * the edge cut is adjusted from the batch's own edges.
//!
//! What is left is O(E) array copying, with no sort, hash probe or
//! rebuild of any index. A node batch renumbers endpoints during the
//! same splice, then rebuilds the indices and re-partitions. A batch the
//! check rejects changes nothing. The store is the one count of what
//! was applied: every commit bumps [`ShardedGraph::version`], which
//! `hector-serve` hot-swap consumes, and returns a [`DeltaOutcome`]
//! with the batch's operation count.

#![warn(missing_docs)]

pub mod delta;
pub mod engine;
pub mod partition;

use hector_graph::HeteroGraph;
use hector_runtime::{GraphData, HectorError, Subgraph};

pub use delta::{DeltaBatch, DeltaOutcome};
pub use engine::{BindSharded, ShardedEngine};
pub use partition::{GreedyEdgeCut, HashPartitioner, Partitioner, RangePartitioner};

/// Sharding configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of shards to partition into.
    pub num_shards: usize,
    /// Halo depth: how many aggregation layers a shard's closure covers.
    /// Set to the model's layer count (see the crate docs); defaults
    /// to 1.
    pub hops: usize,
}

impl ShardConfig {
    /// `num_shards` shards with a single-layer halo.
    #[must_use]
    pub fn new(num_shards: usize) -> ShardConfig {
        ShardConfig {
            num_shards,
            hops: 1,
        }
    }

    /// Sets the halo depth (model layer count).
    #[must_use]
    pub fn hops(mut self, hops: usize) -> ShardConfig {
        self.hops = hops;
        self
    }
}

/// A heterogeneous graph partitioned over destination nodes: the full
/// graph, each node's owner shard and the edge cut. See the crate docs
/// for the ownership and bit-identity contracts.
pub struct ShardedGraph {
    full: GraphData,
    cfg: ShardConfig,
    partitioner: Box<dyn Partitioner>,
    partitioner_name: &'static str,
    owner: Vec<u32>,
    edges_cut: u64,
    version: u64,
}

impl std::fmt::Debug for ShardedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGraph")
            .field("num_shards", &self.cfg.num_shards)
            .field("hops", &self.cfg.hops)
            .field("partitioner", &self.partitioner_name)
            .field("nodes", &self.full().num_nodes())
            .field("edges", &self.full().num_edges())
            .field("edge_cut_fraction", &self.edge_cut_fraction())
            .field("version", &self.version)
            .finish()
    }
}

impl ShardedGraph {
    /// Partitions `full` with the given partitioner: assigns every node
    /// an owner and counts the edge cut.
    ///
    /// # Panics
    ///
    /// Panics on zero shards, zero [`ShardConfig::hops`], or a
    /// partitioner that violates its contract (wrong length,
    /// out-of-range owner).
    #[must_use]
    pub fn partition(
        full: HeteroGraph,
        partitioner: Box<dyn Partitioner>,
        cfg: ShardConfig,
    ) -> ShardedGraph {
        ShardedGraph::partition_data(GraphData::new(full), partitioner, cfg)
    }

    /// [`ShardedGraph::partition`] of a graph whose derived indices the
    /// caller already holds: the store keeps `full` itself (an `Arc`
    /// clone shares it), so a deployment that binds and then partitions
    /// one graph holds one copy of it and its indices.
    ///
    /// # Panics
    ///
    /// As [`ShardedGraph::partition`].
    #[must_use]
    pub fn partition_data(
        full: GraphData,
        partitioner: Box<dyn Partitioner>,
        cfg: ShardConfig,
    ) -> ShardedGraph {
        assert!(cfg.num_shards > 0, "need at least one shard");
        assert!(cfg.hops >= 1, "halo depth must cover at least one layer");
        let partitioner_name = partitioner.name();
        let mut sharded = ShardedGraph {
            full,
            cfg,
            partitioner,
            partitioner_name,
            owner: Vec::new(),
            edges_cut: 0,
            version: 0,
        };
        (sharded.owner, sharded.edges_cut) = sharded.assign(sharded.full());
        sharded
    }

    /// Runs the partitioner over `full`: each node's owner and the edge
    /// cut.
    fn assign(&self, full: &HeteroGraph) -> (Vec<u32>, u64) {
        let tr = hector_trace::span_start();
        let owner = self.partitioner.assign(full, self.cfg.num_shards);
        assert_eq!(owner.len(), full.num_nodes(), "one owner per node");
        assert!(
            owner.iter().all(|&o| (o as usize) < self.cfg.num_shards),
            "owner out of shard range"
        );
        let cut = (0..full.num_edges())
            .filter(|&e| owner[full.src()[e] as usize] != owner[full.dst()[e] as usize])
            .count() as u64;
        if let Some(t0) = tr {
            hector_trace::record_span(
                "shard/partition",
                hector_trace::SpanCat::Shard,
                t0,
                full.num_edges() as u64,
                0,
                0.0,
            );
        }
        (owner, cut)
    }

    /// The full (unsharded) graph.
    #[must_use]
    pub fn full(&self) -> &HeteroGraph {
        self.full.graph()
    }

    /// The full graph with its derived indices, carried across edge
    /// deltas. Engines bind it as an `Arc` clone.
    #[must_use]
    pub fn full_data(&self) -> &GraphData {
        &self.full
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.cfg.num_shards
    }

    /// The sharding configuration.
    #[must_use]
    pub fn config(&self) -> ShardConfig {
        self.cfg
    }

    /// The partitioner's stable name.
    #[must_use]
    pub fn partitioner_name(&self) -> &'static str {
        self.partitioner_name
    }

    /// Owner shard of each original node.
    #[must_use]
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// Monotonic graph version; bumps once per applied [`DeltaBatch`].
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Fraction of edges whose endpoints are owned by different shards.
    #[must_use]
    pub fn edge_cut_fraction(&self) -> f64 {
        if self.full().num_edges() == 0 {
            0.0
        } else {
            self.edges_cut as f64 / self.full().num_edges() as f64
        }
    }

    /// Total halo rows across all shards: per shard, the nodes of its
    /// owned rows' in-closure at [`ShardConfig::hops`] that it does not
    /// own (the crate docs define the closure). Counted by the closure
    /// walk ([`Subgraph::in_closure_maps`]); nothing is extracted.
    #[must_use]
    pub fn halo_rows(&self) -> usize {
        (0..self.cfg.num_shards as u32)
            .map(|s| {
                let owned: Vec<u32> = (0..self.owner.len() as u32)
                    .filter(|&v| self.owner[v as usize] == s)
                    .collect();
                let (nodes, _) = Subgraph::in_closure_maps(&self.full, &owned, self.cfg.hops);
                nodes.len() - owned.len()
            })
            .sum()
    }

    /// Applies one delta batch, panicking where
    /// [`ShardedGraph::try_apply`] returns an error.
    ///
    /// # Panics
    ///
    /// Panics, before changing anything, on a batch
    /// [`DeltaBatch::validate`] rejects: out-of-range ids, a removal that
    /// matches nothing, an inserted edge referencing a removed node, a
    /// batch that removes every node.
    pub fn apply(&mut self, batch: &DeltaBatch) -> DeltaOutcome {
        self.try_apply(batch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Applies one delta batch: [`ShardedGraph::try_apply_with`] with
    /// nothing between computing the post-delta state and committing it.
    ///
    /// # Errors
    ///
    /// [`HectorError::InvalidDelta`] for a batch [`DeltaBatch::validate`]
    /// rejects; nothing changes.
    pub fn try_apply(&mut self, batch: &DeltaBatch) -> Result<DeltaOutcome, HectorError> {
        self.try_apply_with(batch, |_, _| Ok(()))
    }

    /// Applies one delta batch in two steps. First, without changing
    /// anything, the batch is checked once and spliced
    /// ([`HeteroGraph::splice_edges`]): an edge-only batch carries the
    /// full graph's indices across and adjusts the edge cut, a batch
    /// with node operations rebuilds the indices and re-partitions (node
    /// ids shift; see [`DeltaBatch::add_node`]). Then `f` sees the
    /// post-delta graph data and version, and only if it returns `Ok`
    /// are graph, owners, edge cut and version committed.
    ///
    /// # Errors
    ///
    /// [`HectorError::InvalidDelta`] (converted) for a batch
    /// [`DeltaBatch::validate`] rejects, or `f`'s error; either way
    /// nothing changes.
    pub fn try_apply_with<E: From<HectorError>>(
        &mut self,
        batch: &DeltaBatch,
        f: impl FnOnce(&GraphData, u64) -> Result<(), E>,
    ) -> Result<DeltaOutcome, E> {
        let tr = hector_trace::span_start();
        let (graph, splice) = batch.splice(self.full())?;
        let outcome = DeltaOutcome {
            version: self.version + 1,
            ops: batch.ops(),
            repartitioned: batch.has_node_ops(),
        };
        let (full, owner, edges_cut) = if outcome.repartitioned {
            let (owner, cut) = self.assign(&graph);
            (GraphData::new(graph), Some(owner), cut)
        } else {
            let cut =
                |&(s, d, _): &(u32, u32, u32)| self.owner[s as usize] != self.owner[d as usize];
            let added = batch.add_edges.iter().filter(|e| cut(e)).count() as u64;
            let removed = batch.remove_edges.iter().filter(|e| cut(e)).count() as u64;
            let cut = self.edges_cut + added - removed;
            (self.full.spliced(graph, &splice), None, cut)
        };
        if let Some(t0) = tr {
            hector_trace::record_span(
                "shard/delta",
                hector_trace::SpanCat::Shard,
                t0,
                outcome.ops as u64,
                0,
                0.0,
            );
        }
        f(&full, outcome.version)?;
        self.full = full;
        if let Some(owner) = owner {
            self.owner = owner;
        }
        self.edges_cut = edges_cut;
        self.version = outcome.version;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::{generate, DatasetSpec};
    use hector_models::ModelKind;
    use hector_runtime::{EngineBuilder, ParallelConfig};

    fn graph() -> HeteroGraph {
        generate(&DatasetSpec {
            name: "shard".into(),
            num_nodes: 120,
            num_node_types: 3,
            num_edges: 800,
            num_edge_types: 4,
            compaction_ratio: 0.5,
            type_skew: 1.1,
            seed: 42,
        })
    }

    /// The owned rows of shard `s`, ascending.
    fn owned(sg: &ShardedGraph, s: u32) -> Vec<u32> {
        (0..sg.owner().len() as u32)
            .filter(|&v| sg.owner()[v as usize] == s)
            .collect()
    }

    /// The halo count as a whole-graph scan: per shard, the owned rows
    /// expanded `hops - 1` steps backward one edge sweep at a time, then
    /// the sources of every edge into that interior that the shard does
    /// not own.
    fn halo_by_scan(sg: &ShardedGraph) -> usize {
        let (g, hops) = (sg.full(), sg.config().hops);
        (0..sg.num_shards() as u32)
            .map(|s| {
                let mut interior: Vec<bool> = sg.owner().iter().map(|&o| o == s).collect();
                for _ in 1..hops {
                    let frontier: Vec<usize> = (0..g.num_edges())
                        .filter(|&e| interior[g.dst()[e] as usize])
                        .map(|e| g.src()[e] as usize)
                        .collect();
                    for v in frontier {
                        interior[v] = true;
                    }
                }
                let mut nodes = interior.clone();
                for e in 0..g.num_edges() {
                    if interior[g.dst()[e] as usize] {
                        nodes[g.src()[e] as usize] = true;
                    }
                }
                nodes.iter().filter(|&&n| n).count() - owned(sg, s).len()
            })
            .sum()
    }

    /// Every node is owned exactly once, and the owned rows of every
    /// shard keep all their in-edges: their row-scoped forward equals
    /// those rows of the full forward bit for bit.
    #[test]
    fn ownership_is_a_partition_and_owned_keep_all_in_edges() {
        let g = graph();
        let data = GraphData::new(g.clone());
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .parallel(ParallelConfig::sequential())
            .seed(3)
            .build()
            .unwrap();
        engine.bind(&data).unwrap().forward().unwrap();
        let full = engine.output().clone();
        for k in [1usize, 2, 3, 8] {
            let sg = ShardedGraph::partition(
                g.clone(),
                Box::new(HashPartitioner::new(3)),
                ShardConfig::new(k),
            );
            let mut seen = vec![0usize; g.num_nodes()];
            for s in 0..k as u32 {
                let rows = owned(&sg, s);
                for &v in &rows {
                    seen[v as usize] += 1;
                }
                let got = engine.forward_rows(&rows).unwrap();
                for (i, &v) in rows.iter().enumerate() {
                    assert_eq!(got.row(i), full.row(v as usize), "k={k}: owned node {v}");
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "k={k}: ownership partition");
        }
    }

    /// The CSC walk counts what the whole-graph scan counts, and a
    /// deeper halo reads at least as many rows.
    #[test]
    fn deeper_hops_grow_the_interior() {
        let g = graph();
        let mut last = 0;
        for hops in 1..4 {
            let sg = ShardedGraph::partition(
                g.clone(),
                Box::new(RangePartitioner),
                ShardConfig::new(3).hops(hops),
            );
            assert_eq!(sg.halo_rows(), halo_by_scan(&sg), "hops={hops}");
            assert!(sg.halo_rows() >= last, "hops={hops}");
            last = sg.halo_rows();
        }
    }

    /// A store that takes deltas holds its full graph data and owners
    /// only: after partitioning and edge-only deltas (a removal and an
    /// addition), its carried data equals a fresh build of its graph,
    /// and its halo and edge cut equal a fresh partition's.
    #[test]
    fn partition_and_edge_deltas_build_no_shard_graph_data() {
        let g = graph();
        let mut sg = ShardedGraph::partition(
            g.clone(),
            Box::new(HashPartitioner::new(5)),
            ShardConfig::new(4),
        );
        let (s0, d0, t0) = (g.src()[0], g.dst()[0], g.etype()[0]);
        let (s1, d1, t1) = (g.src()[9], g.dst()[9], g.etype()[9]);
        sg.try_apply(
            &DeltaBatch::new()
                .remove_edge(s0, d0, t0)
                .add_edge(s1, d1, t1),
        )
        .unwrap();
        sg.try_apply(&DeltaBatch::new().add_edge(s0, d0, t0))
            .unwrap();
        assert!(sg.full_data() == &GraphData::new(sg.full().clone()));
        let fresh = ShardedGraph::partition(
            sg.full().clone(),
            Box::new(HashPartitioner::new(5)),
            ShardConfig::new(4),
        );
        assert_eq!(sg.owner(), fresh.owner());
        assert_eq!(sg.halo_rows(), fresh.halo_rows());
        assert!(sg.halo_rows() > 0 && sg.edge_cut_fraction() > 0.0);
        assert_eq!(sg.edge_cut_fraction(), fresh.edge_cut_fraction());
    }

    /// A node-operation delta re-partitions: the store then owns nodes
    /// and counts its halo as a fresh partition of the post-delta graph.
    #[test]
    fn node_op_repartition_builds_no_shard() {
        let g = graph();
        let mut sg =
            ShardedGraph::partition(g.clone(), Box::new(RangePartitioner), ShardConfig::new(3));
        sg.apply(&DeltaBatch::new().add_node(1).remove_node(4));
        let fresh = ShardedGraph::partition(
            sg.full().clone(),
            Box::new(RangePartitioner),
            ShardConfig::new(3),
        );
        assert_eq!(sg.owner(), fresh.owner());
        assert_eq!(sg.halo_rows(), fresh.halo_rows());
        assert_eq!(sg.edge_cut_fraction(), fresh.edge_cut_fraction());
    }

    #[test]
    #[should_panic(expected = "halo depth")]
    fn zero_hops_panics_in_partition() {
        let _ = ShardedGraph::partition(
            graph(),
            Box::new(RangePartitioner),
            ShardConfig::new(2).hops(0),
        );
    }

    /// An edge delta into one destination changes only the rows whose
    /// closure holds it: under one-hop range partitioning, every other
    /// shard's owned rows forward to the same bits before and after.
    #[test]
    fn edge_delta_invalidates_only_affected_shards() {
        let g = graph();
        let mut sg =
            ShardedGraph::partition(g.clone(), Box::new(RangePartitioner), ShardConfig::new(4));
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .parallel(ParallelConfig::sequential())
            .seed(4)
            .build()
            .unwrap();
        engine.bind(sg.full_data()).unwrap();
        let before: Vec<_> = (0..4)
            .map(|s| engine.forward_rows(&owned(&sg, s)).unwrap())
            .collect();
        // Re-add a parallel copy of an existing edge: its destination is
        // interior to its owner's shard alone.
        let (s0, d0, t0) = (g.src()[0], g.dst()[0], g.etype()[0]);
        let out = sg.apply(&DeltaBatch::new().add_edge(s0, d0, t0));
        assert_eq!(out.version, 1);
        assert!(!out.repartitioned);
        assert_eq!(sg.full().num_edges(), g.num_edges() + 1);
        engine.rebind(sg.full_data()).unwrap();
        let hit = sg.owner()[d0 as usize];
        for s in 0..4 {
            let after = engine.forward_rows(&owned(&sg, s)).unwrap();
            let same = after.data() == before[s as usize].data();
            assert_eq!(same, s != hit, "shard {s}");
        }
    }

    /// After an edge-only delta at one and two hops, the store owns its
    /// rows and counts its halo and edge cut as a fresh partition of the
    /// post-delta graph does.
    #[test]
    fn affected_shard_rebuild_matches_fresh_partition() {
        let g = graph();
        for hops in [1, 2] {
            let cfg = ShardConfig::new(3).hops(hops);
            let mut sg = ShardedGraph::partition(g.clone(), Box::new(HashPartitioner::new(9)), cfg);
            let batch = DeltaBatch::new()
                .add_edge(g.src()[5], g.dst()[5], g.etype()[5])
                .remove_edge(g.src()[10], g.dst()[10], g.etype()[10]);
            sg.apply(&batch);
            let fresh =
                ShardedGraph::partition(sg.full().clone(), Box::new(HashPartitioner::new(9)), cfg);
            assert_eq!(sg.owner(), fresh.owner(), "hops={hops}");
            assert_eq!(sg.halo_rows(), fresh.halo_rows(), "hops={hops}");
            assert_eq!(sg.halo_rows(), halo_by_scan(&sg), "hops={hops}");
            assert_eq!(sg.edge_cut_fraction(), fresh.edge_cut_fraction());
        }
    }

    #[test]
    fn node_delta_forces_repartition() {
        let g = graph();
        let mut sg =
            ShardedGraph::partition(g.clone(), Box::new(RangePartitioner), ShardConfig::new(2));
        let out = sg.apply(&DeltaBatch::new().add_node(0));
        assert!(out.repartitioned);
        assert_eq!(sg.full().num_nodes(), g.num_nodes() + 1);
        assert_eq!(sg.owner().len(), g.num_nodes() + 1);
        assert_eq!(sg.version(), 1);
    }

    /// `partition_data` keeps the caller's graph data (no second copy)
    /// and partitions exactly as `partition` does.
    #[test]
    fn partition_data_keeps_the_callers_graph() {
        let g = graph();
        let data = GraphData::new(g.clone());
        let cfg = ShardConfig::new(3).hops(2);
        let kept = ShardedGraph::partition_data(data.clone(), Box::new(GreedyEdgeCut), cfg);
        let built = ShardedGraph::partition(g, Box::new(GreedyEdgeCut), cfg);
        assert!(std::ptr::eq(kept.full_data().graph(), data.graph()));
        assert_eq!(kept.owner(), built.owner());
        assert_eq!(kept.edge_cut_fraction(), built.edge_cut_fraction());
        assert_eq!(kept.halo_rows(), built.halo_rows());
    }

    #[test]
    fn single_shard_covers_everything_with_no_halo() {
        let g = graph();
        let sg = ShardedGraph::partition(g.clone(), Box::new(GreedyEdgeCut), ShardConfig::new(1));
        assert_eq!(owned(&sg, 0).len(), g.num_nodes());
        assert_eq!(sg.halo_rows(), 0);
        assert_eq!(sg.edge_cut_fraction(), 0.0);
    }
}
