//! Sharded graph storage, sharded execution over one engine, and
//! streaming delta ingestion.
//!
//! Scaling past one engine's working set means cutting the graph into
//! **shards**, each a subgraph the same kernels run on
//! ([`ShardedEngine`] runs its one engine on every shard in turn). This
//! crate partitions a heterogeneous graph over **destination nodes**:
//! shard `s` owns a subset of nodes and is responsible for computing
//! exactly those nodes' output rows. Each shard is a runtime
//! [`Subgraph`] view — the same view a sampled mini-batch is — whose
//! compacted, self-contained graph (with its CSC and compaction map)
//! covers:
//!
//! * its **interior** — the owned nodes expanded `hops - 1` steps
//!   backward along edges (so a `hops`-layer model sees every
//!   contribution an interior node's output depends on);
//! * every edge whose destination is interior;
//! * the **halo** — source nodes of those edges owned by other shards,
//!   replicated read-only into the shard.
//!
//! # Bit-identity
//!
//! Sharded forward output is **bitwise identical** to the unsharded
//! engine at every shard count, thread count, and partitioner. Three
//! properties make that hold (each pinned by `tests/shard_parity.rs`):
//!
//! 1. extraction preserves the relative original edge order within every
//!    relation, so per-destination aggregation sums the same values in
//!    the same order as a full-graph run;
//! 2. owned nodes retain *all* of their in-edges (the interior closure
//!    guarantees it through `hops` layers), and `cnorm` normalisation is
//!    recomputed per shard — equal to the full graph's on every interior
//!    node;
//! 3. the boundary exchange copies owned output rows in fixed shard
//!    order, and ownership is a partition — rows never race.
//!
//! Set [`ShardConfig::hops`] to the model's layer count: a too-shallow
//! halo would truncate multi-layer receptive fields, so
//! [`BindSharded::bind_sharded`] refuses one with
//! [`HectorError::InvalidConfig`] (the depth is the forward program's
//! `receptive_depth`; the parity tests pin the exact-depth
//! configuration).
//!
//! # Streaming deltas
//!
//! The store owns its full graph as a [`GraphData`]: the graph plus the
//! CSC and compaction indices every engine bound to it reads
//! ([`ShardedGraph::full_data`]; engines take it as an `Arc` clone).
//! [`ShardedGraph::try_apply`] consumes [`DeltaBatch`]es incrementally,
//! and an edge-only batch costs what it changes:
//!
//! * the batch is checked once, and that check's one scan of the
//!   relations its removals name also locates the removed edges;
//! * the edge arrays are spliced by bulk relation-segment copies
//!   ([`HeteroGraph::splice_edges`]), and the CSC and compaction map
//!   are carried across ([`GraphData::spliced`]) instead of rebuilt;
//! * the edge cut is adjusted from the batch's own edges;
//! * the built shards whose interior contains a touched destination go
//!   stale and are rebuilt on their next read ([`ShardedGraph::shard`]);
//!   other built shards shift their edge remap tables
//!   ([`Subgraph::follow_splice`]).
//!
//! What is left is O(E) array copying and remapping, with no sort, hash
//! probe or rebuild of any index. Node batches rebuild the graph and
//! force a full re-partition. A batch the check rejects changes
//! nothing. Every apply bumps [`ShardedGraph::version`], which
//! `hector-serve` hot-swap consumes, and counts into the process-global
//! delta probe (`hector_device::shard_probe::snapshot()`:
//! [`hector_device::ShardStats`]).
//!
//! # Shards are built on read
//!
//! Partitioning assigns owners and counts the edge cut; it builds no
//! shard. A shard's maps (`owned`, `interior`, node and edge maps) are
//! built on its first read ([`ShardedGraph::shard`], which
//! [`ShardedGraph::halo_rows`] reads too), and its graph only on the
//! first read of its view's graph ([`Shard::graph`], [`Subgraph::data`]).
//! So a store no engine runs on — a serve store taking deltas — builds
//! nothing after partitioning, and a delta costs nothing per unbuilt
//! shard.

#![warn(missing_docs)]

pub mod delta;
pub mod engine;
pub mod partition;

use std::sync::OnceLock;

use hector_device::shard_probe;
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
    /// Halo depth: how many aggregation layers the shard's interior
    /// closure covers. Set to the model's layer count for exact owned
    /// outputs (see the crate docs); defaults to 1.
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

/// One shard: the [`Subgraph`] view of its interior + halo nodes,
/// answering for the nodes it owns, plus the ownership bookkeeping the
/// execution layer needs. The view is the one holder of the shard's
/// node and edge maps and of its graph, which it extracts on the first
/// read of the graph ([`Shard::graph`], [`Subgraph::data`]); the maps,
/// the owned rows and the halo read no graph.
#[derive(Clone, Debug)]
pub struct Shard {
    view: Subgraph,
    owned: Vec<u32>,
    interior: Vec<u32>,
}

impl Shard {
    /// The shard's view: what a sharded forward runs on.
    #[must_use]
    pub fn view(&self) -> &Subgraph {
        &self.view
    }

    /// The shard's self-contained graph (local ids; full type counts),
    /// extracted on the first read.
    #[must_use]
    pub fn graph(&self) -> &HeteroGraph {
        self.view.graph()
    }

    /// Original node id of each local node (strictly ascending).
    #[must_use]
    pub fn node_map(&self) -> &[u32] {
        self.view.node_map()
    }

    /// Original edge index of each local edge (strictly ascending).
    #[must_use]
    pub fn edge_map(&self) -> &[u32] {
        self.view.edge_map()
    }

    /// Original ids of the nodes this shard owns (ascending). The shard
    /// is authoritative for exactly these nodes' output rows.
    #[must_use]
    pub fn owned(&self) -> &[u32] {
        &self.owned
    }

    /// Local ids of the owned nodes, index-aligned with
    /// [`Shard::owned`].
    #[must_use]
    pub fn owned_local(&self) -> &[u32] {
        self.view.seed_local()
    }

    /// Original ids of the interior nodes (owned closure; ascending).
    /// Interior nodes retain all their in-edges, so their activations
    /// are exact through one layer per closure hop.
    #[must_use]
    pub fn interior(&self) -> &[u32] {
        &self.interior
    }

    /// Whether an original node is interior to this shard.
    #[must_use]
    pub fn is_interior(&self, orig: u32) -> bool {
        self.interior.binary_search(&orig).is_ok()
    }

    /// Halo rows: replicated nodes this shard reads but does not own.
    #[must_use]
    pub fn halo_rows(&self) -> usize {
        self.view.node_map().len() - self.owned.len()
    }
}

/// Builds one shard's maps: interior = owned expanded `hops - 1` steps
/// backward along edges; included edges = everything terminating
/// interior; node set = interior plus the sources of included edges. The
/// view extracts its graph from `data` on its first read.
fn build_shard(data: &GraphData, owner: &[u32], s: u32, hops: usize) -> Shard {
    let full = data.graph();
    let n = full.num_nodes();
    let owned: Vec<u32> = (0..n as u32).filter(|&v| owner[v as usize] == s).collect();
    let mut interior_set = vec![false; n];
    for &v in &owned {
        interior_set[v as usize] = true;
    }
    for _ in 1..hops {
        // One backward expansion per extra layer: sources feeding the
        // current set become interior too.
        let frontier: Vec<usize> = (0..full.num_edges())
            .filter(|&e| interior_set[full.dst()[e] as usize])
            .map(|e| full.src()[e] as usize)
            .collect();
        for v in frontier {
            interior_set[v] = true;
        }
    }
    let interior: Vec<u32> = (0..n as u32)
        .filter(|&v| interior_set[v as usize])
        .collect();

    let mut node_set = interior_set.clone();
    let mut edges: Vec<u32> = Vec::new();
    for e in 0..full.num_edges() {
        if interior_set[full.dst()[e] as usize] {
            edges.push(e as u32);
            node_set[full.src()[e] as usize] = true;
        }
    }
    let node_map: Vec<u32> = (0..n as u32).filter(|&v| node_set[v as usize]).collect();
    Shard {
        view: Subgraph::new(data, node_map, edges, &owned),
        owned,
        interior,
    }
}

/// A heterogeneous graph partitioned over destination nodes into
/// per-shard compacted subgraphs with halo replication. See the crate
/// docs for the ownership and bit-identity contracts.
pub struct ShardedGraph {
    full: GraphData,
    cfg: ShardConfig,
    partitioner: Box<dyn Partitioner>,
    partitioner_name: &'static str,
    owner: Vec<u32>,
    /// Empty until read, and again once an edge delta touches the
    /// shard's interior: [`ShardedGraph::shard`] builds it.
    shards: Vec<OnceLock<Shard>>,
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
    /// an owner and counts the edge cut. No shard is built until it is
    /// read ([`ShardedGraph::shard`]).
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
            shards: Vec::new(),
            edges_cut: 0,
            version: 0,
        };
        sharded.repartition();
        sharded
    }

    /// Re-runs the partitioner over the current full graph and leaves
    /// every shard to be built on its next read.
    fn repartition(&mut self) {
        let tr = hector_trace::span_start();
        let full = self.full.graph();
        let owner = self.partitioner.assign(full, self.cfg.num_shards);
        assert_eq!(owner.len(), full.num_nodes(), "one owner per node");
        assert!(
            owner.iter().all(|&o| (o as usize) < self.cfg.num_shards),
            "owner out of shard range"
        );
        self.shards = (0..self.cfg.num_shards).map(|_| OnceLock::new()).collect();
        self.edges_cut = (0..full.num_edges())
            .filter(|&e| owner[full.src()[e] as usize] != owner[full.dst()[e] as usize])
            .count() as u64;
        self.owner = owner;
        if let Some(t0) = tr {
            hector_trace::record_span(
                "shard/partition",
                hector_trace::SpanCat::Shard,
                t0,
                self.full().num_edges() as u64,
                0,
                0.0,
            );
        }
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

    /// One shard, built from the current full graph on its first read
    /// after partitioning or after an edge delta left it stale. Its graph
    /// is extracted only when its view's graph is read.
    #[must_use]
    pub fn shard(&self, s: usize) -> &Shard {
        self.shards[s].get_or_init(|| build_shard(&self.full, &self.owner, s as u32, self.cfg.hops))
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

    /// Total replicated halo rows across all shards (building any shard
    /// not yet read: its maps, not its graph).
    #[must_use]
    pub fn halo_rows(&self) -> usize {
        (0..self.cfg.num_shards)
            .map(|s| self.shard(s).halo_rows())
            .sum()
    }

    /// Approximate bytes of replicated structure: the halo share of
    /// every shard's node and edge tables.
    #[must_use]
    pub fn halo_bytes(&self) -> usize {
        self.halo_rows() * std::mem::size_of::<u32>() * 2
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

    /// Applies one delta batch. The batch is checked once; an edge-only
    /// batch then splices the edge arrays, carries the full graph's
    /// indices across, and marks stale exactly the shards whose
    /// interior contains a touched destination (rebuilt on their next
    /// read). Every other built shard keeps its compacted graph and has
    /// its edge remap table shifted in place. Batches with node
    /// operations rebuild the graph and re-partition everything (node
    /// ids shift; see [`DeltaBatch::add_node`]). Bumps
    /// [`ShardedGraph::version`] and records the batch into the shard
    /// probe either way.
    ///
    /// # Errors
    ///
    /// [`HectorError::InvalidDelta`] for a batch [`DeltaBatch::validate`]
    /// rejects; nothing changes.
    pub fn try_apply(&mut self, batch: &DeltaBatch) -> Result<DeltaOutcome, HectorError> {
        let claimed = batch.claimed_edges(self.full())?;
        let tr = hector_trace::span_start();
        let ops = batch.ops();
        let (affected, repartitioned) = if batch.has_node_ops() {
            self.full = GraphData::new(delta::rebuild_with_node_ops(self.full(), batch, &claimed));
            self.repartition();
            shard_probe::record_invalidations(self.cfg.num_shards as u64);
            ((0..self.cfg.num_shards).collect(), true)
        } else {
            let affected = self.interiors_holding(&batch.touched_dsts(self.full().num_nodes()));
            let (graph, splice) = self.full().splice_edges(&claimed, &batch.add_edges);
            self.full = self.full.spliced(graph, &splice);
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if affected.binary_search(&s).is_ok() {
                    *shard = OnceLock::new();
                } else if let Some(shard) = shard.get_mut() {
                    // Unaffected shards keep their graph verbatim; only
                    // the original edge indices shifted under them.
                    shard.view.follow_splice(&self.full, &splice);
                }
            }
            let cut =
                |&(s, d, _): &(u32, u32, u32)| self.owner[s as usize] != self.owner[d as usize];
            let added = batch.add_edges.iter().filter(|e| cut(e)).count() as u64;
            let removed = batch.remove_edges.iter().filter(|e| cut(e)).count() as u64;
            self.edges_cut = self.edges_cut + added - removed;
            shard_probe::record_invalidations(affected.len() as u64);
            (affected, false)
        };
        shard_probe::record_delta(ops as u64);
        self.version += 1;
        if let Some(t0) = tr {
            hector_trace::record_span(
                "shard/delta",
                hector_trace::SpanCat::Shard,
                t0,
                ops as u64,
                0,
                0.0,
            );
        }
        Ok(DeltaOutcome {
            version: self.version,
            affected,
            ops,
            repartitioned,
        })
    }

    /// The shards (ascending) whose interior holds a node of `touched`,
    /// read off the current graph: a shard's interior is every node with
    /// a path of at most `hops - 1` edges to a node it owns, so these are
    /// the owners of everything `touched` reaches in that many steps. No
    /// shard needs to be extracted to answer.
    fn interiors_holding(&self, touched: &[u32]) -> Vec<usize> {
        let full = self.full();
        let mut reached = vec![false; full.num_nodes()];
        for &v in touched {
            reached[v as usize] = true;
        }
        for _ in 1..self.cfg.hops {
            // One synchronous step, as the interior closure expands.
            let next: Vec<u32> = (0..full.num_edges())
                .filter(|&e| reached[full.src()[e] as usize])
                .map(|e| full.dst()[e])
                .collect();
            for v in next {
                reached[v as usize] = true;
            }
        }
        let mut hit = vec![false; self.cfg.num_shards];
        for (v, _) in reached.iter().enumerate().filter(|(_, &r)| r) {
            hit[self.owner[v] as usize] = true;
        }
        (0..self.cfg.num_shards).filter(|&s| hit[s]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::{generate, DatasetSpec};

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

    #[test]
    fn ownership_is_a_partition_and_owned_keep_all_in_edges() {
        let g = graph();
        for k in [1usize, 2, 3, 8] {
            let sg = ShardedGraph::partition(
                g.clone(),
                Box::new(HashPartitioner::new(3)),
                ShardConfig::new(k),
            );
            // Every node owned exactly once.
            let mut seen = vec![0usize; g.num_nodes()];
            for sh in (0..k).map(|s| sg.shard(s)) {
                sh.graph().validate();
                for &v in sh.owned() {
                    seen[v as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "k={k}: ownership partition");
            // Owned nodes retain their full in-edge sets.
            let in_deg = g.in_degree();
            for sh in (0..k).map(|s| sg.shard(s)) {
                for (&orig, &local) in sh.owned().iter().zip(sh.owned_local()) {
                    let local_deg = sh.graph().dst().iter().filter(|&&d| d == local).count() as u32;
                    assert_eq!(
                        local_deg, in_deg[orig as usize],
                        "k={k}: owned node {orig} lost in-edges"
                    );
                }
            }
        }
    }

    #[test]
    fn deeper_hops_grow_the_interior() {
        let g = graph();
        let one = ShardedGraph::partition(
            g.clone(),
            Box::new(RangePartitioner),
            ShardConfig::new(3).hops(1),
        );
        let two = ShardedGraph::partition(
            g.clone(),
            Box::new(RangePartitioner),
            ShardConfig::new(3).hops(2),
        );
        for s in 0..3 {
            assert_eq!(one.shard(s).interior(), one.shard(s).owned());
            assert!(two.shard(s).interior().len() >= one.shard(s).interior().len());
            // hops=2 interior must contain every source feeding an owned
            // node.
            for e in 0..g.num_edges() {
                if one.shard(s).owned().binary_search(&g.dst()[e]).is_ok() {
                    assert!(two.shard(s).is_interior(g.src()[e]));
                }
            }
        }
    }

    /// Which shard slots are built.
    fn built(sg: &ShardedGraph) -> Vec<bool> {
        sg.shards.iter().map(|c| c.get().is_some()).collect()
    }

    /// Which shards' views extracted their graph (the view's `Debug`
    /// reports it; its graph slot is private to the runtime).
    fn extracted(sg: &ShardedGraph) -> Vec<bool> {
        let extracted = |sh: &Shard| format!("{:?}", sh.view()).contains("extracted: true");
        sg.shards
            .iter()
            .map(|c| c.get().is_some_and(extracted))
            .collect()
    }

    /// A store no engine runs on builds no shard: partitioning and an
    /// edge-only delta (a removal and an addition) build none, and the
    /// halo and edge-cut statistics build the maps but extract no graph.
    /// The first read of a view's data extracts that shard alone, and a
    /// later delta carries the built view across.
    #[test]
    fn partition_and_edge_deltas_build_no_shard_graph_data() {
        let g = graph();
        let mut sg = ShardedGraph::partition(
            g.clone(),
            Box::new(HashPartitioner::new(5)),
            ShardConfig::new(4),
        );
        assert_eq!(built(&sg), [false; 4]);
        let (s0, d0, t0) = (g.src()[0], g.dst()[0], g.etype()[0]);
        let (s1, d1, t1) = (g.src()[9], g.dst()[9], g.etype()[9]);
        sg.try_apply(
            &DeltaBatch::new()
                .remove_edge(s0, d0, t0)
                .add_edge(s1, d1, t1),
        )
        .unwrap();
        assert_eq!(built(&sg), [false; 4]);
        assert!(sg.halo_rows() > 0 && sg.edge_cut_fraction() > 0.0);
        assert_eq!(built(&sg), [true; 4]);
        assert_eq!(extracted(&sg), [false; 4]);
        let edges = sg.shard(2).view().data().graph().num_edges();
        assert_eq!(edges, sg.shard(2).edge_map().len());
        assert_eq!(extracted(&sg), [false, false, true, false]);
        sg.try_apply(&DeltaBatch::new().add_edge(s0, d0, t0))
            .unwrap();
        let fresh = ShardedGraph::partition(
            sg.full().clone(),
            Box::new(HashPartitioner::new(5)),
            ShardConfig::new(4),
        );
        for s in 0..4 {
            let (got, want) = (sg.shard(s), fresh.shard(s));
            assert_eq!(got.graph(), want.graph(), "shard {s}");
            assert_eq!(got.edge_map(), want.edge_map(), "shard {s}");
            assert_eq!(got.view().edge_map(), want.edge_map(), "shard {s}");
        }
    }

    /// A node-operation repartition leaves every shard unbuilt too, and
    /// the first read builds the post-delta shard.
    #[test]
    fn node_op_repartition_builds_no_shard() {
        let g = graph();
        let mut sg =
            ShardedGraph::partition(g.clone(), Box::new(RangePartitioner), ShardConfig::new(3));
        assert_eq!(
            sg.shard(1).graph().num_nodes(),
            sg.shard(1).node_map().len()
        );
        sg.apply(&DeltaBatch::new().add_node(1).remove_node(4));
        assert_eq!(built(&sg), [false; 3]);
        let fresh = ShardedGraph::partition(
            sg.full().clone(),
            Box::new(RangePartitioner),
            ShardConfig::new(3),
        );
        assert_eq!(sg.shard(1).graph(), fresh.shard(1).graph());
        assert_eq!(built(&sg), [false, true, false]);
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

    #[test]
    fn edge_delta_invalidates_only_affected_shards() {
        let g = graph();
        let mut sg =
            ShardedGraph::partition(g.clone(), Box::new(RangePartitioner), ShardConfig::new(4));
        // Pick an existing edge and re-add a parallel copy: its dst is
        // interior to exactly one shard under hops=1 range partitioning.
        let (s0, d0, t0) = (g.src()[0], g.dst()[0], g.etype()[0]);
        let owner = sg.owner()[d0 as usize] as usize;
        let out = sg.apply(&DeltaBatch::new().add_edge(s0, d0, t0));
        assert_eq!(out.version, 1);
        assert_eq!(out.affected, vec![owner]);
        assert!(!out.repartitioned);
        assert_eq!(sg.full().num_edges(), g.num_edges() + 1);

        // Unaffected shards still index real edges after the remap shift.
        for (i, sh) in (0..4).map(|s| sg.shard(s)).enumerate() {
            for (le, &oe) in sh.edge_map().iter().enumerate() {
                assert_eq!(
                    sh.node_map()[sh.graph().src()[le] as usize],
                    sg.full().src()[oe as usize],
                    "shard {i} local edge {le} remap broke"
                );
                assert_eq!(sh.graph().etype()[le], sg.full().etype()[oe as usize]);
            }
        }
    }

    #[test]
    fn affected_shard_rebuild_matches_fresh_partition() {
        // After an edge-only delta, every shard (affected or shifted)
        // must equal what a from-scratch partition of the new graph
        // produces.
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
            for s in 0..3 {
                let (got, want) = (sg.shard(s), fresh.shard(s));
                assert_eq!(got.interior(), want.interior(), "hops={hops} shard {s}");
                assert_eq!(got.node_map(), want.node_map(), "hops={hops} shard {s}");
                assert_eq!(got.edge_map(), want.edge_map(), "hops={hops} shard {s}");
                assert_eq!(got.graph().src(), want.graph().src());
                assert_eq!(got.graph().dst(), want.graph().dst());
                assert_eq!(got.graph().etype_ptr(), want.graph().etype_ptr());
            }
        }
    }

    #[test]
    fn node_delta_forces_repartition() {
        let g = graph();
        let mut sg =
            ShardedGraph::partition(g.clone(), Box::new(RangePartitioner), ShardConfig::new(2));
        let out = sg.apply(&DeltaBatch::new().add_node(0));
        assert!(out.repartitioned);
        assert_eq!(out.affected, vec![0, 1]);
        assert_eq!(sg.full().num_nodes(), g.num_nodes() + 1);
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
        for s in 0..3 {
            let (got, want) = (kept.shard(s), built.shard(s));
            assert_eq!(got.graph(), want.graph(), "shard {s}");
            assert_eq!(got.node_map(), want.node_map(), "shard {s}");
            assert_eq!(got.edge_map(), want.edge_map(), "shard {s}");
            assert_eq!(got.owned(), want.owned(), "shard {s}");
            assert_eq!(got.interior(), want.interior(), "shard {s}");
        }
    }

    #[test]
    fn single_shard_covers_everything_with_no_halo() {
        let g = graph();
        let sg = ShardedGraph::partition(g.clone(), Box::new(GreedyEdgeCut), ShardConfig::new(1));
        assert_eq!(sg.shard(0).node_map().len(), g.num_nodes());
        assert_eq!(sg.shard(0).edge_map().len(), g.num_edges());
        assert_eq!(sg.halo_rows(), 0);
        assert_eq!(sg.edge_cut_fraction(), 0.0);
    }
}
