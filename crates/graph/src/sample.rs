//! Seeded neighbor sampling for mini-batch training.
//!
//! Full-graph training stops scaling once the graph outgrows the cache;
//! the mini-batch literature (PIGEON, "Accelerating Mini-batch HGNN
//! Training by Reducing CUDA Kernels") moves the cost to *sampled
//! subgraphs*: pick a batch of seed nodes, walk their incoming edges a
//! fixed number of hops with a per-relation fanout cap, and train on the
//! induced subgraph. This module provides the sampling half; the
//! runtime's `Subgraph` provides the extraction half (through
//! [`crate::extract_mapped`]).
//!
//! # Determinism contract
//!
//! Every stochastic choice flows through RNG streams derived from
//! `(trainer seed, epoch, batch index)` via [`batch_stream_seed`] — the
//! same discipline as the runtime's `Bindings::standard` input streams.
//! Batch `k`'s content is a pure function of the sampler's construction
//! inputs and `k`: independent of `HECTOR_THREADS`, of whether a
//! prefetch pipeline produced it ahead of time, and of how many batches
//! were drawn before it. A fixed seed therefore yields a bitwise
//! identical batch sequence under every execution configuration (pinned
//! by `tests/minibatch.rs`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Csc, HeteroGraph};

/// Configuration of the mini-batch sampler and pipeline.
///
/// `batch_size` seed nodes per batch; `fanouts[h]` caps the number of
/// in-edges sampled **per (node, relation)** at hop `h` (so a 2-relation
/// node can contribute up to `2 * fanouts[h]` edges); `pipeline` enables
/// the producer/consumer prefetch (sampling batch `k+1` on a background
/// worker while batch `k` trains — contents are bit-identical either
/// way); `epoch` selects an independent shuffle/sample stream so
/// successive epochs see different batches from the same trainer seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Seed nodes per batch (the last batch of an epoch may be smaller).
    pub batch_size: usize,
    /// Per-hop, per-relation in-edge fanout caps; `len()` is the number
    /// of hops.
    pub fanouts: Vec<usize>,
    /// Sample batch `k+1` on a background worker while batch `k` trains.
    pub pipeline: bool,
    /// Epoch index mixed into every RNG stream.
    pub epoch: u64,
}

impl SamplerConfig {
    /// A config with the given batch size, 2-hop `[10, 5]` fanouts, and
    /// the pipeline enabled.
    #[must_use]
    pub fn new(batch_size: usize) -> SamplerConfig {
        SamplerConfig {
            batch_size: batch_size.max(1),
            fanouts: vec![10, 5],
            pipeline: true,
            epoch: 0,
        }
    }

    /// Replaces the per-hop fanout caps.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty (at least one hop is required).
    #[must_use]
    pub fn fanouts(mut self, fanouts: &[usize]) -> SamplerConfig {
        assert!(!fanouts.is_empty(), "at least one hop is required");
        self.fanouts = fanouts.to_vec();
        self
    }

    /// Enables or disables the prefetch pipeline.
    #[must_use]
    pub fn pipeline(mut self, on: bool) -> SamplerConfig {
        self.pipeline = on;
        self
    }

    /// Selects the epoch stream.
    #[must_use]
    pub fn epoch(mut self, epoch: u64) -> SamplerConfig {
        self.epoch = epoch;
        self
    }
}

/// One sampled batch: seed nodes, every node reached within the fanout
/// walk (seeds first, then discovery order), and the sampled original
/// edge indices (hop by hop, in walk order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledBatch {
    /// Batch index within the epoch.
    pub index: usize,
    /// Seed (output) nodes, original ids, in epoch-shuffle order.
    pub seeds: Vec<u32>,
    /// All sampled nodes, original ids: `seeds` first, then newly
    /// discovered sources in discovery order.
    pub nodes: Vec<u32>,
    /// Sampled edges as indices into the full graph's COO arrays.
    pub edges: Vec<u32>,
}

/// Derives the RNG stream seed for `(trainer seed, epoch, stream)`.
///
/// SplitMix64-style finalizer over a linear combination: distinct
/// `(seed, epoch, stream)` triples map to decorrelated streams, and the
/// mapping is pure — the reproducibility anchor of the whole sampler.
#[must_use]
pub fn batch_stream_seed(seed: u64, epoch: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(stream.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream id of the epoch's seed-node shuffle (batch streams use the
/// batch index, so the shuffle stream sits far outside that range).
const SHUFFLE_STREAM: u64 = u64::MAX;

/// A seeded per-relation fanout sampler over a heterogeneous graph's
/// incoming edges (the CSC view — seed nodes are *destinations*, as in
/// message-passing training where seeds are the nodes whose outputs the
/// loss reads).
///
/// Construction shuffles all nodes into an epoch order and owns a CSC
/// view; [`NeighborSampler::sample`] is `&self` and pure per batch
/// index, so batches can be drawn concurrently or out of order without
/// changing any batch's content.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    csc: Csc,
    order: Vec<u32>,
    batch_size: usize,
    fanouts: Vec<usize>,
    seed: u64,
    epoch: u64,
}

impl NeighborSampler {
    /// Builds a sampler for `graph` from the given config and trainer
    /// seed (see the module-level determinism contract).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.fanouts` is empty.
    #[must_use]
    pub fn new(graph: &HeteroGraph, cfg: &SamplerConfig, seed: u64) -> NeighborSampler {
        assert!(!cfg.fanouts.is_empty(), "at least one hop is required");
        let n = graph.num_nodes();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(seed, cfg.epoch, SHUFFLE_STREAM));
        // Fisher–Yates from the epoch shuffle stream.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        NeighborSampler {
            csc: graph.csc(),
            order,
            batch_size: cfg.batch_size.max(1),
            fanouts: cfg.fanouts.clone(),
            seed,
            epoch: cfg.epoch,
        }
    }

    /// Number of batches in one epoch (`ceil(num_nodes / batch_size)`).
    #[must_use]
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// Seed nodes of batch `k` (original ids, epoch-shuffle order).
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_batches()`.
    #[must_use]
    pub fn batch_seeds(&self, k: usize) -> &[u32] {
        let lo = k * self.batch_size;
        let hi = (lo + self.batch_size).min(self.order.len());
        &self.order[lo..hi]
    }

    /// Samples batch `k`: expands the seed frontier hop by hop, capping
    /// sampled in-edges per `(node, relation)` at the hop's fanout.
    /// Pure in `k` — see the module-level determinism contract.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_batches()`.
    #[must_use]
    pub fn sample(&self, graph: &HeteroGraph, k: usize) -> SampledBatch {
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(self.seed, self.epoch, k as u64));
        let seeds: Vec<u32> = self.batch_seeds(k).to_vec();
        let mut visited = vec![false; graph.num_nodes()];
        let mut nodes = seeds.clone();
        for &s in &seeds {
            visited[s as usize] = true;
        }
        let mut edges: Vec<u32> = Vec::new();
        let mut frontier_lo = 0usize;
        let mut pick: Vec<u32> = Vec::new();
        for &fanout in &self.fanouts {
            let frontier_hi = nodes.len();
            for &node in &nodes[frontier_lo..frontier_hi] {
                let v = node as usize;
                let in_edges = self.csc.in_edges(v);
                // In-edges of one node are ascending edge indices, and
                // edges are globally sorted by relation — so the slice is
                // grouped by relation; walk each contiguous group.
                let mut g = 0usize;
                while g < in_edges.len() {
                    let ty = graph.etype()[in_edges[g] as usize];
                    let mut g_end = g + 1;
                    while g_end < in_edges.len() && graph.etype()[in_edges[g_end] as usize] == ty {
                        g_end += 1;
                    }
                    let group = &in_edges[g..g_end];
                    if group.len() <= fanout {
                        pick.extend_from_slice(group);
                    } else {
                        // Partial Fisher–Yates: the first `fanout`
                        // positions of a shuffle, in shuffle order.
                        pick.extend_from_slice(group);
                        let base = pick.len() - group.len();
                        for i in 0..fanout {
                            let j = rng.gen_range(i..group.len());
                            pick.swap(base + i, base + j);
                        }
                        pick.truncate(base + fanout);
                    }
                    g = g_end;
                }
            }
            for &e in &pick {
                let s = graph.src()[e as usize];
                if !visited[s as usize] {
                    visited[s as usize] = true;
                    nodes.push(s);
                }
            }
            edges.append(&mut pick);
            frontier_lo = frontier_hi;
            if frontier_lo == nodes.len() {
                break; // no new nodes — further hops sample nothing new
            }
        }
        SampledBatch {
            index: k,
            seeds,
            nodes,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetSpec};

    fn graph() -> HeteroGraph {
        generate(&DatasetSpec {
            name: "sample".into(),
            num_nodes: 120,
            num_node_types: 3,
            num_edges: 900,
            num_edge_types: 4,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 5,
        })
    }

    #[test]
    fn batches_cover_all_nodes_once_per_epoch() {
        let g = graph();
        let cfg = SamplerConfig::new(32);
        let s = NeighborSampler::new(&g, &cfg, 7);
        assert_eq!(s.num_batches(), 4);
        let mut seen = vec![0usize; g.num_nodes()];
        for k in 0..s.num_batches() {
            for &n in s.batch_seeds(k) {
                seen[n as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each node seeds exactly once");
    }

    #[test]
    fn sample_is_pure_per_batch_index() {
        let g = graph();
        let cfg = SamplerConfig::new(16).fanouts(&[3, 2]);
        let s = NeighborSampler::new(&g, &cfg, 11);
        let a = s.sample(&g, 2);
        // Drawing other batches first (or again) cannot perturb batch 2.
        let _ = s.sample(&g, 0);
        let _ = s.sample(&g, 3);
        let b = s.sample(&g, 2);
        assert_eq!(a, b);
        // And a rebuilt sampler reproduces it bitwise.
        let s2 = NeighborSampler::new(&g, &cfg, 11);
        assert_eq!(s2.sample(&g, 2), a);
    }

    #[test]
    fn distinct_seeds_epochs_diverge() {
        let g = graph();
        let cfg = SamplerConfig::new(16).fanouts(&[3]);
        let a = NeighborSampler::new(&g, &cfg, 1).sample(&g, 0);
        let b = NeighborSampler::new(&g, &cfg, 2).sample(&g, 0);
        let c = NeighborSampler::new(&g, &cfg.clone().epoch(1), 1).sample(&g, 0);
        assert_ne!(a, b, "different trainer seeds must differ");
        assert_ne!(a, c, "different epochs must differ");
    }

    #[test]
    fn fanout_caps_per_node_relation() {
        let g = graph();
        let fanout = 2usize;
        let cfg = SamplerConfig::new(24).fanouts(&[fanout]);
        let s = NeighborSampler::new(&g, &cfg, 3);
        let batch = s.sample(&g, 0);
        let mut count = std::collections::HashMap::new();
        for &e in &batch.edges {
            let key = (g.dst()[e as usize], g.etype()[e as usize]);
            *count.entry(key).or_insert(0usize) += 1;
        }
        assert!(count.values().all(|&c| c <= fanout));
        // Sampled edges are unique.
        let mut uniq = batch.edges.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), batch.edges.len());
    }

    #[test]
    fn nodes_start_with_seeds_and_cover_endpoints() {
        let g = graph();
        let cfg = SamplerConfig::new(16).fanouts(&[4, 4]);
        let s = NeighborSampler::new(&g, &cfg, 9);
        let batch = s.sample(&g, 1);
        assert_eq!(&batch.nodes[..batch.seeds.len()], &batch.seeds[..]);
        let set: std::collections::HashSet<u32> = batch.nodes.iter().copied().collect();
        assert_eq!(set.len(), batch.nodes.len(), "nodes are unique");
        for &e in &batch.edges {
            assert!(set.contains(&g.src()[e as usize]));
            assert!(set.contains(&g.dst()[e as usize]));
        }
    }
}
