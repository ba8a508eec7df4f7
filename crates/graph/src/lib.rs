//! Heterogeneous graph substrate for the Hector RGNN compiler.
//!
//! Relational GNNs run on *heterogeneous* graphs: nodes and edges carry
//! types, and every typed operator (typed linear layers, per-relation
//! aggregation) is driven by the type structure. This crate provides:
//!
//! * [`HeteroGraph`] — typed nodes and edges with the storage layout the
//!   paper's kernels expect: edges sorted by edge type with an
//!   `etype_ptr` segment array (enabling segment matrix multiply), plus
//!   COO arrays and on-demand CSR/CSC views for traversal kernels;
//!   [`HeteroGraph::splice_edges`] removes and inserts edges by bulk
//!   segment copies (renumbering endpoints through a [`NodeMap`] when
//!   nodes come and go), and its [`EdgeSplice`] lets [`Csc::spliced`]
//!   and [`CompactionMap::spliced`] carry the indices across an
//!   edge-only splice instead of rebuilding them;
//! * [`CompactionMap`] — the unique `(source node, edge type)` index used
//!   by *compact materialization* (paper §3.2.2), including the
//!   `unique_row_idx` / `unique_etype_ptr` arrays of Fig. 7(b);
//! * [`DatasetSpec`] and [`generate`] — seeded synthetic generators with
//!   presets matching the eight heterogeneous datasets of the paper's
//!   Table 3 (aifb, am, bgs, biokg, fb15k, mag, mutag, wikikg2),
//!   including their entity-compaction ratios;
//! * [`GraphStats`] — the per-dataset statistics reported in Table 3 and
//!   Fig. 10;
//! * [`NeighborSampler`] — seeded per-relation fanout sampling for
//!   mini-batch training (the PIGEON direction); batch content is a
//!   pure function of `(seed, epoch, batch index)`, independent of
//!   thread count and prefetch pipelining;
//! * [`extract_mapped`] — the re-pack of a node and edge id set as a
//!   self-contained graph with the full graph's type counts, under the
//!   runtime's `Subgraph` view of a sampled batch or a row closure.
//!
//! # Example
//!
//! ```
//! use hector_graph::datasets;
//!
//! // A laptop-scale copy of the FB15k preset (1% of paper scale).
//! let spec = datasets::fb15k().scaled(0.01);
//! let graph = hector_graph::generate(&spec);
//! assert!(graph.num_edges() > 0);
//! let compact = graph.compaction_map();
//! assert!(compact.num_unique() <= graph.num_edges());
//! ```

#![warn(missing_docs)]

mod compact;
pub mod datasets;
mod generate;
mod hetero;
pub mod remap;
mod sample;
mod stats;

pub use compact::CompactionMap;
pub use generate::{generate, DatasetSpec};
pub use hetero::{Csc, Csr, EdgeSplice, HeteroGraph, HeteroGraphBuilder, NodeMap};
pub use remap::extract_mapped;
pub use sample::{batch_stream_seed, NeighborSampler, SampledBatch, SamplerConfig};
pub use stats::GraphStats;
