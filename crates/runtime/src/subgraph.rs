//! The one view a run takes of part of a graph: [`Subgraph`].
//!
//! A sampled mini-batch and a row-scoped forward are the same thing to
//! the kernels: an induced subgraph of the full graph, re-packed as a
//! small, self-contained [`HeteroGraph`] in the same kernel-ready layout
//! (type-sorted nodes, relation-sorted edges, segment pointers), plus
//! the remap tables (`node_map`, `edge_map`) that slice full-graph
//! features, labels and edge data into local order, and the local rows
//! the view answers for — a batch's seeds, the rows
//! [`crate::Engine::forward_rows`] was asked for.
//!
//! The re-pack is [`hector_graph::extract_mapped`], whose module docs
//! give the two layout properties that make it cheap, deterministic and
//! bit-exact. The extracted graph is moved into the view's
//! [`GraphData`] (CSC, compaction map) once, when the view is built: the
//! view holds the one copy, and a [`crate::Batch`] or an engine run
//! shares it.
//!
//! The subgraph always declares the **full graph's type counts** —
//! relations or node types absent from it get empty segments — so
//! per-relation and per-type parameter stacks keep their shapes across
//! every view and one parameter store serves them all.

use hector_graph::{extract_mapped, HeteroGraph, SampledBatch};
use hector_ir::{Space, VarInfo};
use hector_tensor::Tensor;

use crate::session::{graph_input, Bindings};
use crate::GraphData;

/// Part of a full graph re-packed as a self-contained graph with its
/// derived indices, plus the remap tables tying local ids back to the
/// full graph and the local rows the view answers for.
#[derive(Clone, Debug)]
pub struct Subgraph {
    data: GraphData,
    node_map: Vec<u32>,
    edge_map: Vec<u32>,
    rows: Vec<u32>,
}

impl Subgraph {
    /// Extracts a sampled batch from `full`; its seeds are the rows the
    /// view answers for.
    ///
    /// # Panics
    ///
    /// Panics if the batch references ids outside `full`.
    #[must_use]
    pub fn extract(full: &HeteroGraph, batch: &SampledBatch) -> Subgraph {
        // Ascending original node ids == type-grouped local order;
        // ascending original edge ids == relation-grouped local order.
        let mut node_map = batch.nodes.clone();
        node_map.sort_unstable();
        debug_assert!(node_map.windows(2).all(|w| w[0] < w[1]), "duplicate node");
        let mut edge_map = batch.edges.clone();
        edge_map.sort_unstable();
        Subgraph::new(full, node_map, edge_map, &batch.seeds)
    }

    /// Extracts the view of `full` on the nodes `node_map` and the edges
    /// `edge_map` (both strictly ascending original ids; every edge's
    /// endpoints among the nodes), answering for the original nodes
    /// `rows`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if the maps reference ids outside `full`, if an edge
    /// endpoint or a row is missing from `node_map`.
    fn new(full: &HeteroGraph, node_map: Vec<u32>, edge_map: Vec<u32>, rows: &[u32]) -> Subgraph {
        let data = GraphData::new(extract_mapped(full, &node_map, &edge_map));
        let mut view = Subgraph {
            data,
            node_map,
            edge_map,
            rows: Vec::new(),
        };
        view.rows = rows.iter().map(|&v| view.local_node(v)).collect();
        view
    }

    /// The exact in-closure of `rows` through `depth` aggregation layers,
    /// extracted: see [`Subgraph::in_closure_maps`]. Every interior node
    /// keeps all its in-edges, so a `depth`-layer model computes the
    /// rows' outputs here exactly as on `full`. Duplicate rows answer
    /// twice.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range for `full`.
    pub(crate) fn in_closure(full: &GraphData, rows: &[u32], depth: usize) -> Subgraph {
        let (node_map, edge_map) = Subgraph::in_closure_maps(full, rows, depth);
        Subgraph::new(full.graph(), node_map, edge_map, rows)
    }

    /// The closure walk behind [`crate::Engine::forward_rows`],
    /// extracting nothing: the rows expanded `depth - 1` steps backward
    /// along edges over the CSC (the interior), every in-edge of the
    /// interior, and those edges' sources. Returns the reached node ids
    /// and the interior's in-edges, both ascending.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range for `full`.
    #[must_use]
    pub fn in_closure_maps(full: &GraphData, rows: &[u32], depth: usize) -> (Vec<u32>, Vec<u32>) {
        let (g, csc) = (full.graph(), full.csc());
        let mut reached = vec![false; g.num_nodes()];
        let mut frontier: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|&v| !std::mem::replace(&mut reached[v as usize], true))
            .collect();
        let mut edge_map = Vec::new();
        // Step `i` takes the nodes `i` edges back: interior while
        // `i < depth`, so their in-edges and sources join.
        for _ in 0..depth {
            let mut next = Vec::new();
            for &v in &frontier {
                for &e in csc.in_edges(v as usize) {
                    edge_map.push(e);
                    let s = g.src()[e as usize];
                    if !std::mem::replace(&mut reached[s as usize], true) {
                        next.push(s);
                    }
                }
            }
            frontier = next;
        }
        edge_map.sort_unstable();
        let node_map = (0..g.num_nodes() as u32)
            .filter(|&v| reached[v as usize])
            .collect();
        (node_map, edge_map)
    }

    /// The extracted graph with its derived indices: what a run of this
    /// view executes on.
    #[must_use]
    pub fn data(&self) -> &GraphData {
        &self.data
    }

    /// The extracted graph (local ids).
    #[must_use]
    pub fn graph(&self) -> &HeteroGraph {
        self.data.graph()
    }

    /// Original node id of each local node (`node_map[local] = original`;
    /// strictly ascending).
    #[must_use]
    pub fn node_map(&self) -> &[u32] {
        &self.node_map
    }

    /// Original edge index of each local edge (strictly ascending).
    #[must_use]
    pub fn edge_map(&self) -> &[u32] {
        &self.edge_map
    }

    /// Local ids of the rows the view answers for, in the order given at
    /// construction: a batch's seeds (the rows the loss reads), the rows
    /// of a row-scoped forward.
    #[must_use]
    pub fn seed_local(&self) -> &[u32] {
        &self.rows
    }

    /// Local id of an original node.
    ///
    /// # Panics
    ///
    /// Panics if `orig` is not in the view's node set.
    #[must_use]
    pub fn local_node(&self, orig: u32) -> u32 {
        self.node_map
            .binary_search(&orig)
            .expect("node not extracted") as u32
    }

    /// Gathers per-node rows from a full-graph array into local order:
    /// `out[local * width ..]` gets `src[node_map[local] * width ..]`.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`out` are shorter than the implied row counts.
    pub fn gather_node_rows(&self, src: &[f32], out: &mut [f32], width: usize) {
        gather_rows(&self.node_map, src, out, width);
    }

    /// Gathers per-node values (e.g. labels) into local order.
    #[must_use]
    pub fn gather_node_values<T: Copy>(&self, src: &[T]) -> Vec<T> {
        self.node_map.iter().map(|&o| src[o as usize]).collect()
    }

    /// Slices full-graph input bindings into local row order: node-space
    /// inputs gather `node_map` rows, edge-space inputs gather `edge_map`
    /// rows, and a graph-derived input (the RGCN `cnorm` constants) is
    /// **recomputed on the view's graph** (normalisation denominators
    /// are local in-degrees; slicing the full-graph constants would
    /// under-count destinations whose edges were sampled away — for an
    /// in-closure's interior, which keeps every in-edge, the recomputed
    /// values equal the full-graph ones bitwise).
    ///
    /// # Panics
    ///
    /// Panics if a seed-derived input is missing from `full`, or if a
    /// remap entry indexes outside its rows.
    #[must_use]
    pub fn gather_inputs(&self, inputs: &[VarInfo], full: &Bindings) -> Bindings {
        let mut bindings = Bindings::new();
        for info in inputs {
            if let Some(derive) = graph_input(&info.name) {
                bindings.set(&info.name, derive(&self.data));
                continue;
            }
            let src = full
                .get(&info.name)
                .unwrap_or_else(|| panic!("missing input binding '{}'", info.name));
            let map = match info.space {
                Space::Node => &self.node_map,
                Space::Edge => &self.edge_map,
                Space::Compact => unreachable!("programs declare node/edge inputs only"),
            };
            let mut data = vec![0.0f32; map.len() * info.width];
            gather_rows(map, src.data(), &mut data, info.width);
            bindings.set(&info.name, Tensor::from_vec(data, &[map.len(), info.width]));
        }
        bindings
    }
}

/// `out[local * width ..]` gets `src[map[local] * width ..]`.
fn gather_rows(map: &[u32], src: &[f32], out: &mut [f32], width: usize) {
    for (local, &orig) in map.iter().enumerate() {
        let o = orig as usize * width;
        out[local * width..(local + 1) * width].copy_from_slice(&src[o..o + width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::{generate, DatasetSpec, NeighborSampler, SamplerConfig};

    fn graph() -> HeteroGraph {
        generate(&DatasetSpec {
            name: "subgraph".into(),
            num_nodes: 150,
            num_node_types: 3,
            num_edges: 1100,
            num_edge_types: 5,
            compaction_ratio: 0.6,
            type_skew: 1.2,
            seed: 21,
        })
    }

    /// The in-closure as a whole-graph scan: the rows expanded
    /// `depth - 1` steps backward one edge sweep at a time, every edge
    /// into that interior, and the sources of those edges.
    fn closure_by_scan(g: &HeteroGraph, rows: &[u32], depth: usize) -> (Vec<u32>, Vec<u32>) {
        let mut interior = vec![false; g.num_nodes()];
        for &v in rows {
            interior[v as usize] = true;
        }
        for _ in 1..depth {
            let frontier: Vec<usize> = (0..g.num_edges())
                .filter(|&e| interior[g.dst()[e] as usize])
                .map(|e| g.src()[e] as usize)
                .collect();
            for v in frontier {
                interior[v] = true;
            }
        }
        let mut nodes = interior.clone();
        let mut edges = Vec::new();
        for e in 0..g.num_edges() {
            if interior[g.dst()[e] as usize] {
                edges.push(e as u32);
                nodes[g.src()[e] as usize] = true;
            }
        }
        let nodes = (0..g.num_nodes() as u32)
            .filter(|&v| nodes[v as usize])
            .collect();
        (nodes, edges)
    }

    /// The frontier walk over the CSC selects what the whole-graph scan
    /// does, at every depth, with repeated rows answered in order; and a
    /// view built from the same maps equals the batch extraction.
    #[test]
    fn in_closure_equals_the_scan_and_the_batch_extraction() {
        let full = GraphData::new(graph());
        let rows = [40u32, 3, 17, 40, 41];
        for depth in 1..4 {
            let view = Subgraph::in_closure(&full, &rows, depth);
            let (nodes, edges) = closure_by_scan(full.graph(), &rows, depth);
            assert_eq!(view.node_map(), nodes, "depth {depth}");
            assert_eq!(view.edge_map(), edges, "depth {depth}");
            let batch = SampledBatch {
                index: 0,
                seeds: rows.to_vec(),
                nodes,
                edges,
            };
            let eager = Subgraph::extract(full.graph(), &batch);
            assert_eq!(view.data(), eager.data(), "depth {depth}");
            assert_eq!(view.seed_local(), eager.seed_local(), "depth {depth}");
            let answered: Vec<u32> = view
                .seed_local()
                .iter()
                .map(|&l| view.node_map()[l as usize])
                .collect();
            assert_eq!(answered, rows);
        }
    }

    #[test]
    fn extract_preserves_type_counts_and_structure() {
        let g = graph();
        let cfg = SamplerConfig::new(20).fanouts(&[4, 3]);
        let s = NeighborSampler::new(&g, &cfg, 13);
        for k in 0..s.num_batches().min(3) {
            let batch = s.sample(&g, k);
            let sub = Subgraph::extract(&g, &batch);
            sub.graph().validate();
            assert_eq!(sub.graph().num_edge_types(), g.num_edge_types());
            assert_eq!(sub.graph().num_node_types(), g.num_node_types());
            assert_eq!(sub.graph().num_nodes(), batch.nodes.len());
            assert_eq!(sub.graph().num_edges(), batch.edges.len());
            assert!(std::ptr::eq(sub.graph(), sub.data().graph()));
        }
    }

    #[test]
    fn remap_is_edge_exact() {
        let g = graph();
        let cfg = SamplerConfig::new(16).fanouts(&[3, 2]);
        let s = NeighborSampler::new(&g, &cfg, 29);
        let batch = s.sample(&g, 1);
        let sub = Subgraph::extract(&g, &batch);
        for le in 0..sub.graph().num_edges() {
            let oe = sub.edge_map()[le] as usize;
            assert_eq!(
                sub.node_map()[sub.graph().src()[le] as usize],
                g.src()[oe],
                "src remap mismatch at local edge {le}"
            );
            assert_eq!(sub.node_map()[sub.graph().dst()[le] as usize], g.dst()[oe]);
            assert_eq!(sub.graph().etype()[le], g.etype()[oe]);
        }
        // Node types survive the remap.
        for (l, &o) in sub.node_map().iter().enumerate() {
            assert_eq!(
                sub.graph().node_type()[l],
                g.node_type()[o as usize],
                "node type remap mismatch at local node {l}"
            );
            assert_eq!(sub.local_node(o), l as u32);
        }
    }

    #[test]
    fn seed_rows_resolve_and_gather_round_trips() {
        let g = graph();
        let cfg = SamplerConfig::new(16).fanouts(&[3]);
        let s = NeighborSampler::new(&g, &cfg, 31);
        let batch = s.sample(&g, 0);
        let sub = Subgraph::extract(&g, &batch);
        assert_eq!(sub.seed_local().len(), batch.seeds.len());
        for (i, &l) in sub.seed_local().iter().enumerate() {
            assert_eq!(sub.node_map()[l as usize], batch.seeds[i]);
        }
        // gather_node_rows: row v of the full array is v broadcast.
        let width = 3;
        let full: Vec<f32> = (0..g.num_nodes())
            .flat_map(|v| std::iter::repeat_n(v as f32, width))
            .collect();
        let mut out = vec![0.0f32; sub.graph().num_nodes() * width];
        sub.gather_node_rows(&full, &mut out, width);
        for (l, &o) in sub.node_map().iter().enumerate() {
            assert!(out[l * width..(l + 1) * width]
                .iter()
                .all(|&x| x == o as f32));
        }
        // gather_node_values round-trips labels.
        let labels: Vec<usize> = (0..g.num_nodes()).map(|v| v % 7).collect();
        let got = sub.gather_node_values(&labels);
        for (l, &o) in sub.node_map().iter().enumerate() {
            assert_eq!(got[l], labels[o as usize]);
        }
    }

    #[test]
    fn empty_relations_keep_segment_pointers() {
        // A batch that samples zero edges still yields a graph with the
        // full relation count and all-empty segments.
        let g = graph();
        let batch = SampledBatch {
            index: 0,
            seeds: vec![0, 1],
            nodes: vec![0, 1],
            edges: vec![],
        };
        let sub = Subgraph::extract(&g, &batch);
        assert_eq!(sub.graph().num_edge_types(), g.num_edge_types());
        assert_eq!(sub.graph().num_edges(), 0);
        assert_eq!(sub.graph().etype_ptr().len(), g.num_edge_types() + 1);
    }

    /// Node and edge inputs gather their rows through the maps; `cnorm`
    /// is the view graph's own.
    #[test]
    fn gathered_inputs_follow_the_maps_and_recompute_cnorm() {
        let g = graph();
        let s = NeighborSampler::new(&g, &SamplerConfig::new(16).fanouts(&[3]), 5);
        let sub = Subgraph::extract(&g, &s.sample(&g, 0));
        let var = |name: &str, space, width| VarInfo {
            name: name.into(),
            space,
            width,
        };
        let inputs = [
            var("h", Space::Node, 2),
            var("e", Space::Edge, 1),
            var("cnorm", Space::Edge, 1),
        ];
        let mut full = Bindings::new();
        let rows =
            |n: usize, w: usize| Tensor::from_vec((0..n * w).map(|i| i as f32).collect(), &[n, w]);
        full.set("h", rows(g.num_nodes(), 2));
        full.set("e", rows(g.num_edges(), 1));
        let got = sub.gather_inputs(&inputs, &full);
        for (l, &o) in sub.node_map().iter().enumerate() {
            let o = 2.0 * o as f32;
            assert_eq!(got.get("h").unwrap().data()[l * 2..l * 2 + 2], [o, o + 1.0]);
        }
        for (l, &o) in sub.edge_map().iter().enumerate() {
            assert_eq!(got.get("e").unwrap().data()[l], o as f32);
        }
        let cnorm = crate::cnorm_tensor(sub.data());
        assert_eq!(got.get("cnorm").unwrap().data(), cnorm.data());
    }
}
