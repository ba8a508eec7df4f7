//! Compact materialization index: unique `(source node, edge type)` pairs.
//!
//! Paper §3.2.2: certain edgewise tensors (e.g. HGT/RGAT edge messages)
//! depend only on the source node and the edge type. Rather than storing
//! one row per *edge*, compact materialization stores one row per unique
//! `(source node, edge type)` pair and indirects edge accesses through a
//! precomputed CSR-like mapping. This both eliminates repeated identical
//! GEMM rows and shrinks the materialised tensor, which is what removes
//! the paper's out-of-memory failures (Table 4, Fig. 10).

use crate::{EdgeSplice, HeteroGraph};

/// Precomputed mapping between edges and unique `(src, etype)` pairs.
///
/// Mirrors the arrays of paper Fig. 7(b):
/// * `unique_row_idx` — for each unique pair, the source node whose
///   features feed the GEMM gather stage;
/// * `unique_etype_ptr` — offsets of each edge type's unique pairs, so the
///   per-type weight can be applied segment-wise;
/// * `edge_to_unique` — for each edge, the row of the compact tensor that
///   holds its data (used by downstream edgewise consumers).
#[derive(Clone, Debug, PartialEq)]
pub struct CompactionMap {
    unique_row_idx: Vec<u32>,
    unique_etype_ptr: Vec<usize>,
    edge_to_unique: Vec<u32>,
}

impl CompactionMap {
    /// Builds the map for `graph` in `O(E + N)`.
    ///
    /// A counting sort orders edge ids by source node (ties in id order);
    /// a stable scatter then drops them into their edge type's segment,
    /// so each segment lists its edges in `(src, edge id)` order and
    /// unique pairs are runs of equal sources.
    #[must_use]
    pub fn build(graph: &HeteroGraph) -> CompactionMap {
        let num_et = graph.num_edge_types();
        let (src, etype) = (graph.src(), graph.etype());
        let mut src_ptr = vec![0u32; graph.num_nodes() + 1];
        for &s in src {
            src_ptr[s as usize + 1] += 1;
        }
        for v in 0..graph.num_nodes() {
            src_ptr[v + 1] += src_ptr[v];
        }
        let mut by_src = vec![0u32; src.len()];
        for (e, &s) in src.iter().enumerate() {
            by_src[src_ptr[s as usize] as usize] = e as u32;
            src_ptr[s as usize] += 1;
        }
        let mut cursor = graph.etype_ptr()[..num_et].to_vec();
        let mut order = vec![0u32; src.len()];
        for &e in &by_src {
            let t = etype[e as usize] as usize;
            order[cursor[t]] = e;
            cursor[t] += 1;
        }

        let mut unique_row_idx = Vec::new();
        let mut unique_etype_ptr = vec![0usize; num_et + 1];
        let mut edge_to_unique = vec![0u32; src.len()];
        for t in 0..num_et {
            let mut last_src = u32::MAX;
            for &e in &order[graph.etype_ptr()[t]..graph.etype_ptr()[t + 1]] {
                let s = src[e as usize];
                if s != last_src {
                    unique_row_idx.push(s);
                    last_src = s;
                }
                edge_to_unique[e as usize] = (unique_row_idx.len() - 1) as u32;
            }
            unique_etype_ptr[t + 1] = unique_row_idx.len();
        }
        CompactionMap {
            unique_row_idx,
            unique_etype_ptr,
            edge_to_unique,
        }
    }

    /// The map of `new`, which `splice` made from `old` (the graph this
    /// map indexes), without a rebuild. Only the relations of removed
    /// edges are scanned, for pairs that lost their last edge; those
    /// drop out, pairs an insertion creates join their relation's
    /// source-ordered run, and every edge's compact row is remapped.
    /// Equal to `new.compaction_map()`.
    #[must_use]
    pub fn spliced(
        &self,
        old: &HeteroGraph,
        new: &HeteroGraph,
        splice: &EdgeSplice,
    ) -> CompactionMap {
        const GONE: u32 = u32::MAX;
        let old_to_new = splice.old_to_new();
        // Pairs of removed edges, and whether an edge still holds each.
        let mut lost: Vec<u32> = splice
            .removed()
            .iter()
            .map(|&e| self.edge_to_unique[e as usize])
            .collect();
        lost.sort_unstable();
        lost.dedup();
        let mut held = vec![false; lost.len()];
        let mut rels: Vec<u32> = splice
            .removed()
            .iter()
            .map(|&e| old.etype()[e as usize])
            .collect();
        rels.dedup(); // removed ids ascend, so relations do too
        for t in rels {
            let seg = old.etype_ptr()[t as usize]..old.etype_ptr()[t as usize + 1];
            for (&m, u) in old_to_new[seg.clone()]
                .iter()
                .zip(&self.edge_to_unique[seg])
            {
                if m != EdgeSplice::REMOVED {
                    if let Ok(i) = lost.binary_search(u) {
                        held[i] = true;
                    }
                }
            }
        }
        // Inserted edges either land on an existing pair (which then
        // survives) or create one.
        let mut fresh: Vec<(usize, u32)> = Vec::new();
        for &e in splice.inserted() {
            let (t, s) = (new.etype()[e as usize] as usize, new.src()[e as usize]);
            let (lo, hi) = (self.unique_etype_ptr[t], self.unique_etype_ptr[t + 1]);
            match self.unique_row_idx[lo..hi].binary_search(&s) {
                Ok(i) => {
                    if let Ok(j) = lost.binary_search(&((lo + i) as u32)) {
                        held[j] = true;
                    }
                }
                Err(_) => fresh.push((t, s)),
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        let mut gone = lost
            .iter()
            .zip(&held)
            .filter(|&(_, &h)| !h)
            .map(|(&u, _)| u as usize)
            .peekable();
        let mut fresh = fresh.into_iter().peekable();

        let num_et = self.unique_etype_ptr.len() - 1;
        let mut unique_row_idx = Vec::with_capacity(self.num_unique() + fresh.len());
        let mut unique_etype_ptr = vec![0usize; num_et + 1];
        let mut renumber = vec![GONE; self.num_unique()];
        for t in 0..num_et {
            let seg = self.unique_etype_ptr[t]..self.unique_etype_ptr[t + 1];
            for (u, &s) in seg.clone().zip(&self.unique_row_idx[seg]) {
                while let Some((_, f)) = fresh.next_if(|&(ft, f)| ft == t && f < s) {
                    unique_row_idx.push(f);
                }
                if gone.next_if(|&g| g == u).is_none() {
                    renumber[u] = unique_row_idx.len() as u32;
                    unique_row_idx.push(s);
                }
            }
            while let Some((_, f)) = fresh.next_if(|&(ft, _)| ft == t) {
                unique_row_idx.push(f);
            }
            unique_etype_ptr[t + 1] = unique_row_idx.len();
        }

        let mut edge_to_unique = vec![0u32; new.num_edges()];
        for (e, &m) in old_to_new.iter().enumerate() {
            if m != EdgeSplice::REMOVED {
                edge_to_unique[m as usize] = renumber[self.edge_to_unique[e] as usize];
            }
        }
        for &e in splice.inserted() {
            let (t, s) = (new.etype()[e as usize] as usize, new.src()[e as usize]);
            let lo = unique_etype_ptr[t];
            let i = unique_row_idx[lo..unique_etype_ptr[t + 1]]
                .binary_search(&s)
                .expect("every inserted pair is listed");
            edge_to_unique[e as usize] = (lo + i) as u32;
        }
        CompactionMap {
            unique_row_idx,
            unique_etype_ptr,
            edge_to_unique,
        }
    }

    /// Number of unique `(src, etype)` pairs — the row count of a
    /// compact-materialised tensor.
    #[must_use]
    pub fn num_unique(&self) -> usize {
        self.unique_row_idx.len()
    }

    /// Source node of each unique pair (the paper's `unique_row_idx`
    /// gather list).
    #[must_use]
    pub fn unique_row_idx(&self) -> &[u32] {
        &self.unique_row_idx
    }

    /// Edge type of each unique pair, recoverable from the segment
    /// pointers; materialised on demand for kernels that need it.
    #[must_use]
    pub fn unique_etype(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.num_unique()];
        for t in 0..self.unique_etype_ptr.len() - 1 {
            out[self.unique_etype_ptr[t]..self.unique_etype_ptr[t + 1]].fill(t as u32);
        }
        out
    }

    /// Offsets of each edge type's unique pairs (the paper's
    /// `unique_etype_ptr` scatter base).
    #[must_use]
    pub fn unique_etype_ptr(&self) -> &[usize] {
        &self.unique_etype_ptr
    }

    /// For each edge, the compact row holding its `(src, etype)` data.
    #[must_use]
    pub fn edge_to_unique(&self) -> &[u32] {
        &self.edge_to_unique
    }

    /// The *entity compaction ratio* of paper §4.3: unique pairs divided
    /// by edges. Lower means more redundancy eliminated.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.edge_to_unique.is_empty() {
            1.0
        } else {
            self.num_unique() as f64 / self.edge_to_unique.len() as f64
        }
    }

    /// Checks internal consistency against the owning graph.
    ///
    /// # Panics
    ///
    /// Panics if any edge maps to a unique pair with a different source or
    /// edge type, or if segment pointers are inconsistent.
    pub fn validate(&self, graph: &HeteroGraph) {
        assert_eq!(self.edge_to_unique.len(), graph.num_edges());
        assert_eq!(self.unique_etype_ptr.len(), graph.num_edge_types() + 1);
        assert_eq!(*self.unique_etype_ptr.last().unwrap(), self.num_unique());
        let ety = self.unique_etype();
        for e in 0..graph.num_edges() {
            let u = self.edge_to_unique[e] as usize;
            assert_eq!(
                self.unique_row_idx[u],
                graph.src()[e],
                "edge {e} src mismatch"
            );
            assert_eq!(ety[u], graph.etype()[e], "edge {e} etype mismatch");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeteroGraphBuilder;

    /// Fig. 6(a)/Fig. 7 example: 7 edges but only 5 unique (src,etype)
    /// pairs, because b writes... rather α writes twice and b cites twice.
    fn figure7_graph() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(6); // 0,1,2,a=3,b=4,α=5
        b.add_edge(5, 3, 0); // α writes a
        b.add_edge(5, 4, 0); // α writes b
        b.add_edge(1, 0, 1); // cites
        b.add_edge(2, 0, 1);
        b.add_edge(3, 0, 1); // a cites 0
        b.add_edge(4, 1, 1); // b cites 1
        b.add_edge(4, 2, 1); // b cites 2
        b.build()
    }

    #[test]
    fn compaction_matches_paper_example() {
        let g = figure7_graph();
        let c = g.compaction_map();
        // Unique pairs: (α,writes), (1,cites), (2,cites), (a,cites), (b,cites) = 5.
        assert_eq!(c.num_unique(), 5);
        assert_eq!(g.num_edges(), 7);
        assert!((c.ratio() - 5.0 / 7.0).abs() < 1e-12);
        c.validate(&g);
    }

    #[test]
    fn duplicate_edges_share_compact_rows() {
        let g = figure7_graph();
        let c = g.compaction_map();
        // Edges 0 and 1 (α writes a / α writes b) share (α, writes).
        assert_eq!(c.edge_to_unique()[0], c.edge_to_unique()[1]);
        // Edges 5 and 6 (b cites 1 / b cites 2) share (b, cites).
        assert_eq!(c.edge_to_unique()[5], c.edge_to_unique()[6]);
        // Edges 2 and 3 (1 cites 0 / 2 cites 0) do NOT share.
        assert_ne!(c.edge_to_unique()[2], c.edge_to_unique()[3]);
    }

    #[test]
    fn unique_etype_segments() {
        let g = figure7_graph();
        let c = g.compaction_map();
        assert_eq!(c.unique_etype_ptr(), &[0, 1, 5]);
        assert_eq!(c.unique_etype(), vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn ratio_is_one_without_duplicates() {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(3);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 0, 1);
        let g = b.build();
        let c = g.compaction_map();
        assert_eq!(c.num_unique(), 3);
        assert!((c.ratio() - 1.0).abs() < 1e-12);
        c.validate(&g);
    }

    #[test]
    fn empty_graph_ratio_is_one() {
        let g = HeteroGraphBuilder::new().build();
        let c = g.compaction_map();
        assert_eq!(c.num_unique(), 0);
        assert!((c.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_src_different_etype_not_compacted() {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(2);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let c = g.compaction_map();
        assert_eq!(c.num_unique(), 2, "pairs differ in etype");
    }
}
