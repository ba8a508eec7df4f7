//! Graph statistics reporting (paper Table 3 and the scatter series of
//! Fig. 10).

use crate::HeteroGraph;

/// Summary statistics of a heterogeneous graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Dataset name (empty when computed from an anonymous graph).
    pub name: String,
    /// Total nodes.
    pub num_nodes: usize,
    /// Node type count.
    pub num_node_types: usize,
    /// Total edges.
    pub num_edges: usize,
    /// Edge type count.
    pub num_edge_types: usize,
    /// Average degree (`edges / nodes`).
    pub avg_degree: f64,
    /// Entity compaction ratio: unique `(src, etype)` pairs / edges.
    pub compaction_ratio: f64,
}

impl GraphStats {
    /// Computes statistics for `graph`, labelling them with `name`.
    #[must_use]
    pub fn of(name: &str, graph: &HeteroGraph) -> GraphStats {
        GraphStats {
            name: name.to_string(),
            num_nodes: graph.num_nodes(),
            num_node_types: graph.num_node_types(),
            num_edges: graph.num_edges(),
            num_edge_types: graph.num_edge_types(),
            avg_degree: graph.avg_degree(),
            compaction_ratio: graph.compaction_map().ratio(),
        }
    }

    /// Formats counts with K/M suffixes like the paper's Table 3
    /// ("7.3K", "5.7M").
    #[must_use]
    pub fn humanize(n: usize) -> String {
        if n >= 1_000_000 {
            format!("{:.1}M", n as f64 / 1e6)
        } else if n >= 1_000 {
            format!("{:.1}K", n as f64 / 1e3)
        } else {
            n.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeteroGraphBuilder;

    #[test]
    fn humanize_suffixes() {
        assert_eq!(GraphStats::humanize(950), "950");
        assert_eq!(GraphStats::humanize(7_300), "7.3K");
        assert_eq!(GraphStats::humanize(5_700_000), "5.7M");
    }

    #[test]
    fn stats_of_small_graph() {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(2);
        b.add_node_type(2);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(3, 2, 1);
        let g = b.build();
        let s = GraphStats::of("toy", &g);
        assert_eq!(s.num_nodes, 4);
        assert_eq!(s.num_edges, 3);
        assert_eq!(s.num_node_types, 2);
        assert_eq!(s.num_edge_types, 2);
        assert!((s.avg_degree - 0.75).abs() < 1e-12);
    }
}
