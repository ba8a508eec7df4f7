//! The paper's running example (Fig. 1 / Fig. 6a): an RGCN layer on a
//! small citation graph with papers and authors, and `writes` / `cites`
//! relations. Builds the graph by hand, runs the compiled layer, and
//! walks through what each node receives — including the virtual
//! self-loop.

use hector::prelude::*;

fn main() {
    // Papers 0,1,2,a(=3),b(=4); author alpha(=5).
    let mut b = HeteroGraphBuilder::new();
    let (paper0, _) = b.add_node_type(5);
    let (alpha, _) = b.add_node_type(1);
    let writes = 0u32;
    let cites = 1u32;
    b.add_edge(alpha, 3, writes); // alpha writes a
    b.add_edge(alpha, 4, writes); // alpha writes b
    b.add_edge(1, 0, cites);
    b.add_edge(2, 0, cites);
    b.add_edge(3, 0, cites); // a cites paper 0
    b.add_edge(4, 1, cites);
    b.add_edge(4, 2, cites);
    let graph = GraphData::new(b.build());
    println!(
        "citation graph: {} nodes, {} edges, {} relations",
        graph.graph().num_nodes(),
        graph.graph().num_edges(),
        graph.graph().num_edge_types()
    );
    println!(
        "paper node z(=0) has in-degree {} — messages from 1, 2 and a",
        graph.graph().in_degree()[paper0 as usize]
    );

    let dim = 8;
    let mut engine = EngineBuilder::new(ModelKind::Rgcn)
        .dims(dim, dim)
        .options(CompileOptions::unopt())
        .seed(1)
        .build()
        .unwrap();
    let bound = engine.bind(&graph).unwrap();
    bound.forward().expect("tiny graph");
    let h = bound.output();

    println!("\nRGCN layer output (h' = relu(h W0 + sum_r sum_u 1/c h_u W_r)):");
    for v in 0..graph.graph().num_nodes() {
        let deg = graph.graph().in_degree()[v];
        println!(
            "  node {v} (in-degree {deg}): [{:+.3} {:+.3} {:+.3} ...]",
            h.at2(v, 0),
            h.at2(v, 1),
            h.at2(v, 2)
        );
    }
    println!(
        "\nNote: node 5 (author alpha) has no incoming edges, so its output is\n\
         exactly relu(h_alpha W0) — the virtual self-loop of Eq. 1."
    );
}
