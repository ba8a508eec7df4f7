//! Compact materialization close up (paper §3.2.2, Fig. 7): shows the
//! unique (source node, edge type) index on the paper's own example
//! graph, then demonstrates the out-of-memory rescue on a larger graph —
//! "with compaction enabled, Hector incurs no OOM error for all the
//! datasets tested".

use hector::prelude::*;

fn main() {
    // Paper Fig. 6(a): papers 0,1,2,a(3),b(4); author alpha(5).
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(6);
    b.add_edge(5, 3, 0); // alpha writes a
    b.add_edge(5, 4, 0); // alpha writes b
    b.add_edge(1, 0, 1); // 1 cites 0
    b.add_edge(2, 0, 1); // 2 cites 0
    b.add_edge(3, 0, 1); // a cites 0
    b.add_edge(4, 1, 1); // b cites 1
    b.add_edge(4, 2, 1); // b cites 2
    let graph = GraphData::new(b.build());
    let c = graph.compact();
    println!("Paper Fig. 7 example:");
    println!(
        "  {} edges but only {} unique (src, etype) pairs (ratio {:.2})",
        graph.graph().num_edges(),
        c.num_unique(),
        c.ratio()
    );
    println!(
        "  unique_row_idx   = {:?}   (gather list)",
        c.unique_row_idx()
    );
    println!(
        "  unique_etype_ptr = {:?}          (scatter segments)",
        c.unique_etype_ptr()
    );
    println!(
        "  edge_to_unique   = {:?} (per-edge indirection)",
        c.edge_to_unique()
    );
    println!(
        "  e.g. edges 0 and 1 (alpha->a, alpha->b) share compact row {}\n",
        c.edge_to_unique()[0]
    );

    // OOM rescue: a graph whose vanilla edgewise tensors exceed a small
    // device, but whose compact ones fit.
    let spec = DatasetSpec {
        name: "oom-demo".into(),
        num_nodes: 30_000,
        num_node_types: 3,
        num_edges: 600_000,
        num_edge_types: 16,
        compaction_ratio: 0.15,
        type_skew: 1.0,
        seed: 3,
    };
    let big = GraphData::new(hector::generate(&spec));
    let capacity = 256 << 20; // a 256 MB device
    let cfg = DeviceConfig::rtx3090().with_capacity(capacity);
    println!(
        "OOM rescue on {} edges (ratio {:.2}), device capacity {} MB:",
        big.graph().num_edges(),
        big.compact().ratio(),
        capacity >> 20
    );
    // The simulated runs read the compiled plans alone: nothing executes.
    let source = EngineBuilder::new(ModelKind::Rgat).dims(64, 64).source();
    for (label, opts) in [
        ("vanilla (U)", CompileOptions::unopt()),
        ("compact (C)", CompileOptions::compact_only()),
    ] {
        let module = hector::compile_cached(&source, &opts);
        let mut device = hector::Device::new(cfg.clone());
        match hector::model_run(&module, &big, &mut device, false) {
            Ok(r) => println!(
                "  {label}: OK, peak {:.0} MB, {:.2} ms simulated",
                r.peak_bytes as f64 / (1 << 20) as f64,
                r.elapsed_us / 1e3
            ),
            Err(e) => println!(
                "  {label}: OUT OF MEMORY allocating '{}' ({:.0} MB requested on top of {:.0} MB)",
                e.label,
                e.requested as f64 / (1 << 20) as f64,
                e.in_use as f64 / (1 << 20) as f64
            ),
        }
    }
}
