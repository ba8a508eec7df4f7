//! Multi-tenant serving: keep several models resident behind one
//! [`ServeHandle`], submit concurrent single-node requests (the first
//! reads of an engine coalesced into one forward per dispatch tick,
//! later ones answered at submit), hot-swap a tenant's graph under
//! load, and read the per-tenant counters.
//!
//! ```bash
//! cargo run --release --example serve_demo
//! ```

use std::time::Duration;

use hector::prelude::*;
use hector::serve::{ServeConfig, ServeHandle};

fn graph(seed: u64, nodes: usize) -> GraphData {
    GraphData::new(hector::generate(&DatasetSpec {
        name: "serve_demo".into(),
        num_nodes: nodes,
        num_node_types: 3,
        num_edges: nodes * 5,
        num_edge_types: 4,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed,
    }))
}

fn builder(kind: ModelKind, dims: usize, seed: u64) -> EngineBuilder {
    EngineBuilder::new(kind)
        .dims(dims, dims)
        .options(CompileOptions::best())
        .seed(seed)
}

fn main() {
    // 1. Start the server: bounded queue, up to 32 requests coalesced
    //    per traversal, four dispatch workers.
    let srv = ServeHandle::start(
        ServeConfig::default()
            .with_queue_capacity(256)
            .with_max_coalesce(32)
            .with_timeout(Duration::from_secs(5))
            .with_workers(4),
    );

    // 2. Deploy two tenants. Each deployment is an engine kept resident
    //    behind the process-wide module cache — tenants sharing an
    //    architecture share one compiled module.
    let g1 = graph(1, 96);
    let g2 = graph(2, 64);
    srv.deploy("rgcn_products", builder(ModelKind::Rgcn, 16, 7), &g1)
        .expect("rgcn deploys");
    srv.deploy("hgt_reviews", builder(ModelKind::Hgt, 8, 9), &g2)
        .expect("hgt deploys");
    println!("deployments: {:?}", srv.deployments());

    // 3. Fire a burst of single-node requests at both tenants. Reads
    //    that arrive before a tenant's output exists queue, and the
    //    dispatcher coalesces each tenant's into one group that runs the
    //    tenant's one forward. Once that output is fresh, a read is a
    //    row copy answered at submit, without the queue.
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            let (name, g) = if i % 3 == 0 {
                ("hgt_reviews", &g2)
            } else {
                ("rgcn_products", &g1)
            };
            let node = (i * 13) % g.graph().num_nodes();
            srv.submit(name, node).expect("queue has room")
        })
        .collect();
    let batch = srv
        .submit_batch("rgcn_products", &[0, 1, 2, 3])
        .expect("queue has room");

    for t in tickets {
        let r = t.wait().expect("request served");
        assert!(!r.rows[0].is_empty());
    }
    let r = batch.wait().expect("batch served");
    let how = if r.coalesced == 1 {
        "answered at submit".to_string()
    } else {
        format!("coalesced with {} queued requests", r.coalesced - 1)
    };
    println!("batch of 4 served by engine v{} ({how})", r.version);

    for name in ["rgcn_products", "hgt_reviews"] {
        let s = srv.stats(name).expect("deployed");
        println!(
            "{name}: {} completed from {} forward(s) ({:.1} requests answered per forward), v{}",
            s.completed,
            s.forwards,
            s.coalescing_factor(),
            s.version,
        );
    }

    // 4. Hot swap: move the RGCN tenant to a fresh (larger) graph.
    //    More nodes means new node features, so the resident engine
    //    cannot rebind in place: the replacement engine is built off
    //    to the side. Requests in flight during the swap all complete
    //    on one version or the other — none are dropped.
    let g3 = graph(3, 128);
    let inflight: Vec<_> = (0..8)
        .map(|n| srv.submit("rgcn_products", n).expect("queue has room"))
        .collect();
    let v = srv
        .swap("rgcn_products", builder(ModelKind::Rgcn, 16, 7), &g3)
        .expect("swap succeeds");
    println!(
        "swapped rgcn_products to v{v} ({} nodes)",
        g3.graph().num_nodes()
    );
    for t in inflight {
        t.wait().expect("no request dropped across the swap");
    }

    let s = srv.stats("rgcn_products").expect("deployed");
    println!(
        "rgcn_products after swap: {} completed, {} failed, {} swaps, v{}",
        s.completed, s.failed, s.swaps, s.version
    );

    srv.shutdown();
    println!("server drained and shut down");
}
