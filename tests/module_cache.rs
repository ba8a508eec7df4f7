//! Pins the process-wide module cache's counter contract: constructing a
//! second engine with identical `(source, dims, options)` performs zero
//! compilations, as `ModuleCache::stats()` counts it. (The eviction
//! policy is a unit test on a local cache in `hector-compiler`.)
//!
//! The cache and its counters are process-global, so this binary keeps
//! every cache-touching assertion inside one `#[test]` — the default
//! harness runs tests of one binary concurrently, and a sibling test
//! hitting the cache would skew exact deltas. (Other test *binaries* are
//! separate processes and cannot interfere.)

use hector::prelude::*;

#[test]
fn second_identical_engine_compiles_nothing() {
    let graph = GraphData::new(hector::generate(&DatasetSpec {
        name: "module_cache".into(),
        num_nodes: 50,
        num_node_types: 2,
        num_edges: 300,
        num_edge_types: 3,
        compaction_ratio: 0.5,
        type_skew: 1.0,
        seed: 31,
    }));

    ModuleCache::clear();
    let base = ModuleCache::stats();
    assert_eq!((base.hits, base.misses, base.entries), (0, 0, 0));

    let build = || {
        EngineBuilder::new(ModelKind::Rgat)
            .dims(16, 16)
            .options(CompileOptions::best())
            .seed(5)
            .build()
            .unwrap()
    };

    // First engine: one miss, one entry.
    let mut first = build();
    assert!(!first.was_cache_hit());
    let after_first = ModuleCache::stats();
    assert_eq!(after_first.misses, 1, "first build compiles exactly once");
    assert_eq!(after_first.hits, 0);
    assert_eq!(after_first.entries, 1);

    // Nine more engines: zero additional compilations.
    let mut twins: Vec<Engine> = (0..9).map(|_| build()).collect();
    let after_ten = ModuleCache::stats();
    assert_eq!(after_ten.misses, 1, "nine rebuilds must not compile");
    assert_eq!(after_ten.hits, 9);
    assert_eq!(after_ten.entries, 1);
    assert!(twins.iter().all(Engine::was_cache_hit));

    // Shared module, independent sessions: both engines run and agree.
    first.bind(&graph).unwrap().forward().expect("fits");
    let twin = &mut twins[0];
    twin.bind(&graph).unwrap().forward().expect("fits");
    assert_eq!(
        first.output().data(),
        twin.output().data(),
        "engines sharing a cached module must agree bitwise"
    );

    // Different dims or options are distinct entries (one miss each).
    let _other_dims = EngineBuilder::new(ModelKind::Rgat)
        .dims(8, 8)
        .options(CompileOptions::best())
        .build()
        .unwrap();
    let _other_opts = EngineBuilder::new(ModelKind::Rgat)
        .dims(16, 16)
        .options(CompileOptions::unopt())
        .build()
        .unwrap();
    let end = ModuleCache::stats();
    assert_eq!((end.hits, end.misses, end.entries), (9, 3, 3));
    assert_eq!(end.evictions, 0, "three entries are far below the bound");

    // clear() empties the cache and zeroes its counters; the next build
    // compiles again, to the same plan.
    ModuleCache::clear();
    assert_eq!(ModuleCache::stats(), hector::ModuleCacheStats::default());
    let rebuilt = build();
    assert!(!rebuilt.was_cache_hit(), "a cleared cache recompiles");
    assert_eq!(
        rebuilt.module().forward,
        first.module().forward,
        "clearing only forgets the cache's copy — recompilation agrees"
    );
    let after_clear = ModuleCache::stats();
    assert_eq!(
        (after_clear.hits, after_clear.misses, after_clear.entries),
        (0, 1, 1)
    );
}
