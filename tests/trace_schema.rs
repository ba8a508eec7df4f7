//! Trace-schema pins for the structured tracing subsystem.
//!
//! * A **golden span schema**: one normalized line per recorded event
//!   (category, name, stage, rows — never timestamps or thread ids) for
//!   a fixed graph and model, covering compiler passes, fusion
//!   annotations, phases, and the kernel sequence. Bless intentional
//!   changes with:
//!
//!   ```text
//!   UPDATE_GOLDEN=1 cargo test -p hector --test trace_schema
//!   ```
//!
//! * **Chrome-trace structural validation**: the exported JSON is
//!   well-formed (balanced outside strings) and carries the
//!   `trace_event` fields Perfetto requires.
//!
//! * **Bit-identity**: enabling tracing must not change a single output
//!   bit.
//!
//! * **Coverage**: a profiled training run attributes ≥95% of its wall
//!   time to kernel + phase spans.
//!
//! The trace recorder is process-global, so every test serializes on a
//! file-local lock and clears the recorder first.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use hector::prelude::*;
use hector::trace::{SpanCat, TraceConfig, TraceEvent};
use hector::ModelKind;

static LOCK: Mutex<()> = Mutex::new(());

/// A fixed three-relation graph: two node types (8 papers, 4 authors),
/// `writes`/`cites`/`likes` edges with hand-placed endpoints.
fn fixed_graph() -> GraphData {
    let mut b = HeteroGraphBuilder::new();
    let (paper0, _) = b.add_node_type(8);
    let (author0, _) = b.add_node_type(4);
    let (writes, cites, likes) = (0u32, 1u32, 2u32);
    for a in 0..4u32 {
        b.add_edge(author0 + a, paper0 + a, writes);
        b.add_edge(author0 + a, paper0 + a + 4, writes);
    }
    for p in 0..7u32 {
        b.add_edge(paper0 + p, paper0 + p + 1, cites);
    }
    b.add_edge(paper0 + 7, paper0, cites);
    for p in (0..8u32).step_by(2) {
        b.add_edge(paper0 + p, author0 + p / 2, likes);
    }
    GraphData::new(b.build())
}

fn golden_path() -> PathBuf {
    // Root tests belong to the `hector` package at crates/core.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
        .join("tests/golden/trace_schema.txt")
}

/// One normalized line per event: category, name, stage, rows for
/// spans; category, name, detail for instants. Worker spans are
/// excluded (their count and interleaving depend on the thread
/// configuration; `tests/counter_accuracy.rs` pins them instead), as
/// are timestamps, durations, and thread ids.
fn normalize(events: &[TraceEvent]) -> String {
    let mut out = String::from(
        "# Trace span schema snapshot (generated by tests/trace_schema.rs;\n\
         # bless with UPDATE_GOLDEN=1 cargo test -p hector --test trace_schema)\n",
    );
    for e in events {
        if e.cat == SpanCat::Worker {
            continue;
        }
        if e.instant {
            let detail = e.detail.as_deref().unwrap_or("");
            writeln!(out, "{} {} ! {}", e.cat.label(), e.name, detail).unwrap();
        } else {
            writeln!(
                out,
                "{} {} stage={} rows={}",
                e.cat.label(),
                e.name,
                e.stage,
                e.rows
            )
            .unwrap();
        }
    }
    out
}

/// Compiles (callers pass dims unique to themselves, so the process-wide
/// module cache misses and the compiler passes record), binds, and runs
/// one forward pass with tracing on from the first compiler pass.
fn traced_build_and_forward(dims: usize) -> Vec<TraceEvent> {
    hector::trace::disable();
    hector::trace::clear();
    let graph = fixed_graph();
    let mut engine = EngineBuilder::new(ModelKind::Rgat)
        .dims(dims, dims)
        .options(CompileOptions::best())
        .parallel(ParallelConfig::sequential())
        .trace(TraceConfig::on())
        .seed(5)
        .build()
        .unwrap();
    assert!(
        !engine.was_cache_hit(),
        "dims {dims} must be unique to its test so compiler passes record"
    );
    let bound = engine.bind(&graph).unwrap();
    bound.forward().expect("tiny graph fits");
    hector::trace::disable();
    hector::trace::take_events()
}

#[test]
fn span_schema_matches_golden() {
    let _g = LOCK.lock().unwrap();
    let events = traced_build_and_forward(26);
    let rendered = normalize(&events);
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        golden == rendered,
        "trace span schema drifted from tests/golden/trace_schema.txt.\n\
         If the change is intentional, bless it:\n\
         UPDATE_GOLDEN=1 cargo test -p hector --test trace_schema\n\
         and commit the golden diff.\n\n--- expected\n{golden}\n--- got\n{rendered}"
    );
}

#[test]
fn schema_covers_every_layer() {
    let _g = LOCK.lock().unwrap();
    let events = traced_build_and_forward(27);
    let has = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().any(f);
    assert!(has(&|e| e.name == "compile/reorder"));
    assert!(has(&|e| e.name == "compile/lower_fw"));
    assert!(has(&|e| e.instant && e.name.starts_with("fusion/")));
    assert!(has(&|e| e.name == "run/forward"));
    assert!(has(&|e| e.name == "phase/setup"));
    assert!(has(&|e| e.name == "phase/bind_inputs"));
    assert!(has(
        &|e| e.cat == SpanCat::Kernel && e.name.starts_with("gemm/")
    ));
    assert!(has(
        &|e| e.cat == SpanCat::Kernel && e.name.starts_with("traversal/")
    ));
}

/// Minimal JSON well-formedness check: braces and brackets balance
/// outside string literals, strings close, and escapes are consumed.
fn assert_balanced_json(s: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in chrome trace JSON");
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string in chrome trace JSON");
    assert_eq!(depth, 0, "unbalanced chrome trace JSON");
}

#[test]
fn chrome_export_is_structurally_valid() {
    let _g = LOCK.lock().unwrap();
    let events = traced_build_and_forward(28);
    let json = hector::trace::chrome::chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    assert_balanced_json(&json);

    let spans = events.iter().filter(|e| !e.instant).count();
    let instants = events.iter().filter(|e| e.instant).count();
    let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    assert_eq!(json.matches("\"ph\":\"X\"").count(), spans);
    assert_eq!(json.matches("\"ph\":\"i\"").count(), instants);
    assert_eq!(json.matches("\"ph\":\"M\"").count(), tids.len());
    // Complete events carry the fields Perfetto requires plus our args.
    assert!(json.contains("\"ts\":"));
    assert!(json.contains("\"dur\":"));
    assert!(json.contains("\"rows\":"));
    assert!(json.contains("\"cat\":\"kernel\""));
}

#[test]
fn tracing_on_is_bit_identical() {
    let _g = LOCK.lock().unwrap();
    hector::trace::disable();
    hector::trace::clear();
    let graph = fixed_graph();
    let build = || {
        EngineBuilder::new(ModelKind::Rgat)
            .dims(24, 24)
            .options(CompileOptions::best())
            .parallel(ParallelConfig::sequential())
            .seed(11)
            .build()
            .unwrap()
    };

    let mut plain = build();
    let b = plain.bind(&graph).unwrap();
    b.forward().expect("fits");
    let reference: Vec<f32> = b.output().data().to_vec();

    let mut traced = build();
    let b = traced.bind(&graph).unwrap();
    hector::trace::enable();
    b.forward().expect("fits");
    hector::trace::disable();
    let observed: Vec<f32> = b.output().data().to_vec();
    hector::trace::clear();

    assert_eq!(reference.len(), observed.len());
    for (i, (r, o)) in reference.iter().zip(&observed).enumerate() {
        assert!(
            r.to_bits() == o.to_bits(),
            "output bit {i} differs with tracing on: {r} vs {o}"
        );
    }
}

#[test]
fn profile_attributes_95_percent_of_train_wall() {
    let _g = LOCK.lock().unwrap();
    hector::trace::disable();
    hector::trace::clear();
    // A graph large enough that kernel work dominates the fixed
    // per-step recording overhead (span timestamps, report assembly);
    // on the 12-node toy graph the ratio is machine-dependent noise.
    let graph = GraphData::new(hector::generate(&DatasetSpec {
        name: "trace_profile".into(),
        num_nodes: 256,
        num_node_types: 3,
        num_edges: 1536,
        num_edge_types: 3,
        compaction_ratio: 0.4,
        type_skew: 1.0,
        seed: 40,
    }));
    let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
        .dims(32, 32)
        .options(CompileOptions::best())
        .parallel(ParallelConfig::sequential())
        .seed(2)
        .build_trainer(Adam::new(0.01))
        .unwrap();
    trainer.bind(&graph).unwrap();
    trainer.step().expect("warm-up fits");

    let (result, report) = trainer.profile(|t| t.epoch(3));
    let epoch = result.expect("fits");
    assert_eq!(epoch.losses.len(), 3);

    assert!(report.wall_us > 0.0);
    assert_eq!(
        report.kernels.iter().map(|k| k.count).sum::<u64>() % 3,
        0,
        "three identical steps record kernel counts in multiples of 3"
    );
    assert!(
        report.coverage >= 0.95,
        "kernel+phase spans must attribute >=95% of run wall time, got {:.3}",
        report.coverage
    );
    assert!(!report.relations.is_empty());
    let shown = format!("{report}");
    assert!(shown.contains("profile:"));
    assert!(shown.contains("gemm/typed_linear"));
    hector::trace::clear();
}

#[test]
fn prep_chain_rule_is_a_phase_of_its_own() {
    let _g = LOCK.lock().unwrap();
    hector::trace::disable();
    hector::trace::clear();
    let graph = fixed_graph();
    // Reordered RGAT has MatVec weight preps, RGCN none: only RGAT's step
    // times a chain rule, beside the loss and the optimizer.
    for (kind, preps) in [(ModelKind::Rgat, true), (ModelKind::Rgcn, false)] {
        let mut trainer = EngineBuilder::new(kind)
            .dims(8, 8)
            .options(CompileOptions::best())
            .seed(4)
            .build_trainer(Adam::new(0.01))
            .unwrap();
        trainer.bind(&graph).unwrap();
        trainer.step().expect("warm-up fits");
        let (result, report) = trainer.profile(|t| t.step());
        result.expect("fits");
        let count = |name: &str| {
            report
                .phases
                .iter()
                .find(|p| p.name == name)
                .map_or(0, |p| p.count)
        };
        assert_eq!(count("phase/loss"), 1, "{kind:?}");
        assert_eq!(count("phase/optimizer"), 1, "{kind:?}");
        assert_eq!(count("phase/prep_grad"), u64::from(preps), "{kind:?}");
    }
    hector::trace::clear();
}
