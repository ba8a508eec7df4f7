//! Golden test pinning the generated kernel text for a small RGCN.
//!
//! Codegen refactors must diff against a known-good artifact instead of
//! silently drifting: this test renders the full generated source (every
//! kernel plus the host wrappers) for `source(ModelKind::Rgcn, 16, 16)`
//! compiled with the best options in training mode, and compares it to
//! `tests/golden/rgcn_best_training.cu`.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hector-compiler --test codegen_golden
//! ```
//!
//! then review the diff of the golden file in the commit like any other
//! source change.

use hector_compiler::{compile, emit, CompileOptions};
use hector_models::{source, ModelKind};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/rgcn_best_training.cu")
}

fn render() -> String {
    let code = emit(&compile(
        &source(ModelKind::Rgcn, 16, 16),
        &CompileOptions::best().with_training(true),
    ));
    let mut out = String::new();
    for (name, text) in &code.kernels {
        writeln!(out, "// ===== kernel: {name} =====").unwrap();
        out.push_str(text);
        if !text.ends_with('\n') {
            out.push('\n');
        }
    }
    writeln!(out, "// ===== host =====").unwrap();
    out.push_str(&code.host);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

#[test]
fn rgcn_generated_source_matches_golden() {
    let rendered = render();
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
    if rendered != golden {
        // Locate the first differing line for a readable failure.
        let (mut line, mut got, mut want) = (0usize, "", "");
        for (i, (g, w)) in rendered.lines().zip(golden.lines()).enumerate() {
            if g != w {
                (line, got, want) = (i + 1, g, w);
                break;
            }
        }
        if line == 0 {
            line = rendered.lines().count().min(golden.lines().count()) + 1;
        }
        panic!(
            "generated RGCN source drifted from {} at line {line}:\n  golden:    {want}\n  generated: {got}\n\
             ({} golden lines vs {} generated). If the change is intentional, re-bless with \
             UPDATE_GOLDEN=1 and commit the diff.",
            path.display(),
            golden.lines().count(),
            rendered.lines().count(),
        );
    }
}

#[test]
fn golden_artifact_contains_expected_structures() {
    // Guards the golden file itself against accidental truncation: the
    // pinned artifact must exhibit the signature codegen structures.
    let rendered = render();
    for needle in [
        "__global__",
        "atomicAdd",
        "TORCH_LIBRARY_FRAGMENT",
        "GetRange",
    ] {
        assert!(
            rendered.contains(needle),
            "generated source lost `{needle}`"
        );
    }
}

#[test]
fn max_stabilised_softmax_codegen_is_complete() {
    // RGAT contains an edge softmax; its generated source must carry the
    // full max-stabilisation contract: the CAS helper (or the seeded
    // per-thread accumulator on non-atomic kernels) plus the host-side
    // -INFINITY fill before launch. An atomicMaxFloat call without the
    // helper or the fill would reintroduce the exp-overflow bug in any
    // real port of the generated code.
    let code = emit(&compile(
        &source(ModelKind::Rgat, 16, 16),
        &CompileOptions::best().with_training(true),
    ));
    let cuda = code.cuda_source();
    let uses_atomic_max = cuda.contains("atomicMaxFloat(");
    let uses_seeded_acc = cuda.contains("_acc = -INFINITY");
    assert!(
        uses_atomic_max || uses_seeded_acc,
        "RGAT codegen lost the max-aggregation path"
    );
    if uses_atomic_max {
        assert!(
            cuda.contains("__device__ __forceinline__ float atomicMaxFloat"),
            "atomicMaxFloat is called but its CAS helper is not emitted"
        );
        assert!(
            code.host.contains("infinity()"),
            "host wrapper must seed max-aggregation outputs with -INFINITY"
        );
    }
}
