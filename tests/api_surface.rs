//! Public-API surface snapshot: a golden listing of every `pub` item on
//! the user-facing crates' key modules, so accidental surface breaks
//! (removed re-exports, renamed methods, signature changes) fail CI as a
//! reviewable diff instead of slipping through.
//!
//! The snapshot is extracted from the source files themselves (the
//! offline toolchain has no rustdoc-JSON), one section per file: every
//! top-of-line `pub` item outside `#[cfg(test)]`, with multi-line
//! signatures joined and bodies stripped.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hector --test api_surface
//! ```
//!
//! then review the golden diff in the commit like any other source
//! change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Files whose `pub` surface is pinned, relative to the workspace root.
const SURFACE_FILES: &[&str] = &[
    "crates/core/src/lib.rs",
    "crates/core/src/autotune.rs",
    "crates/runtime/src/lib.rs",
    "crates/runtime/src/error.rs",
    "crates/serve/src/lib.rs",
    "crates/serve/src/http.rs",
    "crates/shard/src/lib.rs",
    "crates/shard/src/partition.rs",
    "crates/shard/src/delta.rs",
    "crates/shard/src/engine.rs",
    "crates/runtime/src/engine.rs",
    "crates/runtime/src/session.rs",
    "crates/runtime/src/subgraph.rs",
    "crates/runtime/src/optim.rs",
    "crates/compiler/src/cache.rs",
    "crates/compiler/src/pipeline.rs",
    "crates/compiler/src/codegen.rs",
    "crates/device/src/counters.rs",
    "crates/trace/src/lib.rs",
    "crates/trace/src/report.rs",
];

fn workspace_root() -> PathBuf {
    // Root tests belong to the `hector` package at crates/core.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn golden_path() -> PathBuf {
    workspace_root().join("tests/golden/api_surface.txt")
}

/// Extracts the `pub` surface of one file: signatures of `pub fn`,
/// `pub struct/enum/trait/mod/const/type`, and `pub use` re-exports,
/// joined across continuation lines and truncated at the body brace.
/// Everything from the first `#[cfg(test)]` on is ignored (test modules
/// close each file in this workspace).
fn extract_surface(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut items = Vec::new();
    let mut pending: Option<String> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed == "#[cfg(test)]" {
            break;
        }
        if let Some(acc) = &mut pending {
            acc.push(' ');
            acc.push_str(trimmed);
        } else if trimmed.starts_with("pub fn ")
            || trimmed.starts_with("pub struct ")
            || trimmed.starts_with("pub enum ")
            || trimmed.starts_with("pub trait ")
            || trimmed.starts_with("pub use ")
            || trimmed.starts_with("pub mod ")
            || trimmed.starts_with("pub const ")
            || trimmed.starts_with("pub type ")
        {
            pending = Some(trimmed.to_string());
        }
        if let Some(acc) = pending.take() {
            // Complete once the item reaches its body or terminator.
            // `pub use` keeps its brace group (the re-exported names ARE
            // the surface); everything else truncates at the body brace.
            if acc.starts_with("pub use ") {
                if let Some(semi) = acc.find(';') {
                    items.push(normalize(&acc[..=semi]));
                } else {
                    pending = Some(acc);
                }
            } else if let Some(brace) = acc.find('{') {
                items.push(normalize(&acc[..brace]));
            } else if let Some(semi) = acc.find(';') {
                items.push(normalize(&acc[..=semi]));
            } else {
                pending = Some(acc);
            }
        }
    }
    assert!(
        pending.is_none(),
        "{}: unterminated pub item {pending:?}",
        path.display()
    );
    items
}

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn render() -> String {
    let root = workspace_root();
    let mut out = String::from(
        "# Public API surface snapshot (generated by tests/api_surface.rs;\n\
         # bless with UPDATE_GOLDEN=1 cargo test -p hector --test api_surface)\n",
    );
    for file in SURFACE_FILES {
        writeln!(out, "\n## {file}").unwrap();
        for item in extract_surface(&root.join(file)) {
            writeln!(out, "{item}").unwrap();
        }
    }
    out
}

#[test]
fn public_api_surface_matches_golden() {
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
    assert!(
        golden == rendered,
        "public API surface drifted from tests/golden/api_surface.txt.\n\
         If the change is intentional, bless it:\n\
         UPDATE_GOLDEN=1 cargo test -p hector --test api_surface\n\
         and commit the golden diff.\n\n--- expected\n{golden}\n--- got\n{rendered}"
    );
}

#[test]
fn surface_covers_the_handle_api() {
    // Belt and braces: the snapshot must mention the tentpole types, so
    // an accidental de-export of the handles cannot sneak past even a
    // blessed-by-reflex golden update.
    let rendered = render();
    for needle in [
        "pub struct Engine",
        "pub struct EngineBuilder",
        "pub struct Trainer",
        "pub fn bind(&mut self, graph: &GraphData) -> Result<&mut Engine, HectorError>",
        "pub struct ModuleCache",
        "pub fn emit(module: &CompiledModule) -> GeneratedCode",
        "pub fn compile_model_cached",
    ] {
        assert!(rendered.contains(needle), "API surface lost '{needle}'");
    }
}
