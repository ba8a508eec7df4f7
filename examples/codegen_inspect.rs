//! Inspect the generated artifacts: define a custom model in the builder
//! DSL (not one of the built-ins), compile it, and print the inter-op
//! program, the kernel plan, and an excerpt of the generated CUDA-like
//! source — the paper's Fig. 5 workflow end to end.
//!
//! Note the CUDA-like source is a **text-only emission target**,
//! rendered on demand by `hector::emit`: it is never compiled or
//! executed (no CUDA toolchain exists here). Runs
//! execute the kernel *specs* on the CPU through an execution backend —
//! the production micro-op executor by default, or the sequential
//! oracle when selected with `EngineBuilder::backend`.

use hector::prelude::*;
use hector_ir::{AggNorm, KernelSpec};

fn main() {
    // A custom model: typed-linear messages gated by a per-relation
    // learned source score (a mini RGAT without the target term).
    let mut m = ModelBuilder::new("gated_rgcn");
    let h = m.node_input("h", 32);
    let w = m.weight_per_etype("W", 32, 32);
    let gate_vec = m.weight_vec_per_etype("g", 32);
    let msg = m.typed_linear("msg", m.src(h), w);
    let score = m.dot("score", m.edge(msg), m.wvec(gate_vec));
    let gate = m.edge_softmax("gate", score);
    let out = m.aggregate("h_out", m.edge(msg), Some(m.edge(gate)), AggNorm::None);
    m.output(out);
    let source = m.finish();
    println!("model defined in {} DSL lines\n", source.lines);

    // Custom sources go through the same cached pipeline as the built-in
    // models (an `EngineBuilder::from_source(source)` engine would share
    // this exact module).
    let module = hector::compile_cached(&source, &CompileOptions::best().with_training(true));

    println!("=== optimized inter-operator program ===");
    println!("{}\n", module.forward);

    println!("=== kernel plan ===");
    for k in module.all_kernels() {
        match k {
            KernelSpec::Gemm(g) => println!(
                "  {} [GEMM]      rows={:?} gather={:?} scatter={:?}",
                g.name, g.rows, g.gather, g.scatter
            ),
            KernelSpec::Traversal(t) => println!(
                "  {} [traversal] domain={:?} ops={} locals={} atomic={}",
                t.name,
                t.domain,
                t.ops.len(),
                t.local_vars.len(),
                t.atomic
            ),
            KernelSpec::Fallback(f) => println!("  {} [fallback/BMM prep]", f.name),
        }
    }

    println!(
        "\nexecution: specs run on the '{}' backend by default; \
         the CUDA text below is emission-only and never executes",
        BackendKind::default().name()
    );

    let code = hector::emit(&module);
    println!(
        "\n=== first generated kernel ({} CUDA lines total) ===",
        code.cuda_lines()
    );
    let (name, src) = &code.kernels[0];
    println!("--- {name} ---");
    for line in src.lines().take(30) {
        println!("{line}");
    }
    println!(
        "... ({} more lines)",
        src.lines().count().saturating_sub(30)
    );

    println!("\n=== host registration excerpt ===");
    for line in code
        .host
        .lines()
        .rev()
        .take(8)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
    {
        println!("{line}");
    }
}
