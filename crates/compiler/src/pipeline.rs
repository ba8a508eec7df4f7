//! The end-to-end compilation pipeline: the `@hector.compile` equivalent.

use hector_ir::builder::ModelSource;
use hector_ir::{AdjacencyAccess, GemmSchedule, KernelSpec, Program};

use crate::backward::generate_backward;
use crate::compact::compact_materialization;
use crate::lower::{lower_program, LowerOptions};
use crate::reorder::linear_operator_reordering;

/// Compilation options — the design-space axes of the paper's evaluation.
///
/// The four combinations of `compact` × `reorder` are the U/C/R/C+R
/// configurations of Table 5 and Fig. 9.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Enable compact materialization (§3.2.2).
    pub compact: bool,
    /// Enable linear operator reordering (§3.2.3).
    pub reorder: bool,
    /// Generate the backward pass (training) as well.
    pub training: bool,
    /// Adjacency encoding for traversal kernels.
    pub adjacency: AdjacencyAccess,
    /// GEMM schedule knobs.
    pub schedule: GemmSchedule,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            compact: false,
            reorder: false,
            training: false,
            adjacency: AdjacencyAccess::Coo,
            schedule: GemmSchedule::default(),
        }
    }
}

impl CompileOptions {
    /// The unoptimized configuration ("U" in the paper's tables).
    #[must_use]
    pub fn unopt() -> Self {
        CompileOptions::default()
    }

    /// Compact materialization only ("C").
    #[must_use]
    pub fn compact_only() -> Self {
        CompileOptions {
            compact: true,
            ..CompileOptions::default()
        }
    }

    /// Linear operator reordering only ("R").
    #[must_use]
    pub fn reorder_only() -> Self {
        CompileOptions {
            reorder: true,
            ..CompileOptions::default()
        }
    }

    /// Both optimizations ("C+R") — the paper's best fixed strategy.
    #[must_use]
    pub fn best() -> Self {
        CompileOptions {
            compact: true,
            reorder: true,
            ..CompileOptions::default()
        }
    }

    /// Returns a copy with training enabled.
    #[must_use]
    pub fn with_training(mut self, training: bool) -> Self {
        self.training = training;
        self
    }

    /// Short label ("U", "C", "R", "C+R") used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match (self.compact, self.reorder) {
            (false, false) => "U",
            (true, false) => "C",
            (false, true) => "R",
            (true, true) => "C+R",
        }
    }
}

/// A fully compiled module: the optimized programs and the kernel
/// sequences the runtime executes. Its CUDA-like text is a view of this
/// plan, rendered on demand by [`crate::codegen::emit`].
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// Module name (model name).
    pub name: String,
    /// Optimized forward program.
    pub forward: Program,
    /// Backward program (when compiled for training).
    pub backward: Option<Program>,
    /// Forward kernel sequence.
    pub fw_kernels: Vec<KernelSpec>,
    /// Backward kernel sequence.
    pub bw_kernels: Vec<KernelSpec>,
    /// Options the module was compiled with.
    pub options: CompileOptions,
}

impl CompiledModule {
    /// All kernels, forward then backward.
    pub fn all_kernels(&self) -> impl Iterator<Item = &KernelSpec> {
        self.fw_kernels.iter().chain(self.bw_kernels.iter())
    }
}

/// Compiles a model (the `@hector.compile` decorator equivalent).
///
/// Pass order matches the paper: inter-operator rewrites first (linear
/// operator reordering, then compact materialization — reordering can
/// expose additional compaction opportunities), then backward generation
/// on the optimized program, then lowering for both directions. Code
/// generation is not a pass: the text is rendered only when asked for.
///
/// # Panics
///
/// Panics if the model source violates IR invariants.
#[must_use]
pub fn compile(src: &ModelSource, options: &CompileOptions) -> CompiledModule {
    // Per-pass trace spans (cat `compiler`): free when tracing is off,
    // and a per-pass timeline plus the lowering's fusion-decision
    // annotations when an engine compiles with tracing on.
    let pass = |name: &'static str, t0: Option<u64>| {
        if let Some(t0) = t0 {
            hector_trace::record_span(name, hector_trace::SpanCat::Compiler, t0, 0, 0, 0.0);
        }
    };
    let mut fw = src.program.clone();
    let t0 = hector_trace::span_start();
    if options.reorder {
        linear_operator_reordering(&mut fw);
    }
    pass("compile/reorder", t0);
    let t0 = hector_trace::span_start();
    if options.compact {
        compact_materialization(&mut fw);
    }
    pass("compile/compact", t0);
    fw.validate();

    let lower_opts = LowerOptions {
        adjacency: options.adjacency,
        schedule: options.schedule,
    };
    let t0 = hector_trace::span_start();
    let mut fw_kernels = lower_program(&fw, &lower_opts);
    pass("compile/lower_fw", t0);

    let (backward, bw_kernels) = if options.training {
        let t0 = hector_trace::span_start();
        let bw = generate_backward(&fw);
        pass("compile/backward", t0);
        let t0 = hector_trace::span_start();
        let ks = lower_program(&bw, &lower_opts);
        pass("compile/lower_bw", t0);
        (Some(bw), ks)
    } else {
        (None, Vec::new())
    };

    // Forward temporaries that backward propagation reads are saved
    // activations: they must be materialised, not register-local.
    if let Some(bw) = &backward {
        let n_fw_vars = fw.vars.len() as u32;
        let mut saved: std::collections::HashSet<hector_ir::VarId> =
            std::collections::HashSet::new();
        for op in &bw.ops {
            for operand in op.kind.operands() {
                if let Some(v) = operand.var() {
                    if v.0 < n_fw_vars {
                        saved.insert(v);
                    }
                }
            }
        }
        for k in &mut fw_kernels {
            if let KernelSpec::Traversal(t) = k {
                t.local_vars.retain(|v| !saved.contains(v));
            }
        }
    }

    CompiledModule {
        name: src.program.name.clone(),
        forward: fw,
        backward,
        fw_kernels,
        bw_kernels,
        options: options.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_ir::{AggNorm, ModelBuilder, Space};

    fn rgat_source() -> ModelSource {
        let mut m = ModelBuilder::new("rgat");
        let h = m.node_input("h", 16);
        let w = m.weight_per_etype("W", 16, 16);
        let w_s = m.weight_vec_per_etype("w_s", 16);
        let w_t = m.weight_vec_per_etype("w_t", 16);
        let hs = m.typed_linear("hs", m.src(h), w);
        let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
        let ht = m.typed_linear("ht", m.dst(h), w);
        let attt = m.dot("attt", m.edge(ht), m.wvec(w_t));
        let raw = m.add("raw", m.edge(atts), m.edge(attt));
        let act = m.leaky_relu("act", m.edge(raw));
        let att = m.edge_softmax("att", act);
        let out = m.aggregate("out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
        m.output(out);
        m.finish()
    }

    #[test]
    fn four_option_combos_compile() {
        let src = rgat_source();
        for opts in [
            CompileOptions::unopt(),
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
            CompileOptions::best(),
        ] {
            let module = compile(&src, &opts.with_training(true));
            assert!(!module.fw_kernels.is_empty());
            assert!(!module.bw_kernels.is_empty());
            module.forward.validate();
            module.backward.as_ref().unwrap().validate();
        }
    }

    #[test]
    fn labels() {
        assert_eq!(CompileOptions::unopt().label(), "U");
        assert_eq!(CompileOptions::compact_only().label(), "C");
        assert_eq!(CompileOptions::reorder_only().label(), "R");
        assert_eq!(CompileOptions::best().label(), "C+R");
    }

    #[test]
    fn reorder_eliminates_the_ht_gemm() {
        let src = rgat_source();
        let unopt = compile(&src, &CompileOptions::unopt());
        let reord = compile(&src, &CompileOptions::reorder_only());
        let count_gemms = |m: &CompiledModule| {
            m.fw_kernels
                .iter()
                .filter(|k| matches!(k, KernelSpec::Gemm(_)))
                .count()
        };
        assert_eq!(count_gemms(&unopt), 2);
        assert_eq!(count_gemms(&reord), 1, "ht's GEMM is reordered away");
        // Two fused weight-vector preps (source and target attention).
        assert_eq!(reord.forward.preps.len(), 2);
    }

    #[test]
    fn compaction_rehomes_hs() {
        let src = rgat_source();
        let m = compile(&src, &CompileOptions::compact_only());
        let hs = m
            .forward
            .vars
            .iter()
            .position(|v| v.name == "hs")
            .map(|i| hector_ir::VarId(i as u32))
            .unwrap();
        assert_eq!(m.forward.var(hs).space, Space::Compact);
    }

    #[test]
    fn generated_code_is_nontrivial() {
        let src = rgat_source();
        let m = compile(&src, &CompileOptions::best().with_training(true));
        let code = crate::codegen::emit(&m);
        assert!(code.total_lines() > 200, "got {}", code.total_lines());
        assert!(src.lines < 20);
    }

    #[test]
    fn inference_module_has_no_backward() {
        let src = rgat_source();
        let m = compile(&src, &CompileOptions::unopt());
        assert!(m.backward.is_none());
        assert!(m.bw_kernels.is_empty());
    }
}
