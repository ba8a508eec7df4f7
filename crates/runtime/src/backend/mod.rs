//! Execution backends: the production executor and its oracle.
//!
//! The compiler lowers a model to a sequence of [`KernelSpec`]s and, in
//! doing so, alone decides that each is executable; *how* they execute is
//! decided once per engine, when its first run prepares an `ExecPlan` —
//! one `PreparedKernel` per lowered kernel — for the engine's module and
//! [`BackendKind`]. Every later run reuses the plan, so warm runs pay
//! none of the analysis and stay allocation-free; `ExecPlan::run_kernel`
//! executes one kernel of it against an `ExecCtx` (graph, parameters,
//! variable buffers, scratch arenas). A weight prep is the same
//! `PreparedKernel::Prep` on both backends: `ParamStore::run_prep`.
//!
//! Two backends, two roles:
//!
//! * **`specialized`** ([`BackendKind::Specialized`], the default) is the
//!   **production executor**. It resolves operands, row maps, stage
//!   schedules, and aggregation kinds once at prepare time into
//!   micro-op kernels (`spec.rs`: traversals as one block-fused loop
//!   whose register-local variables stay in per-chunk scratch;
//!   `gemm.rs`: the typed-linear tiles), and runs them over row chunks:
//!   one chunk with aggregates folded in place on a single thread,
//!   disjoint chunks on the engine's pool with an ordered merge
//!   otherwise (`chunk.rs`). Outputs are bit-identical at every thread
//!   count. Every lowered kernel prepares; none runs through `exec.rs`.
//! * **`interp`** ([`BackendKind::Interp`]) is the **sequential
//!   oracle**: the small, obviously-correct row-at-a-time interpreter in
//!   `exec.rs` that the parity suites compare production against
//!   (`tests/backend_parity.rs`). Its plan is every GEMM and traversal
//!   `PreparedKernel::Oracle`, the only route to `exec.rs`. It is
//!   sequential by definition — it ignores the engine's thread count and
//!   creates no pool — and shares only leaf numerics (dot products,
//!   elementwise ops, the GEMM row microkernels) with production.
//!
//! The CUDA code generator (`hector::emit`, which renders a module's
//! `GeneratedCode` on demand) is *not* a backend: it is a text-only
//! emission target — nothing in this crate executes it.

use hector_compiler::CompiledModule;
use hector_device::Phase;
use hector_ir::{KernelSpec, Program, VarId};
use hector_par::ThreadPool;

use crate::exec::{exec_gemm, exec_traversal};
use crate::scratch::Scratch;
use crate::store::VarStore;
use crate::{GraphData, ParamStore};

mod chunk;
mod gemm;
mod spec;

pub(crate) use chunk::WorkerArenas;
use spec::PreparedKernel;

/// Which execution backend an engine runs kernels on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The sequential oracle: executes each kernel spec directly, one
    /// row at a time, matching on op kinds per row. Always one thread —
    /// the engine's thread count is ignored. This is the numerics
    /// baseline the production executor is pinned against.
    Interp,
    /// The production executor (the default): each lowered kernel is
    /// resolved into micro-ops at prepare time and run over row chunks —
    /// in place on one thread, across the engine's pool with an ordered
    /// merge on many. Bit-identical to [`BackendKind::Interp`] at every
    /// thread count.
    #[default]
    Specialized,
}

impl BackendKind {
    /// Stable lower-case name (the label surfaced through counters,
    /// profiles, and trace metadata).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Interp => "interp",
            BackendKind::Specialized => "specialized",
        }
    }
}

/// Everything a prepared kernel needs to execute: the program and
/// graph being run, parameter and variable stores, the optional thread
/// pool, and the run plan's scratch arenas. Constructed per kernel
/// launch.
pub(crate) struct ExecCtx<'a> {
    pub(crate) program: &'a Program,
    pub(crate) graph: &'a GraphData,
    pub(crate) params: &'a mut ParamStore,
    pub(crate) vars: &'a mut VarStore,
    pub(crate) pool: Option<&'a ThreadPool>,
    pub(crate) min_chunk: usize,
    pub(crate) scratch: &'a mut Scratch,
    pub(crate) arenas: &'a mut WorkerArenas,
}

/// The prepared execution state of one [`CompiledModule`] on one
/// [`BackendKind`]: a [`PreparedKernel`] per lowered kernel. Built once
/// by [`ExecPlan::prepare`] and kept by the run plan for its lifetime.
pub(crate) struct ExecPlan {
    fw: Vec<PreparedKernel>,
    bw: Vec<PreparedKernel>,
}

impl std::fmt::Debug for ExecPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPlan")
            .field("fw_kernels", &self.fw.len())
            .field("bw_kernels", &self.bw.len())
            .finish()
    }
}

impl ExecPlan {
    /// Analyses `module` for backend `kind`: the production executor
    /// resolves each kernel into micro-ops, the oracle's plan is every
    /// GEMM and traversal [`PreparedKernel::Oracle`]. Weight preps are
    /// [`PreparedKernel::Prep`] on both.
    ///
    /// Outputs must stay **bit-identical** across kinds —
    /// `tests/backend_parity.rs` pins forward outputs, losses, and
    /// trained weights across backends and thread counts.
    pub(crate) fn prepare(kind: BackendKind, module: &CompiledModule) -> ExecPlan {
        let prepare = |kernels: &[KernelSpec], program: &Program| match kind {
            BackendKind::Interp => kernels
                .iter()
                .map(|spec| match spec {
                    KernelSpec::Fallback(f) => PreparedKernel::Prep(f.prep_index),
                    _ => PreparedKernel::Oracle,
                })
                .collect(),
            BackendKind::Specialized => spec::compile_kernels(kernels, program),
        };
        ExecPlan {
            fw: prepare(&module.fw_kernels, &module.forward),
            bw: match &module.backward {
                Some(p) => prepare(&module.bw_kernels, p),
                None => Vec::new(),
            },
        }
    }

    /// Whether register-local variable `v` of kernel `index` of `phase`
    /// lives in the executor's block scratch, so the run needs no buffer
    /// for it. Never on the oracle, which reads and writes every
    /// variable through the store.
    pub(crate) fn holds_local(&self, phase: Phase, index: usize, v: VarId) -> bool {
        self.kernels(phase)[index].holds_local(v)
    }

    fn kernels(&self, phase: Phase) -> &[PreparedKernel] {
        match phase {
            Phase::Forward => &self.fw,
            Phase::Backward => &self.bw,
        }
    }

    /// Executes kernel `index` of `phase` (`spec` is
    /// `module.fw_kernels[index]` / `bw_kernels[index]` of the module
    /// this plan was prepared from). Returns whether the kernel actually
    /// split across pool chunks (for [`hector_device::ParallelStats`]
    /// accounting).
    pub(crate) fn run_kernel(
        &self,
        phase: Phase,
        index: usize,
        spec: &KernelSpec,
        ctx: &mut ExecCtx<'_>,
    ) -> bool {
        match &self.kernels(phase)[index] {
            PreparedKernel::Micro(k) => k.run(ctx),
            PreparedKernel::Linear(k) => k.run(ctx),
            PreparedKernel::GradW(k) => k.run(ctx),
            PreparedKernel::Prep(i) => {
                let program = ctx.program;
                ctx.params.run_prep(&program.preps[*i], program, ctx.graph);
                false
            }
            PreparedKernel::Oracle => run_oracle(spec, ctx),
        }
    }
}

/// Runs one GEMM or traversal through the oracle's routines (`exec.rs`):
/// [`BackendKind::Interp`]'s plan, and nothing else. Never splits, so
/// always reports `false`.
fn run_oracle(spec: &KernelSpec, ctx: &mut ExecCtx<'_>) -> bool {
    match spec {
        KernelSpec::Gemm(g) => {
            exec_gemm(g, ctx.program, ctx.graph, ctx.params, ctx.vars, ctx.scratch);
        }
        KernelSpec::Traversal(t) => {
            exec_traversal(t, ctx.program, ctx.graph, ctx.params, ctx.vars, ctx.scratch);
        }
        KernelSpec::Fallback(_) => unreachable!("a weight prep prepares to `Prep`"),
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        assert_eq!(BackendKind::Interp.name(), "interp");
        assert_eq!(BackendKind::Specialized.name(), "specialized");
        assert_eq!(BackendKind::default(), BackendKind::Specialized);
    }
}
