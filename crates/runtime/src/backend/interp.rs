//! The sequential oracle backend.
//!
//! Executes each kernel spec exactly as `crates/runtime/src/exec.rs`
//! defines it — one row at a time, on the calling thread — and is the
//! numerics baseline the production executor is pinned against.

use hector_compiler::CompiledModule;
use hector_device::Phase;
use hector_ir::KernelSpec;

use crate::exec::{exec_gemm, exec_traversal};

use super::{Backend, BackendKind, ExecCtx, ExecPlan};

/// The sequential oracle (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct InterpBackend;

impl Backend for InterpBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Interp
    }

    fn prepare(&self, module: &CompiledModule) -> ExecPlan {
        ExecPlan::new(module, Vec::new(), Vec::new())
    }

    fn run_kernel(
        &self,
        _plan: &ExecPlan,
        _phase: Phase,
        _index: usize,
        spec: &KernelSpec,
        ctx: &mut ExecCtx<'_>,
    ) -> bool {
        run_oracle(spec, ctx)
    }
}

/// Runs one kernel through the oracle's routines — also the production
/// executor's one-chunk route for weight preps and kernels its resolver
/// declined. Never splits, so always reports `false`.
pub(crate) fn run_oracle(spec: &KernelSpec, ctx: &mut ExecCtx<'_>) -> bool {
    match spec {
        KernelSpec::Gemm(g) => {
            exec_gemm(g, ctx.program, ctx.graph, ctx.params, ctx.vars, ctx.scratch);
        }
        KernelSpec::Traversal(t) => {
            exec_traversal(t, ctx.program, ctx.graph, ctx.params, ctx.vars, ctx.scratch);
        }
        KernelSpec::Fallback(f) => {
            if let Some(i) = f.prep_index {
                ctx.params
                    .run_prep(&ctx.program.preps[i], ctx.program, ctx.graph);
            }
        }
    }
    false
}
