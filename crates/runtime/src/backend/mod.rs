//! Execution backends: the production executor and its oracle.
//!
//! The compiler lowers a model to a sequence of [`KernelSpec`]s; *how*
//! those kernels execute is a backend decision. An engine routes every
//! real-mode kernel launch through its `Backend`:
//!
//! * `Backend::prepare` runs once per (engine, module) and builds an
//!   `ExecPlan` of per-kernel prepared state. The plan is cached on
//!   the engine, keyed on the module's id, so warm runs pay none of the
//!   analysis and stay allocation-free.
//! * `Backend::run_kernel` executes one kernel of the plan against an
//!   `ExecCtx` (graph, parameters, variable buffers, scratch arenas).
//!
//! Two backends, two roles:
//!
//! * **`specialized`** ([`BackendKind::Specialized`], the default) is the
//!   **production executor**. It resolves operands, row maps, stage
//!   schedules, and aggregation kinds once at `prepare` time into
//!   micro-op kernels (`spec.rs`), and runs them over row chunks: one
//!   chunk with aggregates folded in place on a single thread, disjoint
//!   chunks on the engine's pool with an ordered merge otherwise
//!   (`chunk.rs`). Outputs are bit-identical at every thread count.
//! * **`interp`** ([`BackendKind::Interp`]) is the **sequential
//!   oracle**: the small, obviously-correct row-at-a-time interpreter in
//!   `exec.rs` that the parity suites compare production against
//!   (`tests/backend_parity.rs`). It is sequential by definition — it
//!   ignores the engine's thread count and creates no pool — and shares
//!   only leaf numerics (dot products, elementwise ops, the GEMM row
//!   microkernels) with production.
//!
//! The CUDA code generator (`CompiledModule::code`) is *not* a backend:
//! it is a text-only emission target — nothing in this crate executes
//! it. See `GeneratedCode` in `hector-compiler`.

use std::sync::Arc;

use hector_compiler::CompiledModule;
use hector_device::Phase;
use hector_ir::{KernelSpec, Program};
use hector_par::ThreadPool;

use crate::scratch::Scratch;
use crate::store::VarStore;
use crate::{GraphData, ParamStore};

mod chunk;
mod interp;
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

    /// Parses a backend name ([`BackendKind::name`] or a common alias).
    #[must_use]
    pub fn from_name(s: &str) -> Option<BackendKind> {
        match s.trim() {
            "interp" | "interpreter" => Some(BackendKind::Interp),
            "specialized" | "spec" => Some(BackendKind::Specialized),
            _ => None,
        }
    }

    /// Fallible counterpart of [`BackendKind::from_name`]: parses a
    /// backend name, reporting an unknown one as
    /// [`HectorError::BackendUnavailable`](crate::HectorError::BackendUnavailable) instead of [`None`] — the
    /// form server front ends and config loaders want.
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::BackendUnavailable`](crate::HectorError::BackendUnavailable) for any name
    /// [`BackendKind::from_name`] does not recognise.
    pub fn parse(s: &str) -> Result<BackendKind, crate::HectorError> {
        BackendKind::from_name(s).ok_or_else(|| crate::HectorError::BackendUnavailable {
            name: s.to_string(),
        })
    }
}

/// Everything a backend needs to execute one kernel: the program and
/// graph being run, parameter and variable stores, the optional thread
/// pool, and the session-owned scratch arenas. Constructed per kernel
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

/// A backend's prepared execution state for one [`CompiledModule`]: the
/// production executor's micro-op kernels (the oracle prepares
/// nothing). Built by [`Backend::prepare`], cached by the session, and
/// keyed to the module it was built from.
pub(crate) struct ExecPlan {
    module_id: u64,
    fw: Vec<PreparedKernel>,
    bw: Vec<PreparedKernel>,
}

impl std::fmt::Debug for ExecPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPlan")
            .field("module_id", &self.module_id)
            .field("fw_kernels", &self.fw.len())
            .field("bw_kernels", &self.bw.len())
            .finish()
    }
}

impl ExecPlan {
    fn new(module: &CompiledModule, fw: Vec<PreparedKernel>, bw: Vec<PreparedKernel>) -> ExecPlan {
        ExecPlan {
            module_id: module.id,
            fw,
            bw,
        }
    }

    /// Whether this plan was prepared from `module` — the session's
    /// cache key for skipping re-preparation on warm runs. Module ids
    /// are process-unique per compilation, so two modules that merely
    /// share an address (or a name and kernel counts) never alias.
    pub(crate) fn matches(&self, module: &CompiledModule) -> bool {
        self.module_id == module.id
    }

    fn kernels(&self, phase: Phase) -> &[PreparedKernel] {
        match phase {
            Phase::Forward => &self.fw,
            Phase::Backward => &self.bw,
        }
    }
}

/// An execution strategy for compiled kernel sequences.
///
/// Implementations must keep outputs **bit-identical** to the oracle
/// ([`BackendKind::Interp`]) — `tests/backend_parity.rs` pins forward
/// outputs, losses, and trained weights across backends and thread
/// counts.
pub(crate) trait Backend: std::fmt::Debug + Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Stable backend name (see [`BackendKind::name`]).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Analyses `module` and builds the prepared per-kernel state this
    /// backend needs. Called once per (session, module); the session
    /// caches the result so warm runs skip it entirely.
    fn prepare(&self, module: &CompiledModule) -> ExecPlan;

    /// Executes kernel `index` of `phase` (`spec` is
    /// `module.fw_kernels[index]` / `bw_kernels[index]`, `plan` the
    /// matching [`Backend::prepare`] result). Returns whether the kernel
    /// actually split across pool chunks (for
    /// [`hector_device::ParallelStats`] accounting).
    fn run_kernel(
        &self,
        plan: &ExecPlan,
        phase: Phase,
        index: usize,
        spec: &KernelSpec,
        ctx: &mut ExecCtx<'_>,
    ) -> bool;
}

/// Instantiates the backend for `kind`.
pub(crate) fn create(kind: BackendKind) -> Arc<dyn Backend> {
    match kind {
        BackendKind::Interp => Arc::new(interp::InterpBackend),
        BackendKind::Specialized => Arc::new(spec::SpecializedBackend),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in [BackendKind::Interp, BackendKind::Specialized] {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::from_name("wgpu"), None);
        assert_eq!(BackendKind::default(), BackendKind::Specialized);
    }

    #[test]
    fn created_backends_report_their_kind() {
        for kind in [BackendKind::Interp, BackendKind::Specialized] {
            let b = create(kind);
            assert_eq!(b.kind(), kind);
            assert_eq!(b.name(), kind.name());
        }
    }
}
