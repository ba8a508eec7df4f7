//! Compiler passes and code generation for the Hector RGNN framework.
//!
//! This crate implements everything between a validated inter-operator
//! program (from `hector-ir`) and executable kernel specifications, plus
//! the CUDA-like source text those specifications read as:
//!
//! * [`reorder`] — **linear operator reordering** (paper §3.2.3): rewrites
//!   chains of linear operators whenever switching their order produces an
//!   operator *between weights*, shrinking a GEMM factor from the number
//!   of edges/nodes to the hidden dimension;
//! * [`compact`] — **compact materialization** (paper §3.2.2): re-homes
//!   edgewise tensors that depend only on `(source node, edge type)` into
//!   the compact space of unique pairs;
//! * [`backward`] — IR-level backward generation with dead-gradient
//!   elimination (paper §3.5);
//! * [`lower`] — the three-pass greedy lowering of §3.2.5: GEMM-template
//!   instances first, then maximal fusion into traversal-template
//!   instances, with framework fallback as the last resort, all driven by
//!   operator preference levels (§3.4.2);
//! * [`pipeline`] — the `@hector.compile` equivalent: one call from model
//!   source to a [`CompiledModule`], the optimized programs and their
//!   kernel sequences;
//! * [`codegen`] — [`emit`] renders a module's CUDA-like kernel source
//!   and host wrappers (§3.6) on demand, reproducing the paper's
//!   generated-code-size accounting; compilation never calls it;
//! * [`cache`] — the process-wide [`ModuleCache`]: compilation is
//!   deterministic, so identical `(source, dims, options)` requests
//!   compile once per process and share one `Arc<CompiledModule>`.

#![warn(missing_docs)]

pub mod backward;
pub mod cache;
pub mod codegen;
pub mod compact;
pub mod dce;
pub mod lower;
pub mod pipeline;
pub mod reorder;

pub use cache::{compile_cached, source_fingerprint, ModuleCache, ModuleCacheStats};
pub use codegen::{emit, GeneratedCode};
pub use pipeline::{compile, CompileOptions, CompiledModule};
