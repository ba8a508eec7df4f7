//! # Hector
//!
//! A programming and compilation framework for relational graph neural
//! networks (RGNNs) — a Rust reproduction of *"Hector: An Efficient
//! Programming and Compilation Framework for Implementing Relational
//! Graph Neural Networks in GPU Architectures"* (Wu et al., ASPLOS 2024).
//!
//! Hector compiles concise RGNN model definitions (RGCN, RGAT, HGT, or
//! your own, written in a small builder DSL) through a two-level IR into
//! kernel specifications derived from two templates — a **GEMM template**
//! with flexible gather/scatter access schemes and a **node/edge
//! traversal template** — plus CUDA-like source text. Kernels execute
//! functionally on the CPU for exact numerics; [`model_run`] reads the
//! compiled plan alone to reproduce the paper's simulated-GPU timing,
//! memory, and out-of-memory behaviour at full dataset scale.
//!
//! Two optimizations from the paper are implemented as IR passes:
//! **compact materialization** (§3.2.2) and **linear operator
//! reordering** (§3.2.3), toggled via [`CompileOptions`].
//!
//! ## Quickstart
//!
//! The one-call lifecycle: an [`EngineBuilder`] assembles model,
//! dimensions, options, device, and seed into an [`Engine`] (compilation
//! goes through the process-wide [`ModuleCache`], so identical engines
//! compile once per process); `bind` a graph, then run.
//!
//! ```
//! use hector::prelude::*;
//!
//! # fn main() -> Result<(), HectorError> {
//! // 1. A heterogeneous graph (here: a scaled-down AIFB).
//! let spec = hector::datasets::aifb().scaled(0.01);
//! let graph = GraphData::new(hector::generate(&spec));
//!
//! // 2-3. Compile RGAT with both optimizations (cached process-wide)
//! //      and run inference on the simulated RTX 3090. Every fallible
//! //      step reports misuse or exhaustion as a `HectorError`.
//! let mut engine = EngineBuilder::new(ModelKind::Rgat)
//!     .dims(32, 32)
//!     .options(CompileOptions::best())
//!     .seed(0)
//!     .build()?;
//! let bound = engine.bind(&graph)?;
//! let report = bound.forward()?;
//! assert!(report.elapsed_us > 0.0);
//! assert_eq!(bound.output().rows(), graph.graph().num_nodes());
//!
//! // Training is one more call: wrap the engine with an optimizer.
//! let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
//!     .dims(16, 16)
//!     .seed(1)
//!     .build_trainer(Adam::new(0.01))?;
//! trainer.bind(&graph)?;
//! let epoch = trainer.epoch(3)?;
//! assert_eq!(epoch.losses.len(), 3);
//! # Ok(()) }
//! ```
//!
//! ## Errors
//!
//! Every fallible entry point of the handle API — [`EngineBuilder::build`],
//! [`Engine::bind`], [`Engine::forward`], [`Trainer::step`], and friends —
//! returns [`Result`]`<_, `[`HectorError`]`>`. Caller misuse (an unbound
//! engine, a misshapen binding, an unknown backend, a zero-thread
//! configuration) is reported as a typed, matchable error rather than a
//! panic; panics are reserved for internal invariant violations.

#![warn(missing_docs)]

use std::sync::Arc;

pub mod autotune;

pub use autotune::{autotune, TuneResult};
pub use hector_baselines as baselines;
pub use hector_compiler::{
    compile, compile_cached, emit, source_fingerprint, CompileOptions, CompiledModule,
    GeneratedCode, ModuleCache, ModuleCacheStats,
};
pub use hector_device::{BackendStats, Device, DeviceConfig, SamplerStats, ScratchStats};
pub use hector_graph::{
    datasets, generate, DatasetSpec, GraphStats, HeteroGraph, HeteroGraphBuilder, NeighborSampler,
    SampledBatch, SamplerConfig,
};
pub use hector_ir::{builder::ModelSource, ModelBuilder};
pub use hector_models::{source as model_source, stacked, ModelKind};
pub use hector_runtime::{
    chunk_ranges, model_run, trace, BackendKind, Batch, Bindings, Engine, EngineBuilder,
    EpochReport, GraphData, HectorError, Minibatches, ParallelConfig, ParamStore, ProfileReport,
    RunReport, Subgraph, TraceConfig, Trainer,
};
pub use hector_serve as serve;
pub use hector_shard as shard;
pub use hector_shard::{
    BindSharded, DeltaBatch, DeltaOutcome, GreedyEdgeCut, HashPartitioner, Partitioner,
    RangePartitioner, ShardConfig, ShardedEngine, ShardedGraph,
};

/// Compiles one of the built-in models through the process-wide
/// [`ModuleCache`], returning the shared handle: repeated calls with
/// the same `(kind, dims, options)` compile once per process.
#[must_use]
pub fn compile_model_cached(
    kind: ModelKind,
    in_dim: usize,
    out_dim: usize,
    options: &CompileOptions,
) -> Arc<CompiledModule> {
    compile_cached(&hector_models::source(kind, in_dim, out_dim), options)
}

/// Convenience prelude with the types most applications need.
pub mod prelude {
    pub use hector_compiler::{CompileOptions, CompiledModule, ModuleCache};
    pub use hector_device::DeviceConfig;
    pub use hector_graph::{DatasetSpec, GraphStats, HeteroGraphBuilder, SamplerConfig};
    pub use hector_ir::ModelBuilder;
    pub use hector_models::ModelKind;
    pub use hector_runtime::{
        Adam, BackendKind, Batch, Bindings, Engine, EngineBuilder, EpochReport, GraphData,
        HectorError, Minibatches, Mode, Optimizer, ParallelConfig, ParamStore, ProfileReport, Sgd,
        TraceConfig, Trainer,
    };
    pub use hector_tensor::{seeded_rng, Tensor};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_model_produces_kernels_for_all_models() {
        for kind in ModelKind::all() {
            let m = compile_model_cached(kind, 16, 16, &CompileOptions::best());
            assert!(!m.fw_kernels.is_empty(), "{kind:?} produced no kernels");
        }
    }
}
