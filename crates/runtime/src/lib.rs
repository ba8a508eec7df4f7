//! Runtime for compiled Hector modules.
//!
//! The primary surface is a pair of owning handles:
//! [`Engine`] (built via [`EngineBuilder`]: one call from model kind +
//! options to a compiled, cached handle; `bind` a graph, then
//! `forward()`) and [`Trainer`] (an engine plus optimizer and the
//! paper's NLL training recipe; `step()` / `epoch(n)`). Both route every
//! run through the engine's persistent run plan, so warm runs are
//! allocation-free by construction.
//!
//! Underneath, an engine executes the kernel sequence of a
//! `hector_compiler::CompiledModule` against a [`GraphData`] instance
//! functionally on the CPU (exact numerics), and charges a simulated GPU
//! ([`hector_device::Device`]) for it. The charge is a reading of the
//! plan alone: [`model_run`] derives each launch's
//! [`hector_device::KernelCost`] from its spec and the graph statistics,
//! and allocates device memory for every tensor materialisation (locals
//! excluded — fused temporaries stay in registers, §3.4.2). Every real
//! run charges its device through that walk before any kernel executes,
//! and paper-scale experiments call it directly: they finish in
//! milliseconds with the simulated timings, memory footprints, OOM
//! events, and architectural counters a real run reports.
//!
//! Training support follows the paper's recipe (§4.1): negative
//! log-likelihood against a seeded random label tensor, full-graph steps,
//! SGD/Adam updates, with derived (reorder-fused) weights recomputed from
//! their base weights each step and their gradients distributed back
//! through the weight-prep chain rule.

#![warn(missing_docs)]

mod backend;
mod cost;
mod engine;
mod error;
mod exec;
mod graphdata;
mod loss;
mod minibatch;
mod optim;
mod params;
mod scratch;
mod session;
mod store;
mod subgraph;

pub use backend::BackendKind;
pub use cost::model_run;
pub use engine::{Engine, EngineBuilder, EpochReport, Trainer};
pub use error::HectorError;
pub use graphdata::GraphData;
pub use hector_graph::{NeighborSampler, SampledBatch, SamplerConfig};
pub use hector_par::{chunk_ranges, ParallelConfig, PoolStats};
pub use hector_trace as trace;
pub use hector_trace::report::{ProfileReport, RelationAgg, SpanAgg};
pub use hector_trace::TraceConfig;
pub use loss::{nll_loss_and_grad, nll_loss_and_grad_into, random_labels, LossResult};
pub use minibatch::{Batch, Minibatches};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::ParamStore;
pub use session::{cnorm_tensor, Bindings, Mode, RunReport};
pub use subgraph::Subgraph;
