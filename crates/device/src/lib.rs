//! Simulated GPU device for the Hector RGNN compiler reproduction.
//!
//! The original Hector system generates CUDA kernels and measures them on
//! an Nvidia RTX 3090. This environment has no GPU, so Hector's generated
//! kernels are executed *functionally* on the CPU while this crate
//! accounts what the GPU would have done:
//!
//! * [`DeviceConfig`] — the hardware parameters of the modeled card
//!   (default: RTX 3090, the paper's testbed);
//! * [`MemoryPool`] — device-memory accounting with genuine out-of-memory
//!   failures at the configured capacity, reproducing the OOM behaviour
//!   in the paper's Fig. 8 and Table 4;
//! * [`KernelCost`] + [`Device::launch`] — an analytical roofline-style
//!   cost model: each kernel's duration is the launch overhead plus the
//!   maximum of its compute time (with an occupancy/size efficiency
//!   curve), its memory time, and a latency floor inflated by atomic
//!   operations. This reproduces the paper's key architectural findings:
//!   small kernels underutilize the GPU, throughput rises with input
//!   size (Fig. 11/12), and atomic-heavy backward passes are
//!   latency-bound (§4.4);
//! * [`Counters`] — per kernel-category architectural metrics (achieved
//!   GFLOP/s, DRAM throughput %, an IPC proxy) matching Fig. 12's
//!   reporting.
//!
//! Nothing in this crate performs numerics; it is pure bookkeeping driven
//! by the kernel specifications the compiler emits. It depends on no
//! other Hector crate and mirrors none of their state: the compiler's
//! module cache reports its own counters (`ModuleCache::stats`).

#![warn(missing_docs)]

mod config;
mod cost;
mod counters;
mod device;
mod memory;

pub use config::DeviceConfig;
pub use cost::{KernelCategory, KernelCost, Phase};
pub use counters::{
    BackendStats, CategoryMetrics, Counters, ParallelStats, SamplerStats, ScratchStats,
};
pub use device::Device;
pub use memory::{AllocId, MemoryPool, OomError};
