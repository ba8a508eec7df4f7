//! The [`Device`] façade combining memory, timing, and counters.

use crate::{AllocId, Counters, DeviceConfig, KernelCost, MemoryPool, OomError};

/// One simulated GPU: configuration, memory pool, clock, and counters.
///
/// The runtime drives a `Device` by allocating/freeing tensor storage and
/// launching [`KernelCost`]s; the device accumulates simulated time and
/// per-category metrics. Functional numerics happen elsewhere — the
/// device is pure accounting, which is what lets full-paper-scale
/// experiments run in milliseconds of host time.
#[derive(Clone, Debug)]
pub struct Device {
    config: DeviceConfig,
    memory: MemoryPool,
    counters: Counters,
    elapsed_us: f64,
    host_api_us: f64,
}

impl Device {
    /// Creates a device with the given configuration.
    #[must_use]
    pub fn new(config: DeviceConfig) -> Device {
        let memory = MemoryPool::new(config.memory_capacity);
        Device {
            config,
            memory,
            counters: Counters::new(),
            elapsed_us: 0.0,
            host_api_us: 0.0,
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The memory pool (read access).
    #[must_use]
    pub fn memory(&self) -> &MemoryPool {
        &self.memory
    }

    /// Allocates `bytes` of device memory.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when capacity is exceeded.
    pub fn alloc(&mut self, bytes: usize, label: &str) -> Result<AllocId, OomError> {
        self.memory.alloc(bytes, label)
    }

    /// Frees a device allocation.
    pub fn free(&mut self, id: AllocId) {
        self.memory.free(id);
    }

    /// Launches a kernel: advances the simulated clock and records
    /// counters.
    pub fn launch(&mut self, cost: &KernelCost) {
        self.elapsed_us += cost.duration_us(&self.config);
        self.counters.record(cost, &self.config);
    }

    /// Records one real-mode host kernel execution for the parallel
    /// executor's wall-clock and chunk report (see
    /// [`crate::ParallelStats`]). Does not advance the simulated clock:
    /// host interpreter time and simulated device time are separate
    /// books.
    pub fn record_host_exec(
        &mut self,
        category: crate::KernelCategory,
        parallel: bool,
        wall_us: f64,
        chunks: usize,
    ) {
        self.counters
            .record_host_exec(category, parallel, wall_us, chunks);
    }

    /// Records one real-mode kernel execution's scratch-arena activity
    /// (see [`crate::ScratchStats`]): how many times the interpreter's
    /// reusable buffers had to grow (heap allocations) and the arena's
    /// current footprint. Steady-state kernels record `grows == 0`.
    pub fn record_scratch(&mut self, grows: usize, bytes: usize) {
        self.counters.record_scratch(grows, bytes);
    }

    /// Records one plan-reusing run's persistent-buffer activity (see
    /// [`crate::ScratchStats::plan_grows`]): warm runs record zero
    /// growth — whole-run allocation freedom made observable.
    pub fn record_plan(&mut self, grows: usize, bytes: usize) {
        self.counters.record_plan(grows, bytes);
    }

    /// Records which execution backend this run launches kernels on and
    /// whether its prepared plan was reused (see [`crate::BackendStats`]).
    pub fn record_backend(&mut self, name: &'static str, plan_reused: bool) {
        self.counters.record_backend(name, plan_reused);
    }

    /// Adds `n` kernel launches to the backend accounting (see
    /// [`crate::BackendStats::kernels`]).
    pub fn record_backend_kernels(&mut self, n: u64) {
        self.counters.record_backend_kernels(n);
    }

    /// Records one consumed mini-batch's sampler activity (see
    /// [`crate::SamplerStats`]): batch size, host time spent producing
    /// it, and consumer time blocked on its arrival. Host-side books
    /// only — the simulated clock does not advance.
    pub fn record_sampler_batch(
        &mut self,
        nodes: usize,
        edges: usize,
        sample_wall_us: f64,
        wait_wall_us: f64,
    ) {
        self.counters
            .record_sampler_batch(nodes, edges, sample_wall_us, wait_wall_us);
    }

    /// Charges pure host-side API overhead (framework dispatch without a
    /// kernel), as eager per-relation Python loops do.
    pub fn charge_api_call(&mut self) {
        self.elapsed_us += self.config.api_call_us;
        self.host_api_us += self.config.api_call_us;
    }

    /// Total simulated time elapsed, microseconds.
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        self.elapsed_us
    }

    /// Host API time included in [`Device::elapsed_us`], microseconds.
    #[must_use]
    pub fn host_api_us(&self) -> f64 {
        self.host_api_us
    }

    /// The architectural counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Resets clock and counters but keeps live allocations.
    pub fn reset_clock(&mut self) {
        self.elapsed_us = 0.0;
        self.host_api_us = 0.0;
        self.counters.reset();
    }

    /// Resets everything, including memory.
    pub fn reset(&mut self) {
        self.reset_clock();
        self.memory.reset();
    }
}

impl Default for Device {
    fn default() -> Self {
        Device::new(DeviceConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelCategory, Phase};

    #[test]
    fn launch_advances_clock() {
        let mut d = Device::default();
        let mut c = KernelCost::new(KernelCategory::Gemm, Phase::Forward);
        c.flops = 1e9;
        c.items = 1e5;
        d.launch(&c);
        assert!(d.elapsed_us() > 0.0);
        assert_eq!(d.counters().total_launches(), 1);
    }

    #[test]
    fn alloc_flows_through_pool() {
        let mut d = Device::new(DeviceConfig::rtx3090().with_capacity(1000));
        let id = d.alloc(800, "x").unwrap();
        assert!(d.alloc(500, "y").is_err());
        d.free(id);
        assert!(d.alloc(500, "y").is_ok());
    }

    #[test]
    fn api_call_charges_time() {
        let mut d = Device::default();
        d.charge_api_call();
        assert_eq!(d.elapsed_us(), d.config().api_call_us);
        assert_eq!(d.host_api_us(), d.config().api_call_us);
    }

    #[test]
    fn reset_clock_keeps_memory() {
        let mut d = Device::default();
        let _id = d.alloc(100, "x").unwrap();
        d.charge_api_call();
        d.reset_clock();
        assert_eq!(d.elapsed_us(), 0.0);
        assert_eq!(d.memory().in_use(), 100);
        d.reset();
        assert_eq!(d.memory().in_use(), 0);
    }
}
