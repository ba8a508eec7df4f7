//! Shared harness utilities for regenerating the paper's tables and
//! figures, plus the counting allocator ([`alloc_counter`]) the two
//! allocation suites share.
//!
//! Every `[[bench]] harness = false` binary in this crate reproduces one
//! table or figure of the paper's evaluation (see `DESIGN.md` §4 for the
//! index). They share the machinery here: dataset loading at a
//! configurable scale, a unified way to run Hector and the baselines, and
//! text-table formatting. Wall-clock numbers are not measured here — the
//! `hector_benchmark` package is the repo's only source of those.
//!
//! # Scaling
//!
//! The environment variable `HECTOR_SCALE` (default `1.0`) scales every
//! dataset's node/edge counts. The simulated device's memory capacity is
//! scaled by the same factor, so out-of-memory behaviour is preserved at
//! reduced scale (footprints are dominated by edge-proportional tensors).
//! Runs read each compiled plan with [`hector::model_run`] — nothing
//! executes — so even paper scale completes in seconds of host time.

#![warn(missing_docs)]

use hector::baselines::SystemReport;
use hector::prelude::*;

/// Dataset scale factor from `HECTOR_SCALE` (default 1.0 = paper scale).
#[must_use]
pub fn scale() -> f64 {
    std::env::var("HECTOR_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s.is_finite() && s > 0.0)
        .unwrap_or(1.0)
}

/// Device configuration with capacity scaled alongside the datasets.
#[must_use]
pub fn device_config(scale: f64) -> DeviceConfig {
    let base = DeviceConfig::rtx3090();
    let cap = (base.memory_capacity as f64 * scale).max(64.0 * 1024.0 * 1024.0) as usize;
    base.with_capacity(cap)
}

/// One generated dataset ready for experiments.
pub struct PreparedDataset {
    /// Dataset name (paper's label).
    pub name: String,
    /// Graph plus derived structures.
    pub graph: GraphData,
}

/// Generates all eight paper datasets (figure order: wikikg2, mutag, mag,
/// fb15k, biokg, bgs, am, aifb) at the given scale.
#[must_use]
pub fn load_datasets(scale: f64) -> Vec<PreparedDataset> {
    hector::datasets::all()
        .into_iter()
        .map(|spec| {
            let name = spec.name.clone();
            let graph = GraphData::new(hector::generate(&spec.scaled(scale)));
            PreparedDataset { name, graph }
        })
        .collect()
}

/// Generates a single named dataset at the given scale.
///
/// # Panics
///
/// Panics on an unknown dataset name.
#[must_use]
pub fn load_dataset(name: &str, scale: f64) -> PreparedDataset {
    let spec = hector::datasets::by_name(name).expect("unknown dataset");
    PreparedDataset {
        name: name.to_string(),
        graph: GraphData::new(hector::generate(&spec.scaled(scale))),
    }
}

/// Unified outcome of one system run (Hector or baseline).
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulated epoch time in milliseconds (`None` on OOM).
    pub time_ms: Option<f64>,
    /// Peak device memory in bytes.
    pub peak_bytes: usize,
    /// Kernel launches.
    pub launches: usize,
    /// GEMM time, ms.
    pub gemm_ms: f64,
    /// Traversal/sparse time, ms.
    pub traversal_ms: f64,
    /// Copy/indexing time, ms.
    pub copy_ms: f64,
    /// Framework/API time, ms.
    pub other_ms: f64,
}

impl Outcome {
    /// Formats the time, or "OOM".
    #[must_use]
    pub fn fmt(&self) -> String {
        match self.time_ms {
            Some(t) => format!("{t:.2}"),
            None => "OOM".to_string(),
        }
    }
}

impl From<SystemReport> for Outcome {
    fn from(r: SystemReport) -> Outcome {
        Outcome {
            time_ms: if r.oom { None } else { Some(r.time_us / 1e3) },
            peak_bytes: r.peak_bytes,
            launches: r.launches,
            gemm_ms: r.gemm_us / 1e3,
            traversal_ms: r.traversal_us / 1e3,
            copy_ms: r.copy_us / 1e3,
            other_ms: r.other_us / 1e3,
        }
    }
}

/// Runs Hector's modeled reading of one configuration —
/// [`hector::model_run`] over the module an engine built from the same
/// settings runs — and returns a unified outcome.
#[must_use]
pub fn run_hector(
    kind: ModelKind,
    graph: &GraphData,
    dim_in: usize,
    dim_out: usize,
    opts: &CompileOptions,
    training: bool,
    config: &DeviceConfig,
) -> Outcome {
    let source = EngineBuilder::new(kind).dims(dim_in, dim_out).source();
    let module = hector::compile_cached(&source, &opts.clone().with_training(training));
    let mut device = hector::Device::new(config.clone());
    match hector::model_run(&module, graph, &mut device, training) {
        Ok(r) => Outcome {
            time_ms: Some(r.elapsed_us / 1e3),
            peak_bytes: r.peak_bytes,
            launches: r.launches,
            gemm_ms: r.gemm_us / 1e3,
            traversal_ms: r.traversal_us / 1e3,
            copy_ms: r.copy_us / 1e3,
            other_ms: r.fallback_us / 1e3,
        },
        Err(_) => Outcome {
            time_ms: None,
            peak_bytes: device.memory().peak(),
            launches: 0,
            gemm_ms: 0.0,
            traversal_ms: 0.0,
            copy_ms: 0.0,
            other_ms: 0.0,
        },
    }
}

/// Geometric mean of a slice (ignores empties by returning 0).
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Prints a header banner for a harness binary.
pub fn banner(title: &str, scale: f64) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!(
        "(simulated {}; dataset scale {scale}; set HECTOR_SCALE to change)",
        DeviceConfig::rtx3090().name
    );
    println!("================================================================");
}

/// Human-readable bytes.
#[must_use]
pub fn human_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.0} KB", b as f64 / 1024.0)
    }
}

pub mod alloc_counter {
    //! Counting global allocator shared by the root `tests/run_alloc.rs`
    //! and `tests/interp_alloc.rs` suites (via the `hector` crate's
    //! dev-dependency on this lib), so both measure allocation *events*
    //! with the identical instrument.
    //!
    //! Each binary opts in with:
    //!
    //! ```ignore
    //! #[global_allocator]
    //! static COUNTER: CountingAlloc = CountingAlloc;
    //! ```

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Delegates to [`System`], counting every allocation event
    /// (`alloc`, `alloc_zeroed`, `realloc` — frees are not events).
    pub struct CountingAlloc;

    static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

    /// Allocation events observed so far in this process.
    #[must_use]
    pub fn alloc_events() -> usize {
        ALLOC_EVENTS.load(Ordering::Relaxed)
    }

    /// Blocks until the process has been allocation-quiet for a few
    /// milliseconds (bounded at a quarter second). The counter is
    /// process-global, so a measured window also sees the test harness's
    /// own threads — reporting the previous test, spawning the next —
    /// which run right as a test takes over the serializing lock. Call
    /// this once the lock is held, before the first window.
    pub fn settle() {
        let mut quiet = 0;
        let mut seen = alloc_events();
        for _ in 0..125 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let now = alloc_events();
            quiet = if now == seen { quiet + 1 } else { 0 };
            seen = now;
            if quiet == 3 {
                return;
            }
        }
    }

    static ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    /// Debug aid: while armed, every allocation event prints a capture
    /// backtrace to stderr (reentrant captures are suppressed).
    pub fn arm_backtrace(on: bool) {
        ARMED.store(on, Ordering::SeqCst);
    }

    fn trace_alloc() {
        thread_local! {
            static IN_HOOK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        if ARMED.load(Ordering::Relaxed) {
            IN_HOOK.with(|h| {
                if !h.get() {
                    h.set(true);
                    let bt = std::backtrace::Backtrace::force_capture();
                    eprintln!("=== alloc event ===\n{bt}");
                    h.set(false);
                }
            });
        }
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            trace_alloc();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            trace_alloc();
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            trace_alloc();
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(2048), "2 KB");
        assert!(human_bytes(5 << 20).contains("MB"));
        assert!(human_bytes(3 << 30).contains("GB"));
    }

    #[test]
    fn scaled_device_keeps_oom_shape() {
        let c = device_config(0.1);
        assert!(c.memory_capacity < DeviceConfig::rtx3090().memory_capacity);
    }

    #[test]
    fn run_hector_small_outcome() {
        let d = load_dataset("aifb", 0.01);
        let cfg = device_config(0.01);
        let o = run_hector(
            ModelKind::Rgcn,
            &d.graph,
            64,
            64,
            &CompileOptions::best(),
            false,
            &cfg,
        );
        assert!(o.time_ms.is_some());
        assert!(o.launches > 0);
    }
}
