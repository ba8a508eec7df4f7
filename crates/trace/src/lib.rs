//! Structured tracing and profiling for the Hector runtime.
//!
//! The recorder is process-global and **zero-overhead when off**: every
//! instrumentation site starts with [`span_start`], which is a single
//! relaxed atomic load returning `None` while tracing is disabled — no
//! clock read, no allocation, no lock. The allocation-free warm path of
//! `Engine::forward` / `train_step` (pinned by `tests/run_alloc.rs`)
//! is therefore preserved with tracing compiled in.
//!
//! When tracing is enabled (via [`enable`], [`TraceConfig`], or the
//! `HECTOR_TRACE` environment variable read by the engine builder),
//! spans are written into **bounded per-thread ring buffers**:
//!
//! * each thread registers one ring on its first recorded event
//!   (capacity from `HECTOR_TRACE_BUF`, default 16384 events);
//! * recording into a registered ring takes only that ring's own
//!   uncontended mutex and overwrites the oldest slot when full
//!   (overflow is counted, never grows the buffer);
//! * spans recorded without a `detail` string perform **zero heap
//!   allocations** after the ring exists, so steady-state tracing does
//!   not perturb the allocation profile it is measuring.
//!
//! Timestamps are monotonic nanoseconds from a process-wide epoch
//! ([`std::time::Instant`]), and every event carries a dense trace
//! thread id plus the OS thread name captured at registration (worker
//! threads are named `hector-par-{i}` by the pool), so exports land in
//! per-thread lanes in Perfetto / `chrome://tracing`.
//!
//! Three consumers sit on top of the recorder:
//!
//! * [`report::ProfileReport`] — per-kernel-kind and per-relation
//!   aggregates with a pretty `Display` table (`Engine::profile`);
//! * [`chrome`] — `trace_event` JSON export for Perfetto;
//! * [`stats`] — cumulative counters merged into the device
//!   `counters()` report.

#![warn(missing_docs)]

pub mod chrome;
pub mod report;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Category of a recorded span or instant event.
///
/// Categories partition the timeline so [`report::ProfileReport`] can
/// attribute wall time without double counting: `Run` spans cover one
/// whole `forward`/`train_step`, and the disjoint `Kernel` + `Phase`
/// spans inside them are what "attributed" means.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanCat {
    /// One whole run (`run/forward`, `run/train_step`).
    Run,
    /// A non-kernel slice of a run (bind, loss, optimizer, setup).
    Phase,
    /// One kernel invocation in an executor.
    Kernel,
    /// One chunk executed by a pool worker (parallel executor).
    Worker,
    /// A compiler pass or fusion decision.
    Compiler,
    /// Minibatch pipeline activity (sample, prefetch wait).
    Pipeline,
    /// Sharded-execution activity (per-shard runs, boundary exchange,
    /// delta application).
    Shard,
}

impl SpanCat {
    /// Stable lowercase label used in exports and golden files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanCat::Run => "run",
            SpanCat::Phase => "phase",
            SpanCat::Kernel => "kernel",
            SpanCat::Worker => "worker",
            SpanCat::Compiler => "compiler",
            SpanCat::Pipeline => "pipeline",
            SpanCat::Shard => "shard",
        }
    }
}

/// One recorded event: a duration span, or an instant annotation
/// (`dur_ns == 0`, `instant == true`).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Static span name, e.g. `gemm/typed_linear`.
    pub name: &'static str,
    /// Category (timeline lane semantics — see [`SpanCat`]).
    pub cat: SpanCat,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Dense trace thread id (0 = first recording thread).
    pub tid: u64,
    /// Rows / edges processed (0 when not applicable).
    pub rows: u64,
    /// Stage index within the run (kernel position, chunk index).
    pub stage: u32,
    /// Estimated floating-point operations (0.0 when unknown).
    pub flops: f64,
    /// Optional free-form annotation (fusion decisions); spans on the
    /// execution hot path never carry one, keeping recording
    /// allocation-free.
    pub detail: Option<Box<str>>,
    /// True for point-in-time annotations rather than spans.
    pub instant: bool,
}

/// Cumulative recorder counters, exposed through the device crate's
/// `Counters::trace()` so benches and CI consume them alongside the
/// existing kernel/parallel/sampler stats.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// Whether tracing is currently enabled.
    pub enabled: bool,
    /// Events recorded into rings since process start (or [`clear`]).
    pub recorded: u64,
    /// Events overwritten because a ring was full.
    pub dropped: u64,
    /// Threads that have registered a ring.
    pub threads: u64,
}

/// How tracing should be configured for an engine.
///
/// `EngineBuilder::trace` takes one of these; [`TraceConfig::from_env`]
/// reads the `HECTOR_TRACE` variable so any binary can opt in without
/// code changes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Enable the recorder for the engine's lifetime.
    pub enabled: bool,
    /// Write a chrome-trace JSON file here when the engine is dropped
    /// (or when `Engine::write_trace` is called explicitly).
    pub out_path: Option<String>,
}

impl TraceConfig {
    /// Tracing on, no automatic export.
    #[must_use]
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            out_path: None,
        }
    }

    /// Tracing on, exporting chrome-trace JSON to `path` on drop.
    #[must_use]
    pub fn with_output(path: &str) -> TraceConfig {
        TraceConfig {
            enabled: true,
            out_path: Some(path.to_string()),
        }
    }

    /// Configuration from the environment: `HECTOR_TRACE=<out.json>`
    /// enables tracing and selects the export path. Unset or empty
    /// means disabled.
    #[must_use]
    pub fn from_env() -> TraceConfig {
        match std::env::var("HECTOR_TRACE") {
            Ok(p) if !p.is_empty() => TraceConfig::with_output(&p),
            _ => TraceConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Recorder internals.

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
}

struct RingHandle {
    tid: u64,
    thread_name: String,
    ring: Mutex<Ring>,
}

fn registry() -> &'static Mutex<Vec<Arc<RingHandle>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<RingHandle>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Ring capacity from `HECTOR_TRACE_BUF` (events per thread, default
/// 16384, minimum 16). Read once per process.
#[must_use]
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("HECTOR_TRACE_BUF")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map_or(16384, |n| n.max(16))
    })
}

thread_local! {
    static LOCAL_RING: Arc<RingHandle> = register_current_thread();
}

fn register_current_thread() -> Arc<RingHandle> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let thread_name = std::thread::current()
        .name()
        .unwrap_or("thread")
        .to_string();
    let handle = Arc::new(RingHandle {
        tid,
        thread_name,
        ring: Mutex::new(Ring {
            buf: Vec::with_capacity(ring_capacity()),
            head: 0,
        }),
    });
    registry().lock().unwrap().push(Arc::clone(&handle));
    handle
}

fn push_event(ev: TraceEvent) {
    LOCAL_RING.with(|handle| {
        let mut ring = handle.ring.lock().unwrap();
        let cap = ring.buf.capacity();
        if ring.buf.len() < cap {
            ring.buf.push(ev);
        } else {
            // Overwrite the oldest slot; a dropped `detail` box is a
            // deallocation only, so warm recording stays alloc-free.
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % cap;
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
    RECORDED.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Public recording API.

/// Turn the recorder on (process-global).
pub fn enable() {
    epoch(); // Pin the epoch before the first timestamp.
    ENABLED.store(true, Ordering::Release);
}

/// Turn the recorder off. Already-recorded events stay buffered until
/// [`take_events`] or [`clear`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Is the recorder currently on?
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Start a span: `None` (one relaxed load, nothing else) while tracing
/// is off, otherwise the current timestamp to hand back to
/// [`record_span`].
#[inline]
#[must_use]
pub fn span_start() -> Option<u64> {
    if is_enabled() {
        Some(now_ns())
    } else {
        None
    }
}

/// Record a completed span started at `start_ns` (from
/// [`span_start`]). Allocation-free once the calling thread's ring
/// exists.
pub fn record_span(
    name: &'static str,
    cat: SpanCat,
    start_ns: u64,
    rows: u64,
    stage: u32,
    flops: f64,
) {
    let end = now_ns();
    push_event(TraceEvent {
        name,
        cat,
        start_ns,
        dur_ns: end.saturating_sub(start_ns),
        tid: current_tid(),
        rows,
        stage,
        flops,
        detail: None,
        instant: false,
    });
}

/// Record an instant annotation. The `detail` closure only runs when
/// tracing is on, so call sites may format freely without gating.
pub fn record_instant(name: &'static str, cat: SpanCat, detail: impl FnOnce() -> String) {
    if !is_enabled() {
        return;
    }
    push_event(TraceEvent {
        name,
        cat,
        start_ns: now_ns(),
        dur_ns: 0,
        tid: current_tid(),
        rows: 0,
        stage: 0,
        flops: 0.0,
        detail: Some(detail().into_boxed_str()),
        instant: true,
    });
}

/// The calling thread's dense trace id (registers a ring on first use).
#[must_use]
pub fn current_tid() -> u64 {
    LOCAL_RING.with(|h| h.tid)
}

/// Drain every thread's ring, returning all buffered events sorted by
/// start time. Ring capacity is retained (no reallocation on the next
/// recorded event).
#[must_use]
pub fn take_events() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let handles: Vec<Arc<RingHandle>> = registry().lock().unwrap().clone();
    for handle in handles {
        let mut ring = handle.ring.lock().unwrap();
        let head = ring.head;
        // Oldest-first: [head..] then [..head].
        out.extend_from_slice(&ring.buf[head..]);
        out.extend_from_slice(&ring.buf[..head]);
        ring.buf.clear();
        ring.head = 0;
    }
    out.sort_by_key(|e| (e.start_ns, e.tid));
    out
}

/// Discard all buffered events and reset the cumulative
/// recorded/dropped counters (thread registrations persist).
pub fn clear() {
    let handles: Vec<Arc<RingHandle>> = registry().lock().unwrap().clone();
    for handle in handles {
        let mut ring = handle.ring.lock().unwrap();
        ring.buf.clear();
        ring.head = 0;
    }
    RECORDED.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
}

/// Snapshot of the recorder's cumulative counters.
#[must_use]
pub fn stats() -> TraceStats {
    TraceStats {
        enabled: is_enabled(),
        recorded: RECORDED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        threads: registry().lock().unwrap().len() as u64,
    }
}

fn backend_label_cell() -> &'static Mutex<&'static str> {
    static LABEL: OnceLock<Mutex<&'static str>> = OnceLock::new();
    LABEL.get_or_init(|| Mutex::new(""))
}

/// Tags subsequent trace exports with the execution backend that
/// produced the spans ("interp", "specialized"). Set by the runtime at
/// the end of every traced run; `""` means unset. Process-global, like
/// the recorder itself.
pub fn set_backend_label(name: &'static str) {
    *backend_label_cell().lock().unwrap() = name;
}

/// The current backend label (see [`set_backend_label`]).
#[must_use]
pub fn backend_label() -> &'static str {
    *backend_label_cell().lock().unwrap()
}

/// `(tid, thread name)` for every registered ring, for per-thread
/// lanes in exports.
#[must_use]
pub fn thread_names() -> Vec<(u64, String)> {
    let mut v: Vec<(u64, String)> = registry()
        .lock()
        .unwrap()
        .iter()
        .map(|h| (h.tid, h.thread_name.clone()))
        .collect();
    v.sort_by_key(|(tid, _)| *tid);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; tests in this binary serialise
    // on one mutex so enable/disable and ring contents don't interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn off_means_no_spans() {
        let _g = LOCK.lock().unwrap();
        disable();
        let _ = take_events();
        assert!(span_start().is_none());
        record_instant("never", SpanCat::Compiler, || unreachable!());
        assert!(take_events().is_empty());
    }

    #[test]
    fn spans_round_trip() {
        let _g = LOCK.lock().unwrap();
        enable();
        let _ = take_events();
        let t0 = span_start().expect("enabled");
        record_span("gemm/typed_linear", SpanCat::Kernel, t0, 42, 3, 1e6);
        record_instant("fusion/fuse", SpanCat::Compiler, || "why".to_string());
        disable();
        let evs = take_events();
        assert_eq!(evs.len(), 2);
        let span = evs.iter().find(|e| !e.instant).unwrap();
        assert_eq!(span.name, "gemm/typed_linear");
        assert_eq!(span.rows, 42);
        assert_eq!(span.stage, 3);
        let inst = evs.iter().find(|e| e.instant).unwrap();
        assert_eq!(inst.detail.as_deref(), Some("why"));
        assert!(stats().recorded >= 2);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let _g = LOCK.lock().unwrap();
        enable();
        let _ = take_events();
        let before_drops = stats().dropped;
        let cap = ring_capacity();
        for i in 0..(cap + 5) {
            let t0 = span_start().unwrap();
            record_span("k", SpanCat::Kernel, t0, i as u64, 0, 0.0);
        }
        disable();
        let evs = take_events();
        assert_eq!(evs.len(), cap, "bounded at ring capacity");
        assert_eq!(stats().dropped - before_drops, 5, "overflow counted");
        // Oldest events were the ones overwritten.
        assert!(evs.iter().all(|e| e.rows >= 5));
    }

    #[test]
    fn config_from_parts() {
        assert!(!TraceConfig::default().enabled);
        assert!(TraceConfig::on().enabled);
        let c = TraceConfig::with_output("/tmp/t.json");
        assert!(c.enabled);
        assert_eq!(c.out_path.as_deref(), Some("/tmp/t.json"));
    }
}
