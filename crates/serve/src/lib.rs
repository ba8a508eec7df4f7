//! # hector-serve
//!
//! A long-lived, multi-tenant inference server on the
//! [`Engine`] substrate: N models × M graphs
//! stay resident as bound engine handles (compilation deduplicated by
//! the process-wide `ModuleCache`), and concurrent callers submit
//! single-node or multi-node inference requests.
//!
//! A full-graph forward yields every node's output at once, and a
//! deployment's model and graph change only at a swap or delta. So each
//! deployment runs **one** `Engine::forward` per version — lazily, at
//! the first read of it — and answers every later request from that
//! output until the next swap or delta. A swap runs no forward itself.
//!
//! A read of a deployment whose output is fresh is a row copy, answered
//! on the caller's thread: `submit` returns a ticket that is already
//! resolved. Every other request (the first read of a new engine, a read
//! while a refill or swap holds the deployment, any read while the
//! server is paused) goes through a bounded queue, and a dispatcher
//! **coalesces** every pending request for the same deployment into one
//! group per tick:
//!
//! ```text
//!             ┌ output fresh, slot free: copy the rows ──► resolved Ticket
//!   submit()──┤
//!             └ otherwise ──►[ bounded queue ]──►dispatcher──►┌─────────────┐
//!                              (load-shed /       (tick)      │ coalesce by │
//!                               timeout)                      │ deployment  │
//!                                                             └──┬──────┬───┘
//!                                  hector-par for_each_chunk (groups
//!                                          execute concurrently)
//!                                                             ┌──▼───┐┌─▼────┐
//!                                                             │engine││engine│ ...
//!                                                             └──┬───┘└──┬───┘
//!                                  a forward only if this engine has not
//!                                  run one; rows are scattered back to
//!                                  each ticket
//! ```
//!
//! Design points, in paper terms: the engines' kernels and run plans
//! are exactly the ones the compiler produced — serving adds *no* new
//! numeric path, so a response, coalesced or answered at submit, is
//! bit-identical to a standalone `Engine::forward` of the same
//! deployment (the `tests/serve.rs` suite pins this against a
//! sequential oracle at every thread count). A hot swap or delta that
//! keeps the model (an equal `EngineBuilder`) on a graph with the same
//! node and type counts — an edge delta, typically — rebinds the
//! resident engine in place (`Engine::rebind`): its weights, features
//! and warm run plan stay, and only the graph-derived inputs are
//! recomputed. A deployment never trains, so that state is the seed's,
//! bit for bit what a fresh bind would derive. Any other swap builds the
//! replacement engine off to the side and replaces the resident one
//! atomically under the deployment lock. Either way in-flight requests
//! run on the old graph or the new one — never on neither — and the
//! memoized output is invalidated under the same lock, so no request
//! can read a new version with an old version's rows.
//!
//! The crate is deliberately std-only (no async runtime): the public
//! in-process API is [`ServeHandle::submit`] / [`ServeHandle::submit_batch`],
//! and [`http`] adds a minimal vendored HTTP/1.1 front end over
//! `std::net::TcpListener` for out-of-process callers.

#![warn(missing_docs)]

pub mod http;

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use hector_par::ThreadPool;
use hector_runtime::{Engine, EngineBuilder, GraphData, HectorError};
use hector_shard::{DeltaBatch, ShardedGraph};
use hector_trace::{self as trace, SpanCat};

// The dispatcher moves engines across threads inside deployment locks.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

/// Errors surfaced by the serving layer.
///
/// Engine-level misuse or exhaustion arrives wrapped in
/// [`ServeError::Hector`]; everything else is a serving-policy outcome
/// (shed load, expiry, lifecycle).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// No deployment with this name is registered.
    UnknownDeployment(String),
    /// The request queue is full; retry after the embedded hint.
    Overloaded {
        /// Suggested client backoff before retrying.
        retry_after: Duration,
    },
    /// The request expired in the queue before a dispatch tick served it.
    Timeout,
    /// The server is shutting down; the request was not executed.
    ShuttingDown,
    /// Malformed request (out-of-range node id, duplicate deployment, …).
    BadRequest(String),
    /// The underlying engine reported an error.
    Hector(HectorError),
    /// The forward panicked. Only the group that ran it fails; the
    /// deployment keeps serving and retries the forward at its next read.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownDeployment(name) => write!(f, "unknown deployment '{name}'"),
            ServeError::Overloaded { retry_after } => write!(
                f,
                "request queue is full; retry after {} ms",
                retry_after.as_millis()
            ),
            ServeError::Timeout => write!(f, "request timed out in the queue"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            ServeError::Hector(e) => write!(f, "engine error: {e}"),
            ServeError::Internal(detail) => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Hector(e) => Some(e),
            _ => None,
        }
    }
}

/// A malformed [`DeltaBatch`] is the caller's error
/// ([`ServeError::BadRequest`]); every other engine error is
/// [`ServeError::Hector`].
impl From<HectorError> for ServeError {
    fn from(e: HectorError) -> ServeError {
        match e {
            HectorError::InvalidDelta { .. } => ServeError::BadRequest(e.to_string()),
            e => ServeError::Hector(e),
        }
    }
}

/// Server configuration. All knobs have serving-sane defaults; override
/// with the `with_*` builders.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum queued requests before [`ServeHandle::submit`] sheds load.
    pub queue_capacity: usize,
    /// Maximum requests folded into one group per deployment per tick.
    /// Only requests that take the queue are grouped: the first reads
    /// of a new engine version, reads that meet a refill or swap in
    /// progress, and reads while paused. A read of a fresh output is
    /// answered at submit and never counts against this cap.
    pub max_coalesce: usize,
    /// Queue-residency budget per request; exceeded ⇒ [`ServeError::Timeout`].
    pub default_timeout: Duration,
    /// Backoff hint embedded in [`ServeError::Overloaded`] rejections.
    pub retry_after: Duration,
    /// Dispatcher-side worker threads executing deployment groups
    /// concurrently (1 ⇒ groups run inline on the dispatcher thread).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 1024,
            max_coalesce: 64,
            default_timeout: Duration::from_secs(5),
            retry_after: Duration::from_millis(25),
            workers: hector_par::ParallelConfig::from_env().num_threads,
        }
    }
}

impl ServeConfig {
    /// Sets the bounded queue capacity (clamped to ≥ 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, n: usize) -> ServeConfig {
        self.queue_capacity = n.max(1);
        self
    }

    /// Sets the per-tick coalescing cap (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_coalesce(mut self, n: usize) -> ServeConfig {
        self.max_coalesce = n.max(1);
        self
    }

    /// Sets the queue-residency timeout.
    #[must_use]
    pub fn with_timeout(mut self, d: Duration) -> ServeConfig {
        self.default_timeout = d;
        self
    }

    /// Sets the number of group-execution workers (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> ServeConfig {
        self.workers = n.max(1);
        self
    }
}

/// One fulfilled inference: the output rows for the requested nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Output row per requested node, in request order.
    pub rows: Vec<Vec<f32>>,
    /// Engine version (bumped by hot swap) that served the request.
    pub version: u64,
    /// Requests in the dispatch group that served this one (≥ 1),
    /// whether or not that group ran a forward; 1 for a read answered
    /// at submit.
    pub coalesced: usize,
}

/// Per-deployment serving counters (monotonic since deploy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeploymentStats {
    /// Requests accepted: queued, or answered at submit.
    pub submitted: u64,
    /// Requests fulfilled with a response, by a dispatch group or at
    /// submit.
    pub completed: u64,
    /// Requests rejected at submit because the queue was full.
    pub shed: u64,
    /// Requests expired in the queue.
    pub timed_out: u64,
    /// Requests failed at dispatch: an engine error, a panicked
    /// forward, or a node a swap / delta removed while the request was
    /// queued.
    pub failed: u64,
    /// Successful `Engine::forward` calls: at most one per engine
    /// version that was read (a failed forward is retried, and counts
    /// only once it succeeds).
    pub forwards: u64,
    /// Requests answered from a deployment output: by a group that ran
    /// the forward, by one that read the memoized output, or at submit.
    /// A request that fails is not counted.
    pub coalesced_requests: u64,
    /// Hot swaps applied.
    pub swaps: u64,
    /// Current engine version.
    pub version: u64,
    /// Graph version of the resident graph: the [`ShardedGraph`] delta
    /// generation installed by [`ServeHandle::apply_delta`] /
    /// [`ServeHandle::swap_versioned`] (0 until either runs).
    pub graph_version: u64,
}

impl DeploymentStats {
    /// Requests answered per forward (1.0 = a forward per request).
    #[must_use]
    pub fn coalescing_factor(&self) -> f64 {
        if self.forwards == 0 {
            1.0
        } else {
            self.coalesced_requests as f64 / self.forwards as f64
        }
    }
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
    forwards: AtomicU64,
    coalesced_requests: AtomicU64,
    swaps: AtomicU64,
}

struct TicketInner {
    state: Mutex<Option<Result<Response, ServeError>>>,
    cv: Condvar,
}

impl TicketInner {
    fn fulfill(&self, r: Result<Response, ServeError>) {
        let mut g = self.state.lock().expect("ticket lock");
        if g.is_none() {
            *g = Some(r);
            self.cv.notify_all();
        }
    }
}

/// A pending inference. Obtained from [`ServeHandle::submit`]; redeem
/// with [`Ticket::wait`].
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    /// Blocks until the dispatcher fulfills or fails the request (a read
    /// answered at submit returns at once).
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut g = self.inner.state.lock().expect("ticket lock");
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = self.inner.cv.wait(g).expect("ticket lock");
        }
    }

    /// Non-blocking poll; `None` while the request is still queued or
    /// executing.
    #[must_use]
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        self.inner.state.lock().expect("ticket lock").take()
    }
}

struct Request {
    deployment: Arc<Deployment>,
    nodes: Vec<usize>,
    deadline: Instant,
    ticket: Arc<TicketInner>,
}

#[derive(Default)]
struct Queue {
    requests: std::collections::VecDeque<Request>,
    shutdown: bool,
    paused: bool,
}

/// Handle to a running server. Cheap to clone; every clone talks to the
/// same queue, dispatcher, and deployments.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<ServerInner>,
}

impl ServeHandle {
    /// Starts a server (one dispatcher thread, `config.workers`
    /// execution threads) with no deployments.
    #[must_use]
    pub fn start(config: ServeConfig) -> ServeHandle {
        let inner = Arc::new(ServerInner::new(config));
        let run = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("hector-serve-dispatch".into())
            .spawn(move || dispatch_loop(&run))
            .expect("spawn dispatcher");
        *inner.dispatcher.lock().expect("dispatcher lock") = Some(handle);
        ServeHandle { inner }
    }

    /// Builds and binds an engine for `(builder, graph)` and makes it
    /// resident under `name`. Compilation goes through the process-wide
    /// `ModuleCache`, so tenants sharing a model architecture share one
    /// compiled module.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if `name` is already deployed (use
    /// [`ServeHandle::swap`]); [`ServeError::Hector`] if the engine
    /// fails to build or bind.
    pub fn deploy(
        &self,
        name: &str,
        builder: EngineBuilder,
        graph: &GraphData,
    ) -> Result<(), ServeError> {
        let engine = prepare_engine(&builder, graph)?;
        let num_nodes = graph.graph().num_nodes();
        let out_width = out_width(&engine);
        let mut map = self.inner.deployments.write().expect("deployments lock");
        if map.contains_key(name) {
            return Err(ServeError::BadRequest(format!(
                "deployment '{name}' already exists; use swap to replace it"
            )));
        }
        map.insert(
            name.to_string(),
            Arc::new(Deployment::new(
                name,
                Slot::new(engine, builder),
                num_nodes,
                out_width,
            )),
        );
        trace::record_instant("serve.deploy", SpanCat::Pipeline, || {
            format!("{name}: {num_nodes} nodes")
        });
        Ok(())
    }

    /// Hot-swaps the model and/or graph behind `name`. When `builder`
    /// equals the one the resident engine was built from and the graph
    /// keeps its node and type counts, the resident engine is rebound
    /// in place under the deployment lock ([`Engine::rebind`]: no
    /// re-derived weights or features, a warm run plan). Otherwise the
    /// replacement engine is fully built and bound **off to the side**
    /// (the old engine keeps serving), then substituted atomically under
    /// the deployment lock. Both paths serve the same rows. No in-flight
    /// request is dropped — each one runs on whichever graph the slot
    /// holds when its group dispatches, and the response's
    /// [`Response::version`] says which. The swap runs no forward: the
    /// new version's output is computed at the first read after it, and
    /// a version that is never read costs none.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownDeployment`] if `name` was never deployed;
    /// [`ServeError::Hector`] if the replacement fails to build or bind
    /// (the old engine keeps serving untouched).
    pub fn swap(
        &self,
        name: &str,
        builder: EngineBuilder,
        graph: &GraphData,
    ) -> Result<u64, ServeError> {
        self.swap_inner(name, builder, graph, None)
    }

    /// [`ServeHandle::swap`] that additionally records the **graph
    /// version** the replacement graph corresponds to (a
    /// [`ShardedGraph::version`] delta generation), surfaced as
    /// [`DeploymentStats::graph_version`]. Same atomic-substitution and
    /// no-drop guarantees as `swap`.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::swap`].
    pub fn swap_versioned(
        &self,
        name: &str,
        builder: EngineBuilder,
        graph: &GraphData,
        graph_version: u64,
    ) -> Result<u64, ServeError> {
        self.swap_inner(name, builder, graph, Some(graph_version))
    }

    fn swap_inner(
        &self,
        name: &str,
        builder: EngineBuilder,
        graph: &GraphData,
        graph_version: Option<u64>,
    ) -> Result<u64, ServeError> {
        let dep = self
            .deployment(name)
            .ok_or_else(|| ServeError::UnknownDeployment(name.to_string()))?;
        let num_nodes = graph.graph().num_nodes();
        let version = match dep.rebind(&builder, graph, graph_version) {
            Some(version) => version,
            None => {
                // Build and bind outside the slot lock: the expensive
                // part of a swap must not stall serving.
                let engine = prepare_engine(&builder, graph)?;
                let mut slot = dep.slot.lock().expect("deployment lock");
                *slot = Slot::new(engine, builder);
                dep.install(&slot.engine, num_nodes, graph_version)
            }
        };
        trace::record_instant("serve.swap", SpanCat::Pipeline, || {
            format!("{name}: v{version}, {num_nodes} nodes")
        });
        Ok(version)
    }

    /// Applies one streaming [`DeltaBatch`] to a [`ShardedGraph`] and
    /// hot-swaps the deployment onto the post-delta graph, tagging it
    /// with the sharded graph's new delta generation. The swap inherits
    /// `swap`'s rule and guarantees: an edge-only delta under the
    /// deployed builder rebinds the resident engine in place, anything
    /// else binds a replacement off to the side; in-flight requests run
    /// on whichever graph the slot holds when their group dispatches,
    /// and none are dropped. The sharded graph commits the delta only
    /// after the swap succeeds ([`ShardedGraph::try_apply_with`]).
    /// Returns the new graph version ([`ShardedGraph::version`]),
    /// readable back via [`DeploymentStats::graph_version`].
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a batch [`DeltaBatch::validate`]
    /// rejects (a batch that removes every node included); otherwise as
    /// [`ServeHandle::swap`]. On any error neither the sharded graph nor
    /// the deployment changes.
    pub fn apply_delta(
        &self,
        name: &str,
        builder: EngineBuilder,
        sharded: &mut ShardedGraph,
        batch: &DeltaBatch,
    ) -> Result<u64, ServeError> {
        // The store carries its graph data across the delta; the
        // deployment binds it as an `Arc` clone.
        let outcome = sharded.try_apply_with(batch, |data, version| {
            self.swap_versioned(name, builder, data, version).map(drop)
        })?;
        Ok(outcome.version)
    }

    /// Submits a single-node inference with the default timeout.
    ///
    /// # Errors
    ///
    /// Rejects immediately with [`ServeError::UnknownDeployment`],
    /// [`ServeError::BadRequest`] (node out of range),
    /// [`ServeError::Overloaded`] (queue full), or
    /// [`ServeError::ShuttingDown`]. A node that a swap or delta removes
    /// while the request is queued fails the *ticket* with
    /// [`ServeError::BadRequest`] instead.
    pub fn submit(&self, deployment: &str, node: usize) -> Result<Ticket, ServeError> {
        self.submit_with_timeout(deployment, &[node], self.inner.config.default_timeout)
    }

    /// Submits one request covering several nodes of one deployment
    /// (they travel, coalesce, and complete together).
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit`]; additionally rejects an empty node
    /// list as [`ServeError::BadRequest`].
    pub fn submit_batch(&self, deployment: &str, nodes: &[usize]) -> Result<Ticket, ServeError> {
        self.submit_with_timeout(deployment, nodes, self.inner.config.default_timeout)
    }

    /// [`ServeHandle::submit_batch`] with an explicit queue-residency
    /// timeout.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit_batch`].
    pub fn submit_with_timeout(
        &self,
        deployment: &str,
        nodes: &[usize],
        timeout: Duration,
    ) -> Result<Ticket, ServeError> {
        if nodes.is_empty() {
            return Err(ServeError::BadRequest("empty node list".into()));
        }
        let dep = self
            .deployment(deployment)
            .ok_or_else(|| ServeError::UnknownDeployment(deployment.to_string()))?;
        let num_nodes = dep.num_nodes.load(Ordering::SeqCst);
        if let Some(&bad) = nodes.iter().find(|&&n| n >= num_nodes) {
            return Err(ServeError::BadRequest(format!(
                "node {bad} out of range for '{deployment}' ({num_nodes} nodes)"
            )));
        }
        let ticket = Arc::new(TicketInner {
            state: Mutex::new(None),
            cv: Condvar::new(),
        });
        let paused = {
            let q = self.inner.queue.lock().expect("queue lock");
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            q.paused
        };
        // A read of a fresh output is a row copy: answer it here, with
        // the queue lock released and the slot lock only tried.
        if !paused {
            if let Some(response) = dep.read_fresh(nodes) {
                ticket.fulfill(Ok(response));
                return Ok(Ticket { inner: ticket });
            }
        }
        {
            let mut q = self.inner.queue.lock().expect("queue lock");
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if q.requests.len() >= self.inner.config.queue_capacity {
                dep.stats.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    retry_after: self.inner.config.retry_after,
                });
            }
            q.requests.push_back(Request {
                deployment: Arc::clone(&dep),
                nodes: nodes.to_vec(),
                deadline: Instant::now() + timeout,
                ticket: Arc::clone(&ticket),
            });
        }
        dep.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.queue_cv.notify_all();
        Ok(Ticket { inner: ticket })
    }

    /// Names of all resident deployments, sorted.
    #[must_use]
    pub fn deployments(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .deployments
            .read()
            .expect("deployments lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Serving counters for one deployment.
    #[must_use]
    pub fn stats(&self, deployment: &str) -> Option<DeploymentStats> {
        self.deployment(deployment).map(|d| d.snapshot())
    }

    /// Pauses dispatch: every request queues, reads of a fresh output
    /// too (and can shed or expire), but no tick runs until
    /// [`ServeHandle::resume`]. Test hook for exercising the queue
    /// policies deterministically.
    pub fn pause(&self) {
        self.inner.queue.lock().expect("queue lock").paused = true;
        self.inner.queue_cv.notify_all();
    }

    /// Resumes dispatch after [`ServeHandle::pause`].
    pub fn resume(&self) {
        self.inner.queue.lock().expect("queue lock").paused = false;
        self.inner.queue_cv.notify_all();
    }

    /// Blocks until the queue is empty and no group is executing. The
    /// dispatcher notifies under the queue lock after every tick and on
    /// exit, so the condition checked here cannot change unseen.
    pub fn drain(&self) {
        let mut q = self.inner.queue.lock().expect("queue lock");
        while !q.requests.is_empty() || self.inner.in_flight.load(Ordering::SeqCst) > 0 {
            self.inner.before_idle_wait();
            q = self.inner.idle_cv.wait(q).expect("queue lock");
        }
    }

    /// Stops the dispatcher. Queued-but-unserved requests fail with
    /// [`ServeError::ShuttingDown`]; engines stay resident until the
    /// last handle drops. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().expect("queue lock");
            q.shutdown = true;
        }
        self.inner.queue_cv.notify_all();
        let handle = self
            .inner
            .dispatcher
            .lock()
            .expect("dispatcher lock")
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn deployment(&self, name: &str) -> Option<Arc<Deployment>> {
        self.inner
            .deployments
            .read()
            .expect("deployments lock")
            .get(name)
            .cloned()
    }
}

fn prepare_engine(builder: &EngineBuilder, graph: &GraphData) -> Result<Engine, ServeError> {
    let mut engine = builder.clone().build()?;
    engine.bind(graph)?;
    Ok(engine)
}

/// Width of the engine's first output: the row length a read returns.
fn out_width(engine: &Engine) -> usize {
    let program = &engine.module().forward;
    program.outputs.first().map_or(0, |&v| program.var(v).width)
}

/// The dispatcher: waits for work, drains the queue, expires stale
/// requests, groups the rest by deployment (respecting `max_coalesce`),
/// and executes the groups — concurrently over the worker pool when one
/// is configured. It sleeps until notified: every change to what it
/// waits for (requests, pause, shutdown) is made under the queue lock
/// and followed by a notify.
fn dispatch_loop(inner: &Arc<ServerInner>) {
    let pool = if inner.config.workers > 1 {
        Some(ThreadPool::new(inner.config.workers))
    } else {
        None
    };
    loop {
        let drained: Vec<Request> = {
            let mut q = inner.queue.lock().expect("queue lock");
            loop {
                if q.shutdown {
                    break;
                }
                if !q.paused && !q.requests.is_empty() {
                    break;
                }
                q = inner.queue_cv.wait(q).expect("queue lock");
                #[cfg(test)]
                inner.wakes.fetch_add(1, Ordering::Relaxed);
            }
            if q.shutdown {
                // Fail everything still queued, then exit; a `drain`
                // waiting on the queue sees it empty.
                for r in q.requests.drain(..) {
                    r.ticket.fulfill(Err(ServeError::ShuttingDown));
                }
                inner.idle_cv.notify_all();
                return;
            }
            let n = q.requests.len();
            inner.in_flight.store(n, Ordering::SeqCst);
            q.requests.drain(..).collect()
        };

        let tick_start = trace::span_start();
        let drained_count = drained.len();

        // Expire stale requests, group the rest by deployment in FIFO
        // first-seen order.
        let now = Instant::now();
        let mut order: Vec<Arc<Deployment>> = Vec::new();
        let mut groups: HashMap<String, Vec<Request>> = HashMap::new();
        let mut served = 0usize;
        for r in drained {
            if now > r.deadline {
                r.deployment.stats.timed_out.fetch_add(1, Ordering::Relaxed);
                r.ticket.fulfill(Err(ServeError::Timeout));
                served += 1;
                continue;
            }
            if !groups.contains_key(&r.deployment.name) {
                order.push(Arc::clone(&r.deployment));
            }
            groups.entry(r.deployment.name.clone()).or_default().push(r);
        }
        inner.in_flight.fetch_sub(served, Ordering::SeqCst);

        // Split each deployment's backlog into coalesced groups and run
        // them: concurrently on the pool (each group taken once, by the
        // chunk that owns it), else in order on this thread. Groups of one
        // deployment serialize on its slot lock (the engine is stateful),
        // preserving bit-identical outputs.
        let max = inner.config.max_coalesce.max(1);
        let mut work = Vec::new();
        for dep in order {
            let mut reqs = groups.remove(&dep.name).unwrap_or_default();
            while reqs.len() > max {
                let rest = reqs.split_off(max);
                work.push(Mutex::new(Some((Arc::clone(&dep), reqs))));
                reqs = rest;
            }
            if !reqs.is_empty() {
                work.push(Mutex::new(Some((Arc::clone(&dep), reqs))));
            }
        }
        let serve = |_: usize, r: std::ops::Range<usize>| {
            for group in &work[r] {
                let Some((dep, reqs)) = group.lock().expect("group lock").take() else {
                    continue;
                };
                let n = reqs.len();
                run_group(&dep, reqs);
                inner.in_flight.fetch_sub(n, Ordering::SeqCst);
            }
        };
        if let Some(pool) = &pool {
            pool.for_each_chunk(work.len(), 1, serve);
        } else {
            serve(0, 0..work.len());
        }
        // Notify under the queue lock: `in_flight` fell outside it, and a
        // `drain` between its check and its wait would miss a bare notify.
        {
            let _q = inner.queue.lock().expect("queue lock");
            inner.idle_cv.notify_all();
        }

        if let Some(t0) = tick_start {
            trace::record_span(
                "serve.tick",
                SpanCat::Pipeline,
                t0,
                drained_count as u64,
                0,
                0.0,
            );
        }
    }
}

// `ServerInner`, `Deployment` and their test-only hooks stay below every
// `pub` item: tests/api_surface.rs stops reading a file at its first
// `#[cfg(test)]`.

struct ServerInner {
    config: ServeConfig,
    deployments: RwLock<HashMap<String, Arc<Deployment>>>,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    idle_cv: Condvar,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
    in_flight: AtomicUsize,
    /// Times the dispatcher woke from its wait for work.
    #[cfg(test)]
    wakes: AtomicU64,
    /// Run by [`ServerInner::before_idle_wait`].
    #[cfg(test)]
    drain_hook: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl ServerInner {
    fn new(config: ServeConfig) -> ServerInner {
        ServerInner {
            config,
            deployments: RwLock::new(HashMap::new()),
            queue: Mutex::new(Queue::default()),
            queue_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            dispatcher: Mutex::new(None),
            in_flight: AtomicUsize::new(0),
            #[cfg(test)]
            wakes: AtomicU64::new(0),
            #[cfg(test)]
            drain_hook: Mutex::new(None),
        }
    }

    /// Runs in `drain` between its busy check and its wait, queue lock
    /// held: a test's hook forces a group's completion into that window.
    /// Does nothing outside tests.
    fn before_idle_wait(&self) {
        #[cfg(test)]
        if let Some(hook) = &*self.drain_hook.lock().expect("hook lock") {
            hook();
        }
    }
}

/// A resident (model × graph) pair: the bound engine plus its serving
/// metadata. The engine lives behind a mutex — a dispatch group or a
/// hot swap holds it for the duration of one lookup (or forward) / one
/// rebind or replacement.
struct Deployment {
    name: String,
    slot: Mutex<Slot>,
    stats: StatCells,
    version: AtomicU64,
    graph_version: AtomicU64,
    num_nodes: AtomicUsize,
    out_width: AtomicUsize,
    #[cfg(test)]
    faults: Faults,
}

/// The resident engine, the builder it was built from, and whether its
/// output buffer holds a forward of the engine's current graph. A swap
/// either installs a whole new `Slot` or rebinds the resident engine and
/// clears `fresh`, under one lock, so an engine is never paired with an
/// output of another engine or graph.
struct Slot {
    engine: Engine,
    builder: EngineBuilder,
    fresh: bool,
}

impl Slot {
    fn new(engine: Engine, builder: EngineBuilder) -> Slot {
        Slot {
            engine,
            builder,
            fresh: false,
        }
    }
}

/// Fault injection for the dispatcher's panic containment, and which
/// path a swap took.
#[cfg(test)]
#[derive(Default)]
struct Faults {
    /// Panic inside the next forward attempt.
    panic_next: std::sync::atomic::AtomicBool,
    /// Forward attempts, successful or not.
    attempts: AtomicU64,
    /// Swaps that rebound the resident engine in place.
    rebinds: AtomicU64,
}

impl Deployment {
    fn new(name: &str, slot: Slot, num_nodes: usize, out_width: usize) -> Deployment {
        Deployment {
            name: name.to_string(),
            slot: Mutex::new(slot),
            stats: StatCells::default(),
            version: AtomicU64::new(1),
            graph_version: AtomicU64::new(0),
            num_nodes: AtomicUsize::new(num_nodes),
            out_width: AtomicUsize::new(out_width),
            #[cfg(test)]
            faults: Faults::default(),
        }
    }

    /// Rebinds the resident engine onto `graph` in place when `builder`
    /// is the one it was built from and `graph` fits its state
    /// ([`Engine::rebind`]), and returns the new version. A deployment
    /// never trains, so the kept weights and features are the seed's:
    /// what a fresh bind would derive. `None` (nothing changed) asks for
    /// a fresh engine.
    fn rebind(
        &self,
        builder: &EngineBuilder,
        graph: &GraphData,
        graph_version: Option<u64>,
    ) -> Option<u64> {
        let mut slot = self.slot.lock().expect("deployment lock");
        if slot.builder != *builder || slot.engine.rebind(graph).is_err() {
            return None;
        }
        #[cfg(test)]
        self.faults.rebinds.fetch_add(1, Ordering::Relaxed);
        slot.fresh = false;
        Some(self.install(&slot.engine, graph.graph().num_nodes(), graph_version))
    }

    /// Publishes the graph `engine` now runs on and returns the new
    /// version; the caller holds the slot lock, so a reader sees the
    /// engine and its version change together.
    fn install(&self, engine: &Engine, num_nodes: usize, graph_version: Option<u64>) -> u64 {
        self.num_nodes.store(num_nodes, Ordering::SeqCst);
        self.out_width.store(out_width(engine), Ordering::SeqCst);
        if let Some(gv) = graph_version {
            self.graph_version.store(gv, Ordering::SeqCst);
        }
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        self.version.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Copies the rows of `nodes` out of the resident output, tagged with
    /// its version; `slot` is this deployment's, locked by the caller.
    /// Submit-time range checks saw the graph deployed *then*; a swap or
    /// delta may have installed a smaller one since. Such a request fails
    /// alone — indexing past the output would panic under the slot lock
    /// and poison the deployment.
    fn answer(&self, slot: &Slot, nodes: &[usize], group: usize) -> Result<Response, ServeError> {
        let version = self.version.load(Ordering::SeqCst);
        let out = slot.engine.output();
        if nodes.iter().any(|&n| n >= out.rows()) {
            return Err(ServeError::BadRequest(format!(
                "node out of range for '{}' v{version} ({} nodes)",
                self.name,
                out.rows()
            )));
        }
        Ok(Response {
            rows: nodes.iter().map(|&n| out.row(n).to_vec()).collect(),
            version,
            coalesced: group,
        })
    }

    /// Answers a read on the caller's thread if the resident output is
    /// fresh and no refill or swap holds the slot. `None` (slot busy,
    /// poisoned or stale, or a node the output does not have) sends the
    /// request through the queue. Counters move before the caller can
    /// see the response.
    fn read_fresh(&self, nodes: &[usize]) -> Option<Response> {
        let slot = self.slot.try_lock().ok()?;
        if !slot.fresh {
            return None;
        }
        let response = self.answer(&slot, nodes, 1).ok()?;
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats
            .coalesced_requests
            .fetch_add(1, Ordering::Relaxed);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        Some(response)
    }

    fn snapshot(&self) -> DeploymentStats {
        DeploymentStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            timed_out: self.stats.timed_out.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            forwards: self.stats.forwards.load(Ordering::Relaxed),
            coalesced_requests: self.stats.coalesced_requests.load(Ordering::Relaxed),
            swaps: self.stats.swaps.load(Ordering::Relaxed),
            version: self.version.load(Ordering::Relaxed),
            graph_version: self.graph_version.load(Ordering::Relaxed),
        }
    }
}

/// Answers one coalesced group: runs `Engine::forward` only if the
/// resident engine has not yet produced its output, then scatters the
/// requested output rows back to every ticket.
fn run_group(dep: &Deployment, reqs: Vec<Request>) {
    let coalesced = reqs.len();
    let span = trace::span_start();
    let mut slot = dep.slot.lock().expect("deployment lock");
    let ran_forward = !slot.fresh;
    let filled = if ran_forward {
        fill(dep, &mut slot)
    } else {
        Ok(())
    };
    // Counters are bumped BEFORE tickets are fulfilled: a client that
    // observes its response must also observe the stats that produced
    // it (tests and dashboards read stats right after wait()).
    match filled {
        Ok(()) => {
            let answers: Vec<_> = reqs
                .iter()
                .map(|r| dep.answer(&slot, &r.nodes, coalesced))
                .collect();
            let stale = answers.iter().filter(|a| a.is_err()).count() as u64;
            let served = coalesced as u64 - stale;
            dep.stats
                .coalesced_requests
                .fetch_add(served, Ordering::Relaxed);
            dep.stats.completed.fetch_add(served, Ordering::Relaxed);
            dep.stats.failed.fetch_add(stale, Ordering::Relaxed);
            for (r, a) in reqs.iter().zip(answers) {
                r.ticket.fulfill(a);
            }
        }
        Err(e) => {
            dep.stats
                .failed
                .fetch_add(coalesced as u64, Ordering::Relaxed);
            for r in &reqs {
                r.ticket.fulfill(Err(e.clone()));
            }
        }
    }
    drop(slot);
    if let (Some(t0), true) = (span, ran_forward) {
        trace::record_span(
            "serve.forward",
            SpanCat::Pipeline,
            t0,
            coalesced as u64,
            0,
            0.0,
        );
    }
}

/// Runs the resident engine's forward and marks its output fresh. A
/// panic is caught here, while the slot lock is held, so it neither
/// poisons the deployment nor unwinds through the dispatcher; the
/// output stays stale and the next read retries.
fn fill(dep: &Deployment, slot: &mut Slot) -> Result<(), ServeError> {
    #[cfg(test)]
    dep.faults.attempts.fetch_add(1, Ordering::Relaxed);
    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        assert!(
            !dep.faults.panic_next.swap(false, Ordering::SeqCst),
            "injected forward panic"
        );
        slot.engine.forward()
    }));
    match ran {
        Ok(Ok(_)) => {
            slot.fresh = true;
            dep.stats.forwards.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        Ok(Err(e)) => Err(ServeError::Hector(e)),
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(ServeError::Internal(format!("forward panicked: {detail}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::{generate, DatasetSpec};
    use hector_models::ModelKind;

    fn graph(seed: u64, nodes: usize) -> GraphData {
        GraphData::new(generate(&DatasetSpec {
            name: "serve_unit".into(),
            num_nodes: nodes,
            num_node_types: 2,
            num_edges: nodes * 4,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed,
        }))
    }

    fn builder() -> EngineBuilder {
        EngineBuilder::new(ModelKind::Rgcn).dims(8, 8).seed(7)
    }

    #[test]
    fn submit_and_wait_roundtrip() {
        let srv = ServeHandle::start(ServeConfig::default());
        let g = graph(3, 48);
        srv.deploy("m", builder(), &g).unwrap();
        let row = srv.submit("m", 5).unwrap().wait().unwrap();
        assert_eq!(row.rows.len(), 1);
        assert_eq!(row.rows[0].len(), 8);
        assert_eq!(row.version, 1);
        srv.shutdown();
    }

    #[test]
    fn unknown_deployment_and_bad_node_reject_at_submit() {
        let srv = ServeHandle::start(ServeConfig::default());
        let g = graph(4, 32);
        srv.deploy("m", builder(), &g).unwrap();
        assert_eq!(
            srv.submit("nope", 0).err(),
            Some(ServeError::UnknownDeployment("nope".into()))
        );
        assert!(matches!(
            srv.submit("m", 999).err(),
            Some(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            srv.submit_batch("m", &[]).err(),
            Some(ServeError::BadRequest(_))
        ));
        srv.shutdown();
    }

    #[test]
    fn duplicate_deploy_is_rejected() {
        let srv = ServeHandle::start(ServeConfig::default());
        let g = graph(5, 32);
        srv.deploy("m", builder(), &g).unwrap();
        assert!(matches!(
            srv.deploy("m", builder(), &g).err(),
            Some(ServeError::BadRequest(_))
        ));
        srv.shutdown();
    }

    #[test]
    fn queue_overflow_sheds_with_retry_after() {
        let srv = ServeHandle::start(
            ServeConfig::default()
                .with_queue_capacity(2)
                .with_workers(1),
        );
        let g = graph(6, 32);
        srv.deploy("m", builder(), &g).unwrap();
        srv.pause();
        let _t1 = srv.submit("m", 0).unwrap();
        let _t2 = srv.submit("m", 1).unwrap();
        let shed = srv.submit("m", 2);
        assert!(matches!(shed, Err(ServeError::Overloaded { .. })));
        let stats = srv.stats("m").unwrap();
        assert_eq!(stats.shed, 1);
        srv.resume();
        srv.shutdown();
    }

    #[test]
    fn paused_requests_expire_as_timeouts() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(7, 32);
        srv.deploy("m", builder(), &g).unwrap();
        srv.pause();
        let t = srv
            .submit_with_timeout("m", &[1], Duration::from_millis(1))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        srv.resume();
        assert_eq!(t.wait(), Err(ServeError::Timeout));
        assert_eq!(srv.stats("m").unwrap().timed_out, 1);
        srv.shutdown();
    }

    #[test]
    fn shutdown_fails_queued_requests_and_rejects_new_ones() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(8, 32);
        srv.deploy("m", builder(), &g).unwrap();
        srv.pause();
        let t = srv.submit("m", 0).unwrap();
        srv.shutdown();
        assert_eq!(t.wait(), Err(ServeError::ShuttingDown));
        assert_eq!(srv.submit("m", 0).err(), Some(ServeError::ShuttingDown));
    }

    #[test]
    fn coalescing_serves_many_requests_with_one_forward() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(9, 64);
        srv.deploy("m", builder(), &g).unwrap();
        srv.pause();
        let tickets: Vec<Ticket> = (0..10).map(|n| srv.submit("m", n).unwrap()).collect();
        srv.resume();
        for t in tickets {
            let r = t.wait().unwrap();
            assert_eq!(r.coalesced, 10);
        }
        let stats = srv.stats("m").unwrap();
        assert_eq!(stats.forwards, 1, "10 requests must cost one traversal");
        assert_eq!(stats.coalesced_requests, 10);
        assert!((stats.coalescing_factor() - 10.0).abs() < 1e-9);
        srv.shutdown();
    }

    #[test]
    fn swap_bumps_version_and_keeps_serving() {
        let srv = ServeHandle::start(ServeConfig::default());
        let g1 = graph(10, 48);
        let g2 = graph(11, 96);
        srv.deploy("m", builder(), &g1).unwrap();
        let r1 = srv.submit("m", 40).unwrap().wait().unwrap();
        assert_eq!(r1.version, 1);
        let v = srv.swap("m", builder(), &g2).unwrap();
        assert_eq!(v, 2);
        // Node 90 only exists in the new graph.
        let r2 = srv.submit("m", 90).unwrap().wait().unwrap();
        assert_eq!(r2.version, 2);
        assert_eq!(srv.stats("m").unwrap().swaps, 1);
        assert!(matches!(
            srv.swap("ghost", builder(), &g2).err(),
            Some(ServeError::UnknownDeployment(_))
        ));
        srv.shutdown();
    }

    /// Regression: a request range-checked against the graph deployed at
    /// submit time used to index past the output of a smaller graph
    /// swapped in before dispatch, panicking under the slot lock and
    /// poisoning the deployment for every later caller.
    #[test]
    fn request_queued_across_a_shrinking_swap_fails_alone() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        srv.deploy("m", builder(), &graph(13, 96)).unwrap();
        srv.pause();
        let stale = srv.submit("m", 95).unwrap();
        let live = srv.submit("m", 3).unwrap();
        srv.swap("m", builder(), &graph(14, 48)).unwrap();
        srv.resume();
        assert!(matches!(stale.wait(), Err(ServeError::BadRequest(_))));
        let r = live.wait().unwrap();
        assert_eq!((r.version, r.coalesced), (2, 2));
        // The deployment keeps serving.
        assert_eq!(srv.submit("m", 47).unwrap().wait().unwrap().version, 2);
        let stats = srv.stats("m").unwrap();
        assert_eq!((stats.failed, stats.completed), (1, 2));
        assert_eq!(
            stats.coalesced_requests, 2,
            "a request failed as out of range was not answered from an output"
        );
        srv.shutdown();
    }

    #[test]
    fn failed_swap_leaves_the_old_engine_serving() {
        let srv = ServeHandle::start(ServeConfig::default());
        let g = graph(12, 48);
        srv.deploy("m", builder(), &g).unwrap();
        let bad = EngineBuilder::new(ModelKind::Rgcn).dims(8, 8).layers(0);
        assert!(matches!(
            srv.swap("m", bad, &g).err(),
            Some(ServeError::Hector(HectorError::InvalidConfig { .. }))
        ));
        // Old engine still answers.
        let r = srv.submit("m", 3).unwrap().wait().unwrap();
        assert_eq!(r.version, 1);
        assert_eq!(srv.stats("m").unwrap().swaps, 0);
        srv.shutdown();
    }

    /// A malformed delta is the caller's error, returned before anything
    /// moves: the graph keeps its version and edges, the deployment its
    /// version, and it keeps serving.
    #[test]
    fn malformed_delta_is_a_bad_request_and_changes_nothing() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(15, 48);
        srv.deploy("m", builder(), &g).unwrap();
        let full = g.graph();
        let mut sharded = ShardedGraph::partition(
            full.clone(),
            Box::new(hector_shard::RangePartitioner),
            hector_shard::ShardConfig::new(2),
        );
        let (n, r) = (full.num_nodes() as u32, full.num_edge_types() as u32);
        let edge = (full.src()[0], full.dst()[0], full.etype()[0]);
        let copies = (0..full.num_edges())
            .filter(|&e| (full.src()[e], full.dst()[e], full.etype()[e]) == edge)
            .count();
        let mut claim_one_edge_twice = DeltaBatch::new();
        for _ in 0..=copies {
            claim_one_edge_twice = claim_one_edge_twice.remove_edge(edge.0, edge.1, edge.2);
        }
        let unmatched = (0..n)
            .map(|d| (0, d, 0))
            .find(|&k| {
                !(0..full.num_edges()).any(|e| (full.src()[e], full.dst()[e], full.etype()[e]) == k)
            })
            .expect("node 0 does not feed every node under relation 0");
        let batches = [
            DeltaBatch::new().add_edge(n, 0, 0),
            DeltaBatch::new().add_edge(0, 1, r),
            DeltaBatch::new().remove_edge(unmatched.0, unmatched.1, unmatched.2),
            claim_one_edge_twice,
            (0..n).fold(DeltaBatch::new(), |b, v| b.remove_node(v)),
        ];
        for batch in &batches {
            let err = srv
                .apply_delta("m", builder(), &mut sharded, batch)
                .unwrap_err();
            assert!(
                matches!(&err, ServeError::BadRequest(d) if d.contains("invalid delta")),
                "{err}"
            );
            assert_eq!(sharded.version(), 0);
            assert_eq!(sharded.full().num_edges(), full.num_edges());
            let stats = srv.stats("m").unwrap();
            assert_eq!((stats.version, stats.graph_version, stats.swaps), (1, 0, 0));
        }
        let r = srv.submit("m", 3).unwrap().wait().unwrap();
        assert_eq!(r.version, 1);
        srv.shutdown();
    }

    /// Polls `t` until it resolves, failing the test (instead of hanging
    /// it) if the dispatcher never answers.
    fn wait_for(t: &Ticket) -> Result<Response, ServeError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(r) = t.try_wait() {
                return r;
            }
            assert!(Instant::now() < deadline, "ticket never resolved");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One standalone engine's forward, every row as raw bits.
    fn oracle(b: EngineBuilder, g: &GraphData) -> Vec<Vec<u32>> {
        let mut e = b.build().unwrap();
        e.bind(g).unwrap();
        e.forward().unwrap();
        let out = e.output();
        (0..out.rows())
            .map(|i| out.row(i).iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn read(srv: &ServeHandle, name: &str, node: usize) -> Response {
        wait_for(&srv.submit(name, node).unwrap()).unwrap()
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sequential_requests_share_one_forward() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(20, 48);
        let want = oracle(builder(), &g);
        srv.deploy("m", builder(), &g).unwrap();
        for (node, want) in want.iter().enumerate().take(12) {
            let r = read(&srv, "m", node);
            assert_eq!(&bits(&r.rows[0]), want, "node {node}");
            assert_eq!(r.coalesced, 1);
        }
        let stats = srv.stats("m").unwrap();
        assert_eq!(stats.forwards, 1, "one forward per engine version");
        assert_eq!((stats.completed, stats.coalesced_requests), (12, 12));
        srv.shutdown();
    }

    #[test]
    fn a_swap_costs_one_forward_at_its_first_read_and_none_unread() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let (g1, g2) = (graph(21, 48), graph(22, 64));
        let b2 = || builder().seed(8);
        srv.deploy("m", builder(), &g1).unwrap();
        read(&srv, "m", 3);
        srv.swap("m", b2(), &g2).unwrap();
        assert_eq!(
            srv.stats("m").unwrap().forwards,
            1,
            "a swap runs no forward"
        );
        let want = oracle(b2(), &g2);
        for node in [3, 60] {
            let r = read(&srv, "m", node);
            assert_eq!((r.version, bits(&r.rows[0])), (2, want[node].clone()));
        }
        assert_eq!(srv.stats("m").unwrap().forwards, 2);
        // Versions 3 and 4 are never read; only version 5 is.
        srv.swap("m", builder(), &g1).unwrap();
        srv.swap("m", b2(), &g1).unwrap();
        srv.swap("m", builder(), &g2).unwrap();
        assert_eq!(srv.stats("m").unwrap().forwards, 2);
        let want = oracle(builder(), &g2);
        let r = read(&srv, "m", 60);
        assert_eq!((r.version, bits(&r.rows[0])), (5, want[60].clone()));
        assert_eq!(srv.stats("m").unwrap().forwards, 3);
        srv.shutdown();
    }

    #[test]
    fn a_delta_invalidates_the_memo_and_serves_the_post_delta_rows() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(23, 48);
        srv.deploy("m", builder(), &g).unwrap();
        let mut sharded = ShardedGraph::partition(
            g.graph().clone(),
            Box::new(hector_shard::RangePartitioner),
            hector_shard::ShardConfig::new(2),
        );
        let target = 17usize;
        let before = read(&srv, "m", target);
        // Three new in-edges change the target's aggregate.
        let batch = DeltaBatch::new()
            .add_edge(1, target as u32, 0)
            .add_edge(2, target as u32, 1)
            .add_edge(5, target as u32, 2);
        let gv = srv
            .apply_delta("m", builder(), &mut sharded, &batch)
            .unwrap();
        assert_eq!(
            srv.stats("m").unwrap().forwards,
            1,
            "a delta runs no forward"
        );
        let dep = srv.deployment("m").unwrap();
        assert_eq!(dep.faults.rebinds.load(Ordering::Relaxed), 1, "in place");
        let want = oracle(builder(), &GraphData::new(sharded.full().clone()));
        let after = read(&srv, "m", target);
        assert_eq!(after.version, 2);
        assert_eq!(bits(&after.rows[0]), want[target]);
        assert_ne!(
            bits(&before.rows[0]),
            bits(&after.rows[0]),
            "the delta must change the served row"
        );
        let stats = srv.stats("m").unwrap();
        assert_eq!((stats.forwards, stats.graph_version), (2, gv));
        srv.shutdown();
    }

    #[test]
    fn a_failed_swap_keeps_serving_the_old_memo() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(24, 48);
        srv.deploy("m", builder(), &g).unwrap();
        let first = read(&srv, "m", 9);
        let bad = EngineBuilder::new(ModelKind::Rgcn).dims(8, 8).layers(0);
        assert!(srv.swap("m", bad, &g).is_err());
        let again = read(&srv, "m", 9);
        assert_eq!(again, first);
        let stats = srv.stats("m").unwrap();
        assert_eq!((stats.forwards, stats.version, stats.swaps), (1, 1, 0));
        srv.shutdown();
    }

    #[test]
    fn a_failing_forward_is_never_memoized() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let tiny = hector_device::DeviceConfig::rtx3090().with_capacity(2048);
        let oomy = builder().dims(16, 16).device(tiny);
        srv.deploy("m", oomy, &graph(25, 48)).unwrap();
        for attempt in 1..=2u64 {
            let err = wait_for(&srv.submit("m", 0).unwrap()).unwrap_err();
            assert!(
                matches!(err, ServeError::Hector(HectorError::Oom(_))),
                "{err}"
            );
            let dep = srv.deployment("m").unwrap();
            assert_eq!(dep.faults.attempts.load(Ordering::Relaxed), attempt);
        }
        let stats = srv.stats("m").unwrap();
        assert_eq!((stats.failed, stats.forwards), (2, 0));
        srv.shutdown();
    }

    #[test]
    fn paused_burst_at_four_workers_costs_one_forward() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(4).with_max_coalesce(4));
        let g = graph(26, 64);
        let want = oracle(builder(), &g);
        srv.deploy("m", builder(), &g).unwrap();
        srv.pause();
        let tickets: Vec<Ticket> = (0..16).map(|n| srv.submit("m", n).unwrap()).collect();
        srv.resume();
        for (n, t) in tickets.iter().enumerate() {
            let r = wait_for(t).unwrap();
            assert_eq!((r.coalesced, bits(&r.rows[0])), (4, want[n].clone()));
        }
        let stats = srv.stats("m").unwrap();
        assert_eq!((stats.forwards, stats.coalesced_requests), (1, 16));
        srv.shutdown();
    }

    /// A panicking forward fails its own group with `Internal`, leaves a
    /// second tenant's group in the same tick served, poisons nothing,
    /// and the next read retries the forward.
    #[test]
    fn a_panicking_forward_fails_only_its_group() {
        let g = graph(27, 48);
        let b_other = || builder().seed(9);
        let (want, want_other) = (oracle(builder(), &g), oracle(b_other(), &g));
        for workers in [1usize, 4] {
            let srv = ServeHandle::start(ServeConfig::default().with_workers(workers));
            srv.deploy("bad", builder(), &g).unwrap();
            srv.deploy("ok", b_other(), &g).unwrap();
            srv.deployment("bad")
                .unwrap()
                .faults
                .panic_next
                .store(true, Ordering::SeqCst);
            srv.pause();
            let doomed: Vec<Ticket> = (0..3).map(|n| srv.submit("bad", n).unwrap()).collect();
            let other: Vec<Ticket> = (0..3).map(|n| srv.submit("ok", n).unwrap()).collect();
            srv.resume();
            for t in &doomed {
                let err = wait_for(t).unwrap_err();
                assert!(
                    matches!(&err, ServeError::Internal(d) if d.contains("injected forward panic")),
                    "workers={workers}: {err}"
                );
            }
            for (n, t) in other.iter().enumerate() {
                let r = wait_for(t).unwrap();
                assert_eq!(bits(&r.rows[0]), want_other[n], "workers={workers}");
            }
            let stats = srv.stats("bad").unwrap();
            assert_eq!((stats.failed, stats.forwards), (3, 0));
            let r = read(&srv, "bad", 7);
            assert_eq!(bits(&r.rows[0]), want[7], "workers={workers}");
            let stats = srv.stats("bad").unwrap();
            assert_eq!((stats.failed, stats.completed, stats.forwards), (3, 1, 1));
            srv.shutdown();
        }
    }

    /// A read of a fresh output resolves inside `submit`, even while the
    /// dispatcher is stuck behind another deployment's slot.
    #[test]
    fn a_fresh_read_is_answered_at_submit() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(28, 48);
        let want = oracle(builder(), &g);
        srv.deploy("a", builder(), &g).unwrap();
        srv.deploy("b", builder().seed(9), &g).unwrap();
        read(&srv, "a", 0);
        let b = srv.deployment("b").unwrap();
        let held = b.slot.lock().unwrap();
        let blocked = srv.submit("b", 1).unwrap();
        let t = srv.submit_batch("a", &[5, 11]).unwrap();
        let r = t
            .try_wait()
            .expect("a fresh read resolves at submit")
            .unwrap();
        let got: Vec<Vec<u32>> = r.rows.iter().map(|row| bits(row)).collect();
        assert_eq!(got, vec![want[5].clone(), want[11].clone()]);
        assert_eq!((r.version, r.coalesced), (1, 1));
        assert!(blocked.try_wait().is_none(), "b's group waits on its slot");
        drop(held);
        wait_for(&blocked).unwrap();
        let stats = srv.stats("a").unwrap();
        assert_eq!(
            (
                stats.submitted,
                stats.completed,
                stats.coalesced_requests,
                stats.forwards
            ),
            (2, 2, 2, 1)
        );
        srv.shutdown();
    }

    #[test]
    fn a_paused_server_queues_and_coalesces_fresh_reads() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(29, 48);
        let want = oracle(builder(), &g);
        srv.deploy("m", builder(), &g).unwrap();
        read(&srv, "m", 0);
        srv.pause();
        let tickets: Vec<Ticket> = (0..6).map(|n| srv.submit("m", n).unwrap()).collect();
        assert!(tickets.iter().all(|t| t.try_wait().is_none()));
        srv.resume();
        for (n, t) in tickets.iter().enumerate() {
            let r = wait_for(t).unwrap();
            assert_eq!((r.coalesced, bits(&r.rows[0])), (6, want[n].clone()));
        }
        let stats = srv.stats("m").unwrap();
        assert_eq!((stats.forwards, stats.coalesced_requests), (1, 7));
        srv.shutdown();
    }

    #[test]
    fn a_read_of_a_fresh_slot_after_shutdown_is_rejected() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        srv.deploy("m", builder(), &graph(30, 48)).unwrap();
        read(&srv, "m", 0);
        srv.shutdown();
        assert_eq!(srv.submit("m", 1).err(), Some(ServeError::ShuttingDown));
        assert_eq!(srv.stats("m").unwrap().submitted, 1);
    }

    /// Reads race swaps between two seeds: whichever path answers a read
    /// (at submit or in a group), its rows are those of the engine its
    /// version names, and no ticket hangs.
    #[test]
    fn reads_racing_swaps_get_the_rows_their_version_names() {
        let g = graph(31, 48);
        // Version 1 is the deploy and each swap installs the next one:
        // seed 7 at odd versions, seed 8 at even ones.
        let seed = |version: u64| if version % 2 == 1 { 7 } else { 8 };
        let want = [oracle(builder(), &g), oracle(builder().seed(8), &g)];
        for workers in [1usize, 4] {
            let srv = ServeHandle::start(ServeConfig::default().with_workers(workers));
            srv.deploy("m", builder(), &g).unwrap();
            std::thread::scope(|s| {
                let readers: Vec<_> = (0..3usize)
                    .map(|t| {
                        let (srv, want) = (&srv, &want);
                        s.spawn(move || {
                            for i in 0..150usize {
                                let node = (t * 17 + i) % 48;
                                let r = wait_for(&srv.submit("m", node).unwrap()).unwrap();
                                let w = &want[usize::from(seed(r.version) == 8)];
                                assert_eq!(bits(&r.rows[0]), w[node], "v{}", r.version);
                            }
                        })
                    })
                    .collect();
                for v in 2u64.. {
                    assert_eq!(srv.swap("m", builder().seed(seed(v)), &g).unwrap(), v);
                    if readers.iter().all(|r| r.is_finished()) {
                        break;
                    }
                }
            });
            let stats = srv.stats("m").unwrap();
            assert_eq!(
                (stats.completed, stats.failed),
                (450, 0),
                "workers={workers}"
            );
            srv.shutdown();
        }
    }

    /// The same-builder sibling of the test above: swaps alternate
    /// between two graphs with equal node and type counts but different
    /// edges, so every swap rebinds the resident engine in place. Each
    /// read's rows are those of the graph its version names.
    #[test]
    fn reads_racing_rebinds_get_the_rows_their_version_names() {
        let graphs = [graph(31, 48), graph(32, 48)];
        // Version 1 is the deploy onto graphs[0]; odd versions serve it,
        // even ones graphs[1].
        let at = |version: u64| usize::from(version.is_multiple_of(2));
        let want = [oracle(builder(), &graphs[0]), oracle(builder(), &graphs[1])];
        assert_ne!(want[0], want[1], "the edges must matter");
        for workers in [1usize, 4] {
            let srv = ServeHandle::start(ServeConfig::default().with_workers(workers));
            srv.deploy("m", builder(), &graphs[0]).unwrap();
            let swaps = std::thread::scope(|s| {
                let readers: Vec<_> = (0..3usize)
                    .map(|t| {
                        let (srv, want) = (&srv, &want);
                        s.spawn(move || {
                            for i in 0..150usize {
                                let node = (t * 17 + i) % 48;
                                let r = wait_for(&srv.submit("m", node).unwrap()).unwrap();
                                let w = &want[at(r.version)];
                                assert_eq!(bits(&r.rows[0]), w[node], "v{}", r.version);
                            }
                        })
                    })
                    .collect();
                for v in 2u64.. {
                    assert_eq!(srv.swap("m", builder(), &graphs[at(v)]).unwrap(), v);
                    if readers.iter().all(|r| r.is_finished()) {
                        return v - 1;
                    }
                }
                unreachable!()
            });
            let dep = srv.deployment("m").unwrap();
            assert_eq!(dep.faults.rebinds.load(Ordering::Relaxed), swaps);
            let stats = srv.stats("m").unwrap();
            assert_eq!(
                (stats.completed, stats.failed),
                (450, 0),
                "workers={workers}"
            );
            srv.shutdown();
        }
    }

    /// A delta under another builder than the deployed one takes the
    /// build-off-to-the-side path and serves the new model.
    #[test]
    fn a_delta_under_another_builder_serves_that_model() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = graph(33, 48);
        srv.deploy("m", builder(), &g).unwrap();
        read(&srv, "m", 0);
        let mut sharded = ShardedGraph::partition(
            g.graph().clone(),
            Box::new(hector_shard::RangePartitioner),
            hector_shard::ShardConfig::new(2),
        );
        let batch = DeltaBatch::new().add_edge(1, 17, 0).add_edge(2, 17, 1);
        srv.apply_delta("m", builder().seed(8), &mut sharded, &batch)
            .unwrap();
        let dep = srv.deployment("m").unwrap();
        assert_eq!(dep.faults.rebinds.load(Ordering::Relaxed), 0);
        let want = oracle(builder().seed(8), &GraphData::new(sharded.full().clone()));
        for node in [0, 17, 40] {
            let r = read(&srv, "m", node);
            assert_eq!((r.version, bits(&r.rows[0])), (2, want[node].clone()));
        }
        srv.shutdown();
    }

    /// A same-builder swap onto a graph whose type counts differ cannot
    /// keep the weights: it binds a fresh engine and serves its rows.
    #[test]
    fn a_same_builder_swap_onto_other_type_counts_binds_afresh() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        srv.deploy("m", builder(), &graph(34, 48)).unwrap();
        read(&srv, "m", 0);
        let other = GraphData::new(generate(&DatasetSpec {
            name: "serve_unit".into(),
            num_nodes: 48,
            num_node_types: 2,
            num_edges: 192,
            num_edge_types: 4,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 34,
        }));
        assert_eq!(srv.swap("m", builder(), &other).unwrap(), 2);
        let dep = srv.deployment("m").unwrap();
        assert_eq!(dep.faults.rebinds.load(Ordering::Relaxed), 0);
        let want = oracle(builder(), &other);
        for node in [0, 17, 47] {
            let r = read(&srv, "m", node);
            assert_eq!((r.version, bits(&r.rows[0])), (2, want[node].clone()));
        }
        srv.shutdown();
    }

    #[test]
    fn serve_error_display_and_source() {
        let e = ServeError::Hector(HectorError::InvalidConfig { detail: "x".into() });
        assert!(e.to_string().contains("engine error"));
        assert!(std::error::Error::source(&e).is_some());
        let o = ServeError::Overloaded {
            retry_after: Duration::from_millis(25),
        };
        assert!(o.to_string().contains("25 ms"));
        assert!(std::error::Error::source(&o).is_none());
    }

    /// Runs `f` on its own thread and fails if it has not returned
    /// within `limit`: a lost wakeup shows as a hang, not a pass.
    fn returns_within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
            panic!("{what} did not return within {limit:?}");
        }
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// An idle dispatcher sleeps until work arrives: no timed wake-ups.
    #[test]
    fn an_idle_dispatcher_does_not_poll() {
        let srv = ServeHandle::start(ServeConfig::default());
        let g = graph(8, 32);
        srv.deploy("m", builder(), &g).unwrap();
        srv.submit("m", 1).unwrap().wait().unwrap();
        // The dispatcher is back in its wait by now; a pause wakes it.
        std::thread::sleep(Duration::from_millis(20));
        srv.pause();
        srv.resume();
        std::thread::sleep(Duration::from_millis(20));
        let woke = srv.inner.wakes.load(Ordering::Relaxed);
        assert!(woke >= 1, "a pause wakes the dispatcher");
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(srv.inner.wakes.load(Ordering::Relaxed), woke);
        srv.shutdown();
    }

    /// `drain` racing the completion of the last group it waits for
    /// returns every time, with the group's ticket answered.
    #[test]
    fn drain_racing_the_last_groups_completion_returns() {
        let srv = ServeHandle::start(ServeConfig::default());
        let g = graph(9, 32);
        srv.deploy("m", builder(), &g).unwrap();
        let run = srv.clone();
        returns_within(Duration::from_secs(60), "drain", move || {
            for i in 0..1000 {
                run.pause();
                let ticket = run.submit("m", i % 32).unwrap();
                run.resume();
                run.drain();
                assert!(ticket.try_wait().is_some_and(|r| r.is_ok()), "round {i}");
            }
        });
        srv.shutdown();
    }

    /// `drain` sees the last group in flight, and the group completes
    /// between that check and its wait: it still wakes, because the
    /// dispatcher notifies under the queue lock, so after the wait. The
    /// test holds the deployment's slot to keep the group in flight; a
    /// hook in that window releases it and waits for the group's
    /// `in_flight` decrement. The closing sleep is for a dispatcher that
    /// notifies outside the lock: its notify lands then and is lost, and
    /// `drain` hangs. A correct notify cannot land in the window at all,
    /// so no channel could wait for it.
    #[test]
    fn drain_woken_by_a_completion_between_its_check_and_its_wait() {
        let srv = ServeHandle::start(ServeConfig::default());
        let g = graph(9, 32);
        srv.deploy("m", builder(), &g).unwrap();
        let dep = srv.deployment("m").unwrap();
        let (held, is_held) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _slot = dep.slot.lock().unwrap();
            held.send(()).unwrap();
            released.recv().is_ok()
        });
        is_held.recv().unwrap();
        srv.pause();
        let ticket = srv.submit("m", 5).unwrap();
        srv.resume();
        // The dispatcher took the request and waits on the slot.
        while srv.inner.in_flight.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let inner = Arc::downgrade(&srv.inner);
        *srv.inner.drain_hook.lock().unwrap() = Some(Box::new(move || {
            let Some(inner) = inner.upgrade() else { return };
            let _ = release.send(());
            while inner.in_flight.load(Ordering::SeqCst) > 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
        }));
        let waiter = srv.clone();
        returns_within(Duration::from_secs(10), "drain", move || waiter.drain());
        assert!(holder.join().unwrap(), "the hook ran inside the window");
        assert!(ticket.try_wait().is_some_and(|r| r.is_ok()));
        srv.inner.drain_hook.lock().unwrap().take();
        srv.shutdown();
    }

    /// `drain` waiting on a paused queue returns when `shutdown` fails
    /// what is queued.
    #[test]
    fn drain_racing_shutdown_returns() {
        let g = graph(10, 32);
        for i in 0..20 {
            let srv = ServeHandle::start(ServeConfig::default());
            srv.deploy("m", builder(), &g).unwrap();
            srv.pause();
            let ticket = srv.submit("m", 3).unwrap();
            let (waiter, (stop, stopped)) = (srv.clone(), std::sync::mpsc::channel());
            std::thread::spawn(move || {
                if i % 2 == 1 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                srv.shutdown();
                let _ = stop.send(());
            });
            returns_within(Duration::from_secs(30), "drain", move || waiter.drain());
            stopped.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(
                ticket.wait().unwrap_err(),
                ServeError::ShuttingDown,
                "round {i}"
            );
        }
    }
}
