//! The engine's run plan — the execution stack every run of an
//! [`crate::Engine`] goes through — and the run-level types the handles
//! share ([`Mode`], [`RunReport`], [`Bindings`]).
//!
//! # Seed contract
//!
//! Every stochastic artifact of a run flows through explicitly seeded
//! host RNGs *before* any kernel executes: [`crate::ParamStore::init`]
//! draws weights in program order from the caller's RNG, and
//! [`Bindings::standard`] derives one independent stream per input
//! *name*. No kernel — sequential or parallel — ever draws randomness,
//! so `HECTOR_THREADS` (and the chunking of the parallel executor in
//! general) can never affect initialisation: parallel and sequential
//! runs start from bit-identical parameters and inputs.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use hector_compiler::CompiledModule;
use hector_device::{Device, DeviceConfig, KernelCategory, OomError, Phase};
use hector_ir::{KernelSpec, Program, VarId};
use hector_par::{ParallelConfig, ThreadPool};
use hector_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hector_trace::{record_span, span_start, SpanCat};

use crate::backend::{BackendKind, ExecCtx, ExecPlan, WorkerArenas};
use crate::cost::{charge_run, kernel_cost, kernel_outputs};
use crate::error::HectorError;
use crate::exec::kernel_trace_meta;
use crate::loss::nll_loss_and_grad_into;
use crate::optim::Optimizer;
use crate::scratch::Scratch;
use crate::store::VarStore;
use crate::{GraphData, ParamStore};

/// The one execution mode: every run executes its kernels. Kept only
/// because `hector_benchmark` still calls
/// [`crate::EngineBuilder::mode`]`(Mode::Real)`; simulated-only
/// accounting is [`crate::model_run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Functional CPU interpretation of every kernel (exact numerics).
    Real,
}

/// Summary of one inference or training run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Total simulated time, microseconds.
    pub elapsed_us: f64,
    /// Peak device-memory footprint, bytes.
    pub peak_bytes: usize,
    /// Total kernel launches.
    pub launches: usize,
    /// Time in GEMM-template kernels, microseconds.
    pub gemm_us: f64,
    /// Time in traversal-template kernels, microseconds.
    pub traversal_us: f64,
    /// Time in data-movement kernels, microseconds.
    pub copy_us: f64,
    /// Time in framework fallbacks (incl. API overhead), microseconds.
    pub fallback_us: f64,
    /// Forward-phase time, microseconds.
    pub forward_us: f64,
    /// Backward-phase time, microseconds.
    pub backward_us: f64,
    /// Training loss (training steps only; `None` from
    /// [`crate::model_run`]).
    pub loss: Option<f32>,
}

/// Input tensors bound by name to a program's declared inputs.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    map: HashMap<String, Tensor>,
}

impl Bindings {
    /// Empty bindings.
    #[must_use]
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Adds a named tensor.
    pub fn set(&mut self, name: &str, t: Tensor) {
        self.map.insert(name.to_string(), t);
    }

    /// Looks up a tensor by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.map.get(name)
    }

    /// Standard bindings for a program on a graph: seeded random features
    /// for every node/edge input, and the RGCN normalisation constants
    /// `1/c_{v,r}` for an edge input named `cnorm`.
    ///
    /// # Seed contract
    ///
    /// Exactly one `u64` is drawn from `rng`; each input tensor is then
    /// filled from a private `StdRng` seeded with `base ^ fnv1a(name)`.
    /// The produced features are a pure function of the incoming RNG
    /// state and the input *names* — independent of input declaration
    /// order (which can differ across optimization combos), of how many
    /// inputs exist, and of `HECTOR_THREADS` (see the module docs).
    #[must_use]
    pub fn standard(program: &Program, graph: &GraphData, rng: &mut StdRng) -> Bindings {
        let base: u64 = rng.gen();
        let mut b = Bindings::new();
        for &v in &program.inputs {
            let info = program.var(v);
            let rows = graph.rows_of_space(info.space);
            if let Some(derive) = graph_input(&info.name) {
                b.set(&info.name, derive(graph));
            } else {
                let mut sub = StdRng::seed_from_u64(base ^ fnv1a(&info.name));
                let data = (0..rows * info.width)
                    .map(|_| sub.gen_range(-1.0..1.0))
                    .collect();
                b.set(&info.name, Tensor::from_vec(data, &[rows, info.width]));
            }
        }
        b
    }
}

/// How to compute input `name` from the graph itself, for an input the
/// graph determines (the RGCN `cnorm` constants); `None` for an input
/// drawn from the seed. The one rule [`Bindings::standard`],
/// [`crate::Subgraph::gather_inputs`] and [`crate::Engine::rebind`] share: a
/// graph-derived input is recomputed on every graph it runs on, a
/// seed-derived one depends only on the seed and its row count.
pub(crate) fn graph_input(name: &str) -> Option<fn(&GraphData) -> Tensor> {
    (name == "cnorm").then_some(cnorm_tensor as fn(&GraphData) -> Tensor)
}

/// FNV-1a hash of an input name: the stable, order-independent component
/// of [`Bindings::standard`]'s per-input seeds.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-edge `1/c_{v,r}` normalisation constants (c = in-degree of the
/// destination under the edge's relation).
///
/// Edges are relation-sorted, so one dense per-node counter serves every
/// relation: each segment counts its destinations, writes its constants,
/// then clears only the counters it touched.
#[must_use]
pub fn cnorm_tensor(graph: &GraphData) -> Tensor {
    let g = graph.graph();
    let dst = g.dst();
    let mut count = vec![0u32; g.num_nodes()];
    let mut data = vec![0.0f32; g.num_edges()];
    for t in 0..g.num_edge_types() {
        let seg = g.etype_ptr()[t]..g.etype_ptr()[t + 1];
        for &d in &dst[seg.clone()] {
            count[d as usize] += 1;
        }
        for (c, &d) in data[seg.clone()].iter_mut().zip(&dst[seg.clone()]) {
            *c = 1.0 / count[d as usize] as f32;
        }
        for &d in &dst[seg] {
            count[d as usize] = 0;
        }
    }
    Tensor::from_vec(data, &[g.num_edges(), 1])
}

/// The execution stack under one [`crate::Engine`], persistent across
/// its runs: the compiled module it runs, a simulated device, the
/// production executor's pool and arenas, and the reuse plan — the
/// variable store, first-touch flags and loss staging buffer — that
/// every forward pass and training step goes through.
///
/// Buffers follow liveness: the engine's first run packs every variable
/// it materialises into shared slots by live interval over the kernel
/// sequence (see [`crate::store`]), and each variable takes its slot at
/// its first touch of the run, zero-filled. A zeroed reused buffer is
/// indistinguishable from a freshly allocated one, so a warm run is
/// bit-identical to a cold one, and the plan holds the peak of live
/// variables rather than their sum. A slot grows only to its biggest
/// member; growth events and footprint surface through
/// [`hector_device::ScratchStats::plan_grows`] on the device counters;
/// `tests/run_alloc.rs` pins that a warm sequential `train_step`
/// performs **zero** heap allocations.
#[derive(Debug)]
pub(crate) struct RunPlan {
    /// The one module this plan runs (shared through the module cache
    /// with every engine built from the same key).
    pub(crate) module: Arc<CompiledModule>,
    /// The simulated device (counters, memory state).
    pub(crate) device: Device,
    par: ParallelConfig,
    /// Worker pool of the production executor. `None` when
    /// `num_threads == 1` (every kernel is one chunk) or on the
    /// sequential oracle backend.
    pool: Option<ThreadPool>,
    /// Reusable scratch arena for the hot path (the oracle's
    /// row staging, the production executor's per-launch weight flags):
    /// buffers grow to the widest kernel row once, then every later
    /// kernel (and run) reuses them — zero per-row heap allocations in
    /// steady state. Growth events and footprint surface through
    /// [`hector_device::ScratchStats`] on the device counters.
    scratch: Scratch,
    /// Pooled per-chunk state of the production executor (scratch
    /// blocks, contribution buffers, the launch table) — what makes
    /// warm runs allocation-free at every thread count.
    arenas: WorkerArenas,
    /// Which executor kernels run on — see [`crate::backend`].
    backend: BackendKind,
    /// `module` prepared for `backend`: built by the first run, reused
    /// by every later one.
    exec_plan: Option<ExecPlan>,
    /// The slots runs write outputs and gradients into. Empty until the
    /// first run.
    pub(crate) vars: VarStore,
    /// Per-`VarId` flags, one per variable of the current run (capacity
    /// persists). The device walk borrows them first for its charges;
    /// then they mark each variable's first touch by the executor.
    touched: Vec<bool>,
    /// Reused NLL loss-gradient staging buffer.
    loss_grad: Vec<f32>,
    /// Buffer (re)materialisation events since construction.
    grows: usize,
}

impl RunPlan {
    /// Creates a plan running `module` on backend `kind`.
    /// `num_threads = 1` runs every kernel as one chunk (no pool is
    /// created); any higher count splits kernels across a
    /// `hector-par` pool with outputs bit-identical to the one-chunk run
    /// (see the [`crate::backend`] module docs). [`BackendKind::Interp`]
    /// is sequential by definition: it ignores `par.num_threads` and
    /// creates no pool.
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::InvalidConfig`] for a [`ParallelConfig`]
    /// with zero worker threads or zero minimum chunk rows (both would
    /// deadlock or divide by zero downstream; environment-derived
    /// configurations are always valid — this guards hand-built ones).
    pub(crate) fn new(
        module: Arc<CompiledModule>,
        config: DeviceConfig,
        par: ParallelConfig,
        kind: BackendKind,
    ) -> Result<RunPlan, HectorError> {
        if par.num_threads == 0 {
            return Err(HectorError::InvalidConfig {
                detail: "ParallelConfig.num_threads must be >= 1".into(),
            });
        }
        if par.min_chunk_rows == 0 {
            return Err(HectorError::InvalidConfig {
                detail: "ParallelConfig.min_chunk_rows must be >= 1".into(),
            });
        }
        let pool = if kind == BackendKind::Specialized {
            ThreadPool::from_config(&par)
        } else {
            None
        };
        Ok(RunPlan {
            module,
            device: Device::new(config),
            par,
            pool,
            scratch: Scratch::new(),
            arenas: WorkerArenas::new(),
            backend: kind,
            exec_plan: None,
            vars: VarStore::default(),
            touched: Vec::new(),
            loss_grad: Vec::new(),
            grows: 0,
        })
    }

    /// Marks `v` touched this run; returns whether it already was.
    /// Buffers are zero-filled lazily, at each variable's first touch
    /// ([`RunPlan::ensure`]) — only the current program's variables pay
    /// the memset.
    fn touch(&mut self, v: VarId) -> bool {
        std::mem::replace(&mut self.touched[v.0 as usize], true)
    }

    /// Hands `v` its slot, shaped for `v` on `graph` and zero-filled —
    /// its first touch of the run — counting a growth event only when
    /// the slot reallocates, so warm runs (and warm batch steps whose
    /// shapes fit) stay allocation-free. Callers guarantee at most one
    /// call per variable per run (the `touched` flags for device-backed
    /// vars; single assignment for register locals), so a mid-run
    /// re-zero of a scatter target can never happen.
    fn ensure(&mut self, program: &Program, graph: &GraphData, v: VarId) {
        let info = program.var(v);
        let rows = graph.rows_of_space(info.space);
        if self.vars.take(v, &[rows, info.width]) {
            self.grows += 1;
        }
    }

    /// Materialises device-backed `v` at its first touch of the run.
    fn alloc_var(&mut self, program: &Program, graph: &GraphData, v: VarId) {
        if !self.touch(v) {
            self.ensure(program, graph, v);
        }
    }

    /// Current plan footprint in bytes (persistent buffers + staging).
    fn bytes(&self) -> usize {
        self.vars.byte_size() + self.loss_grad.capacity() * std::mem::size_of::<f32>()
    }

    fn bind_inputs(&mut self, program: &Program, graph: &GraphData, inputs: &Bindings) {
        for &v in &program.inputs {
            if self.touch(v) {
                continue;
            }
            let info = program.var(v);
            let t = inputs
                .get(&info.name)
                .unwrap_or_else(|| panic!("missing input binding '{}'", info.name));
            self.ensure(program, graph, v);
            let slot = self.vars.get_mut(v);
            assert_eq!(
                t.shape(),
                slot.shape(),
                "binding '{}' has the wrong shape",
                info.name
            );
            slot.data_mut().copy_from_slice(t.data());
        }
    }

    fn run_kernels(
        &mut self,
        kernels: &[KernelSpec],
        program: &Program,
        graph: &GraphData,
        params: &mut ParamStore,
        phase: Phase,
    ) {
        for (ki, spec) in kernels.iter().enumerate() {
            // One trace span per kernel invocation (sequential and
            // parallel executors alike); a single relaxed load when
            // tracing is off, keeping the warm path allocation-free.
            let tr = span_start();
            // Materialise outputs. A register local (no device memory
            // charged) gets a buffer only where something reads it
            // through the store: on the oracle backend, or where the
            // fused loop cannot keep it in block scratch (one read at a
            // source endpoint, or scattered into).
            for (v, local) in kernel_outputs(spec) {
                if !local {
                    self.alloc_var(program, graph, v);
                } else if !self
                    .exec_plan
                    .as_ref()
                    .is_some_and(|plan| plan.holds_local(phase, ki, v))
                {
                    self.ensure(program, graph, v);
                }
            }
            let stats_before = self.pool.as_ref().map(ThreadPool::stats);
            let grows_before = self.scratch.grows();
            let start = Instant::now();
            let exec_plan = self
                .exec_plan
                .as_ref()
                .expect("backend plan prepared before kernels run");
            let mut ctx = ExecCtx {
                program,
                graph,
                params,
                vars: &mut self.vars,
                pool: self.pool.as_ref(),
                min_chunk: self.par.min_chunk_rows,
                scratch: &mut self.scratch,
                arenas: &mut self.arenas,
            };
            // Whether the kernel actually split across chunks —
            // one-chunk launches count as sequential in the
            // ParallelStats report.
            let ran_parallel = exec_plan.run_kernel(phase, ki, spec, &mut ctx);
            if !matches!(spec, KernelSpec::Fallback(_)) {
                let wall_us = start.elapsed().as_secs_f64() * 1e6;
                let bytes = self.scratch.bytes() + self.arenas.bytes();
                self.device
                    .record_scratch(self.scratch.grows() - grows_before, bytes);
                let chunks = stats_before
                    .zip(self.pool.as_ref())
                    .map_or(0, |(before, pool)| {
                        usize::try_from(pool.stats().executed - before.executed)
                            .unwrap_or(usize::MAX)
                    });
                let category = match spec {
                    KernelSpec::Gemm(_) => KernelCategory::Gemm,
                    _ => KernelCategory::Traversal,
                };
                self.device
                    .record_host_exec(category, ran_parallel, wall_us, chunks);
            }
            if let Some(t0) = tr {
                let (tname, trows) = kernel_trace_meta(spec, graph);
                let flops = kernel_cost(spec, program, graph, phase).flops;
                let ki = u32::try_from(ki).unwrap_or(u32::MAX);
                record_span(tname, SpanCat::Kernel, t0, trows, ki, flops);
            }
        }
        self.device.record_backend_kernels(kernels.len() as u64);
    }

    /// One run: a forward pass or — with `train` — a training step
    /// (forward, NLL loss against the labels, backward, prep chain rule,
    /// optimizer update), with the plan's growth recorded on the device
    /// counters whether or not the run fits. Output and gradient
    /// tensors, the loss staging buffer and the scratch arenas are all
    /// reused, so after the first run a forward pass or a training step
    /// performs **zero** heap allocations — sequential *and* threaded
    /// (pinned by `tests/run_alloc.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when the run exceeds device memory, matching
    /// the paper's OOM accounting; no kernel has executed then.
    ///
    /// # Panics
    ///
    /// Panics if an input binding is missing or mis-shaped, if a label
    /// is inconsistent, or on a training run of a module not compiled
    /// for training (the engine screens all three first).
    pub(crate) fn run(
        &mut self,
        graph: &GraphData,
        params: &mut ParamStore,
        inputs: &Bindings,
        train: Option<(&[usize], &mut dyn Optimizer)>,
    ) -> Result<RunReport, OomError> {
        let grows_before = self.grows;
        let res = self.run_phases(graph, params, inputs, train);
        self.device
            .record_plan(self.grows - grows_before, self.bytes());
        res
    }

    /// The phases of a run: set-up, input binding, forward kernels and —
    /// with `train` — loss, backward kernels, prep chain rule, optimizer.
    fn run_phases(
        &mut self,
        graph: &GraphData,
        params: &mut ParamStore,
        inputs: &Bindings,
        train: Option<(&[usize], &mut dyn Optimizer)>,
    ) -> Result<RunReport, OomError> {
        // An owned handle (a refcount bump, no allocation), so the
        // `&mut self` helpers below can run beside the module borrow.
        let module = &Arc::clone(&self.module);
        let training = train.is_some();
        let run0 = span_start();
        let tr = span_start();
        // Prepared lazily, so counters attribute the build to the first
        // run: `prepares` 1 cold, `plan_reuses` 1 warm.
        let reused = self.exec_plan.is_some();
        if !reused {
            let exec_plan = ExecPlan::prepare(self.backend, module);
            self.vars = VarStore::planned(module, &exec_plan, graph);
            self.exec_plan = Some(exec_plan);
        }
        // The whole run's device accounting, before anything executes:
        // an OOM fails here with no kernel run. The walk resets the
        // device, so the host-side records follow it.
        let touched = &mut self.touched;
        let walk = charge_run(module, graph, &mut self.device, training, touched);
        self.device.record_backend(self.backend.name(), reused);
        let mut report = walk?;
        // The walk sized the flags to this run's variables.
        self.touched.fill(false);
        if training {
            params.zero_grads();
        }
        if let Some(t0) = tr {
            record_span("phase/setup", SpanCat::Phase, t0, 0, 0, 0.0);
        }
        let tr = span_start();
        self.bind_inputs(&module.forward, graph, inputs);
        if let Some(t0) = tr {
            record_span("phase/bind_inputs", SpanCat::Phase, t0, 0, 0, 0.0);
        }
        self.run_kernels(
            &module.fw_kernels,
            &module.forward,
            graph,
            params,
            Phase::Forward,
        );
        if let Some((labels, optimizer)) = train {
            report.loss = Some(self.backward(graph, params, labels, optimizer));
        }
        if let Some(t0) = run0 {
            let name = if training {
                "run/train_step"
            } else {
                "run/forward"
            };
            record_span(name, SpanCat::Run, t0, 0, 0, 0.0);
            hector_trace::set_backend_label(self.backend.name());
        }
        Ok(report)
    }

    /// The training half of a step, after the forward kernels: NLL loss
    /// and output-gradient seeds (`phase/loss`), backward kernels, prep
    /// chain rule (`phase/prep_grad`), optimizer update
    /// (`phase/optimizer`). Returns the loss.
    fn backward(
        &mut self,
        graph: &GraphData,
        params: &mut ParamStore,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        let module = &Arc::clone(&self.module);
        let bw_program = module.backward.as_ref().expect("checked by the caller");
        let out_var = *module.forward.outputs.first().expect("model has an output");
        let n_outputs = module.forward.outputs.len();
        let seeds = &bw_program.inputs[..n_outputs];
        let tr = span_start();
        // The gradient is staged in the plan's reusable buffer while the
        // logits borrow the store, then copied into the seed variable
        // once the borrow ends.
        let RunPlan {
            vars,
            loss_grad,
            grows,
            ..
        } = &mut *self;
        let logits = vars.get(out_var);
        let need = logits.len();
        if loss_grad.len() < need {
            loss_grad.resize(need, 0.0);
            *grows += 1;
        }
        let loss = nll_loss_and_grad_into(logits, labels, &mut loss_grad[..need]);
        // Multi-output models: seed gradients beyond the loss-bearing
        // first output stay zero.
        for &s in seeds {
            self.alloc_var(bw_program, graph, s);
        }
        let seed = self.vars.get_mut(seeds[0]);
        let need = seed.len();
        seed.data_mut().copy_from_slice(&self.loss_grad[..need]);
        if let Some(t0) = tr {
            record_span(
                "phase/loss",
                SpanCat::Phase,
                t0,
                labels.len() as u64,
                0,
                0.0,
            );
        }

        self.run_kernels(
            &module.bw_kernels,
            bw_program,
            graph,
            params,
            Phase::Backward,
        );
        // The prep chain rule is a phase of its own, recorded only for
        // programs that have preps.
        let tr = span_start().filter(|_| !module.forward.preps.is_empty());
        params.backprop_preps(&module.forward, graph);
        if let Some(t0) = tr {
            record_span("phase/prep_grad", SpanCat::Phase, t0, 0, 0, 0.0);
        }
        let tr = span_start();
        optimizer.step(params, &module.forward);
        if let Some(t0) = tr {
            record_span("phase/optimizer", SpanCat::Phase, t0, 0, 0, 0.0);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineBuilder;
    use hector_compiler::CompileOptions;
    use hector_graph::{HeteroGraph, HeteroGraphBuilder};
    use hector_ir::builder::ModelSource;
    use hector_ir::{AggNorm, ModelBuilder};
    use hector_tensor::seeded_rng;

    /// Fig. 6(a)-style toy graph.
    fn toy_graph() -> GraphData {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(6);
        b.add_edge(5, 3, 0);
        b.add_edge(5, 4, 0);
        b.add_edge(1, 0, 1);
        b.add_edge(2, 0, 1);
        b.add_edge(3, 0, 1);
        b.add_edge(4, 1, 1);
        b.add_edge(4, 2, 1);
        GraphData::new(b.build())
    }

    fn rgcn_source(dim: usize) -> ModelSource {
        let mut m = ModelBuilder::new("rgcn");
        let h = m.node_input("h", dim);
        let c = m.edge_input("cnorm", 1);
        let w = m.weight_per_etype("W", dim, dim);
        let w0 = m.weight_shared("W0", dim, dim);
        let msg = m.typed_linear("msg", m.src(h), w);
        let agg = m.aggregate("agg", m.edge(msg), Some(m.edge(c)), AggNorm::None);
        let selfl = m.typed_linear("selfl", m.this(h), w0);
        let sum = m.add("sum", m.this(agg), m.this(selfl));
        let out = m.relu("out", m.this(sum));
        m.output(out);
        m.finish()
    }

    fn unopt_rgcn(dim: usize, seed: u64) -> EngineBuilder {
        EngineBuilder::from_source(rgcn_source(dim))
            .options(CompileOptions::unopt())
            .seed(seed)
    }

    #[test]
    fn rgcn_inference_runs_and_matches_reference() {
        let graph = toy_graph();
        let mut engine = unopt_rgcn(4, 42).build().unwrap();
        let report = engine.bind(&graph).unwrap().forward().unwrap();

        // Reference: dense per-node computation.
        let (params, bindings) = (engine.params(), engine.bindings());
        let h = bindings.get("h").unwrap();
        let cn = bindings.get("cnorm").unwrap();
        let g = graph.graph();
        let got = engine.output();
        for v in 0..g.num_nodes() {
            let mut expect = [0.0f32; 4];
            // Self-loop W0.
            let w0 = params.weight(hector_ir::WeightId(1));
            for (j, e) in expect.iter_mut().enumerate() {
                for p in 0..4 {
                    *e += h.at2(v, p) * w0.at3(0, p, j);
                }
            }
            // Incoming messages.
            for e in 0..g.num_edges() {
                if g.dst()[e] as usize != v {
                    continue;
                }
                let s = g.src()[e] as usize;
                let ty = g.etype()[e] as usize;
                let w = params.weight(hector_ir::WeightId(0));
                for (j, ex) in expect.iter_mut().enumerate() {
                    let mut m = 0.0;
                    for p in 0..4 {
                        m += h.at2(s, p) * w.at3(ty, p, j);
                    }
                    *ex += m * cn.at2(e, 0);
                }
            }
            for (j, &e) in expect.iter().enumerate() {
                let want = e.max(0.0);
                let gotv = got.at2(v, j);
                assert!(
                    (gotv - want).abs() < 1e-4,
                    "node {v} col {j}: got {gotv}, want {want}"
                );
            }
        }
        assert!(report.elapsed_us > 0.0);
        assert!(report.launches >= 3);
        assert!(report.peak_bytes > 0);
    }

    #[test]
    fn standard_bindings_are_independent_of_declaration_and_output_order() {
        // Regression pin for the per-input seed contract: streams derive
        // from `base ^ fnv1a(name)` only, so reordering the program's
        // input declarations or outputs (which optimization combos do)
        // must not change any input tensor. A formulation that mixed the
        // iteration index into the seed would fail both assertions.
        let graph = toy_graph();
        let build = |flip: bool| {
            let mut m = ModelBuilder::new("order");
            let (a, b) = if flip {
                let b = m.node_input("b_feat", 4);
                let a = m.node_input("a_feat", 4);
                (a, b)
            } else {
                let a = m.node_input("a_feat", 4);
                let b = m.node_input("b_feat", 4);
                (a, b)
            };
            let sum = m.add("sum", m.this(a), m.this(b));
            let out = m.relu("out", m.this(sum));
            let out2 = m.relu("out2", m.this(sum));
            if flip {
                m.output(out2);
                m.output(out);
            } else {
                m.output(out);
                m.output(out2);
            }
            m.finish().program
        };
        let fwd = build(false);
        let flipped = build(true);
        let mut rng1 = seeded_rng(99);
        let b1 = Bindings::standard(&fwd, &graph, &mut rng1);
        let mut rng2 = seeded_rng(99);
        let b2 = Bindings::standard(&flipped, &graph, &mut rng2);
        for name in ["a_feat", "b_feat"] {
            assert_eq!(
                b1.get(name).unwrap().data(),
                b2.get(name).unwrap().data(),
                "input '{name}' must be bit-identical regardless of declaration/output order"
            );
        }
    }

    #[test]
    fn modeled_mode_matches_real_mode_timing() {
        let graph = toy_graph();
        let mut engine = unopt_rgcn(8, 1).build().unwrap();
        let r1 = engine.bind(&graph).unwrap().forward().unwrap();
        let mut device = Device::new(DeviceConfig::rtx3090());
        let r2 = crate::model_run(engine.module(), &graph, &mut device, false).unwrap();
        assert!((r1.elapsed_us - r2.elapsed_us).abs() < 1e-9);
        assert_eq!(r1.peak_bytes, r2.peak_bytes);
        assert_eq!(r1.launches, r2.launches);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let tiny = DeviceConfig::rtx3090().with_capacity(64);
        let mut engine = unopt_rgcn(8, 3).device(tiny).build().unwrap();
        let err = engine.bind(&toy_graph()).unwrap().forward().unwrap_err();
        assert!(matches!(err, HectorError::Oom(e) if e.capacity == 64));
    }

    /// The `(dst, etype)` hash-count formulation the dense per-relation
    /// counter replaced, kept as the oracle.
    fn cnorm_reference(g: &HeteroGraph) -> Vec<f32> {
        let mut count: HashMap<(u32, u32), u32> = HashMap::new();
        for e in 0..g.num_edges() {
            *count.entry((g.dst()[e], g.etype()[e])).or_insert(0) += 1;
        }
        (0..g.num_edges())
            .map(|e| 1.0 / count[&(g.dst()[e], g.etype()[e])] as f32)
            .collect()
    }

    #[test]
    fn cnorm_matches_the_hash_count_reference_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Relation 1 is empty, node 7 isolated, node 2 gets the same
        // destination under two relations, and (0, 2, 0) is a parallel
        // edge.
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(5);
        b.add_node_type(3);
        for (s, d, t) in [
            (0, 2, 0),
            (0, 2, 0),
            (1, 2, 2),
            (3, 2, 0),
            (6, 4, 2),
            (4, 6, 3),
        ] {
            b.add_edge(s, d, t);
        }
        let mut graphs = vec![toy_graph(), GraphData::new(b.build())];
        for seed in 0..6u64 {
            graphs.push(GraphData::new(hector_graph::generate(
                &hector_graph::DatasetSpec {
                    name: "cnorm".into(),
                    num_nodes: 40 + 30 * seed as usize,
                    num_node_types: 1 + seed as usize % 3,
                    num_edges: 300 * (seed as usize + 1),
                    num_edge_types: 1 + 3 * seed as usize,
                    compaction_ratio: 0.3,
                    type_skew: 1.0,
                    seed,
                },
            )));
        }
        for g in &graphs {
            let got = cnorm_tensor(g);
            assert_eq!(got.shape(), &[g.graph().num_edges(), 1]);
            assert_eq!(bits(got.data()), bits(&cnorm_reference(g.graph())));
        }
    }
}
