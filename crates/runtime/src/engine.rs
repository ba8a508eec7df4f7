//! The one-call model lifecycle: `Engine` and `Trainer` handles.
//!
//! The paper's pitch is a *concise programming model* backed by an
//! aggressive compiler; these handles make the runtime side match. An
//! [`EngineBuilder`] assembles the whole stack — model, dimensions,
//! [`CompileOptions`], device, parallelism, seed — and yields an
//! [`Engine`] that owns the compiled module (shared through the
//! process-wide [`hector_compiler::ModuleCache`]), the simulated device,
//! the scratch arena, and the run plan. [`Engine::bind`] attaches a
//! graph (deriving parameters and inputs from the engine seed), and
//! every [`Engine::forward`] / [`Trainer::step`] call goes through the
//! engine's persistent run plan — the zero-allocation path — by
//! construction.
//!
//! Every entry point is fallible — misuse (wrong graph, bad shapes,
//! invalid configuration) comes back as a
//! [`HectorError`](crate::HectorError), never a panic:
//!
//! ```
//! use hector_graph::HeteroGraphBuilder;
//! use hector_models::ModelKind;
//! use hector_runtime::{Adam, EngineBuilder, GraphData, HectorError};
//!
//! # fn main() -> Result<(), HectorError> {
//! let mut b = HeteroGraphBuilder::new();
//! b.add_node_type(4);
//! b.add_edge(0, 1, 0);
//! b.add_edge(2, 1, 0);
//! b.add_edge(3, 2, 1);
//! let graph = GraphData::new(b.build());
//!
//! // Inference: build → bind → forward.
//! let mut engine = EngineBuilder::new(ModelKind::Rgcn).dims(4, 4).seed(7).build()?;
//! let bound = engine.bind(&graph)?;
//! let report = bound.forward()?;
//! assert!(report.elapsed_us > 0.0);
//! assert_eq!(bound.output().rows(), 4);
//!
//! // Training: build_trainer → bind → step/epoch.
//! let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
//!     .dims(4, 4)
//!     .seed(7)
//!     .build_trainer(Adam::new(0.01))?;
//! trainer.bind(&graph)?;
//! let epoch = trainer.epoch(3)?;
//! assert_eq!(epoch.losses.len(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! # Seed contract
//!
//! [`Engine::bind`] derives every stochastic artifact from one
//! `seeded_rng(seed)` in a fixed order, so an engine whose pieces are
//! drawn by hand in that order and injected through
//! [`Engine::params_mut`] / [`Engine::set_bindings`] /
//! [`Trainer::set_labels`] is bit-identical to the seed-derived one
//! (pinned by `tests/api_parity.rs`):
//!
//! 1. `ParamStore::init(&module.forward, graph, &mut rng)`,
//! 2. `Bindings::standard(&module.forward, graph, &mut rng)`,
//! 3. `random_labels(&mut rng, num_nodes, classes)` (trainers only).
//!
//! [`Engine::rebind`] draws nothing: it moves a bound engine onto a new
//! graph with its parameters and seed-derived inputs as they are, and
//! recomputes only the inputs the graph determines (`cnorm`). An
//! engine whose state is still the seed's then forwards bit for bit
//! what a fresh [`Engine::bind`] of the new graph would: the base
//! weights depend only on the type counts and the seed-derived inputs
//! only on their row counts, and rebind refuses a graph that changes
//! either. (Derived weights draw nothing and are recomputed by every
//! run for the graph it runs.)

use hector_compiler::{CompileOptions, CompiledModule, ModuleCache};
use hector_device::{Device, DeviceConfig};
use hector_ir::builder::ModelSource;
use hector_ir::{Program, VarInfo, WeightId};
use hector_models::{stacked, ModelKind};
use hector_par::ParallelConfig;
use hector_tensor::{seeded_rng, Tensor};
use hector_trace::report::{build_report, ProfileReport, RelationShare};
use hector_trace::{TraceConfig, TraceEvent};

use hector_graph::SamplerConfig;

use crate::backend::BackendKind;
use crate::error::HectorError;
use crate::loss::random_labels;
use crate::minibatch::{Batch, BatchSource, Minibatches};
use crate::optim::Optimizer;
use crate::session::{graph_input, Bindings, Mode, RunPlan, RunReport};
use crate::{GraphData, ParamStore, Subgraph};

/// What the builder compiles: a built-in model kind (optionally stacked
/// into multiple layers) or a custom DSL source.
#[derive(Clone, Debug, PartialEq)]
enum ModelSpec {
    Builtin(ModelKind),
    Custom(Box<ModelSource>),
}

/// Fluent configuration for an [`Engine`] (or [`Trainer`]).
///
/// Defaults: dims 64×64 (the paper's §4.1 setting), one layer, hidden =
/// `out_dim`, [`CompileOptions::best`], the simulated RTX 3090,
/// parallelism from the environment
/// ([`ParallelConfig::from_env`]), seed 0, `classes` = the model's
/// output width.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineBuilder {
    spec: ModelSpec,
    in_dim: usize,
    out_dim: usize,
    hidden: Option<usize>,
    layers: usize,
    options: CompileOptions,
    device: DeviceConfig,
    par: Option<ParallelConfig>,
    backend: Option<BackendKind>,
    seed: u64,
    classes: Option<usize>,
    trace: Option<TraceConfig>,
}

impl EngineBuilder {
    /// Starts a builder for one of the built-in models.
    #[must_use]
    pub fn new(kind: ModelKind) -> EngineBuilder {
        EngineBuilder {
            spec: ModelSpec::Builtin(kind),
            in_dim: 64,
            out_dim: 64,
            hidden: None,
            layers: 1,
            options: CompileOptions::best(),
            device: DeviceConfig::rtx3090(),
            par: None,
            backend: None,
            seed: 0,
            classes: None,
            trace: None,
        }
    }

    /// Starts a builder from a custom DSL [`ModelSource`]. Dimensions
    /// are baked into the source, so [`EngineBuilder::dims`],
    /// [`EngineBuilder::hidden`], and [`EngineBuilder::layers`] are not
    /// available (stack inside the source instead). `classes` for
    /// trainer labels defaults to the source's output width unless
    /// [`EngineBuilder::classes`] overrides it.
    #[must_use]
    pub fn from_source(src: ModelSource) -> EngineBuilder {
        // A source with no outputs is rejected with `CompileError` at
        // `build()`, not here — builders must be constructible.
        let out_w = src
            .program
            .outputs
            .first()
            .map_or(0, |&v| src.program.var(v).width);
        EngineBuilder {
            spec: ModelSpec::Custom(Box::new(src)),
            in_dim: 0,
            out_dim: out_w,
            ..EngineBuilder::new(ModelKind::Rgcn)
        }
    }

    /// Input and output feature dimensions (built-in models only).
    ///
    /// # Panics
    ///
    /// Panics on a [`EngineBuilder::from_source`] builder — a custom
    /// source's dimensions are baked into the DSL and cannot be
    /// overridden here.
    #[must_use]
    pub fn dims(mut self, in_dim: usize, out_dim: usize) -> Self {
        assert!(
            matches!(self.spec, ModelSpec::Builtin(_)),
            "dims() applies to built-in model kinds; a custom source fixes its own dimensions"
        );
        self.in_dim = in_dim;
        self.out_dim = out_dim;
        self
    }

    /// Hidden dimension between stacked layers (defaults to `out_dim`).
    ///
    /// # Panics
    ///
    /// Panics on a [`EngineBuilder::from_source`] builder (stack custom
    /// sources in the DSL instead).
    #[must_use]
    pub fn hidden(mut self, hidden: usize) -> Self {
        assert!(
            matches!(self.spec, ModelSpec::Builtin(_)),
            "hidden() applies to built-in model kinds; stack custom sources in the DSL"
        );
        self.hidden = Some(hidden);
        self
    }

    /// Stacks the built-in model `n` layers deep
    /// (`in_dim → hidden → … → out_dim` through
    /// [`hector_models::stacked::stack`]); the whole stack is one
    /// inter-operator program, so inter-layer fusion stays visible to
    /// the compiler. `n = 1` (the default) is the plain single layer.
    #[must_use]
    pub fn layers(mut self, n: usize) -> Self {
        self.layers = n;
        self
    }

    /// Compile options (paper's U/C/R/C+R axes plus schedule knobs).
    #[must_use]
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Forces training (backward) compilation on or off. `build_trainer`
    /// sets this automatically.
    #[must_use]
    pub fn training(mut self, training: bool) -> Self {
        self.options.training = training;
        self
    }

    /// Simulated device configuration.
    #[must_use]
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Accepts the one [`Mode`] and does nothing. Kept only because
    /// `hector_benchmark` still calls it; cost-model-only accounting is
    /// [`crate::model_run`].
    #[must_use]
    pub fn mode(self, _mode: Mode) -> Self {
        self
    }

    /// Host-parallelism configuration for the executor
    /// (defaults to `HECTOR_THREADS` via [`ParallelConfig::from_env`]).
    #[must_use]
    pub fn parallel(mut self, par: ParallelConfig) -> Self {
        self.par = Some(par);
        self
    }

    /// Execution backend for kernels (defaults to
    /// [`BackendKind::Specialized`], the production executor). Backends
    /// are bit-identical; [`BackendKind::Interp`] is the sequential
    /// oracle the parity suites compare against, and ignores the thread
    /// count.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Seed for parameter/input/label derivation (see the module-level
    /// seed contract).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of label classes for trainer label generation (defaults
    /// to the model's output width; must stay within it — NLL labels
    /// index the output logits, validated at [`EngineBuilder::build`]).
    #[must_use]
    pub fn classes(mut self, classes: usize) -> Self {
        self.classes = Some(classes);
        self
    }

    /// Tracing configuration for the engine's lifetime. When enabled,
    /// the process-global recorder turns on at [`EngineBuilder::build`]
    /// (in time to capture the compiler's pass spans on a module-cache
    /// miss), and a configured `out_path` is written as chrome-trace
    /// JSON when the engine drops (or explicitly via
    /// [`Engine::write_trace`]). Defaults to
    /// [`TraceConfig::from_env`] — the `HECTOR_TRACE=<out.json>`
    /// variable — so any binary can opt in without code changes.
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The model source this builder will compile.
    ///
    /// # Panics
    ///
    /// Panics if `layers > 1` was combined with a custom source, or
    /// `layers == 0`.
    #[must_use]
    pub fn source(&self) -> ModelSource {
        match &self.spec {
            ModelSpec::Builtin(kind) => stacked::stack(
                *kind,
                self.layers,
                self.in_dim,
                self.hidden.unwrap_or(self.out_dim),
                self.out_dim,
            ),
            ModelSpec::Custom(src) => {
                assert!(
                    self.layers == 1,
                    "layers(n) applies to built-in model kinds; stack custom sources in the DSL"
                );
                (**src).clone()
            }
        }
    }

    /// Builds the engine: compiles (or fetches from the process-wide
    /// [`ModuleCache`]) and assembles the execution stack. Building a
    /// second engine with identical `(source, dims, options)` performs
    /// zero compilations — check [`Engine::was_cache_hit`] or
    /// [`ModuleCache::stats`].
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::InvalidConfig`] on invalid `layers`
    /// (zero, or `layers > 1` on a custom source), on a zero width
    /// (`dims` or `hidden` of a built-in model), or when
    /// [`EngineBuilder::classes`] exceeds the model's output width (NLL
    /// labels index the output logits — failing here beats a confusing
    /// panic inside the first training step),
    /// [`HectorError::CompileError`] when a custom source declares no
    /// outputs, and [`HectorError::InvalidConfig`] again for a
    /// hand-built [`ParallelConfig`] with zero threads or zero minimum
    /// chunk rows.
    ///
    /// # Panics
    ///
    /// Panics if the model source violates IR invariants (compiler
    /// contract — a malformed program is a bug in the source builder,
    /// not a recoverable condition).
    pub fn build(self) -> Result<Engine, HectorError> {
        if self.layers == 0 {
            return Err(HectorError::InvalidConfig {
                detail: "layers(0): a model needs at least one layer".into(),
            });
        }
        let widths = [
            self.in_dim,
            self.out_dim,
            self.hidden.unwrap_or(self.out_dim),
        ];
        if matches!(self.spec, ModelSpec::Builtin(_)) && widths.contains(&0) {
            return Err(HectorError::InvalidConfig {
                detail: format!(
                    "dims({}, {}) / hidden({}): every width must be at least 1",
                    widths[0], widths[1], widths[2]
                ),
            });
        }
        if let ModelSpec::Custom(src) = &self.spec {
            if self.layers != 1 {
                return Err(HectorError::InvalidConfig {
                    detail: format!(
                        "layers({}) applies to built-in model kinds; \
                         stack custom sources in the DSL",
                        self.layers
                    ),
                });
            }
            if src.program.outputs.is_empty() {
                return Err(HectorError::CompileError {
                    detail: format!("model '{}' declares no outputs", src.program.name),
                });
            }
        }
        let trace = self
            .trace
            .clone()
            .unwrap_or_else(hector_trace::TraceConfig::from_env);
        if trace.enabled {
            // Enabled before compilation so a module-cache miss records
            // the compiler's per-pass spans and fusion decisions.
            hector_trace::enable();
        }
        let src = self.source();
        let (module, cache_hit) = ModuleCache::get_or_compile(&src, &self.options);
        let out_width = module.forward.var(module.forward.outputs[0]).width;
        let classes = match self.classes {
            Some(c) => {
                if c < 1 || c > out_width {
                    return Err(HectorError::InvalidConfig {
                        detail: format!(
                            "classes ({c}) must be in 1..={out_width} (the model's output \
                             width): NLL labels index the output logits"
                        ),
                    });
                }
                c
            }
            None => out_width,
        };
        let par = self.par.unwrap_or_else(ParallelConfig::from_env);
        let backend = self.backend.unwrap_or_default();
        Ok(Engine {
            plan: RunPlan::new(module, self.device, par, backend)?,
            state: None,
            seed: self.seed,
            classes,
            cache_hit,
            trace,
            last_trace: Vec::new(),
        })
    }

    /// Builds a [`Trainer`]: an engine compiled for training plus the
    /// optimizer. Loss is the paper's NLL against seeded random labels
    /// (§4.1); override the labels with [`Trainer::set_labels`].
    ///
    /// # Errors
    ///
    /// Propagates [`EngineBuilder::build`]'s errors.
    pub fn build_trainer<O: Optimizer + 'static>(
        self,
        optimizer: O,
    ) -> Result<Trainer, HectorError> {
        let engine = self.training(true).build()?;
        Ok(Trainer {
            engine,
            optimizer: Box::new(optimizer),
            labels: Vec::new(),
            labels_pinned: false,
            steps: 0,
            last_loss: None,
        })
    }
}

/// Graph-specific state created by [`Engine::bind`].
#[derive(Debug)]
struct BoundState {
    graph: GraphData,
    params: ParamStore,
    bindings: Bindings,
}

/// An owning handle over one compiled model: its persistent run plan
/// (the `Arc`-shared [`CompiledModule`], simulated device, scratch
/// arenas and variable store), the bound graph with its parameters and
/// inputs, and the seed that derives them at [`Engine::bind`] time.
///
/// Built by [`EngineBuilder`]; see the module docs for the lifecycle.
#[derive(Debug)]
pub struct Engine {
    /// The execution stack every run goes through.
    plan: RunPlan,
    state: Option<BoundState>,
    seed: u64,
    classes: usize,
    cache_hit: bool,
    trace: TraceConfig,
    /// Events drained by the latest [`Engine::profile`] call, kept so
    /// [`Engine::write_trace`] can export the same run.
    last_trace: Vec<TraceEvent>,
}

impl Engine {
    /// The compiled module (shared with every other engine built from
    /// the same `(source, dims, options)` key).
    #[must_use]
    pub fn module(&self) -> &CompiledModule {
        &self.plan.module
    }

    /// The simulated device (counters, memory state).
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.plan.device
    }

    /// The engine seed (parameter/input/label derivation).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether [`EngineBuilder::build`] found the module already
    /// compiled in the process-wide [`ModuleCache`].
    #[must_use]
    pub fn was_cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Whether a graph is currently bound.
    #[must_use]
    pub fn is_bound(&self) -> bool {
        self.state.is_some()
    }

    /// Binds a graph: clones its derived structures into the engine and
    /// (re)derives parameters and standard input bindings from the
    /// engine seed (see the module-level seed contract). Binding again —
    /// the same graph or a new one — restarts from freshly seeded
    /// parameters; [`Engine::rebind`] keeps them instead. The engine's
    /// run plan and scratch arena persist and are reused
    /// shape-compatibly.
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::GraphMismatch`] for a graph this model
    /// cannot run on (no nodes — there is nothing to derive parameters
    /// or features over).
    pub fn bind(&mut self, graph: &GraphData) -> Result<&mut Engine, HectorError> {
        let _ = self.bind_internal(graph)?;
        Ok(self)
    }

    /// Seed-contract steps 1–2; returns the RNG so [`Trainer::bind`]
    /// can continue the same stream for label derivation (step 3).
    fn bind_internal(&mut self, graph: &GraphData) -> Result<rand::rngs::StdRng, HectorError> {
        check_nonempty(graph)?;
        let mut rng = seeded_rng(self.seed);
        let module = self.module();
        let program = &module.forward;
        let params = ParamStore::init_for(program, graph, &mut rng, module.backward.is_some());
        let bindings = Bindings::standard(program, graph, &mut rng);
        self.state = Some(BoundState {
            graph: graph.clone(),
            params,
            bindings,
        });
        Ok(rng)
    }

    /// Moves the bound engine onto a new graph and keeps its state:
    /// parameters (edits through [`Engine::params_mut`] included), input
    /// bindings, run plan and scratch. Only the inputs the graph
    /// determines (the RGCN `cnorm` constants) are recomputed; nothing is
    /// drawn from the seed (see the module-level seed contract).
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::GraphMismatch`], and leaves the engine
    /// bound as it was, when no graph is bound, when the new graph
    /// changes a base weight's type count (derived pair stacks follow
    /// whichever graph runs, so a new live pair is no mismatch), or when
    /// it changes the row count of a seed-derived input (a node-feature
    /// input on a graph with another node count, say). [`Engine::bind`]
    /// re-seeds instead.
    pub fn rebind(&mut self, graph: &GraphData) -> Result<&mut Engine, HectorError> {
        let state = self.state.as_mut().ok_or_else(not_bound)?;
        check_nonempty(graph)?;
        let program = &self.plan.module.forward;
        let mismatch = |detail: String| HectorError::GraphMismatch { detail };
        for (i, info) in program.weights.iter().enumerate() {
            if info.derived {
                // Per-run scratch: it follows whichever graph runs.
                continue;
            }
            let (have, want) = (
                state.params.type_count(WeightId(i as u32)),
                graph.type_count(info.per),
            );
            if have != want {
                return Err(mismatch(format!(
                    "weight '{}' has {have} type slabs but the graph has {want} types \
                     (rebind keeps the weights; bind re-seeds them)",
                    info.name
                )));
            }
        }
        let mut derived = Vec::new();
        for &v in &program.inputs {
            let info = program.var(v);
            if let Some(derive) = graph_input(&info.name) {
                derived.push((&info.name, derive));
                continue;
            }
            let want = graph.rows_of_space(info.space);
            if let Some(t) = state.bindings.get(&info.name) {
                if t.rows() != want {
                    return Err(mismatch(format!(
                        "input '{}' has {} rows but the graph has {want} \
                         (rebind keeps the inputs; bind re-seeds them)",
                        info.name,
                        t.rows()
                    )));
                }
            }
        }
        for (name, derive) in derived {
            state.bindings.set(name, derive(graph));
        }
        state.graph = graph.clone();
        Ok(self)
    }

    /// Learnable parameters of the bound graph. On an engine compiled
    /// without backward every gradient ([`ParamStore::grad`]) is empty.
    ///
    /// # Panics
    ///
    /// Panics if no graph is bound.
    #[must_use]
    pub fn params(&self) -> &ParamStore {
        &self.expect_state().params
    }

    /// Mutable parameter access (custom initialisation, inspection).
    ///
    /// # Panics
    ///
    /// Panics if no graph is bound.
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.expect_state_mut().params
    }

    /// Input bindings derived at bind time.
    ///
    /// # Panics
    ///
    /// Panics if no graph is bound.
    #[must_use]
    pub fn bindings(&self) -> &Bindings {
        &self.expect_state().bindings
    }

    /// Replaces the input bindings (custom features).
    ///
    /// # Panics
    ///
    /// Panics if no graph is bound.
    pub fn set_bindings(&mut self, bindings: Bindings) {
        self.expect_state_mut().bindings = bindings;
    }

    /// The bound graph.
    ///
    /// # Panics
    ///
    /// Panics if no graph is bound.
    #[must_use]
    pub fn graph(&self) -> &GraphData {
        &self.expect_state().graph
    }

    /// Runs one forward pass through the engine's persistent run plan
    /// (allocation-free once warm).
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::GraphMismatch`] when no graph is bound,
    /// [`HectorError::InvalidConfig`] /
    /// [`HectorError::ShapeMismatch`] for missing or mis-shaped input
    /// bindings, and [`HectorError::Oom`] when the run exceeds device
    /// memory.
    pub fn forward(&mut self) -> Result<RunReport, HectorError> {
        self.run(None, None)
    }

    /// Runs one forward pass of the bound parameters on another graph —
    /// a row closure or any subgraph that declares the bound graph's
    /// node/edge type counts — with that graph's own input bindings,
    /// through the engine's run plan. [`Engine::output`] then holds that
    /// graph's rows; the bound graph, parameters and bindings are left as
    /// they were.
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::GraphMismatch`] when no graph is bound or
    /// `graph`'s type counts differ from the bound graph's (the parameter
    /// shapes would not match), and otherwise what [`Engine::forward`]
    /// returns, checked against `graph` and `bindings`.
    pub fn forward_on(
        &mut self,
        graph: &GraphData,
        bindings: &Bindings,
    ) -> Result<RunReport, HectorError> {
        self.run(Some((graph, bindings)), None)
    }

    /// Runs one forward pass for the bound graph's nodes `rows` alone and
    /// returns their output rows, in the order given (a repeated row
    /// answers twice). The run covers the rows' exact in-closure at the
    /// forward program's receptive depth — the rows expanded `depth - 1`
    /// steps backward, every in-edge of that interior and its sources —
    /// extracted as a [`crate::Subgraph`] with the bound inputs gathered
    /// through it ([`Engine::forward_on`]), so the result is bit for bit
    /// those rows of [`Engine::forward`]'s output. [`Engine::output`]
    /// then holds the closure's rows; the bound graph, parameters and
    /// bindings are left as they were.
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::GraphMismatch`] when no graph is bound or a
    /// row is out of range for the bound graph, and otherwise what
    /// [`Engine::forward_on`] returns.
    pub fn forward_rows(&mut self, rows: &[u32]) -> Result<Tensor, HectorError> {
        let state = self.state.as_ref().ok_or_else(not_bound)?;
        let program = &self.plan.module.forward;
        let width = program.var(program.outputs[0]).width;
        let nodes = state.graph.graph().num_nodes();
        if let Some(bad) = rows.iter().find(|&&v| v as usize >= nodes) {
            return Err(HectorError::GraphMismatch {
                detail: format!("row {bad} is out of range for the bound graph's {nodes} nodes"),
            });
        }
        if rows.is_empty() {
            return Ok(Tensor::zeros(&[0, width]));
        }
        let view = Subgraph::in_closure(&state.graph, rows, program.receptive_depth());
        let inputs: Vec<VarInfo> = program
            .inputs
            .iter()
            .map(|&v| program.var(v).clone())
            .collect();
        let bindings = view.gather_inputs(&inputs, &state.bindings);
        self.forward_on(view.data(), &bindings)?;
        let out = self.output();
        let mut picked = Tensor::zeros(&[rows.len(), width]);
        for (i, &local) in view.seed_local().iter().enumerate() {
            picked.row_mut(i).copy_from_slice(out.row(local as usize));
        }
        Ok(picked)
    }

    /// Runs one training step (forward, NLL loss, backward, optimizer)
    /// through the persistent run plan.
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::GraphMismatch`] when no graph is bound,
    /// [`HectorError::InvalidConfig`] when the module was not compiled
    /// for training or a label is out of class range,
    /// [`HectorError::ShapeMismatch`] for a label vector that does not
    /// cover the graph's nodes, and [`HectorError::Oom`] when the run
    /// exceeds device memory.
    pub fn train_step(
        &mut self,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> Result<RunReport, HectorError> {
        self.run(None, Some((labels, optimizer)))
    }

    /// The one run path: screens caller input, then runs the plan on the
    /// bound parameters. `on` runs an *alternate* graph — a sampled
    /// mini-batch subgraph or a row closure — with its own bindings in
    /// place of the bound graph's; it must declare the bound graph's
    /// node/edge type counts (guaranteed by every [`crate::Subgraph`]
    /// view) so the parameter shapes match. `train` makes the run a
    /// training step against its labels.
    fn run(
        &mut self,
        on: Option<(&GraphData, &Bindings)>,
        train: Option<(&[usize], &mut dyn Optimizer)>,
    ) -> Result<RunReport, HectorError> {
        let program = &self.plan.module.forward;
        if train.is_some() && self.plan.module.backward.is_none() {
            return Err(HectorError::InvalidConfig {
                detail: "module was not compiled for training \
                         (build with .training(true) or build_trainer)"
                    .into(),
            });
        }
        let state = self.state.as_mut().ok_or_else(not_bound)?;
        if let Some((graph, _)) = on {
            let types = |g: &GraphData| (g.graph().num_node_types(), g.graph().num_edge_types());
            let (got, want) = (types(graph), types(&state.graph));
            if got != want {
                return Err(HectorError::GraphMismatch {
                    detail: format!(
                        "subgraph declares {}/{} node/edge types but the bound graph has {}/{} \
                         (parameter shapes would not match)",
                        got.0, got.1, want.0, want.1
                    ),
                });
            }
        }
        let (graph, bindings) = on.unwrap_or((&state.graph, &state.bindings));
        validate_bindings(program, graph, bindings)?;
        if let Some((labels, _)) = &train {
            validate_labels(program, graph, labels)?;
        }
        Ok(self.plan.run(graph, &mut state.params, bindings, train)?)
    }

    /// The model's first output tensor from the latest run.
    ///
    /// # Panics
    ///
    /// Panics before the first run.
    #[must_use]
    pub fn output(&self) -> &Tensor {
        self.plan.vars.get(self.plan.module.forward.outputs[0])
    }

    /// Profiles a closure over this engine: enables tracing for its
    /// duration (restoring the previous state afterwards), drains the
    /// recorded spans, and aggregates them into a [`ProfileReport`]
    /// (per-kernel-kind and per-relation breakdowns; pretty-print it
    /// with `{}`). The drained events are retained for
    /// [`Engine::write_trace`], so a profiled run can also be exported
    /// to Perfetto.
    ///
    /// Events already buffered before the call (earlier warm-up runs)
    /// are discarded so the report covers exactly the closure.
    pub fn profile<T>(&mut self, f: impl FnOnce(&mut Engine) -> T) -> (T, ProfileReport) {
        Engine::profile_host(self, |e| e, f)
    }

    /// The one body of [`Engine::profile`] and [`Trainer::profile`]:
    /// `host` is what the closure drives, `engine` finds the engine in
    /// it.
    fn profile_host<H, T>(
        host: &mut H,
        engine: fn(&mut H) -> &mut Engine,
        f: impl FnOnce(&mut H) -> T,
    ) -> (T, ProfileReport) {
        let was_on = hector_trace::is_enabled();
        let _stale = hector_trace::take_events();
        hector_trace::enable();
        let out = f(host);
        if !was_on {
            hector_trace::disable();
        }
        let engine = engine(host);
        engine.last_trace = hector_trace::take_events();
        let report = build_report(&engine.last_trace, &engine.relation_shares());
        (out, report)
    }

    /// Writes the latest profiled run — or, if [`Engine::profile`] was
    /// never called, whatever the recorder has buffered — as
    /// chrome-trace JSON (open in Perfetto / `chrome://tracing`).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from writing the file.
    pub fn write_trace(&mut self, path: &str) -> std::io::Result<()> {
        if self.last_trace.is_empty() {
            self.last_trace = hector_trace::take_events();
        }
        hector_trace::chrome::write_chrome_trace(path, &self.last_trace)
    }

    /// Per-relation share of edges and unique `(src, etype)` pairs in
    /// the bound graph, used by [`Engine::profile`] to apportion fused
    /// kernel time into per-relation estimates. Empty when no graph is
    /// bound.
    fn relation_shares(&self) -> Vec<RelationShare> {
        let Some(state) = &self.state else {
            return Vec::new();
        };
        let g = state.graph.graph();
        let uptr = state.graph.compact().unique_etype_ptr();
        (0..g.num_edge_types())
            .map(|t| RelationShare {
                name: format!("etype{t}"),
                edges: g.edges_of_type(t) as u64,
                unique: (uptr[t + 1] - uptr[t]) as u64,
            })
            .collect()
    }

    fn expect_state(&self) -> &BoundState {
        self.state.as_ref().expect("Engine::bind a graph first")
    }

    fn expect_state_mut(&mut self) -> &mut BoundState {
        self.state.as_mut().expect("Engine::bind a graph first")
    }
}

/// The "run before bind" misuse error, shared by every run method.
fn not_bound() -> HectorError {
    HectorError::GraphMismatch {
        detail: "no graph is bound (call Engine::bind first)".into(),
    }
}

/// A graph with no nodes has nothing to derive parameters or features
/// over: [`Engine::bind`] and [`Engine::rebind`] refuse it.
fn check_nonempty(graph: &GraphData) -> Result<(), HectorError> {
    if graph.graph().num_nodes() == 0 {
        return Err(HectorError::GraphMismatch {
            detail: "cannot bind an empty graph (zero nodes)".into(),
        });
    }
    Ok(())
}

/// Pre-validates input bindings against the program and
/// graph, so misuse surfaces as a [`HectorError`] here instead of a
/// panic inside the run (whose own checks remain internal-invariant
/// panics — the engine path has already screened caller input).
fn validate_bindings(
    program: &Program,
    graph: &GraphData,
    bindings: &Bindings,
) -> Result<(), HectorError> {
    for &v in &program.inputs {
        let info = program.var(v);
        let rows = graph.rows_of_space(info.space);
        let Some(t) = bindings.get(&info.name) else {
            return Err(HectorError::InvalidConfig {
                detail: format!("missing input binding '{}'", info.name),
            });
        };
        if t.shape() != [rows, info.width] {
            return Err(HectorError::ShapeMismatch {
                what: format!("input '{}'", info.name),
                expected: format!("[{rows}, {}]", info.width),
                got: format!("{:?}", t.shape()),
            });
        }
    }
    Ok(())
}

/// Pre-validates a label vector: one label per node, each
/// indexing within the model's output logits.
fn validate_labels(
    program: &Program,
    graph: &GraphData,
    labels: &[usize],
) -> Result<(), HectorError> {
    let nodes = graph.graph().num_nodes();
    if labels.len() != nodes {
        return Err(HectorError::ShapeMismatch {
            what: "labels".into(),
            expected: format!("[{nodes}] (one label per node)"),
            got: format!("[{}]", labels.len()),
        });
    }
    let width = program.var(program.outputs[0]).width;
    if let Some(&bad) = labels.iter().find(|&&l| l >= width) {
        return Err(HectorError::InvalidConfig {
            detail: format!("label {bad} is out of range for {width} output logits"),
        });
    }
    Ok(())
}

impl Drop for Engine {
    /// Exports the configured trace on teardown: with
    /// `HECTOR_TRACE=<out.json>` (or a [`TraceConfig`] `out_path` on
    /// the builder), dropping the engine writes everything recorded —
    /// compilation through the last run — as chrome-trace JSON. Export
    /// failures are reported on stderr, not panicked: drop runs during
    /// unwinding too.
    fn drop(&mut self) {
        let Some(path) = self.trace.out_path.clone() else {
            return;
        };
        if let Err(e) = self.write_trace(&path) {
            eprintln!("HECTOR_TRACE export to {path} failed: {e}");
        }
    }
}

/// Summary of one [`Trainer::epoch`] or
/// [`Trainer::minibatch_epoch`] call. An epoch runs at least one step
/// (`epoch(0)` is an error), and every step produces a loss.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Per-step losses, in step order: one entry per executed step.
    pub losses: Vec<f32>,
    /// Number of training steps that executed.
    pub steps: usize,
    /// Run report of the final step.
    pub last: RunReport,
}

impl EpochReport {
    /// Loss of the final step.
    #[must_use]
    pub fn final_loss(&self) -> Option<f32> {
        self.losses.last().copied()
    }

    /// Mean loss across the epoch's steps.
    #[must_use]
    pub fn mean_loss(&self) -> Option<f32> {
        if self.losses.is_empty() {
            None
        } else {
            Some(self.losses.iter().sum::<f32>() / self.losses.len() as f32)
        }
    }
}

/// An [`Engine`] wrapped with an optimizer and the paper's NLL loss
/// recipe: seeded random labels (§4.1), full-graph steps. Built by
/// [`EngineBuilder::build_trainer`]; every step goes through the
/// engine's persistent run plan, so a warm [`Trainer::step`] performs
/// zero heap allocations (pinned by `tests/run_alloc.rs`).
pub struct Trainer {
    engine: Engine,
    optimizer: Box<dyn Optimizer>,
    labels: Vec<usize>,
    /// Whether `labels` were installed by [`Trainer::set_labels`] (and
    /// must survive a rebind) rather than derived from the seed.
    labels_pinned: bool,
    steps: usize,
    last_loss: Option<f32>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("engine", &self.engine)
            .field("labels", &self.labels.len())
            .field("steps", &self.steps)
            .field("last_loss", &self.last_loss)
            .finish_non_exhaustive()
    }
}

impl Trainer {
    /// Binds a graph: delegates to [`Engine::bind`], then derives the
    /// label tensor (`random_labels`, one class id per node) from the
    /// same seeded stream — step 3 of the module-level seed contract.
    ///
    /// # Label preservation
    ///
    /// Labels installed via [`Trainer::set_labels`] are **pinned**: a
    /// rebind keeps them as long as the new graph has the same node
    /// count (rebinding the same graph to restart training is the
    /// common case). Binding a graph with a different node count drops
    /// the pinned labels — they cannot index the new nodes — and falls
    /// back to seed-derived ones, un-pinning. Pinned by
    /// `set_labels_survive_rebind` / `rebind_different_size_rederives`.
    ///
    /// # Errors
    ///
    /// See [`Engine::bind`].
    pub fn bind(&mut self, graph: &GraphData) -> Result<&mut Trainer, HectorError> {
        let classes = self.engine.classes;
        let mut rng = self.engine.bind_internal(graph)?;
        let nodes = graph.graph().num_nodes();
        if !(self.labels_pinned && self.labels.len() == nodes) {
            self.labels = random_labels(&mut rng, nodes, classes);
            self.labels_pinned = false;
        }
        self.optimizer.reset();
        self.steps = 0;
        self.last_loss = None;
        Ok(self)
    }

    /// Runs one training step.
    ///
    /// # Errors
    ///
    /// See [`Engine::train_step`] (binding a graph first is on the
    /// caller: an unbound trainer reports
    /// [`HectorError::GraphMismatch`]).
    pub fn step(&mut self) -> Result<RunReport, HectorError> {
        let report = self
            .engine
            .train_step(&self.labels, self.optimizer.as_mut())?;
        self.steps += 1;
        self.last_loss = report.loss;
        Ok(report)
    }

    /// Runs `n` training steps, collecting the loss curve.
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::InvalidConfig`] for `n == 0`, plus
    /// everything [`Trainer::step`] reports.
    pub fn epoch(&mut self, n: usize) -> Result<EpochReport, HectorError> {
        if n == 0 {
            return Err(HectorError::InvalidConfig {
                detail: "an epoch needs at least one step".into(),
            });
        }
        let mut losses = Vec::with_capacity(n);
        let mut last = None;
        for _ in 0..n {
            let report = self.step()?;
            losses.extend(report.loss);
            last = Some(report);
        }
        Ok(EpochReport {
            losses,
            steps: n,
            last: last.expect("n > 0"),
        })
    }

    /// Runs one forward pass on the current parameters (evaluation
    /// between steps).
    ///
    /// # Errors
    ///
    /// See [`Engine::forward`].
    pub fn forward(&mut self) -> Result<RunReport, HectorError> {
        self.engine.forward()
    }

    /// Starts one epoch of sampled mini-batches over the bound graph
    /// (the PIGEON-style pipeline). The returned iterator owns a
    /// snapshot of the trainer's graph, bindings, and labels, so it does
    /// not borrow the trainer — drive it with
    /// [`Trainer::train_batch`]:
    ///
    /// ```ignore
    /// for batch in trainer.minibatch(&SamplerConfig::new(64)) {
    ///     trainer.train_batch(&batch)?;
    /// }
    /// ```
    ///
    /// Batch contents are a pure function of `(engine seed, cfg.epoch,
    /// batch index)` — bitwise identical across `HECTOR_THREADS` values
    /// and `cfg.pipeline` on/off. With the pipeline on, batch `k+1` is
    /// sampled on a background thread while batch `k` trains.
    ///
    /// # Panics
    ///
    /// Panics if no graph is bound, or if `cfg.fanouts` is empty (a
    /// struct literal can build such a config; [`Trainer::minibatch_epoch`]
    /// refuses both with an error instead).
    #[must_use]
    pub fn minibatch(&self, cfg: &SamplerConfig) -> Minibatches {
        let module = self.engine.module();
        let inputs: Vec<hector_ir::VarInfo> = module
            .forward
            .inputs
            .iter()
            .map(|&v| module.forward.var(v).clone())
            .collect();
        let state = self.engine.expect_state();
        let source = BatchSource::new(
            &state.graph,
            cfg,
            self.engine.seed,
            inputs,
            state.bindings.clone(),
            self.labels.clone(),
        );
        Minibatches::new(source, cfg.pipeline)
    }

    /// Trains one step on a sampled [`Batch`]: the full graph's
    /// parameters against the batch subgraph, bindings, and labels,
    /// through the engine's persistent run plan (so warm same-shape
    /// batch steps are allocation-free). Also records the batch's
    /// sampling/wait times into the device's
    /// [`hector_device::SamplerStats`].
    ///
    /// # Errors
    ///
    /// Everything [`Engine::train_step`] reports (on the batch's
    /// bindings and labels), plus [`HectorError::GraphMismatch`] when the
    /// batch subgraph's node/edge type counts differ from the bound
    /// graph's (the parameter shapes would not match).
    pub fn train_batch(&mut self, batch: &Batch) -> Result<RunReport, HectorError> {
        let report = self.engine.run(
            Some((&batch.graph, &batch.bindings)),
            Some((&batch.labels, self.optimizer.as_mut())),
        )?;
        let g = batch.graph.graph();
        self.engine.plan.device.record_sampler_batch(
            g.num_nodes(),
            g.num_edges(),
            batch.sample_wall_us,
            batch.wait_wall_us,
        );
        self.steps += 1;
        self.last_loss = report.loss;
        Ok(report)
    }

    /// Runs one full epoch of sampled mini-batch training: every batch
    /// of [`Trainer::minibatch`], trained in order. The loss curve has
    /// one entry per batch.
    ///
    /// # Errors
    ///
    /// [`HectorError::GraphMismatch`] when no graph is bound,
    /// [`HectorError::InvalidConfig`] when `cfg.fanouts` is empty (no
    /// hop to sample), plus everything [`Trainer::train_batch`] reports.
    pub fn minibatch_epoch(&mut self, cfg: &SamplerConfig) -> Result<EpochReport, HectorError> {
        if !self.engine.is_bound() {
            return Err(not_bound());
        }
        if cfg.fanouts.is_empty() {
            return Err(HectorError::InvalidConfig {
                detail: "a sampler needs at least one hop (fanouts is empty)".into(),
            });
        }
        let batches = self.minibatch(cfg);
        let mut losses = Vec::with_capacity(batches.num_batches());
        let mut steps = 0;
        let mut last = None;
        for batch in batches {
            let report = self.train_batch(&batch)?;
            losses.extend(report.loss);
            steps += 1;
            last = Some(report);
        }
        Ok(EpochReport {
            losses,
            steps,
            // `Engine::bind` rejects zero-node graphs.
            last: last.expect("a bound graph yields at least one batch"),
        })
    }

    /// Replaces the derived labels with caller-provided ones and pins
    /// them: they survive rebinds to graphs of the same node count (see
    /// [`Trainer::bind`]).
    ///
    /// # Errors
    ///
    /// Returns [`HectorError::GraphMismatch`] when no graph is bound,
    /// [`HectorError::ShapeMismatch`] unless there is one label per
    /// node, and [`HectorError::InvalidConfig`] for a label outside the
    /// model's output logits; the current labels stay in place.
    pub fn set_labels(&mut self, labels: Vec<usize>) -> Result<(), HectorError> {
        let state = self.engine.state.as_ref().ok_or_else(not_bound)?;
        validate_labels(&self.engine.module().forward, &state.graph, &labels)?;
        self.labels = labels;
        self.labels_pinned = true;
        Ok(())
    }

    /// The current label tensor.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Steps taken since the last bind.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Loss of the most recent step.
    #[must_use]
    pub fn loss(&self) -> Option<f32> {
        self.last_loss
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Profiles a closure over this trainer — the training-loop
    /// counterpart of [`Engine::profile`]: tracing is enabled for the
    /// closure's duration and the recorded spans (kernels, phases,
    /// minibatch pipeline) are aggregated into a [`ProfileReport`].
    /// A step's tail shows as three phases: `phase/loss` (NLL loss and
    /// output-gradient seed), `phase/prep_grad` (the weight-prep chain
    /// rule, recorded only when the program has preps) and
    /// `phase/optimizer` (the update alone).
    /// Export the same run with `trainer.engine_mut().write_trace(..)`.
    pub fn profile<T>(&mut self, f: impl FnOnce(&mut Trainer) -> T) -> (T, ProfileReport) {
        Engine::profile_host(self, |t| &mut t.engine, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Sgd};
    use hector_graph::{generate, DatasetSpec, HeteroGraphBuilder};

    fn graph() -> GraphData {
        GraphData::new(generate(&DatasetSpec {
            name: "engine".into(),
            num_nodes: 60,
            num_node_types: 2,
            num_edges: 400,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 21,
        }))
    }

    /// `graph()` with other edges: same node count and type counts.
    fn rewired() -> GraphData {
        let g = graph();
        let moved = GraphData::new(generate(&DatasetSpec {
            name: "engine".into(),
            num_nodes: 60,
            num_node_types: 2,
            num_edges: 400,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 22,
        }));
        assert_ne!(moved.graph().dst(), g.graph().dst());
        moved
    }

    fn out_bits(engine: &Engine) -> Vec<u32> {
        engine.output().data().iter().map(|v| v.to_bits()).collect()
    }

    fn fresh_bits(b: EngineBuilder, graph: &GraphData) -> Vec<u32> {
        let mut e = b.build().unwrap();
        e.bind(graph).unwrap().forward().unwrap();
        out_bits(&e)
    }

    /// Rebinding a warm engine onto other edges serves exactly what a
    /// fresh engine bound to them serves: the seed-derived state is the
    /// same and `cnorm` (RGCN) follows the new edges.
    #[test]
    fn rebind_after_an_edge_change_equals_a_fresh_bind() {
        let (g, moved) = (graph(), rewired());
        for kind in [ModelKind::Rgcn, ModelKind::Rgat, ModelKind::Hgt] {
            let b = || EngineBuilder::new(kind).dims(8, 8).seed(3);
            let mut engine = b().build().unwrap();
            engine.bind(&g).unwrap().forward().unwrap();
            let before = out_bits(&engine);
            engine.rebind(&moved).unwrap().forward().unwrap();
            let after = out_bits(&engine);
            assert_eq!(after, fresh_bits(b(), &moved), "{kind:?}");
            assert_ne!(after, before, "{kind:?}: the edges must matter");
            assert!(std::ptr::eq(engine.graph().graph(), moved.graph()));
        }
    }

    /// A graph the kept state cannot run on is refused, and the engine
    /// keeps serving the graph it had.
    #[test]
    fn rebind_refuses_a_graph_that_changes_the_state_shapes() {
        let g = graph();
        let spec = |num_nodes, num_edge_types| DatasetSpec {
            name: "engine".into(),
            num_nodes,
            num_node_types: 2,
            num_edges: 400,
            num_edge_types,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 21,
        };
        let more_types = GraphData::new(generate(&spec(60, 4)));
        let more_nodes = GraphData::new(generate(&spec(61, 3)));
        for kind in [ModelKind::Rgcn, ModelKind::Hgt] {
            let b = EngineBuilder::new(kind).dims(8, 8).seed(3);
            let mut unbound = b.clone().build().unwrap();
            let err = unbound.rebind(&g).unwrap_err();
            assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err}");
            assert!(!unbound.is_bound());
            let mut engine = b.build().unwrap();
            engine.bind(&g).unwrap().forward().unwrap();
            let want = out_bits(&engine);
            for (what, other) in [("types", &more_types), ("nodes", &more_nodes)] {
                let err = engine.rebind(other).unwrap_err();
                assert!(
                    matches!(err, HectorError::GraphMismatch { .. }),
                    "{kind:?} {what}: {err}"
                );
                assert!(std::ptr::eq(engine.graph().graph(), g.graph()));
                engine.forward().unwrap();
                assert_eq!(out_bits(&engine), want, "{kind:?} {what}");
            }
        }
    }

    /// Rebind keeps edited weights; bind re-seeds them.
    #[test]
    fn rebind_keeps_edited_weights_and_bind_reseeds() {
        let (g, moved) = (graph(), rewired());
        let b = || EngineBuilder::new(ModelKind::Rgcn).dims(8, 8).seed(3);
        let edit = |e: &mut Engine| {
            for x in e.params_mut().weight_mut(WeightId(0)).data_mut() {
                *x *= 2.0;
            }
        };
        let mut want = b().build().unwrap();
        want.bind(&moved).unwrap();
        edit(&mut want);
        want.forward().unwrap();
        let mut engine = b().build().unwrap();
        engine.bind(&g).unwrap();
        edit(&mut engine);
        engine.rebind(&moved).unwrap().forward().unwrap();
        assert_eq!(out_bits(&engine), out_bits(&want));
        engine.bind(&moved).unwrap().forward().unwrap();
        assert_eq!(out_bits(&engine), fresh_bits(b(), &moved));
        assert_ne!(out_bits(&engine), out_bits(&want));
    }

    /// Binding shares the caller's derived structures instead of copying
    /// them: engines and trainers on one graph read the same arrays.
    #[test]
    fn bind_shares_the_graph_structures() {
        let data = graph();
        let mut engine = EngineBuilder::new(ModelKind::Rgcn).build().unwrap();
        engine.bind(&data).unwrap();
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        trainer.bind(&data).unwrap();
        for bound in [engine.graph(), trainer.engine().graph()] {
            assert!(std::ptr::eq(bound.graph(), data.graph()));
            assert!(std::ptr::eq(bound.compact(), data.compact()));
        }
    }

    /// After a warm production step no register-local variable has a
    /// buffer in the plan, and the executor's scratch is a few blocks —
    /// `(BLOCK + max in-degree) × Σ widths` per chunk, plus GEMM staging
    /// — where the locals used to be `[E, w]` tensors.
    #[test]
    fn plan_holds_no_buffer_for_block_resident_locals() {
        let graph = GraphData::new(generate(&DatasetSpec {
            name: "locals".into(),
            num_nodes: 40,
            num_node_types: 2,
            num_edges: 4_000,
            num_edge_types: 3,
            compaction_ratio: 0.3,
            type_skew: 1.0,
            seed: 9,
        }));
        let (dim, edges) = (8, graph.graph().num_edges());
        let max_in_degree = *graph.graph().in_degree().iter().max().unwrap() as usize;
        for kind in ModelKind::all() {
            let mut trainer = EngineBuilder::new(kind)
                .dims(dim, dim)
                .parallel(ParallelConfig::sequential())
                .build_trainer(Adam::new(0.01))
                .unwrap();
            trainer.bind(&graph).unwrap();
            trainer.step().unwrap();
            trainer.step().unwrap();
            let engine = trainer.engine();
            let vars = &engine.plan.vars;
            let module = engine.module();
            let bw = module.backward.as_ref().unwrap();
            let (mut locals, mut widest) = (0, 0);
            for (kernels, program) in [
                (&module.fw_kernels, &module.forward),
                (&module.bw_kernels, bw),
            ] {
                for spec in kernels {
                    let hector_ir::KernelSpec::Traversal(t) = spec else {
                        continue;
                    };
                    for &v in &t.local_vars {
                        assert!(!vars.has_slot(v), "{kind:?}: local {v:?} has a buffer");
                    }
                    locals += t.local_vars.len();
                    widest = widest.max(t.local_vars.iter().map(|&v| program.var(v).width).sum());
                }
            }
            assert!(locals > 0, "{kind:?} fuses temporaries");
            let gemm_staging = dim * dim + hector_tensor::microkernel::BLOCK_ROWS * dim;
            let bound = 4 * ((32 + max_in_degree) * widest + gemm_staging) + 4096;
            let scratch = engine.device().counters().scratch().bytes;
            assert!(
                scratch <= bound,
                "{kind:?}: {scratch} B of scratch > {bound} B"
            );
            assert!(
                bound < 4 * edges * dim,
                "the bound is not a per-edge tensor"
            );
        }
    }

    #[test]
    fn trainer_loss_decreases_and_steps_count() {
        let graph = graph();
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .seed(5)
            .build_trainer(Sgd::new(0.3))
            .unwrap();
        trainer.bind(&graph).unwrap();
        let epoch = trainer.epoch(10).expect("fits");
        assert_eq!(epoch.losses.len(), 10);
        assert_eq!(trainer.steps(), 10);
        assert!(
            epoch.losses.last().unwrap() < &epoch.losses[0],
            "losses: {:?}",
            epoch.losses
        );
        assert_eq!(trainer.loss(), epoch.losses.last().copied());
    }

    #[test]
    fn rebind_restarts_training_deterministically() {
        let graph = graph();
        let mut trainer = EngineBuilder::new(ModelKind::Rgat)
            .dims(6, 6)
            .seed(11)
            .build_trainer(Adam::new(0.02))
            .unwrap();
        trainer.bind(&graph).unwrap();
        let first: Vec<f32> = trainer.epoch(3).unwrap().losses;
        trainer.bind(&graph).unwrap();
        let second: Vec<f32> = trainer.epoch(3).unwrap().losses;
        assert_eq!(first, second, "rebind must restart from the seed");
    }

    #[test]
    fn set_labels_survive_rebind() {
        let graph = graph();
        let n = graph.graph().num_nodes();
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .seed(5)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        trainer.bind(&graph).unwrap();
        assert!(!trainer.labels_pinned, "derived labels are not pinned");
        let custom: Vec<usize> = (0..n).map(|i| i % 3).collect();
        trainer.set_labels(custom.clone()).unwrap();
        assert!(trainer.labels_pinned);
        // Rebind to restart training: custom labels must survive.
        trainer.bind(&graph).unwrap();
        assert_eq!(
            trainer.labels(),
            &custom[..],
            "rebind silently discarded set_labels"
        );
        assert!(trainer.labels_pinned);
    }

    #[test]
    fn rebind_different_size_rederives_labels() {
        let graph = graph();
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .seed(5)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        trainer.bind(&graph).unwrap();
        trainer
            .set_labels(vec![0; graph.graph().num_nodes()])
            .unwrap();
        // A graph with a different node count cannot keep the pinned
        // labels — they must be re-derived and un-pinned.
        let other = GraphData::new(generate(&DatasetSpec {
            name: "other".into(),
            num_nodes: 30,
            num_node_types: 2,
            num_edges: 100,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 8,
        }));
        trainer.bind(&other).unwrap();
        assert_eq!(trainer.labels().len(), other.graph().num_nodes());
        assert!(!trainer.labels_pinned, "mismatched rebind un-pins");
        assert!(trainer.labels().iter().any(|&l| l != 0), "re-derived");
    }

    #[test]
    fn minibatch_epoch_trains_and_records_sampler_stats() {
        let graph = graph();
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .seed(7)
            .parallel(ParallelConfig::sequential())
            .build_trainer(Adam::new(0.01))
            .unwrap();
        trainer.bind(&graph).unwrap();
        let cfg = SamplerConfig::new(16).fanouts(&[4, 3]);
        let report = trainer.minibatch_epoch(&cfg).expect("fits");
        let expected = graph.graph().num_nodes().div_ceil(16);
        assert_eq!(report.steps, expected);
        assert_eq!(report.losses.len(), expected);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        let stats = *trainer.engine().device().counters().sampler();
        assert_eq!(stats.batches, expected);
        assert!(stats.nodes > 0 && stats.edges > 0);
        assert!(stats.sample_wall_us > 0.0);
    }

    #[test]
    fn layers_builds_a_stack() {
        let graph = graph();
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(6, 4)
            .hidden(10)
            .layers(3)
            .seed(2)
            .build()
            .unwrap();
        assert_eq!(engine.module().forward.weights.len(), 6);
        let bound = engine.bind(&graph).unwrap();
        bound.forward().expect("fits");
        assert_eq!(bound.output().cols(), 4);
    }

    #[test]
    fn modeled_engine_runs_without_bindings() {
        // The modeled reading needs the compiled plan and the graph's
        // shape only: no bind, parameters or features.
        let graph = graph();
        let engine = EngineBuilder::new(ModelKind::Hgt)
            .dims(16, 16)
            .build()
            .unwrap();
        assert!(!engine.is_bound());
        let mut device = Device::new(DeviceConfig::rtx3090());
        let report = crate::model_run(engine.module(), &graph, &mut device, false).expect("fits");
        assert!(report.elapsed_us > 0.0);
        assert!(report.peak_bytes > 0);
    }

    #[test]
    fn custom_source_engine() {
        use hector_ir::{AggNorm, ModelBuilder};
        let graph = graph();
        let mut m = ModelBuilder::new("custom");
        let h = m.node_input("h", 8);
        let w = m.weight_per_etype("W", 8, 8);
        let y = m.typed_linear("y", m.src(h), w);
        let out = m.aggregate("out", m.edge(y), None, AggNorm::None);
        m.output(out);
        let mut engine = EngineBuilder::from_source(m.finish())
            .seed(9)
            .build()
            .unwrap();
        engine.bind(&graph).unwrap().forward().expect("fits");
        assert_eq!(engine.output().cols(), 8);
    }

    #[test]
    fn classes_beyond_output_width_fail_at_build() {
        let err = EngineBuilder::new(ModelKind::Rgcn)
            .dims(16, 4)
            .classes(8)
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, HectorError::InvalidConfig { detail } if detail.contains("classes")),
            "want InvalidConfig about classes, got {err:?}"
        );
    }

    #[test]
    fn zero_layers_fail_at_build() {
        let err = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .layers(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, HectorError::InvalidConfig { .. }), "{err:?}");
    }

    /// A zero width is refused at build, as `layers(0)` is: before it
    /// could reach the compiler (whose backward pass panics on it).
    #[test]
    fn zero_widths_fail_at_build() {
        for kind in [ModelKind::Rgcn, ModelKind::Rgat, ModelKind::Hgt] {
            let zeroes = [
                EngineBuilder::new(kind).dims(0, 8),
                EngineBuilder::new(kind).dims(8, 0),
                EngineBuilder::new(kind).dims(8, 8).hidden(0).layers(2),
                EngineBuilder::new(kind).dims(8, 8).hidden(0),
            ];
            for b in zeroes {
                let what = format!("{b:?}");
                let err = b.clone().build().unwrap_err();
                assert_eq!(err.kind(), "invalid_config", "{what}: {err}");
                let err = b.build_trainer(Sgd::new(0.1)).unwrap_err();
                assert_eq!(err.kind(), "invalid_config", "{what}: {err}");
            }
        }
    }

    /// Every batch holds one copy of its graph: the batch's `graph` is
    /// its view's, pipelined or not.
    #[test]
    fn a_batch_shares_its_views_graph() {
        let mut t = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        t.bind(&graph()).unwrap();
        for pipeline in [false, true] {
            let cfg = SamplerConfig::new(16).fanouts(&[2]).pipeline(pipeline);
            let batches = t.minibatch(&cfg);
            assert_eq!(batches.is_pipelined(), pipeline);
            let mut n = 0;
            for batch in batches {
                assert!(std::ptr::eq(batch.graph.graph(), batch.subgraph.graph()));
                n += 1;
            }
            assert!(n > 1, "pipeline={pipeline}: {n} batches");
        }
    }

    #[test]
    fn forward_before_bind_is_an_error_not_a_panic() {
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build()
            .unwrap();
        let err = engine.forward().unwrap_err();
        assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err:?}");
        assert_eq!(err.kind(), "graph_mismatch");
    }

    #[test]
    fn binding_an_empty_graph_is_a_graph_mismatch() {
        let empty = GraphData::new(HeteroGraphBuilder::new().build());
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build()
            .unwrap();
        let err = engine.bind(&empty).unwrap_err();
        assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err:?}");
        assert!(!engine.is_bound(), "a failed bind must not half-bind");
    }

    #[test]
    fn untrained_module_rejects_train_step() {
        let graph = graph();
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build()
            .unwrap();
        engine.bind(&graph).unwrap();
        let mut opt = Sgd::new(0.1);
        let labels = vec![0usize; graph.graph().num_nodes()];
        let err = engine.train_step(&labels, &mut opt).unwrap_err();
        assert!(matches!(err, HectorError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn wrong_label_count_is_a_shape_mismatch() {
        let graph = graph();
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        trainer.bind(&graph).unwrap();
        let err = trainer
            .engine_mut()
            .train_step(&[0usize; 3], &mut Sgd::new(0.1))
            .unwrap_err();
        assert!(matches!(err, HectorError::ShapeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn set_labels_misuse_is_an_error_not_a_panic() {
        let graph = graph();
        let n = graph.graph().num_nodes();
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        let err = trainer.set_labels(vec![0; n]).unwrap_err();
        assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err:?}");
        trainer.bind(&graph).unwrap();
        let derived = trainer.labels().to_vec();
        let err = trainer.set_labels(vec![0; n - 1]).unwrap_err();
        assert!(matches!(err, HectorError::ShapeMismatch { .. }), "{err:?}");
        let err = trainer.set_labels(vec![8; n]).unwrap_err();
        assert!(matches!(err, HectorError::InvalidConfig { .. }), "{err:?}");
        assert_eq!(
            trainer.labels(),
            &derived[..],
            "rejected labels must not land"
        );
        assert!(!trainer.labels_pinned);
    }

    #[test]
    fn minibatch_epoch_before_bind_is_an_error_not_a_panic() {
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        let err = trainer
            .minibatch_epoch(&SamplerConfig::new(16))
            .unwrap_err();
        assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err:?}");
    }

    #[test]
    fn minibatch_epoch_with_no_hops_is_an_error_not_a_panic() {
        let mut trainer = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        trainer.bind(&graph()).unwrap();
        let cfg = SamplerConfig {
            fanouts: vec![],
            ..SamplerConfig::new(16)
        };
        let err = trainer.minibatch_epoch(&cfg).unwrap_err();
        assert!(matches!(err, HectorError::InvalidConfig { .. }), "{err:?}");
        assert_eq!(trainer.steps(), 0);
    }

    /// Every refusal of a mini-batch step — an unbound trainer, a
    /// subgraph with other type counts, a mis-shaped binding, short or
    /// out-of-range labels — comes back as an error before anything runs:
    /// parameters, step count and loss stay as they were, and the
    /// untouched batch still trains.
    #[test]
    fn train_batch_refuses_misuse_and_leaves_the_trainer_unchanged() {
        let graph = graph();
        let b = || {
            EngineBuilder::new(ModelKind::Rgcn)
                .dims(8, 8)
                .seed(4)
                .build_trainer(Adam::new(0.01))
                .unwrap()
        };
        let mut trainer = b();
        trainer.bind(&graph).unwrap();
        trainer.step().unwrap();
        let mut batch = trainer
            .minibatch(&SamplerConfig::new(16).fanouts(&[4]))
            .next()
            .unwrap();
        let err = b().train_batch(&batch).unwrap_err();
        assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err}");
        let state = |t: &Trainer| {
            let params = t.engine().params();
            let bits = (0..params.len() as u32)
                .flat_map(|w| {
                    let w = WeightId(w);
                    [params.weight(w).data(), params.grad(w).data()]
                })
                .flat_map(|d| d.iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>();
            (bits, t.steps(), t.loss().map(f32::to_bits))
        };
        let before = state(&trainer);
        let mut refuse = |batch: &Batch, ok: fn(&HectorError) -> bool| {
            let err = trainer.train_batch(batch).unwrap_err();
            assert!(ok(&err), "{err}");
            assert_eq!(
                state(&trainer),
                before,
                "a refused batch changed the trainer"
            );
        };
        let more_types = GraphData::new(generate(&DatasetSpec {
            name: "engine".into(),
            num_nodes: 60,
            num_node_types: 2,
            num_edges: 400,
            num_edge_types: 4,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 21,
        }));
        let good = std::mem::replace(&mut batch.graph, more_types);
        refuse(&batch, |e| matches!(e, HectorError::GraphMismatch { .. }));
        batch.graph = good;
        let good = batch.bindings.clone();
        batch.bindings.set("h", Tensor::zeros(&[3, 3]));
        refuse(&batch, |e| matches!(e, HectorError::ShapeMismatch { .. }));
        batch.bindings = good;
        let last = batch.labels.pop().unwrap();
        refuse(&batch, |e| matches!(e, HectorError::ShapeMismatch { .. }));
        batch.labels.push(last);
        let first = std::mem::replace(&mut batch.labels[0], 8);
        refuse(&batch, |e| matches!(e, HectorError::InvalidConfig { .. }));
        batch.labels[0] = first;
        trainer.train_batch(&batch).unwrap();
        assert_eq!(trainer.steps(), before.1 + 1);
        assert_ne!(state(&trainer).0, before.0, "the batch trained");
    }

    /// `forward_on` computes what a fresh engine bound to the other graph
    /// with the same parameters and bindings computes; a graph or binding
    /// it refuses leaves the engine exactly as it was.
    #[test]
    fn forward_on_runs_another_graph_and_refusals_change_nothing() {
        let g = graph();
        let spec = |num_nodes, num_edges, num_edge_types| DatasetSpec {
            name: "engine".into(),
            num_nodes,
            num_node_types: 2,
            num_edges,
            num_edge_types,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 23,
        };
        let sub = GraphData::new(generate(&spec(25, 120, 3)));
        let more_types = GraphData::new(generate(&spec(25, 120, 4)));
        for kind in ModelKind::all() {
            let b = |seed| EngineBuilder::new(kind).dims(8, 8).seed(seed);
            let mut engine = b(3).build().unwrap();
            engine.bind(&g).unwrap().forward().unwrap();
            let bound_out = out_bits(&engine);
            // Other bindings than the engine would draw for `sub`.
            let mut oracle = b(9).build().unwrap();
            oracle.bind(&sub).unwrap();
            *oracle.params_mut() = engine.params().clone();
            oracle.forward().unwrap();
            let bindings = oracle.bindings().clone();
            engine.forward_on(&sub, &bindings).unwrap();
            assert_eq!(out_bits(&engine), out_bits(&oracle), "{kind:?}");

            let state = |e: &Engine| {
                let params = e.params();
                let program = &e.module().forward;
                let weights = (0..params.len() as u32).map(|w| params.weight(WeightId(w)));
                let inputs = program
                    .inputs
                    .iter()
                    .map(|&v| e.bindings().get(&program.var(v).name).expect("bound input"));
                let bits = weights
                    .chain(inputs)
                    .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                    .collect::<Vec<_>>();
                (bits, e.graph().graph().clone())
            };
            let before = state(&engine);
            let err = engine.forward_on(&more_types, &bindings).unwrap_err();
            assert!(matches!(err, HectorError::GraphMismatch { .. }), "{err}");
            assert!(state(&engine) == before, "{kind:?}: refused graph");
            let mut bad = bindings.clone();
            bad.set("h", Tensor::zeros(&[3, 3]));
            let err = engine.forward_on(&sub, &bad).unwrap_err();
            assert!(matches!(err, HectorError::ShapeMismatch { .. }), "{err}");
            assert!(state(&engine) == before, "{kind:?}: refused binding");
            engine.forward().unwrap();
            assert_eq!(out_bits(&engine), bound_out, "{kind:?}");
        }
    }

    #[test]
    fn misshapen_binding_is_a_shape_mismatch() {
        let graph = graph();
        let mut engine = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build()
            .unwrap();
        engine.bind(&graph).unwrap();
        let mut bad = engine.bindings().clone();
        bad.set("h", Tensor::zeros(&[3, 3]));
        engine.set_bindings(bad);
        let err = engine.forward().unwrap_err();
        assert!(matches!(err, HectorError::ShapeMismatch { .. }), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "dims() applies to built-in model kinds")]
    fn dims_on_custom_source_fails_fast() {
        use hector_ir::{AggNorm, ModelBuilder};
        let mut m = ModelBuilder::new("custom_dims");
        let h = m.node_input("h", 4);
        let w = m.weight_per_etype("W", 4, 4);
        let y = m.typed_linear("y", m.src(h), w);
        let out = m.aggregate("out", m.edge(y), None, AggNorm::None);
        m.output(out);
        let _ = EngineBuilder::from_source(m.finish()).dims(8, 8);
    }

    #[test]
    fn second_identical_engine_hits_the_module_cache() {
        let opts = CompileOptions::best();
        // Unique dims for this test so concurrent tests cannot warm the
        // key first: 13→13 RGAT is used nowhere else in this binary.
        let a = EngineBuilder::new(ModelKind::Rgat)
            .dims(13, 13)
            .options(opts.clone())
            .build()
            .unwrap();
        let b = EngineBuilder::new(ModelKind::Rgat)
            .dims(13, 13)
            .options(opts)
            .build()
            .unwrap();
        assert!(
            b.was_cache_hit(),
            "second identical engine must not compile"
        );
        assert!(
            std::sync::Arc::ptr_eq(&a.plan.module, &b.plan.module),
            "one shared module"
        );
    }

    /// Edge type 0 has sources of node types 0 and 1, edge type 1 of
    /// node type 1 only: live pairs `[0, 2, 3]` of 4. `more` adds an edge
    /// of the dead pair 1 (node type 0, edge type 1).
    fn two_pair_graph(more: bool) -> GraphData {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(3);
        b.add_node_type(3);
        for (s, d, t) in [(0, 3, 0), (4, 1, 0), (1, 5, 0), (3, 4, 1), (5, 0, 1)] {
            b.add_edge(s, d, t);
        }
        if more {
            b.add_edge(1, 2, 1);
        }
        GraphData::new(b.build())
    }

    /// The derived pair stacks of `engine`'s module.
    fn pair_stacks(engine: &Engine) -> Vec<WeightId> {
        let weights = &engine.module().forward.weights;
        (0u32..)
            .zip(weights)
            .filter(|(_, i)| i.derived && i.per == hector_ir::TypeIndex::NodeEdgePair)
            .map(|(w, _)| WeightId(w))
            .collect()
    }

    /// After `bind`, a derived pair stack and its gradient hold one slab
    /// per live pair of the bound graph — on the serving benchmark's
    /// graph (aifb ×0.3), 122 of HGT's 7 × 104 pairs.
    #[test]
    fn derived_pair_stacks_hold_the_live_pairs() {
        let aifb = GraphData::new(generate(&hector_graph::datasets::aifb().scaled(0.3)));
        assert_eq!(aifb.live_pairs().len(), 122);
        assert_eq!(aifb.type_count(hector_ir::TypeIndex::NodeEdgePair), 728);
        for graph in [two_pair_graph(false), aifb] {
            let live = graph.live_pairs().len();
            let mut trainer = EngineBuilder::new(ModelKind::Hgt)
                .dims(8, 8)
                .layers(2)
                .build_trainer(Sgd::new(0.1))
                .unwrap();
            trainer.bind(&graph).unwrap();
            let (engine, mut stacks) = (trainer.engine(), 0);
            for w in pair_stacks(engine) {
                let params = engine.params();
                assert_eq!(params.type_count(w), live);
                assert_eq!(params.weight(w).shape(), &[live, 8, 8]);
                assert_eq!(params.grad(w).shape(), &[live, 8, 8]);
                stacks += 1;
            }
            assert_eq!(stacks, 2, "one fused pair weight per HGT layer");
        }
    }

    /// An engine built without training holds no gradient stack; a
    /// trainer of the same model holds one per weight.
    #[test]
    fn only_engines_with_backward_hold_gradients() {
        let graph = graph();
        for kind in ModelKind::all() {
            let b = || EngineBuilder::new(kind).dims(8, 8).seed(2);
            let mut engine = b().build().unwrap();
            engine.bind(&graph).unwrap().forward().unwrap();
            let mut trainer = b().build_trainer(Sgd::new(0.1)).unwrap();
            trainer.bind(&graph).unwrap();
            let (inference, training) = (engine.params(), trainer.engine().params());
            let weights = &engine.module().forward.weights;
            assert_eq!(inference.len(), weights.len());
            for (w, info) in (0u32..).map(WeightId).zip(weights) {
                assert_eq!(inference.grad(w).len(), 0, "{kind:?} {w:?}");
                let (g, wt) = (training.grad(w), training.weight(w));
                assert_eq!(g.shape(), wt.shape(), "{kind:?} {w:?}");
                if !info.derived {
                    assert_eq!(
                        inference.weight(w).data(),
                        wt.data(),
                        "{kind:?}: same draws"
                    );
                }
            }
        }
    }

    /// A run on a graph with one more live pair grows the pair stacks
    /// (and their gradients) once; warm runs on it, and on the bound
    /// graph again, keep the same buffers.
    #[test]
    fn one_more_live_pair_grows_the_stacks_once() {
        let (g, more) = (two_pair_graph(false), two_pair_graph(true));
        assert_eq!(g.live_pairs(), [0, 2, 3]);
        assert_eq!(more.live_pairs(), [0, 1, 2, 3]);
        let mut t = EngineBuilder::new(ModelKind::Hgt)
            .dims(8, 8)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        t.bind(&g).unwrap();
        t.step().unwrap();
        let bindings = t.engine().bindings().clone();
        let buffers = |t: &Trainer| {
            let params = t.engine().params();
            let stacks = pair_stacks(t.engine());
            assert!(!stacks.is_empty());
            let ptrs = stacks.iter().map(|&w| {
                let (wt, g) = (params.weight(w), params.grad(w));
                (
                    params.type_count(w),
                    wt.data().as_ptr(),
                    g.data().as_ptr(),
                    g.len(),
                )
            });
            ptrs.collect::<Vec<_>>()
        };
        let bound = buffers(&t);
        assert!(bound.iter().all(|b| b.0 == 3));
        t.engine_mut().forward_on(&more, &bindings).unwrap();
        let grown = buffers(&t);
        assert!(
            grown.iter().all(|b| b.0 == 4 && b.3 == 4 * 8 * 8),
            "{grown:?}"
        );
        assert!(grown
            .iter()
            .zip(&bound)
            .all(|(a, b)| a.1 != b.1 && a.2 != b.2));
        t.engine_mut().forward_on(&more, &bindings).unwrap();
        assert_eq!(buffers(&t), grown, "a warm run allocates nothing");
        t.step().unwrap();
        t.engine_mut().forward().unwrap();
        assert_eq!(buffers(&t), grown, "the bound graph fits the grown stacks");
    }

    /// A store without gradients moved into a trainer (warm-starting it
    /// from a served engine) gets them on its first step.
    #[test]
    fn a_trainer_given_an_inference_store_trains() {
        let graph = graph();
        let b = || EngineBuilder::new(ModelKind::Hgt).dims(8, 8).seed(6);
        let mut engine = b().build().unwrap();
        engine.bind(&graph).unwrap();
        let mut want = b().build_trainer(Adam::new(0.01)).unwrap();
        want.bind(&graph).unwrap();
        let mut got = b().build_trainer(Adam::new(0.01)).unwrap();
        got.bind(&graph).unwrap();
        *got.engine_mut().params_mut() = engine.params().clone();
        let losses = |t: &mut Trainer| t.epoch(3).unwrap().losses;
        assert_eq!(losses(&mut got), losses(&mut want));
    }

    /// Live-pair preps against the dense-pair reference (all `nt × et`
    /// slabs visited, as before): edge type 0 has sources of two node
    /// types, 7 of 12 pairs are dead, and every sampled batch's live set
    /// is a strict subset of the bound graph's, one pair dying and coming
    /// back — outputs, base weights and gradients agree bit for bit.
    #[test]
    fn live_pair_preps_match_the_dense_pair_reference() {
        let mut b = HeteroGraphBuilder::new();
        for _ in 0..3 {
            b.add_node_type(4);
        }
        for (s, d, t) in [
            (0, 5, 0),
            (4, 1, 0),
            (1, 9, 0),
            (5, 10, 0),
            (2, 6, 1),
            (3, 8, 1),
        ] {
            b.add_edge(s, d, t);
        }
        for (s, d, t) in [(8, 0, 2), (9, 4, 2), (10, 2, 3), (11, 7, 3)] {
            b.add_edge(s, d, t);
        }
        let live = GraphData::new(b.build());
        assert_eq!(live.live_pairs(), [0, 1, 4, 10, 11]);
        let run = |dense: bool| {
            let t = EngineBuilder::new(ModelKind::Hgt).dims(8, 8).seed(3);
            let mut t = t.build_trainer(Adam::new(0.01)).unwrap();
            let bound = [live.clone(), live.clone().with_dense_pairs()];
            t.bind(&bound[usize::from(dense)]).unwrap();
            let (mut bits, mut lives) = (Vec::new(), Vec::new());
            let mut record = |t: &Trainer| {
                let (params, program) = (t.engine().params(), &t.engine().module().forward);
                bits.extend(t.engine().output().data().iter().map(|v| v.to_bits()));
                for (w, _) in (0u32..).zip(&program.weights).filter(|(_, i)| !i.derived) {
                    let w = hector_ir::WeightId(w);
                    bits.extend(params.weight(w).data().iter().map(|v| v.to_bits()));
                    bits.extend(params.grad(w).data().iter().map(|v| v.to_bits()));
                }
            };
            for _ in 0..5 {
                t.step().unwrap();
                record(&t);
            }
            for mut batch in t.minibatch(&SamplerConfig::new(2).fanouts(&[2])) {
                lives.push(batch.graph.live_pairs().to_vec());
                if dense {
                    batch.graph = batch.graph.with_dense_pairs();
                }
                t.train_batch(&batch).unwrap();
                record(&t);
            }
            (bits, lives)
        };
        let ((got, lives), (want, _)) = (run(false), run(true));
        assert_eq!(got, want);
        assert!(lives.iter().all(|l| l.len() < live.live_pairs().len()));
        let flips = |p| {
            lives
                .windows(2)
                .filter(|w| w[0].contains(p) != w[1].contains(p))
                .count()
        };
        assert!(live.live_pairs().iter().any(|p| flips(p) >= 3), "{lives:?}");
    }
}
