//! Set-up shared by the workspace-level suites: the `EngineBuilder`
//! chains, bit-pattern views and seeded inputs they would otherwise each
//! re-spell. Every suite pulls this in with `mod common;` and uses its
//! own subset.
#![allow(dead_code)]

use hector::prelude::*;

/// An explicit pool shape: `threads` workers over `min_chunk`-row chunks.
pub fn par(threads: usize, min_chunk: usize) -> ParallelConfig {
    ParallelConfig::sequential()
        .with_threads(threads)
        .with_min_chunk_rows(min_chunk)
}

/// `kind` at `dim × dim` under `opts`, seeded; everything else at the
/// builder's defaults (production backend, the simulated
/// RTX 3090, parallelism from the environment) — chain on the result.
pub fn builder(kind: ModelKind, dim: usize, opts: &CompileOptions, seed: u64) -> EngineBuilder {
    EngineBuilder::new(kind)
        .dims(dim, dim)
        .options(opts.clone())
        .seed(seed)
}

/// The parity suites' chain: 16 × 16 on `backend` with `threads` workers
/// and 4-row chunks, so even small graphs split.
pub fn parity(
    kind: ModelKind,
    opts: &CompileOptions,
    threads: usize,
    backend: BackendKind,
    seed: u64,
) -> EngineBuilder {
    builder(kind, 16, opts, seed)
        .parallel(par(threads, 4))
        .backend(backend)
}

/// [`parity`], built.
pub fn engine(
    kind: ModelKind,
    opts: &CompileOptions,
    threads: usize,
    backend: BackendKind,
    seed: u64,
) -> Engine {
    parity(kind, opts, threads, backend, seed)
        .build()
        .expect("valid engine configuration")
}

/// [`parity`], compiled for training and wrapped with `Adam::new(0.01)`.
pub fn trainer(
    kind: ModelKind,
    opts: &CompileOptions,
    threads: usize,
    backend: BackendKind,
    seed: u64,
) -> Trainer {
    parity(kind, opts, threads, backend, seed)
        .build_trainer(Adam::new(0.01))
        .expect("valid trainer configuration")
}

/// One inference of `chain` on `g`; the output tensor as raw bits.
pub fn inference_bits(chain: EngineBuilder, g: &GraphData) -> Vec<u32> {
    let mut engine = chain.build().expect("valid engine configuration");
    let bound = engine.bind(g).unwrap();
    bound.forward().expect("inference fits");
    bits(bound.output())
}

/// `steps` Adam steps of `chain` on `g` against [`cyclic_labels`];
/// returns (per-step loss bits, all final weight bits) — the whole
/// training trajectory, bit for bit.
pub fn training_bits(chain: EngineBuilder, g: &GraphData, steps: usize) -> (Vec<u32>, Vec<u32>) {
    let mut trainer = chain
        .build_trainer(Adam::new(0.01))
        .expect("valid trainer configuration");
    trainer.bind(g).unwrap();
    trainer.set_labels(cyclic_labels(g, 4)).unwrap();
    let losses = trainer.epoch(steps).expect("training steps fit").losses;
    assert_eq!(losses.len(), steps, "real mode reports every loss");
    (
        losses.iter().map(|l| l.to_bits()).collect(),
        weight_bits(trainer.engine().params()),
    )
}

/// One modeled (cost-model-only) inference pass or training step of
/// `kind` at `dim × dim` on `device`: [`hector::model_run`] over the
/// module the matching engine runs.
pub fn modeled(
    kind: ModelKind,
    dim: usize,
    opts: &CompileOptions,
    training: bool,
    graph: &GraphData,
    device: DeviceConfig,
) -> Result<hector::RunReport, HectorError> {
    let source = builder(kind, dim, opts, 0).source();
    let module = hector::compile_cached(&source, &opts.clone().with_training(training));
    let mut device = hector::Device::new(device);
    Ok(hector::model_run(&module, graph, &mut device, training)?)
}

/// Replaces the bound engine's features with `Bindings::standard` drawn
/// from their own `seed`: suites that compare compile options keep the
/// inputs independent of how many values the weights drew.
pub fn reseed_features(engine: &mut Engine, seed: u64) {
    let features = Bindings::standard(
        &engine.module().forward,
        engine.graph(),
        &mut seeded_rng(seed),
    );
    engine.set_bindings(features);
}

/// The suites' fixed label pattern: node `i` gets class `i % classes`.
pub fn cyclic_labels(graph: &GraphData, classes: usize) -> Vec<usize> {
    (0..graph.graph().num_nodes())
        .map(|i| i % classes)
        .collect()
}

/// A tensor as raw `f32` bit patterns.
pub fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Every weight of `params`, concatenated, as raw bit patterns.
pub fn weight_bits(params: &ParamStore) -> Vec<u32> {
    (0..params.len())
        .flat_map(|w| bits(params.weight(hector_ir::WeightId(w as u32))))
        .collect()
}
