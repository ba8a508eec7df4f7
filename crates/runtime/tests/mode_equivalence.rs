//! Real runs against [`model_run`]: the simulated device is charged in
//! one place, so a real run's report is the plan's modeled reading —
//! same simulated time, launches and peak memory — for any model, option
//! combination and graph, and a run that does not fit fails with the
//! modeled OOM before any kernel executes. (This is what makes the
//! paper-scale modeled experiments trustworthy: they report exactly what
//! a real run would have reported.)

use hector_compiler::{compile_cached, CompileOptions};
use hector_device::{Device, DeviceConfig, OomError};
use hector_graph::{generate, DatasetSpec};
use hector_models::ModelKind;
use hector_runtime::{model_run, EngineBuilder, GraphData, HectorError, RunReport, Sgd};
use proptest::prelude::*;

/// One real inference pass (or, with `training`, one SGD step on seeded
/// labels) of `kind` at `dim × dim` on `device`, and the engine's device
/// afterwards.
fn real(
    kind: ModelKind,
    dim: usize,
    opts: &CompileOptions,
    training: bool,
    graph: &GraphData,
    device: DeviceConfig,
) -> (Result<RunReport, HectorError>, Device) {
    let b = EngineBuilder::new(kind)
        .dims(dim, dim)
        .options(opts.clone())
        .device(device);
    if training {
        let mut t = b.build_trainer(Sgd::new(0.0)).unwrap();
        let report = t.bind(graph).unwrap().step();
        (report, t.engine().device().clone())
    } else {
        let mut e = b.build().unwrap();
        let report = e.bind(graph).unwrap().forward();
        (report, e.device().clone())
    }
}

/// [`model_run`] over the module the matching engine runs.
fn modeled(
    kind: ModelKind,
    dim: usize,
    opts: &CompileOptions,
    training: bool,
    graph: &GraphData,
    device: DeviceConfig,
) -> Result<RunReport, OomError> {
    let source = EngineBuilder::new(kind).dims(dim, dim).source();
    let module = compile_cached(&source, &opts.clone().with_training(training));
    model_run(&module, graph, &mut Device::new(device), training)
}

fn arb_graph() -> impl Strategy<Value = GraphData> {
    (
        10usize..60,
        1usize..4,
        20usize..200,
        1usize..8,
        0.2f64..1.0,
        any::<u64>(),
    )
        .prop_map(|(n, nt, e, et, ratio, seed)| {
            GraphData::new(generate(&DatasetSpec {
                name: "prop".into(),
                num_nodes: n,
                num_node_types: nt,
                num_edges: e,
                num_edge_types: et,
                compaction_ratio: ratio,
                type_skew: 1.0,
                seed,
            }))
        })
}

fn models() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::Rgcn),
        Just(ModelKind::Rgat),
        Just(ModelKind::Hgt)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn modeled_inference_reports_match_real(
        graph in arb_graph(),
        kind in models(),
        compact in any::<bool>(),
        reorder in any::<bool>(),
    ) {
        let opts = CompileOptions { compact, reorder, ..CompileOptions::default() };
        let device = DeviceConfig::rtx3090();
        let r = real(kind, 8, &opts, false, &graph, device.clone()).0.unwrap();
        let m = modeled(kind, 8, &opts, false, &graph, device).unwrap();

        prop_assert!((r.elapsed_us - m.elapsed_us).abs() < 1e-6);
        prop_assert_eq!(r.launches, m.launches);
        prop_assert_eq!(r.peak_bytes, m.peak_bytes);
        prop_assert!((r.gemm_us - m.gemm_us).abs() < 1e-6);
        prop_assert!((r.traversal_us - m.traversal_us).abs() < 1e-6);
    }

    #[test]
    fn modeled_training_reports_match_real(
        graph in arb_graph(),
        kind in models(),
    ) {
        let opts = CompileOptions::best();
        let device = DeviceConfig::rtx3090();
        let r = real(kind, 6, &opts, true, &graph, device.clone()).0.unwrap();
        let m = modeled(kind, 6, &opts, true, &graph, device).unwrap();

        prop_assert!((r.elapsed_us - m.elapsed_us).abs() < 1e-6);
        prop_assert_eq!(r.launches, m.launches);
        prop_assert!((r.backward_us - m.backward_us).abs() < 1e-6);
        prop_assert!(r.loss.is_some() && m.loss.is_none());
    }

    /// A device smaller than the run's peak: the real run fails with the
    /// modeled OOM, field for field, and no kernel has executed.
    #[test]
    fn real_oom_is_the_modeled_oom_before_any_kernel(
        graph in arb_graph(),
        kind in models(),
        training in any::<bool>(),
        fraction in 0.0f64..1.0,
    ) {
        let opts = CompileOptions::best();
        let fits = modeled(kind, 6, &opts, training, &graph, DeviceConfig::rtx3090()).unwrap();
        let capacity = (fits.peak_bytes as f64 * fraction) as usize;
        let device = DeviceConfig::rtx3090().with_capacity(capacity);
        let want = modeled(kind, 6, &opts, training, &graph, device.clone()).unwrap_err();
        let (got, after) = real(kind, 6, &opts, training, &graph, device);

        let Err(HectorError::Oom(got)) = got else {
            panic!("{kind:?}: want an OOM below the peak, got {got:?}");
        };
        prop_assert_eq!(got, want);
        let p = after.counters().parallel();
        prop_assert_eq!(p.parallel_launches + p.sequential_launches, 0);
    }
}
