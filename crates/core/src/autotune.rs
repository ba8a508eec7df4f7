//! Configuration autotuning — the paper's §6 future work, made concrete.
//!
//! "The best combination of options varies across models and datasets"
//! (§4.3): the paper reports that always picking the per-run best
//! configuration would gain a further 1.02–1.33× over the fixed C+R
//! strategy, and leaves the selection algorithm to future work. Because
//! this reproduction's cost model is deterministic and cheap, exhaustive
//! search over the configuration space is practical: compile each
//! candidate, read its simulated time with [`model_run`], keep the
//! fastest.

use hector_compiler::{compile_cached, CompileOptions};
use hector_device::{Device, DeviceConfig, OomError};
use hector_ir::GemmSchedule;
use hector_models::ModelKind;
use hector_runtime::{model_run, EngineBuilder, GraphData, HectorError};

/// Result of an autotuning sweep.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The winning options.
    pub options: CompileOptions,
    /// Simulated time of the winner, microseconds.
    pub best_us: f64,
    /// Simulated time of the fixed C+R strategy, microseconds.
    pub fixed_best_us: f64,
    /// Every candidate evaluated: (label, simulated µs or OOM).
    pub candidates: Vec<(String, Option<f64>)>,
}

impl TuneResult {
    /// Gain of per-run selection over the fixed C+R strategy (the §4.3
    /// "presumably chooses the best configuration" factor).
    #[must_use]
    pub fn gain_over_fixed(&self) -> f64 {
        if self.best_us > 0.0 {
            self.fixed_best_us / self.best_us
        } else {
            1.0
        }
    }
}

/// The candidate space: the four optimization combinations crossed with
/// the GEMM schedule knobs of §3.4.1.
#[must_use]
pub fn candidate_space(training: bool) -> Vec<CompileOptions> {
    let mut out = Vec::new();
    for (compact, reorder) in [(false, false), (true, false), (false, true), (true, true)] {
        for tile in [16usize, 32] {
            for coarsen in [1usize, 2] {
                out.push(CompileOptions {
                    compact,
                    reorder,
                    training,
                    schedule: GemmSchedule {
                        tile,
                        coarsen,
                        launch_bounds: false,
                    },
                    ..CompileOptions::default()
                });
            }
        }
    }
    out
}

/// Simulated time of one candidate: [`model_run`] over the module an
/// engine built with `opts` runs. Candidate modules flow through the
/// process-wide `ModuleCache`, so re-tuning the same model (or tuning
/// after a normal run) recompiles nothing.
fn dry_run(
    kind: ModelKind,
    in_dim: usize,
    out_dim: usize,
    opts: &CompileOptions,
    graph: &GraphData,
    config: &DeviceConfig,
    training: bool,
) -> Result<f64, OomError> {
    let source = EngineBuilder::new(kind).dims(in_dim, out_dim).source();
    let module = compile_cached(&source, opts);
    let mut device = Device::new(config.clone());
    Ok(model_run(&module, graph, &mut device, training)?.elapsed_us)
}

/// Exhaustively tunes a built-in model for `graph` on `config`.
///
/// Returns the winning configuration plus the full candidate trace. OOM
/// candidates are recorded but never win.
///
/// # Errors
///
/// Returns [`HectorError::Oom`] with the fixed C+R candidate's error when
/// no candidate fits the device.
pub fn autotune(
    kind: ModelKind,
    in_dim: usize,
    out_dim: usize,
    graph: &GraphData,
    config: &DeviceConfig,
    training: bool,
) -> Result<TuneResult, HectorError> {
    let mut best: Option<(CompileOptions, f64)> = None;
    let mut candidates = Vec::new();
    for opts in candidate_space(training) {
        let t = dry_run(kind, in_dim, out_dim, &opts, graph, config, training).ok();
        candidates.push((
            format!(
                "{} tile={} coarsen={}",
                opts.label(),
                opts.schedule.tile,
                opts.schedule.coarsen
            ),
            t,
        ));
        if let Some(us) = t {
            if best.as_ref().is_none_or(|(_, b)| us < *b) {
                best = Some((opts, us));
            }
        }
    }
    let fixed = CompileOptions::best().with_training(training);
    let fixed_us = dry_run(kind, in_dim, out_dim, &fixed, graph, config, training);
    let Some((options, best_us)) = best else {
        // Footprints do not depend on the schedule knobs the candidates
        // vary, so C+R cannot fit when none of its candidates did.
        let e = fixed_us.expect_err("C+R fits only if one of its candidates does");
        return Err(HectorError::Oom(e));
    };
    Ok(TuneResult {
        options,
        best_us,
        fixed_best_us: fixed_us.unwrap_or(f64::INFINITY),
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::{generate, DatasetSpec};

    fn graph(ratio: f64) -> GraphData {
        GraphData::new(generate(&DatasetSpec {
            name: "tune".into(),
            num_nodes: 2_000,
            num_node_types: 3,
            num_edges: 30_000,
            num_edge_types: 8,
            compaction_ratio: ratio,
            type_skew: 1.0,
            seed: 77,
        }))
    }

    #[test]
    fn candidate_space_covers_all_option_combos() {
        let c = candidate_space(false);
        assert_eq!(c.len(), 16);
        let labels: std::collections::HashSet<&str> = c.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn autotune_never_loses_to_the_fixed_strategy() {
        let g = graph(0.3);
        let cfg = DeviceConfig::rtx3090();
        for kind in ModelKind::all() {
            let r = autotune(kind, 64, 64, &g, &cfg, false).unwrap();
            assert!(
                r.gain_over_fixed() >= 1.0 - 1e-9,
                "{kind:?}: best {} vs fixed {}",
                r.best_us,
                r.fixed_best_us
            );
            assert_eq!(r.candidates.len(), 16);
        }
    }

    #[test]
    fn low_ratio_graphs_tune_to_compaction() {
        let g = graph(0.15);
        let cfg = DeviceConfig::rtx3090();
        let r = autotune(ModelKind::Rgat, 64, 64, &g, &cfg, false).unwrap();
        assert!(r.options.compact, "ratio 0.15 should pick compaction");
    }

    #[test]
    fn nothing_fits_on_a_tiny_device_is_an_oom_error() {
        let g = graph(0.5);
        let tiny = DeviceConfig::rtx3090().with_capacity(1024);
        let err = autotune(ModelKind::Rgcn, 16, 16, &g, &tiny, false).unwrap_err();
        assert!(
            matches!(&err, HectorError::Oom(e) if e.capacity == 1024 && e.label == "graph"),
            "{err:?}"
        );
    }

    #[test]
    fn training_tuning_works() {
        let g = graph(0.5);
        let cfg = DeviceConfig::rtx3090();
        let r = autotune(ModelKind::Rgcn, 32, 32, &g, &cfg, true).unwrap();
        assert!(r.best_us > 0.0);
        assert!(r.options.training);
    }
}
