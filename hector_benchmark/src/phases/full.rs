//! The full-graph part of a round: for each of RGCN/RGAT/HGT, one warm
//! forward (1 thread), one Adam step (1 thread) and one Adam step of the
//! 2-thread twin, whose loss must match bit for bit. In a traced run
//! every other round takes its 1-thread step inside `Trainer::profile`,
//! which gives the in-step split and, against the plain rounds, what
//! tracing costs.

use hector::{HectorError, Trainer};

use crate::catalog::MODELS;
use crate::phases::Split;
use crate::run::{all_finite, Metrics, Stage, Tally};
use crate::spans::Recorder;
use crate::stats::{geomean, median};

#[derive(Default)]
pub struct FullOut {
    pub fwd: [Vec<f64>; 3],
    pub step: [Vec<f64>; 3],
    pub step_par: [Vec<f64>; 3],
    /// 1-thread steps taken inside `profile` (traced runs only).
    pub step_profiled: [Vec<f64>; 3],
    launches: [usize; 3],
    peak_bytes: [usize; 3],
    pub split: Split,
    last_loss: [f32; 3],
}

pub fn round(
    stage: &mut Stage,
    pars: &mut [Trainer],
    round: usize,
    rec: &mut Recorder,
    tally: &mut Tally,
    out: &mut FullOut,
) -> Result<(), HectorError> {
    let op = round as u64;
    let profiled = rec.is_on() && round % 2 == 1;
    for (m, (model, par)) in stage.models.iter_mut().zip(pars).enumerate() {
        let (fwd, ms) = rec.timed("runtime.Engine::forward", op, |_| model.engine.forward());
        fwd?;
        out.fwd[m].push(ms);
        tally.op(all_finite(model.engine.output().data()));

        let seq = if profiled {
            let ((step, report), ms) = rec.timed("runtime.Trainer::step(profiled)", op, |_| {
                model.seq.profile(|t| t.step())
            });
            out.split.add(&report, ms);
            out.step_profiled[m].push(ms);
            step?
        } else {
            let (step, ms) = rec.timed("runtime.Trainer::step", op, |_| model.seq.step());
            out.step[m].push(ms);
            step?
        };
        let (par, ms) = rec.timed("runtime.Trainer::step(2 threads)", op, |_| par.step());
        let par = par?;
        out.step_par[m].push(ms);

        let (a, b) = (seq.loss.unwrap_or(f32::NAN), par.loss.unwrap_or(f32::NAN));
        tally.op(a.is_finite());
        tally.op(b.is_finite());
        tally.check(a.to_bits() == b.to_bits(), || {
            format!(
                "{}: round {op}: 1-thread loss {a} != 2-thread loss {b}",
                MODELS[m].1
            )
        });
        out.last_loss[m] = a;
        out.launches[m] = seq.launches;
        out.peak_bytes[m] = seq.peak_bytes;
    }
    Ok(())
}

/// After the last round: training must have made progress.
pub fn check_progress(stage: &Stage, out: &FullOut, tally: &mut Tally) {
    for (m, model) in stage.models.iter().enumerate() {
        tally.check(out.last_loss[m] < model.first_loss, || {
            format!(
                "{}: final loss {} is not below the first loss {}",
                MODELS[m].1, out.last_loss[m], model.first_loss
            )
        });
    }
}

impl FullOut {
    pub fn report(&self, metrics: &mut Metrics) {
        let mut scaling = Vec::new();
        for (m, (_, model)) in MODELS.iter().enumerate() {
            for (what, values) in [
                ("fwd_ms", &self.fwd[m]),
                ("step_ms", &self.step[m]),
                ("step_par_ms", &self.step_par[m]),
            ] {
                metrics.insert(format!("runtime.{what}.{model}"), median(values));
            }
            metrics.insert(
                format!("compiler.launches_per_step.{model}"),
                self.launches[m] as f64,
            );
            metrics.insert(
                format!("device.peak_mb.{model}"),
                self.peak_bytes[m] as f64 / 1e6,
            );
            scaling.push(median(&self.step[m]) / median(&self.step_par[m]));
        }
        metrics.insert("par.scaling_t2", geomean(&scaling));
        self.split.report("runtime.", metrics);
        metrics.insert("runtime.gemm_gflops", self.split.gemm_gflops());
    }
}
