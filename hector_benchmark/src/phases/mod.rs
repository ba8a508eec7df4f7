//! The timed phases of a run and the untimed probes beside them.

use hector::ProfileReport;

use crate::run::Metrics;

pub mod full;
pub mod minibatch;
pub mod probes;
pub mod serve;

/// Where profiled steps spent their time, summed over
/// `Trainer::profile` reports: kernel spans by template, the loss and
/// optimizer phases, and the wall of the benchmark's own call around
/// them.
#[derive(Default)]
pub struct Split {
    run_us: f64,
    gemm_us: f64,
    traversal_us: f64,
    fallback_us: f64,
    optimizer_us: f64,
    loss_us: f64,
    attributed_us: f64,
    call_us: f64,
    gemm_flops: f64,
}

impl Split {
    pub fn add(&mut self, report: &ProfileReport, call_ms: f64) {
        self.run_us += report.wall_us;
        self.call_us += call_ms * 1e3;
        for k in &report.kernels {
            let slot = match k.name.split('/').next() {
                Some("gemm") => &mut self.gemm_us,
                Some("traversal") => &mut self.traversal_us,
                _ => &mut self.fallback_us,
            };
            *slot += k.total_us;
            self.attributed_us += k.total_us;
            if k.name.starts_with("gemm/") {
                self.gemm_flops += k.flops;
            }
        }
        for p in &report.phases {
            match p.name.as_str() {
                "phase/optimizer" => self.optimizer_us += p.total_us,
                "phase/loss" => self.loss_us += p.total_us,
                _ => {}
            }
            self.attributed_us += p.total_us;
        }
    }

    /// Shares of the run wall in %, as `<prefix>{gemm,traversal,fallback,
    /// optimizer,loss}_share`, and everything else as `<prefix>other_share`.
    pub fn report(&self, prefix: &str, metrics: &mut Metrics) {
        let pct = |us: f64| {
            if self.run_us > 0.0 {
                100.0 * us / self.run_us
            } else {
                0.0
            }
        };
        let named = [
            ("gemm", self.gemm_us),
            ("traversal", self.traversal_us),
            ("fallback", self.fallback_us),
            ("optimizer", self.optimizer_us),
            ("loss", self.loss_us),
        ];
        for (name, us) in named {
            metrics.insert(format!("{prefix}{name}_share"), pct(us));
        }
        let other = (self.run_us - named.iter().map(|(_, us)| us).sum::<f64>()).max(0.0);
        metrics.insert(format!("{prefix}other_share"), pct(other));
    }

    /// GFLOP/s of the GEMM-template kernels over their own busy time.
    pub fn gemm_gflops(&self) -> f64 {
        if self.gemm_us > 0.0 {
            self.gemm_flops / (self.gemm_us * 1e3)
        } else {
            0.0
        }
    }

    /// Share of the benchmark-side call wall that the program's named
    /// kernel and phase spans account for.
    pub fn coverage(&self) -> f64 {
        if self.call_us > 0.0 {
            (self.attributed_us / self.call_us).min(1.0)
        } else {
            0.0
        }
    }
}
