//! Parameter optimizers (SGD, Adam).
//!
//! Derived weights (introduced by linear operator reordering) are skipped:
//! they are recomputed from their base weights by the prep kernels at the
//! start of every forward pass.

use hector_ir::{Program, WeightId};
use hector_tensor::Tensor;

use crate::ParamStore;

/// A parameter-update rule.
pub trait Optimizer {
    /// Applies one update step using the gradients in `params`.
    fn step(&mut self, params: &mut ParamStore, program: &Program);

    /// Clears accumulated state (moments, step counts) so the optimizer
    /// behaves as freshly constructed. Called by `Trainer::bind` when a
    /// graph is (re)bound — training restarts must be deterministic.
    /// Stateless rules (plain SGD) need not override the default no-op.
    fn reset(&mut self) {}
}

/// Plain stochastic gradient descent.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    #[must_use]
    pub fn new(lr: f32) -> Sgd {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore, program: &Program) {
        for i in 0..program.weights.len() {
            if program.weights[i].derived {
                continue;
            }
            let (w, g) = params.weight_and_grad_mut(WeightId(i as u32));
            for (wv, &gv) in w.data_mut().iter_mut().zip(g.data()) {
                *wv -= self.lr * gv;
            }
        }
    }
}

/// Adam optimizer with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    t: u32,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates Adam with standard defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    #[must_use]
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore, program: &Program) {
        self.t += 1;
        let n = program.weights.len();
        self.m.resize(n, None);
        self.v.resize(n, None);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..n {
            if program.weights[i].derived {
                continue;
            }
            // Moment tensors materialise on the first step and are
            // updated in place afterwards: a warm step is allocation-free.
            let (w, g) = params.weight_and_grad_mut(WeightId(i as u32));
            let m = self.m[i].get_or_insert_with(|| Tensor::zeros(g.shape()));
            let v = self.v[i].get_or_insert_with(|| Tensor::zeros(g.shape()));
            let moments = m.data_mut().iter_mut().zip(v.data_mut());
            for ((wv, &gv), (mv, vv)) in w.data_mut().iter_mut().zip(g.data()).zip(moments) {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *wv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphData;
    use hector_graph::HeteroGraphBuilder;
    use hector_ir::ModelBuilder;
    use hector_tensor::seeded_rng;

    fn setup() -> (Program, ParamStore, WeightId) {
        let mut m = ModelBuilder::new("t");
        let h = m.node_input("h", 2);
        let w = m.weight_per_etype("W", 2, 2);
        let y = m.typed_linear("y", m.src(h), w);
        let out = m.aggregate("out", m.edge(y), None, hector_ir::AggNorm::None);
        m.output(out);
        let p = m.finish().program;
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(2);
        b.add_edge(0, 1, 0);
        let g = GraphData::new(b.build());
        let mut rng = seeded_rng(1);
        let ps = ParamStore::init(&p, &g, &mut rng);
        (p, ps, w)
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let (p, mut ps, w) = setup();
        let before = ps.weight(w).data()[0];
        ps.grad_mut(w).data_mut()[0] = 1.0;
        Sgd::new(0.1).step(&mut ps, &p);
        assert!((ps.weight(w).data()[0] - (before - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn adam_moves_against_gradient() {
        let (p, mut ps, w) = setup();
        let before = ps.weight(w).data()[0];
        ps.grad_mut(w).data_mut()[0] = 1.0;
        Adam::new(0.01).step(&mut ps, &p);
        let after = ps.weight(w).data()[0];
        assert!(after < before, "Adam should decrease the weight");
    }

    #[test]
    fn zero_grad_is_noop_for_sgd() {
        let (p, mut ps, w) = setup();
        let before = ps.weight(w).clone();
        Sgd::new(0.5).step(&mut ps, &p);
        assert_eq!(ps.weight(w), &before);
    }
}
