//! Parameter storage: per-type weight stacks, gradients, and the derived
//! (reorder-fused) weight machinery.

use hector_ir::{Program, TypeIndex, WeightId, WeightPrep};
use hector_tensor::microkernel::{gemm_rows, outer_rows, pack_transposed, Isa};
use hector_tensor::{xavier_uniform, Tensor};
use rand::rngs::StdRng;

use crate::GraphData;

/// Learnable parameters of one compiled module, shaped for a particular
/// graph (the type dimension depends on the graph's type counts).
///
/// Base weights are stored as `[T, rows, cols]` stacks, one slab per
/// type of their [`TypeIndex`]. Weights flagged `derived` in the program
/// were introduced by linear operator reordering; they are not state but
/// per-run scratch: recomputed from their base weights through the
/// program's [`WeightPrep`] list at the start of every forward pass,
/// their gradients distributed back to the base weights and cleared by
/// [`ParamStore::backprop_preps`] (the chain rule through the
/// weight-space product), and skipped by the optimizers. A derived
/// `NodeEdgePair` stack holds one slab per live `(ntype(src), etype)`
/// pair of the graph being run — slot `i` for its `i`-th live pair —
/// not `nt × et`: its capacity starts at the bound graph's live-pair
/// count and grows, once, on a run whose graph has more.
///
/// A store bound by an engine compiled without backward holds no
/// gradient stacks: every [`ParamStore::grad`] is empty.
#[derive(Clone, Debug)]
pub struct ParamStore {
    weights: Vec<Tensor>,
    /// Empty tensors unless `grads_held`.
    grads: Vec<Tensor>,
    grads_held: bool,
    /// Which weights are derived: their gradients are cleared by
    /// [`ParamStore::backprop_preps`], not [`ParamStore::zero_grads`].
    derived: Vec<bool>,
    /// A derived gradient was handed out mutably since the last
    /// [`ParamStore::backprop_preps`] cleared them.
    derived_grads_dirty: bool,
    /// Reusable staging buffer for the prep chain rule
    /// ([`ParamStore::backprop_preps`]): grown monotonically on first
    /// use, then reused — warm training steps never touch the heap.
    prep: Vec<f32>,
}

impl ParamStore {
    /// Initialises parameters for `program` on `graph`, Xavier-uniform,
    /// from the given RNG, with a gradient stack per weight (derived
    /// weights draw nothing: they start at zero and are filled by
    /// [`ParamStore::run_preps`]).
    #[must_use]
    pub fn init(program: &Program, graph: &GraphData, rng: &mut StdRng) -> ParamStore {
        ParamStore::init_for(program, graph, rng, true)
    }

    /// [`ParamStore::init`], with gradient stacks only when `grads`
    /// (the engine's module has a backward program). The draws are the
    /// same either way.
    pub(crate) fn init_for(
        program: &Program,
        graph: &GraphData,
        rng: &mut StdRng,
        grads: bool,
    ) -> ParamStore {
        let weights: Vec<Tensor> = program
            .weights
            .iter()
            .map(|info| {
                let slabs = if info.derived && info.per == TypeIndex::NodeEdgePair {
                    graph.live_pairs().len()
                } else {
                    graph.type_count(info.per)
                };
                let shape = [slabs, info.rows, info.cols];
                if info.derived {
                    Tensor::zeros(&shape)
                } else {
                    xavier_uniform(rng, &shape)
                }
            })
            .collect();
        let mut params = ParamStore {
            grads: vec![Tensor::default(); weights.len()],
            weights,
            grads_held: false,
            derived: program.weights.iter().map(|info| info.derived).collect(),
            derived_grads_dirty: false,
            prep: Vec::new(),
        };
        if grads {
            params.hold_grads();
        }
        params
    }

    /// Allocates a zero gradient stack shaped like each weight.
    fn hold_grads(&mut self) {
        self.grads = self
            .weights
            .iter()
            .map(|w| Tensor::zeros(w.shape()))
            .collect();
        self.grads_held = true;
        self.derived_grads_dirty = false;
    }

    /// The weight stack of `w`.
    #[must_use]
    pub fn weight(&self, w: WeightId) -> &Tensor {
        &self.weights[w.0 as usize]
    }

    /// `[types, rows, cols]` of `w`'s stack.
    fn dims(&self, w: WeightId) -> [usize; 3] {
        let shape = self.weight(w).shape();
        [shape[0], shape[1], shape[2]]
    }

    /// Mutable weight access (tests, manual initialisation).
    pub fn weight_mut(&mut self, w: WeightId) -> &mut Tensor {
        &mut self.weights[w.0 as usize]
    }

    /// The gradient stack of `w`; empty on a store bound by an engine
    /// compiled without backward.
    #[must_use]
    pub fn grad(&self, w: WeightId) -> &Tensor {
        &self.grads[w.0 as usize]
    }

    /// Mutable gradient access (the executor accumulates into this).
    pub fn grad_mut(&mut self, w: WeightId) -> &mut Tensor {
        self.derived_grads_dirty |= self.derived[w.0 as usize];
        &mut self.grads[w.0 as usize]
    }

    /// Simultaneous mutable weight + shared gradient access — weights
    /// and gradients live in separate stores, so optimizers can update
    /// in place without cloning the gradient first.
    pub fn weight_and_grad_mut(&mut self, w: WeightId) -> (&mut Tensor, &Tensor) {
        let i = w.0 as usize;
        (&mut self.weights[i], &self.grads[i])
    }

    /// Number of type slabs of `w` (for a derived pair stack, its
    /// live-pair capacity).
    #[must_use]
    pub fn type_count(&self, w: WeightId) -> usize {
        self.dims(w)[0]
    }

    /// Number of weights.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total parameter bytes (device-resident).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.weights.iter().map(Tensor::byte_size).sum()
    }

    /// Zeroes all gradients (start of a training step). Derived
    /// gradients are skipped while they are known clear: they start at
    /// zero and [`ParamStore::backprop_preps`] clears what a step wrote.
    /// A store without gradient stacks (one bound by an engine compiled
    /// without backward, then moved into a trainer) gets them here.
    pub fn zero_grads(&mut self) {
        if !self.grads_held {
            self.hold_grads();
            return;
        }
        for (g, &derived) in self.grads.iter_mut().zip(&self.derived) {
            if !derived || self.derived_grads_dirty {
                g.data_mut().fill(0.0);
            }
        }
        self.derived_grads_dirty = false;
    }

    /// Executes one weight prep (called by the fallback kernels at the
    /// start of every forward pass, since base weights change between
    /// steps). Writes into the derived weight's existing storage, so a
    /// warm prep run performs no heap allocation. Pair preps fill one
    /// slab per live pair of `graph`, slot `i` for pair
    /// `live_pairs()[i]`: no kernel on `graph` reads another pair. The
    /// stack (and its gradient, if the store holds gradients) grows only
    /// when `graph` has more live pairs than it has slots.
    pub fn run_prep(&mut self, prep: &WeightPrep, program: &Program, graph: &GraphData) {
        match prep {
            WeightPrep::MatVec { w, v, out } => {
                let [t, k, n] = self.dims(*w);
                debug_assert_eq!(program.weight(*out).rows, k);
                // Detach the derived tensor so the base weights stay
                // readable while we fill it (disjoint indices of the
                // same store).
                let mut fused = std::mem::take(&mut self.weights[out.0 as usize]);
                debug_assert_eq!(fused.shape(), &[t, k, 1]);
                let isa = Isa::best();
                for (ty, dst) in fused.data_mut().chunks_exact_mut(k.max(1)).enumerate() {
                    // out[t] = W[t] · v[t]: W's rows through the tile,
                    // v[t] an [n, 1] slab.
                    let wrows = self.weight(*w).slab(ty).chunks_exact(n.max(1));
                    gemm_rows(isa, wrows, self.weight(*v).slab(ty), 1, dst);
                }
                self.weights[out.0 as usize] = fused;
            }
            WeightPrep::MatMulPairs { a, b, out } => {
                let ([_, k, m], [et, m2, n]) = (self.dims(*a), self.dims(*b));
                assert_eq!(m, m2, "prep inner dims must agree");
                debug_assert_eq!(program.weight(*out).per, TypeIndex::NodeEdgePair);
                let (o, live) = (out.0 as usize, graph.live_pairs());
                if self.weights[o].shape()[0] < live.len() {
                    self.weights[o] = Tensor::zeros(&[live.len(), k, n]);
                    if self.grads_held {
                        self.grads[o] = Tensor::zeros(&[live.len(), k, n]);
                    }
                }
                let mut fused = std::mem::take(&mut self.weights[o]);
                debug_assert_eq!(&fused.shape()[1..], &[k, n]);
                for (dst, &pair) in fused.data_mut().chunks_exact_mut((k * n).max(1)).zip(live) {
                    let (i, j) = (pair as usize / et, pair as usize % et);
                    let arows = self.weight(*a).slab(i).chunks_exact(m.max(1));
                    gemm_rows(Isa::best(), arows, self.weight(*b).slab(j), n, dst);
                }
                self.weights[o] = fused;
            }
        }
    }

    /// Runs every prep of `program` (forward-pass entry).
    pub fn run_preps(&mut self, program: &Program, graph: &GraphData) {
        for prep in &program.preps {
            self.run_prep(prep, program, graph);
        }
    }

    /// Distributes gradients accumulated on derived weights back to their
    /// base weights (chain rule through the weight-space products), then
    /// clears the derived gradients. Staging goes through the store's
    /// reusable `prep` buffer (preserving the exact accumulation
    /// order of the former temporary-tensor formulation), so warm steps
    /// are allocation-free. Pair preps visit `graph`'s live pairs in
    /// ascending order, reading and clearing slot `i` for pair
    /// `live_pairs()[i]`: no kernel on `graph` wrote another slot.
    pub fn backprop_preps(&mut self, program: &Program, graph: &GraphData) {
        for prep in program.preps.iter().rev() {
            match prep {
                WeightPrep::MatVec { w, v, out } => {
                    // out[t][i] = Σ_j W[t][i,j] · v[t][j]
                    // dW[t][i,j] += dout[t][i] · v[t][j]
                    // dv[t][j]   += Σ_i dout[t][i] · W[t][i,j]
                    let mut dout = std::mem::take(&mut self.grads[out.0 as usize]);
                    let [t, k, n] = self.dims(*w);
                    let mut prep = std::mem::take(&mut self.prep);
                    prep.resize(n, 0.0);
                    let isa = Isa::best();
                    for ty in 0..t {
                        let dslab = dout.slab(ty); // [k]
                        let (wslab, vslab) = (
                            self.weights[w.0 as usize].slab(ty),
                            self.weights[v.0 as usize].slab(ty),
                        );
                        let gw = &mut self.grads[w.0 as usize].data_mut()[ty * k * n..][..k * n];
                        // dW += dout ⊗ v, one rank-1 row through the tile.
                        outer_rows(isa, [(dslab, vslab)], n, gw);
                        // dv = dout · W[t], one [1, n] row through the tile.
                        gemm_rows(isa, [dslab], wslab, n, &mut prep);
                        let gv = &mut self.grads[v.0 as usize].data_mut()[ty * n..][..n];
                        for (g, &x) in gv.iter_mut().zip(&prep) {
                            *g += x;
                        }
                    }
                    self.prep = prep;
                    dout.data_mut().fill(0.0);
                    self.grads[out.0 as usize] = dout;
                }
                WeightPrep::MatMulPairs { a, b, out } => {
                    // out[(i,j)] = A[i]·B[j]
                    // dA[i] += Σ_j dout[(i,j)]·B[j]^T ; dB[j] += Σ_i A[i]^T·dout[(i,j)]
                    let mut dout = std::mem::take(&mut self.grads[out.0 as usize]);
                    let ([_, k, m], [et, _, n]) = (self.dims(*a), self.dims(*b));
                    let mut prep = std::mem::take(&mut self.prep);
                    prep.resize(k * m + 2 * m * n, 0.0);
                    let (da, rest) = prep.split_at_mut(k * m);
                    let (db, bt) = rest.split_at_mut(m * n);
                    let isa = Isa::best();
                    for (slot, &pair) in graph.live_pairs().iter().enumerate() {
                        let (i, j) = (pair as usize / et, pair as usize % et);
                        // d = dout[slot], [k, n]; da = d · Bᵀ through the
                        // packed slab (≡ matmul_tb).
                        let d = dout.slab(slot).chunks_exact(n.max(1));
                        pack_transposed(self.weights[b.0 as usize].slab(j), m, n, bt);
                        gemm_rows(isa, d.clone(), bt, m, da);
                        // db = Aᵀ · d, one shared row at a time (≡ matmul_ta).
                        db.fill(0.0);
                        let arows = self.weights[a.0 as usize].slab(i).chunks_exact(m.max(1));
                        outer_rows(isa, arows.zip(d), n, db);
                        let ga = &mut self.grads[a.0 as usize].data_mut()[i * k * m..][..k * m];
                        for (g, &x) in ga.iter_mut().zip(&*da) {
                            *g += x;
                        }
                        let gb = &mut self.grads[b.0 as usize].data_mut()[j * m * n..][..m * n];
                        for (g, &x) in gb.iter_mut().zip(&*db) {
                            *g += x;
                        }
                        dout.data_mut()[slot * k * n..][..k * n].fill(0.0);
                    }
                    self.prep = prep;
                    self.grads[out.0 as usize] = dout;
                }
            }
        }
        self.derived_grads_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::HeteroGraphBuilder;
    use hector_ir::ModelBuilder;
    use hector_tensor::seeded_rng;

    fn toy_graph() -> GraphData {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(2);
        b.add_node_type(2);
        b.add_edge(0, 2, 0);
        b.add_edge(1, 3, 1);
        b.add_edge(1, 2, 1);
        GraphData::new(b.build())
    }

    #[test]
    fn init_shapes_follow_type_counts() {
        let mut m = ModelBuilder::new("t");
        let h = m.node_input("h", 4);
        let we = m.weight_per_etype("We", 4, 4);
        let wn = m.weight_per_ntype("Wn", 4, 4);
        let w0 = m.weight_shared("W0", 4, 4);
        let y = m.typed_linear("y", m.src(h), we);
        let out = m.aggregate("out", m.edge(y), None, hector_ir::AggNorm::None);
        m.output(out);
        let p = m.finish().program;
        let g = toy_graph();
        let mut rng = seeded_rng(1);
        let ps = ParamStore::init(&p, &g, &mut rng);
        assert_eq!(ps.weight(we).shape(), &[2, 4, 4]);
        assert_eq!(ps.weight(wn).shape(), &[2, 4, 4]);
        assert_eq!(ps.weight(w0).shape(), &[1, 4, 4]);
        assert!(ps.byte_size() > 0);
    }

    #[test]
    fn matvec_prep_matches_manual() {
        let mut m = ModelBuilder::new("t");
        let h = m.node_input("h", 2);
        let w = m.weight_per_etype("W", 2, 2);
        let v = m.weight_vec_per_etype("v", 2);
        let ht = m.typed_linear("ht", m.dst(h), w);
        let att = m.dot("att", m.edge(ht), m.wvec(v));
        let s = m.aggregate("s", m.edge(att), None, hector_ir::AggNorm::None);
        m.output(s);
        let mut p = m.finish().program;
        hector_compiler::reorder::linear_operator_reordering(&mut p);
        let g = toy_graph();
        let mut rng = seeded_rng(2);
        let mut ps = ParamStore::init(&p, &g, &mut rng);
        ps.run_preps(&p, &g);
        let fused = hector_ir::WeightId((p.weights.len() - 1) as u32);
        // fused[t][i] = Σ_j W[t][i,j] v[t][j]
        for ty in 0..2 {
            for i in 0..2 {
                let mut acc = 0.0;
                for j in 0..2 {
                    acc += ps.weight(w).at3(ty, i, j) * ps.weight(v).at3(ty, j, 0);
                }
                assert!((ps.weight(fused).at3(ty, i, 0) - acc).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn matvec_prep_backward_chain_rule() {
        // Finite-difference check of backprop through the fused weight.
        let mut m = ModelBuilder::new("t");
        let h = m.node_input("h", 2);
        let w = m.weight_per_etype("W", 2, 2);
        let v = m.weight_vec_per_etype("v", 2);
        let ht = m.typed_linear("ht", m.dst(h), w);
        let att = m.dot("att", m.edge(ht), m.wvec(v));
        let s = m.aggregate("s", m.edge(att), None, hector_ir::AggNorm::None);
        m.output(s);
        let mut p = m.finish().program;
        hector_compiler::reorder::linear_operator_reordering(&mut p);
        let g = toy_graph();
        let mut rng = seeded_rng(3);
        let mut ps = ParamStore::init(&p, &g, &mut rng);
        ps.run_preps(&p, &g);
        let fused = hector_ir::WeightId((p.weights.len() - 1) as u32);
        // Pretend dLoss/dfused = 1 everywhere; then dW[t][i][j] = v[t][j].
        for x in ps.grad_mut(fused).data_mut() {
            *x = 1.0;
        }
        ps.backprop_preps(&p, &g);
        for ty in 0..2 {
            for i in 0..2 {
                for j in 0..2 {
                    let expect = ps.weight(v).at3(ty, j, 0);
                    assert!((ps.grad(w).at3(ty, i, j) - expect).abs() < 1e-6);
                }
            }
        }
        // Derived grad cleared.
        assert!(ps.grad(fused).data().iter().all(|&x| x == 0.0));
    }

    /// The scalar loops the MatVec prep ran before it moved onto the
    /// tiles: `out[t][i] = Σ_j W[t][i,j] · v[t][j]`, one serial dot per
    /// row.
    fn matvec_loop(w: &[f32], v: &[f32], [t, k, n]: [usize; 3]) -> Vec<f32> {
        let mut out = vec![0.0; t * k];
        for ty in 0..t {
            for i in 0..k {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += w[ty * k * n + i * n + j] * v[ty * n + j];
                }
                out[ty * k + i] = acc;
            }
        }
        out
    }

    /// The scalar chain-rule loops of the MatVec prep: `dW += dout ⊗ v`,
    /// then `dv += dout · W`, each `dv` entry summed from `+0.0`.
    fn matvec_chain_loop(
        (w, v, dout): (&[f32], &[f32], &[f32]),
        gw: &mut [f32],
        gv: &mut [f32],
        [t, k, n]: [usize; 3],
    ) {
        for ty in 0..t {
            let dslab = &dout[ty * k..][..k];
            for i in 0..k {
                for j in 0..n {
                    gw[ty * k * n + i * n + j] += dslab[i] * v[ty * n + j];
                }
            }
            for j in 0..n {
                let mut acc = 0.0;
                for i in 0..k {
                    acc += dslab[i] * w[ty * k * n + i * n + j];
                }
                gv[ty * n + j] += acc;
            }
        }
    }

    /// Equal bits, or NaN on both sides (a NaN's payload is not part of
    /// the tiles' contract).
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    #[test]
    fn matvec_preps_match_the_scalar_loops_bit_for_bit() {
        use rand::Rng;
        for (k, n) in [(1, 1), (5, 5), (33, 33), (64, 64), (5, 33), (64, 1)] {
            let mut m = ModelBuilder::new("t");
            let h = m.node_input("h", k);
            let w = m.weight_per_etype("W", k, n);
            let v = m.weight_vec_per_etype("v", n);
            let ht = m.typed_linear("ht", m.dst(h), w);
            let att = m.dot("att", m.edge(ht), m.wvec(v));
            let s = m.aggregate("s", m.edge(att), None, hector_ir::AggNorm::None);
            m.output(s);
            let mut p = m.finish().program;
            hector_compiler::reorder::linear_operator_reordering(&mut p);
            assert!(matches!(p.preps[..], [WeightPrep::MatVec { .. }]));
            let fused = hector_ir::WeightId((p.weights.len() - 1) as u32);
            let g = toy_graph();
            let mut rng = seeded_rng(7 + k as u64 * 100 + n as u64);
            let mut ps = ParamStore::init(&p, &g, &mut rng);
            let dims = ps.dims(w);
            for x in [w, v, fused]
                .into_iter()
                .flat_map(|id| [(id, true), (id, false)])
            {
                let data = match x {
                    (id, true) => ps.weight_mut(id).data_mut(),
                    (id, false) => ps.grad_mut(id).data_mut(),
                };
                data.iter_mut().for_each(|d| *d = rng.gen_range(-2.0..2.0));
            }
            // One inf in W, meeting a zero in v (forward) and in dout
            // (chain rule): 0 × inf must come out NaN, as in the loops.
            let (row, col) = (k / 2, n / 2);
            ps.weight_mut(w).data_mut()[row * n + col] = f32::INFINITY;
            ps.weight_mut(v).data_mut()[col] = 0.0;
            ps.grad_mut(fused).data_mut()[row] = 0.0;
            let (wd, vd) = (ps.weight(w).data().to_vec(), ps.weight(v).data().to_vec());
            let dout = ps.grad(fused).data().to_vec();
            let (mut gw, mut gv) = (ps.grad(w).data().to_vec(), ps.grad(v).data().to_vec());

            ps.run_preps(&p, &g);
            let want = matvec_loop(&wd, &vd, dims);
            assert!(want[row].is_nan(), "0 × inf in the forward dot");
            assert!(
                same_bits(ps.weight(fused).data(), &want),
                "forward at {k}x{n}"
            );

            // The forward prep overwrote the derived weight; the chain
            // rule reads only the base weights and the derived gradient.
            ps.backprop_preps(&p, &g);
            matvec_chain_loop((&wd, &vd, &dout), &mut gw, &mut gv, dims);
            assert!(gv[col].is_nan(), "0 × inf in the chain rule");
            assert!(same_bits(ps.grad(w).data(), &gw), "dW at {k}x{n}");
            assert!(same_bits(ps.grad(v).data(), &gv), "dv at {k}x{n}");
            assert!(ps.grad(fused).data().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn zero_grads_clears() {
        let mut m = ModelBuilder::new("t");
        let h = m.node_input("h", 2);
        let w = m.weight_per_etype("W", 2, 2);
        let y = m.typed_linear("y", m.src(h), w);
        let out = m.aggregate("out", m.edge(y), None, hector_ir::AggNorm::None);
        m.output(out);
        let p = m.finish().program;
        let g = toy_graph();
        let mut rng = seeded_rng(4);
        let mut ps = ParamStore::init(&p, &g, &mut rng);
        ps.grad_mut(w).data_mut()[0] = 5.0;
        ps.zero_grads();
        assert!(ps.grad(w).data().iter().all(|&x| x == 0.0));
    }
}
