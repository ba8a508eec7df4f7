//! Dense reference implementations of the three models.
//!
//! These compute each layer with straightforward per-edge loops and plain
//! tensor math — no compiler, no kernels — and serve as the correctness
//! oracle for the compiled execution paths: integration tests assert that
//! Hector's generated kernels produce identical outputs under every
//! optimization combination.

use hector_graph::HeteroGraph;
use hector_ir::interop::LEAKY_RELU_SLOPE;
use hector_tensor::Tensor;

fn row_matmul(x: &[f32], w: &Tensor, ty: usize) -> Vec<f32> {
    let (k, n) = (w.shape()[1], w.shape()[2]);
    debug_assert_eq!(x.len(), k);
    let slab = w.slab(ty);
    let mut y = vec![0.0f32; n];
    for (p, &xv) in x.iter().enumerate() {
        for j in 0..n {
            y[j] += xv * slab[p * n + j];
        }
    }
    y
}

/// Source, destination and type of edge `e`.
fn endpoints(g: &HeteroGraph, e: usize) -> (usize, usize, usize) {
    let at = |col: &[u32]| col[e] as usize;
    (at(g.src()), at(g.dst()), at(g.etype()))
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Per-destination edge softmax of raw attention logits, max-stabilised
/// exactly like the compiled path (`ModelBuilder::edge_softmax`): the
/// per-destination maximum is subtracted before `exp`, so scores beyond
/// f32's exp range neither overflow nor underflow to `0/0`.
fn edge_softmax(g: &HeteroGraph, logits: &[f32]) -> Vec<f32> {
    let mut maxes = vec![f32::NEG_INFINITY; g.num_nodes()];
    for (e, &lv) in logits.iter().enumerate().take(g.num_edges()) {
        let d = g.dst()[e] as usize;
        maxes[d] = maxes[d].max(lv);
    }
    let mut sums = vec![0.0f32; g.num_nodes()];
    let exp: Vec<f32> = (0..g.num_edges())
        .map(|e| (logits[e] - maxes[g.dst()[e] as usize]).exp())
        .collect();
    for e in 0..g.num_edges() {
        sums[g.dst()[e] as usize] += exp[e];
    }
    (0..g.num_edges())
        .map(|e| exp[e] / sums[g.dst()[e] as usize])
        .collect()
}

/// RGCN layer: `relu(h·W0 + Σ_r Σ_{u∈N_r(v)} cnorm_e · h_u·W_r)`, the
/// ReLU of [`rgcn_layer`].
///
/// # Panics
///
/// Panics on shape mismatches.
#[must_use]
pub fn rgcn_forward(
    g: &HeteroGraph,
    h: &Tensor,
    cnorm: &Tensor,
    w: &Tensor,
    w0: &Tensor,
) -> Tensor {
    rgcn_layer(g, h, cnorm, w, w0).map(|x| x.max(0.0))
}

/// RGCN layer before its activation: `h·W0 + Σ_r Σ_{u∈N_r(v)} cnorm_e ·
/// h_u·W_r` (the logits a stack's last layer emits).
///
/// # Panics
///
/// Panics on shape mismatches.
#[must_use]
pub fn rgcn_layer(g: &HeteroGraph, h: &Tensor, cnorm: &Tensor, w: &Tensor, w0: &Tensor) -> Tensor {
    let out_dim = w.shape()[2];
    let mut out = Tensor::zeros(&[g.num_nodes(), out_dim]);
    for v in 0..g.num_nodes() {
        let selfl = row_matmul(h.row(v), w0, 0);
        out.row_mut(v).copy_from_slice(&selfl);
    }
    for e in 0..g.num_edges() {
        let (s, d, ty) = endpoints(g, e);
        let msg = row_matmul(h.row(s), w, ty);
        let c = cnorm.at2(e, 0);
        let drow = out.row_mut(d);
        for (acc, m) in drow.iter_mut().zip(msg.iter()) {
            *acc += c * m;
        }
    }
    out
}

/// RGAT layer (single head), matching [`crate::rgat::source`].
///
/// # Panics
///
/// Panics on shape mismatches.
#[must_use]
pub fn rgat_forward(g: &HeteroGraph, h: &Tensor, w: &Tensor, w_s: &Tensor, w_t: &Tensor) -> Tensor {
    let out_dim = w.shape()[2];
    let e_count = g.num_edges();
    let mut hs_rows = Vec::with_capacity(e_count);
    let mut logits = vec![0.0f32; e_count];
    for (e, logit) in logits.iter_mut().enumerate().take(e_count) {
        let (s, d, ty) = endpoints(g, e);
        let hs = row_matmul(h.row(s), w, ty);
        let ht = row_matmul(h.row(d), w, ty);
        let atts = dot(&hs, w_s.slab(ty));
        let attt = dot(&ht, w_t.slab(ty));
        let raw = atts + attt;
        *logit = if raw >= 0.0 {
            raw
        } else {
            LEAKY_RELU_SLOPE * raw
        };
        hs_rows.push(hs);
    }
    let att = edge_softmax(g, &logits);
    let mut out = Tensor::zeros(&[g.num_nodes(), out_dim]);
    for e in 0..e_count {
        let d = g.dst()[e] as usize;
        let drow = out.row_mut(d);
        for (acc, m) in drow.iter_mut().zip(hs_rows[e].iter()) {
            *acc += att[e] * m;
        }
    }
    out
}

/// HGT layer (single head), matching [`crate::hgt::source`].
///
/// # Panics
///
/// Panics on shape mismatches.
#[must_use]
#[allow(clippy::many_single_char_names)]
pub fn hgt_forward(
    g: &HeteroGraph,
    h: &Tensor,
    wk: &Tensor,
    wq: &Tensor,
    wm: &Tensor,
    wa: &Tensor,
    wo: &Tensor,
) -> Tensor {
    let d_model = wk.shape()[2];
    let out_dim = wo.shape()[2];
    let scale = 1.0 / (d_model as f32).sqrt();
    let n = g.num_nodes();
    // Nodewise keys and queries.
    let mut k_rows = Vec::with_capacity(n);
    let mut q_rows = Vec::with_capacity(n);
    for v in 0..n {
        let nt = g.node_type()[v] as usize;
        k_rows.push(row_matmul(h.row(v), wk, nt));
        q_rows.push(row_matmul(h.row(v), wq, nt));
    }
    // Edgewise attention logits and messages.
    let e_count = g.num_edges();
    let mut logits = vec![0.0f32; e_count];
    let mut msgs = Vec::with_capacity(e_count);
    for (e, logit) in logits.iter_mut().enumerate().take(e_count) {
        let (s, dd, ty) = endpoints(g, e);
        let kw = row_matmul(&k_rows[s], wa, ty);
        *logit = dot(&kw, &q_rows[dd]) * scale;
        msgs.push(row_matmul(h.row(s), wm, ty));
    }
    let att = edge_softmax(g, &logits);
    // Aggregate and project per destination node type.
    let mut agg = Tensor::zeros(&[n, d_model]);
    for e in 0..e_count {
        let dd = g.dst()[e] as usize;
        let row = agg.row_mut(dd);
        for (acc, m) in row.iter_mut().zip(msgs[e].iter()) {
            *acc += att[e] * m;
        }
    }
    let mut out = Tensor::zeros(&[n, out_dim]);
    for v in 0..n {
        let nt = g.node_type()[v] as usize;
        let y = row_matmul(agg.row(v), wo, nt);
        out.row_mut(v).copy_from_slice(&y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_graph::HeteroGraphBuilder;
    use hector_tensor::{seeded_rng, xavier_uniform};

    fn toy() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(3);
        b.add_node_type(2);
        b.add_edge(0, 3, 0);
        b.add_edge(1, 3, 0);
        b.add_edge(4, 0, 1);
        b.add_edge(2, 1, 1);
        b.build()
    }

    #[test]
    fn rgcn_isolated_node_keeps_self_loop_only() {
        let g = toy();
        let mut rng = seeded_rng(1);
        let h = xavier_uniform(&mut rng, &[5, 4]);
        let w = xavier_uniform(&mut rng, &[2, 4, 4]);
        let w0 = xavier_uniform(&mut rng, &[1, 4, 4]);
        let cnorm = Tensor::full(&[4, 1], 1.0);
        let out = rgcn_forward(&g, &h, &cnorm, &w, &w0);
        // Node 2 has no incoming edges: out = relu(h2 · W0).
        let expect: Vec<f32> = row_matmul(h.row(2), &w0, 0)
            .iter()
            .map(|&x| x.max(0.0))
            .collect();
        for (a, b) in out.row(2).iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rgat_attention_sums_to_one_per_destination() {
        let g = toy();
        let mut rng = seeded_rng(2);
        let h = xavier_uniform(&mut rng, &[5, 4]);
        let w = xavier_uniform(&mut rng, &[2, 4, 4]);
        let w_s = xavier_uniform(&mut rng, &[2, 4, 1]);
        let w_t = xavier_uniform(&mut rng, &[2, 4, 1]);
        let out = rgat_forward(&g, &h, &w, &w_s, &w_t);
        assert_eq!(out.shape(), &[5, 4]);
        // Node 3 receives two edges with softmaxed weights; the output is
        // a convex combination of hs rows, so its norm is bounded by the
        // max hs norm.
        assert!(out.row(3).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hgt_output_shape_and_finiteness() {
        let g = toy();
        let mut rng = seeded_rng(3);
        let h = xavier_uniform(&mut rng, &[5, 6]);
        let wk = xavier_uniform(&mut rng, &[2, 6, 4]);
        let wq = xavier_uniform(&mut rng, &[2, 6, 4]);
        let wm = xavier_uniform(&mut rng, &[2, 6, 4]);
        let wa = xavier_uniform(&mut rng, &[2, 4, 4]);
        let wo = xavier_uniform(&mut rng, &[2, 4, 3]);
        let out = hgt_forward(&g, &h, &wk, &wq, &wm, &wa, &wo);
        assert_eq!(out.shape(), &[5, 3]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }
}
