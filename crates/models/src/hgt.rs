//! Heterogeneous graph transformer (HGT), single head.
//!
//! Paper Fig. 2: keys/queries are per-node-type projections, the
//! attention bilinear form and the message use per-edge-type weights:
//!
//! * `k_n = h_n · W_K[τ(n)]`, `q_n = h_n · W_Q[τ(n)]` (nodewise),
//! * `att_e = (k_src · W_A[τ(e)]) · q_dst / √d` + edge softmax,
//! * `msg_e = h_src · W_M[τ(e)]` (depends only on source + edge type —
//!   the compact-materialization opportunity the paper highlights),
//! * `h'_v = (Σ_e att_e · msg_e) · W_O[τ(v)]` (nodewise output
//!   projection).

use hector_ir::builder::ModelSource;
use hector_ir::{AggNorm, ModelBuilder, VarId, WeightId};

/// Weight ids in declaration order.
pub mod weights {
    use super::WeightId;
    /// Per-node-type key projection `W_K`.
    pub const W_K: WeightId = WeightId(0);
    /// Per-node-type query projection `W_Q`.
    pub const W_Q: WeightId = WeightId(1);
    /// Per-edge-type message projection `W_M`.
    pub const W_M: WeightId = WeightId(2);
    /// Per-edge-type attention bilinear form `W_A`.
    pub const W_A: WeightId = WeightId(3);
    /// Per-node-type output projection `W_O`.
    pub const W_O: WeightId = WeightId(4);
}

/// Builds one single-headed HGT layer.
#[must_use]
pub fn source(in_dim: usize, out_dim: usize) -> ModelSource {
    let mut m = ModelBuilder::new("hgt");
    let h = m.node_input("h", in_dim);
    let out = layer(&mut m, h, in_dim, out_dim, "");
    m.output(out);
    m.finish()
}

/// One HGT layer on `h`: its weights, then its ops, named `<op>{tag}`.
pub(crate) fn layer(m: &mut ModelBuilder, h: VarId, d_in: usize, d: usize, tag: &str) -> VarId {
    let name = |op: &str| format!("{op}{tag}");
    let scale = 1.0 / (d as f32).sqrt();
    let wk = m.weight_per_ntype(&name("Wk"), d_in, d);
    let wq = m.weight_per_ntype(&name("Wq"), d_in, d);
    let wm = m.weight_per_etype(&name("Wm"), d_in, d);
    let wa = m.weight_per_etype(&name("Wa"), d, d);
    let wo = m.weight_per_ntype(&name("Wo"), d, d);
    let k = m.typed_linear(&name("k"), m.this(h), wk);
    let q = m.typed_linear(&name("q"), m.this(h), wq);
    let kw = m.typed_linear(&name("kw"), m.src(k), wa);
    let att_raw = m.dot(&name("att_raw"), m.edge(kw), m.dst(q));
    let att_sc = m.mul(&name("att_sc"), m.edge(att_raw), m.konst(scale));
    let att = m.edge_softmax(&name("att"), att_sc);
    let msg = m.typed_linear(&name("msg"), m.src(h), wm);
    let agg = m.aggregate(&name("agg"), m.edge(msg), Some(m.edge(att)), AggNorm::None);
    m.typed_linear(&name("h_out"), m.this(agg), wo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_reasonable_lines() {
        let s = source(64, 64);
        assert!(s.lines <= 20, "HGT took {} lines", s.lines);
        s.program.validate();
    }

    #[test]
    fn weight_ids_are_stable() {
        let s = source(8, 8);
        assert_eq!(s.program.weight(weights::W_K).name, "Wk");
        assert_eq!(s.program.weight(weights::W_A).name, "Wa");
        assert_eq!(s.program.weight(weights::W_O).name, "Wo");
        assert_eq!(
            s.program.weight(weights::W_K).per,
            hector_ir::TypeIndex::NodeType
        );
        assert_eq!(
            s.program.weight(weights::W_A).per,
            hector_ir::TypeIndex::EdgeType
        );
    }
}
