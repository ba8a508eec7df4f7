//! Relational graph attention network (RGAT), single head.
//!
//! Paper Fig. 2 / Listing 1: per-edge projections `hs = h_src·W_r`,
//! `ht = h_dst·W_r`, attention logits `leaky_relu(hs·w_s,r + ht·w_t,r)`,
//! edge softmax per destination node, and attention-weighted aggregation
//! of `hs` as the message.

use hector_ir::builder::ModelSource;
use hector_ir::{AggNorm, ModelBuilder, VarId, WeightId};

/// Weight ids in declaration order.
pub mod weights {
    use super::WeightId;
    /// Per-relation projection `W_r`.
    pub const W: WeightId = WeightId(0);
    /// Per-relation source attention vector `w_s,r`.
    pub const W_S: WeightId = WeightId(1);
    /// Per-relation target attention vector `w_t,r`.
    pub const W_T: WeightId = WeightId(2);
}

/// Builds one single-headed RGAT layer.
#[must_use]
pub fn source(in_dim: usize, out_dim: usize) -> ModelSource {
    let mut m = ModelBuilder::new("rgat");
    let h = m.node_input("h", in_dim);
    let out = layer(&mut m, h, in_dim, out_dim, "");
    m.output(out);
    m.finish()
}

/// One RGAT layer on `h`: its weights, then its ops, named `<op>{tag}`.
pub(crate) fn layer(m: &mut ModelBuilder, h: VarId, d_in: usize, d_out: usize, tag: &str) -> VarId {
    let name = |op: &str| format!("{op}{tag}");
    let w = m.weight_per_etype(&name("W"), d_in, d_out);
    let w_s = m.weight_vec_per_etype(&name("w_s"), d_out);
    let w_t = m.weight_vec_per_etype(&name("w_t"), d_out);
    let hs = m.typed_linear(&name("hs"), m.src(h), w);
    let atts = m.dot(&name("atts"), m.edge(hs), m.wvec(w_s));
    let ht = m.typed_linear(&name("ht"), m.dst(h), w);
    let attt = m.dot(&name("attt"), m.edge(ht), m.wvec(w_t));
    let raw = m.add(&name("att_raw"), m.edge(atts), m.edge(attt));
    let act = m.leaky_relu(&name("att_act"), m.edge(raw));
    let att = m.edge_softmax(&name("att"), act);
    m.aggregate(&name("h_out"), m.edge(hs), Some(m.edge(att)), AggNorm::None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_reasonable_lines() {
        let s = source(64, 64);
        assert!(s.lines <= 16, "RGAT took {} lines", s.lines);
        s.program.validate();
    }

    #[test]
    fn weight_ids_are_stable() {
        let s = source(8, 8);
        assert_eq!(s.program.weight(weights::W).name, "W");
        assert_eq!(s.program.weight(weights::W_S).name, "w_s");
        assert_eq!(s.program.weight(weights::W_T).name, "w_t");
        assert_eq!(s.program.weight(weights::W_S).cols, 1);
    }
}
