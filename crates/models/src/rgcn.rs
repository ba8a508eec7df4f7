//! Relational graph convolutional network (RGCN).
//!
//! Paper Eq. 1:
//! `h_v' = σ( h_v·W_0 + Σ_r Σ_{u ∈ N_r(v)} (1/c_{v,r}) · h_u·W_r )`
//!
//! The normalisation constants `1/c_{v,r}` are bound as the edgewise
//! input `cnorm` (see `hector_runtime::cnorm_tensor`), keeping the
//! aggregation operator uniform and differentiable.

use hector_ir::builder::ModelSource;
use hector_ir::{AggNorm, ModelBuilder, VarId, WeightId};

/// Weight ids in declaration order.
pub mod weights {
    use super::WeightId;
    /// Per-relation weight `W_r`.
    pub const W: WeightId = WeightId(0);
    /// Virtual self-loop weight `W_0`.
    pub const W0: WeightId = WeightId(1);
}

/// Builds one RGCN layer.
#[must_use]
pub fn source(in_dim: usize, out_dim: usize) -> ModelSource {
    let mut m = ModelBuilder::new("rgcn");
    let h = m.node_input("h", in_dim);
    let cnorm = m.edge_input("cnorm", 1);
    let sum = layer(&mut m, h, cnorm, in_dim, out_dim, "");
    let out = m.relu("h_out", m.this(sum));
    m.output(out);
    m.finish()
}

/// One RGCN layer on `h`, before its ReLU: its weights, then its ops, named `<op>{tag}`.
pub(crate) fn layer(
    m: &mut ModelBuilder,
    h: VarId,
    cnorm: VarId,
    d_in: usize,
    d_out: usize,
    tag: &str,
) -> VarId {
    let name = |op: &str| format!("{op}{tag}");
    let w = m.weight_per_etype(&name("W"), d_in, d_out);
    let w0 = m.weight_shared(&name("W0"), d_in, d_out);
    let msg = m.typed_linear(&name("msg"), m.src(h), w);
    let scale = Some(m.edge(cnorm));
    let agg = m.aggregate(&name("agg"), m.edge(msg), scale, AggNorm::None);
    let selfl = m.typed_linear(&name("selfl"), m.this(h), w0);
    m.add(&name("sum"), m.this(agg), m.this(selfl))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_under_ten_lines() {
        let s = source(64, 64);
        assert!(s.lines <= 10, "RGCN took {} lines", s.lines);
        s.program.validate();
    }

    #[test]
    fn weight_ids_are_stable() {
        let s = source(8, 16);
        assert_eq!(s.program.weight(weights::W).name, "W");
        assert_eq!(s.program.weight(weights::W0).name, "W0");
        assert_eq!(s.program.weight(weights::W).rows, 8);
        assert_eq!(s.program.weight(weights::W).cols, 16);
    }
}
