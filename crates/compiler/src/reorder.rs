//! Linear operator reordering pass (paper §3.2.3).
//!
//! When a linear operator feeds another linear operator, their order may
//! be switched. Hector applies the switch "whenever this produces an
//! operator between weights, because it reduces the complexity by
//! reducing one of its factors — the number of nodes/edges — to the size
//! of the hidden dimension". The weight-space products themselves run
//! once per step through the framework-fallback path (the paper uses
//! PyTorch BMM).
//!
//! Two patterns are recognised:
//!
//! 1. **Dot-after-linear** (RGAT's attention, Fig. 6):
//!    `dot(x·W[t], v[t]) → dot(x, (W[t]·v[t]))` — the edgewise GEMM that
//!    produced the projected vector disappears from the attention path
//!    entirely; a per-type mat-vec product is precomputed instead.
//! 2. **Linear-after-linear** (HGT's attention key path):
//!    `(h·W_K[nt])·W_A[et] → h·(W_K[nt]·W_A[et])` — two chained typed
//!    linears collapse into one whose weight is indexed by the
//!    `(node type, edge type)` pair.

use hector_ir::{
    Endpoint, OpKind, Operand, Program, TypeIndex, VarId, WeightId, WeightInfo, WeightPrep,
};

use crate::dce::eliminate_dead;

/// Outcome summary of the reorder pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReorderReport {
    /// Dot-after-linear rewrites applied (pattern 1).
    pub dot_rewrites: usize,
    /// Linear-after-linear rewrites applied (pattern 2).
    pub chain_rewrites: usize,
    /// Operators removed by the follow-up dead-code elimination.
    pub removed_ops: usize,
}

/// Looks up the defining `TypedLinear` of `v`, returning its pieces if it
/// is a plain (no transpose/scatter) typed linear.
fn plain_linear_def(p: &Program, v: VarId) -> Option<(Operand, WeightId)> {
    let op = p.def_of(v)?;
    match &op.kind {
        OpKind::TypedLinear {
            input,
            weight,
            transpose_w: false,
            scatter: None,
            fused_scale: None,
            ..
        } => Some((input.clone(), *weight)),
        _ => None,
    }
}

fn add_derived_weight(p: &mut Program, info: WeightInfo) -> WeightId {
    p.weights.push(info);
    WeightId((p.weights.len() - 1) as u32)
}

/// Applies linear operator reordering in place.
pub fn linear_operator_reordering(p: &mut Program) -> ReorderReport {
    let mut report = ReorderReport::default();

    // Pattern 1: dot(typed_linear(x, W), w_vec)  →  dot(x, W·w_vec).
    for i in 0..p.ops.len() {
        let OpKind::DotProduct { a, b, out } = p.ops[i].kind.clone() else {
            continue;
        };
        let (Operand::Edge(av), Operand::WeightVec(vw)) = (&a, &b) else {
            continue;
        };
        let Some((x, w)) = plain_linear_def(p, *av) else {
            continue;
        };
        // The rewrite must produce a weight-weight product: both the
        // matrix and the vector must share the edge-type index.
        let (wi, vi) = (p.weight(w).clone(), p.weight(*vw).clone());
        if wi.per != TypeIndex::EdgeType || vi.per != TypeIndex::EdgeType {
            continue;
        }
        let fused = add_derived_weight(
            p,
            WeightInfo {
                name: format!("{}_x_{}", wi.name, vi.name),
                per: TypeIndex::EdgeType,
                rows: wi.rows,
                cols: 1,
                derived: true,
            },
        );
        p.preps.push(WeightPrep::MatVec {
            w,
            v: *vw,
            out: fused,
        });
        p.ops[i].kind = OpKind::DotProduct {
            a: x,
            b: Operand::WeightVec(fused),
            out,
        };
        report.dot_rewrites += 1;
    }

    // Pattern 2: typed_linear(typed_linear(h, A)@Src, B) with A per node
    // type and B per edge type → typed_linear(h@Src, (A·B)[pair]).
    for i in 0..p.ops.len() {
        let OpKind::TypedLinear {
            input: Operand::Node(nv, ep @ (Endpoint::Src | Endpoint::Dst)),
            weight: wb,
            transpose_w: false,
            scatter: None,
            fused_scale: None,
            out,
        } = p.ops[i].kind.clone()
        else {
            continue;
        };
        let Some((inner_input, wa)) = plain_linear_def(p, nv) else {
            continue;
        };
        let Operand::Node(h, Endpoint::This) = inner_input else {
            continue;
        };
        let (ai, bi) = (p.weight(wa).clone(), p.weight(wb).clone());
        if ai.per != TypeIndex::NodeType || bi.per != TypeIndex::EdgeType {
            continue;
        }
        let fused = add_derived_weight(
            p,
            WeightInfo {
                name: format!("{}_x_{}", ai.name, bi.name),
                per: TypeIndex::NodeEdgePair,
                rows: ai.rows,
                cols: bi.cols,
                derived: true,
            },
        );
        p.preps.push(WeightPrep::MatMulPairs {
            a: wa,
            b: wb,
            out: fused,
        });
        p.ops[i].kind = OpKind::TypedLinear {
            input: Operand::Node(h, ep),
            weight: fused,
            transpose_w: false,
            scatter: None,
            fused_scale: None,
            out,
        };
        report.chain_rewrites += 1;
    }

    if report.dot_rewrites + report.chain_rewrites > 0 {
        report.removed_ops = eliminate_dead(p);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_ir::{AggNorm, ModelBuilder, Space};

    #[test]
    fn rgat_attention_dot_is_rewritten_and_gemm_removed() {
        let mut m = ModelBuilder::new("rgat");
        let h = m.node_input("h", 8);
        let w = m.weight_per_etype("W", 8, 8);
        let w_t = m.weight_vec_per_etype("w_t", 8);
        // ht is used only by the attention dot: after reorder it is dead.
        let ht = m.typed_linear("ht", m.dst(h), w);
        let attt = m.dot("attt", m.edge(ht), m.wvec(w_t));
        let s = m.aggregate("s", m.edge(attt), None, AggNorm::None);
        m.output(s);
        let mut p = m.finish().program;
        let ops_before = p.ops.len();
        let rep = linear_operator_reordering(&mut p);
        assert_eq!(rep.dot_rewrites, 1);
        assert_eq!(rep.removed_ops, 1, "ht's GEMM must be eliminated");
        assert_eq!(p.ops.len(), ops_before - 1);
        assert_eq!(p.preps.len(), 1);
        p.validate();
        // The rewritten dot consumes h at the destination directly.
        let OpKind::DotProduct { a, b, .. } = &p.ops[0].kind else {
            panic!("expected dot first");
        };
        assert_eq!(a, &Operand::Node(h, Endpoint::Dst));
        assert!(matches!(b, Operand::WeightVec(_)));
    }

    #[test]
    fn shared_message_keeps_gemm_alive() {
        // When hs also feeds the message aggregation, the GEMM survives
        // but the attention path still switches to the fused vector.
        let mut m = ModelBuilder::new("rgat2");
        let h = m.node_input("h", 8);
        let w = m.weight_per_etype("W", 8, 8);
        let w_s = m.weight_vec_per_etype("w_s", 8);
        let hs = m.typed_linear("hs", m.src(h), w);
        let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
        let out = m.aggregate("out", m.edge(hs), Some(m.edge(atts)), AggNorm::None);
        m.output(out);
        let mut p = m.finish().program;
        let rep = linear_operator_reordering(&mut p);
        assert_eq!(rep.dot_rewrites, 1);
        assert_eq!(rep.removed_ops, 0, "hs still feeds the message");
        p.validate();
    }

    #[test]
    fn hgt_chain_fuses_into_pair_weight() {
        let mut m = ModelBuilder::new("hgt");
        let h = m.node_input("h", 8);
        let wk = m.weight_per_ntype("Wk", 8, 8);
        let wa = m.weight_per_etype("Wa", 8, 8);
        let q = m.node_input("q", 8);
        let k = m.typed_linear("k", m.this(h), wk);
        let kw = m.typed_linear("kw", m.src(k), wa);
        let att = m.dot("att", m.edge(kw), m.dst(q));
        let s = m.aggregate("s", m.edge(att), None, AggNorm::None);
        m.output(s);
        let mut p = m.finish().program;
        let rep = linear_operator_reordering(&mut p);
        assert_eq!(rep.chain_rewrites, 1);
        assert_eq!(rep.removed_ops, 1, "the nodewise k GEMM is dead");
        p.validate();
        let OpKind::TypedLinear { input, weight, .. } = &p.ops[0].kind else {
            panic!("expected fused typed linear first");
        };
        assert_eq!(input, &Operand::Node(h, Endpoint::Src));
        assert_eq!(p.weight(*weight).per, TypeIndex::NodeEdgePair);
        assert!(p.weight(*weight).derived);
        assert!(matches!(p.preps[0], WeightPrep::MatMulPairs { .. }));
    }

    #[test]
    fn no_rewrite_without_weight_weight_product() {
        // dot of two data tensors: nothing to reorder.
        let mut m = ModelBuilder::new("plain");
        let h = m.node_input("h", 8);
        let q = m.node_input("q", 8);
        let att = m.dot("att", m.src(h), m.dst(q));
        let s = m.aggregate("s", m.edge(att), None, AggNorm::None);
        m.output(s);
        let mut p = m.finish().program;
        let rep = linear_operator_reordering(&mut p);
        assert_eq!(rep, ReorderReport::default());
    }

    #[test]
    fn reorder_then_compact_compacts_the_dot() {
        // After reordering, RGAT's source attention term depends only on
        // (src, etype) and becomes compactible.
        let mut m = ModelBuilder::new("rc");
        let h = m.node_input("h", 8);
        let w = m.weight_per_etype("W", 8, 8);
        let w_s = m.weight_vec_per_etype("w_s", 8);
        let hs = m.typed_linear("hs", m.src(h), w);
        let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
        let out = m.aggregate("out", m.edge(hs), Some(m.edge(atts)), AggNorm::None);
        m.output(out);
        let mut p = m.finish().program;
        linear_operator_reordering(&mut p);
        crate::compact::compact_materialization(&mut p);
        assert_eq!(p.var(atts).space, Space::Compact);
        p.validate();
    }
}
