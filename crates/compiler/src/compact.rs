//! Compact materialization pass (paper §3.2.2).
//!
//! An edgewise operator whose operands depend only on the edge's *source
//! node* and *edge type* produces identical rows for every edge sharing a
//! `(src, etype)` pair. This pass re-homes such outputs from
//! [`Space::Edge`] to [`Space::Compact`]; the lowering then switches the
//! GEMM/traversal access schemes from `row_idx`/`etype_ptr` to
//! `unique_row_idx`/`unique_etype_ptr` (Fig. 7), eliminating both the
//! repeated computation and the larger materialisation.

use hector_ir::{Endpoint, OpKind, Operand, Program, Space};

/// Whether an operand is a function of `(source node, edge type)` only.
fn operand_compactible(p: &Program, o: &Operand) -> bool {
    match o {
        // Source-node reads are keyed by the pair's source.
        Operand::Node(_, Endpoint::Src) => true,
        // Destination/nodewise reads vary per edge beyond the pair.
        Operand::Node(_, _) => false,
        // Edge reads are fine only if already compacted.
        Operand::Edge(v) => p.var(*v).space == Space::Compact,
        // Per-edge-type weights and constants are pair-invariant.
        Operand::WeightVec(_) | Operand::Const(_) => true,
    }
}

/// Applies compact materialization in place; returns the variables moved
/// to the compact space.
///
/// Program outputs are never re-homed (their layout is part of the
/// module's contract with the caller).
pub fn compact_materialization(p: &mut Program) -> Vec<hector_ir::VarId> {
    let mut moved = Vec::new();
    for i in 0..p.ops.len() {
        let kind = p.ops[i].kind.clone();
        let Some(out) = kind.out_var() else { continue };
        if p.var(out).space != Space::Edge || p.outputs.contains(&out) {
            continue;
        }
        let eligible = match &kind {
            OpKind::TypedLinear { scatter: None, .. }
            | OpKind::DotProduct { .. }
            | OpKind::Binary { .. }
            | OpKind::Unary { .. } => kind.operands().all(|o| operand_compactible(p, o)),
            _ => false,
        };
        if eligible {
            p.var_mut(out).space = Space::Compact;
            moved.push(out);
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_ir::{AggNorm, ModelBuilder};

    /// RGAT-like fragment: hs and atts are compactible; ht/attt are not.
    fn rgat_like() -> Program {
        let mut m = ModelBuilder::new("rgat");
        let h = m.node_input("h", 8);
        let w = m.weight_per_etype("W", 8, 8);
        let w_s = m.weight_vec_per_etype("w_s", 8);
        let w_t = m.weight_vec_per_etype("w_t", 8);
        let hs = m.typed_linear("hs", m.src(h), w);
        let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
        let ht = m.typed_linear("ht", m.dst(h), w);
        let attt = m.dot("attt", m.edge(ht), m.wvec(w_t));
        let raw = m.add("raw", m.edge(atts), m.edge(attt));
        let act = m.leaky_relu("act", m.edge(raw));
        let att = m.edge_softmax("att", act);
        let out = m.aggregate("out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
        m.output(out);
        m.finish().program
    }

    #[test]
    fn compacts_source_only_chain() {
        let mut p = rgat_like();
        let moved = compact_materialization(&mut p);
        p.validate();
        let names: Vec<&str> = moved.iter().map(|&v| p.var(v).name.as_str()).collect();
        assert!(names.contains(&"hs"), "hs depends only on (src, etype)");
        assert!(names.contains(&"atts"), "atts inherits hs's compactness");
        assert!(!names.contains(&"ht"), "ht reads the destination");
        assert!(!names.contains(&"attt"));
        assert!(
            !names.contains(&"raw"),
            "raw mixes compact and edge operands"
        );
    }

    #[test]
    fn outputs_are_never_compacted() {
        let mut m = ModelBuilder::new("edge_out");
        let h = m.node_input("h", 4);
        let w = m.weight_per_etype("W", 4, 4);
        let msg = m.typed_linear("msg", m.src(h), w);
        m.output(msg);
        let mut p = m.finish().program;
        let moved = compact_materialization(&mut p);
        assert!(moved.is_empty());
        assert_eq!(p.var(msg).space, Space::Edge);
    }

    #[test]
    fn pass_is_idempotent() {
        let mut p = rgat_like();
        let first = compact_materialization(&mut p).len();
        let second = compact_materialization(&mut p).len();
        assert!(first > 0);
        assert_eq!(second, 0);
    }

    #[test]
    fn dst_dependent_ops_stay_edgewise() {
        let mut m = ModelBuilder::new("dst");
        let h = m.node_input("h", 4);
        let q = m.node_input("q", 4);
        let att = m.dot("att", m.src(h), m.dst(q));
        let s = m.aggregate("s", m.edge(att), None, AggNorm::None);
        m.output(s);
        let mut p = m.finish().program;
        compact_materialization(&mut p);
        assert_eq!(p.var(att).space, Space::Edge);
    }
}
