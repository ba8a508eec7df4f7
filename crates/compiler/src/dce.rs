//! Dead-code elimination over inter-operator programs.
//!
//! Used by linear operator reordering (to drop producers orphaned by a
//! rewrite) and by backward generation ("removes unused gradients and
//! their computation", paper §3.5).

use std::collections::HashSet;

use hector_ir::{OpKind, Program, VarId};

/// Removes operators whose results cannot reach a root.
///
/// Roots are: the program's declared outputs, and every
/// [`OpKind::TypedLinearGradW`] op (weight gradients are side effects —
/// they update parameter state rather than defining a variable).
///
/// Returns the number of removed ops.
pub fn eliminate_dead(p: &mut Program) -> usize {
    let mut live_vars: HashSet<VarId> = p.outputs.iter().copied().collect();
    let mut live_ops: HashSet<u32> = HashSet::new();

    // Fixpoint: walk backwards marking ops whose outputs are live (or that
    // are side-effecting), then their operands.
    let mut changed = true;
    while changed {
        changed = false;
        for op in p.ops.iter().rev() {
            let is_root = matches!(op.kind, OpKind::TypedLinearGradW { .. });
            let defines_live = op.kind.out_var().is_some_and(|v| live_vars.contains(&v));
            if (is_root || defines_live) && live_ops.insert(op.id.0) {
                changed = true;
                for operand in op.kind.operands() {
                    if let Some(v) = operand.var() {
                        live_vars.insert(v);
                    }
                }
            }
        }
    }

    let before = p.ops.len();
    p.ops.retain(|op| live_ops.contains(&op.id.0));
    before - p.ops.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_ir::{AggNorm, ModelBuilder};

    #[test]
    fn removes_orphaned_chain() {
        let mut m = ModelBuilder::new("dead");
        let h = m.node_input("h", 4);
        let w = m.weight_per_etype("W", 4, 4);
        let msg = m.typed_linear("msg", m.src(h), w);
        let _unused = m.exp("unused", m.edge(msg)); // dead
        let out = m.aggregate("out", m.edge(msg), None, AggNorm::None);
        m.output(out);
        let mut p = m.finish().program;
        let removed = eliminate_dead(&mut p);
        assert_eq!(removed, 1);
        assert_eq!(p.ops.len(), 2);
        p.validate();
    }

    #[test]
    fn keeps_everything_reachable() {
        let mut m = ModelBuilder::new("live");
        let h = m.node_input("h", 4);
        let w = m.weight_per_etype("W", 4, 4);
        let msg = m.typed_linear("msg", m.src(h), w);
        let out = m.aggregate("out", m.edge(msg), None, AggNorm::None);
        m.output(out);
        let mut p = m.finish().program;
        assert_eq!(eliminate_dead(&mut p), 0);
    }

    #[test]
    fn grad_w_ops_are_roots() {
        use hector_ir::{Endpoint, Operand};
        let mut m = ModelBuilder::new("gw");
        let h = m.node_input("h", 4);
        let w = m.weight_per_etype("W", 4, 4);
        let msg = m.typed_linear("msg", m.src(h), w);
        let mut p = m.finish().program;
        // A gradW op with no out var must survive, keeping `msg` live.
        p.push_op(hector_ir::OpKind::TypedLinearGradW {
            x: Operand::Node(h, Endpoint::Src),
            dy: Operand::Edge(msg),
            out_w: w,
        });
        let removed = eliminate_dead(&mut p);
        assert_eq!(removed, 0);
        assert_eq!(p.ops.len(), 2);
    }
}
