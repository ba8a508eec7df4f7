//! Multi-layer model stacks.
//!
//! The paper evaluates single layers (§4.1); a deployable library also
//! needs stacked models. A stack is the model's one layer body looped,
//! the same body its single-layer `source` calls once, so each model is
//! written once. It is one inter-operator program (layer `l+1` reads
//! layer `l`'s node output directly), so the whole network flows through
//! the same passes, lowering and backward generation.

use hector_ir::builder::ModelSource;
use hector_ir::ModelBuilder;

use crate::{hgt, rgat, rgcn, ModelKind};

/// Builds a `layers`-deep stack of any built-in model,
/// `in_dim → hidden → … → out_dim`: layer `l`'s names end in `_{l}`, a
/// ReLU `h{l+1}` follows each layer but the last, and the last emits raw
/// logits. `layers == 1` returns [`crate::source`] (so RGCN keeps its
/// ReLU): depth is just another dimension, which `EngineBuilder::layers`
/// feeds on.
///
/// # Panics
///
/// Panics if `layers == 0`.
#[must_use]
pub fn stack(
    kind: ModelKind,
    layers: usize,
    in_dim: usize,
    hidden: usize,
    out_dim: usize,
) -> ModelSource {
    assert!(layers > 0, "need at least one layer");
    if layers == 1 {
        return crate::source(kind, in_dim, out_dim);
    }
    let mut m = ModelBuilder::new(&format!("{}_stack", kind.name().to_lowercase()));
    let mut h = m.node_input("h", in_dim);
    let cnorm = (kind == ModelKind::Rgcn).then(|| m.edge_input("cnorm", 1));
    for l in 0..layers {
        let d_in = if l == 0 { in_dim } else { hidden };
        let d_out = if l + 1 == layers { out_dim } else { hidden };
        let tag = format!("_{l}");
        h = match kind {
            ModelKind::Rgcn => {
                rgcn::layer(&mut m, h, cnorm.expect("declared above"), d_in, d_out, &tag)
            }
            ModelKind::Rgat => rgat::layer(&mut m, h, d_in, d_out, &tag),
            ModelKind::Hgt => hgt::layer(&mut m, h, d_in, d_out, &tag),
        };
        if l + 1 < layers {
            h = m.relu(&format!("h{}", l + 1), m.this(h));
        }
    }
    m.output(h);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_ir::{Program, Space, VarId, WeightId};

    #[test]
    fn rgcn_stack_builds_and_validates() {
        for layers in 1..=3 {
            let s = stack(ModelKind::Rgcn, layers, 16, 32, 8);
            s.program.validate();
            assert_eq!(s.program.weights.len(), 2 * layers);
        }
    }

    #[test]
    fn rgat_stack_builds_and_validates() {
        let s = stack(ModelKind::Rgat, 2, 16, 16, 4);
        s.program.validate();
        assert_eq!(s.program.weights.len(), 6);
        // The final output is nodewise logits.
        let out = s.program.outputs[0];
        assert_eq!(s.program.var(out).space, Space::Node);
        assert_eq!(s.program.var(out).width, 4);
    }

    #[test]
    fn hgt_stack_builds_and_validates() {
        for layers in 1..=3 {
            let s = stack(ModelKind::Hgt, layers, 8, 12, 4);
            s.program.validate();
            if layers > 1 {
                assert_eq!(s.program.weights.len(), 5 * layers);
            }
            let out = s.program.outputs[0];
            assert_eq!(s.program.var(out).space, Space::Node);
            assert_eq!(s.program.var(out).width, 4);
        }
    }

    #[test]
    fn stack_dispatcher_covers_all_kinds() {
        for kind in ModelKind::all() {
            let deep = stack(kind, 2, 8, 8, 8);
            deep.program.validate();
            // One layer falls back to the plain single-layer source.
            let single = stack(kind, 1, 8, 16, 8);
            let plain = crate::source(kind, 8, 8);
            assert_eq!(single.program, plain.program, "{kind:?}");
        }
    }

    #[test]
    fn receptive_depth_is_the_layer_count() {
        for kind in ModelKind::all() {
            assert_eq!(crate::source(kind, 8, 8).program.receptive_depth(), 1);
            for layers in 1..=3 {
                let s = stack(kind, layers, 8, 12, 4);
                assert_eq!(s.program.receptive_depth(), layers, "{kind:?}");
            }
        }
    }

    #[test]
    fn dimensions_thread_through_layers() {
        let s = stack(ModelKind::Rgcn, 3, 10, 20, 5);
        let p = &s.program;
        assert_eq!(p.weight(WeightId(0)).rows, 10);
        assert_eq!(p.weight(WeightId(0)).cols, 20);
        assert_eq!(p.weight(WeightId(4)).rows, 20);
        assert_eq!(p.weight(WeightId(4)).cols, 5);
    }

    /// `text` (an op's or a weight's Debug text) with every `VarId(n)`
    /// replaced by that variable's space and width and every
    /// `WeightId(n)` by that weight's type index and shape: everything
    /// about an op but its names and ids.
    fn anonymous(p: &Program, text: &str) -> String {
        let mut out = String::new();
        let mut rest = text;
        while let Some(at) = rest.find("Id(") {
            let close = at + rest[at..].find(')').unwrap();
            let id: u32 = rest[at + 3..close].parse().unwrap();
            let head = &rest[..at];
            if let Some(head) = head.strip_suffix("Var") {
                let v = p.var(VarId(id));
                out += &format!("{head}{:?}x{}", v.space, v.width);
            } else {
                let head = head.strip_suffix("Weight").unwrap();
                let w = p.weight(WeightId(id));
                out += &format!("{head}{:?}[{}x{}]", w.per, w.rows, w.cols);
            }
            rest = &rest[close + 1..];
        }
        out + rest
    }

    /// The program's ops and weight declarations, anonymous.
    fn layout(p: &Program) -> (Vec<String>, Vec<String>) {
        let ops = p
            .ops
            .iter()
            .map(|op| anonymous(p, &format!("{:?}", op.kind)));
        let weights =
            (0..p.weights.len() as u32).map(|w| anonymous(p, &format!("{:?}", WeightId(w))));
        (ops.collect(), weights.collect())
    }

    /// A stack is its model's single layer written out `layers` times,
    /// a ReLU between two layers: same op kinds, operand spaces and
    /// endpoints, widths, weight type indices and shapes, in the same
    /// order. RGCN's single layer ends in a ReLU the stack's layers drop.
    #[test]
    fn a_stack_is_the_single_layer_repeated() {
        let (in_dim, hidden, out_dim) = (8, 12, 4);
        // The separator: the ReLU that ends a hidden-wide RGCN layer.
        let (rgcn, _) = layout(&crate::source(ModelKind::Rgcn, hidden, hidden).program);
        let relu = rgcn.last().unwrap().clone();
        assert!(relu.starts_with("Unary { op: Relu"), "{relu}");
        for kind in ModelKind::all() {
            for layers in [2, 3] {
                let (mut ops, mut weights) = (Vec::new(), Vec::new());
                for l in 0..layers {
                    let d_in = if l == 0 { in_dim } else { hidden };
                    let d_out = if l + 1 == layers { out_dim } else { hidden };
                    let (mut layer_ops, layer_weights) =
                        layout(&crate::source(kind, d_in, d_out).program);
                    if kind == ModelKind::Rgcn {
                        assert!(layer_ops.pop().unwrap().starts_with("Unary { op: Relu"));
                    }
                    if l > 0 {
                        ops.push(relu.clone());
                    }
                    ops.extend(layer_ops);
                    weights.extend(layer_weights);
                }
                let got = layout(&stack(kind, layers, in_dim, hidden, out_dim).program);
                assert_eq!(got, (ops, weights), "{kind:?} x{layers}");
            }
        }
    }
}
