//! Multi-layer model stacks.
//!
//! The paper evaluates single layers (§4.1); a deployable library also
//! needs stacked models. A stack is expressed as one inter-operator
//! program — layer `l+1` consumes layer `l`'s node output directly — so
//! the whole network flows through the same passes, lowering, and
//! backward generation, and inter-layer fusion opportunities remain
//! visible to the compiler.

use hector_ir::builder::ModelSource;
use hector_ir::{AggNorm, ModelBuilder, VarId};

use crate::ModelKind;

/// Builds a `layers`-deep stack of any built-in model,
/// `in_dim → hidden → … → out_dim`. `layers == 1` returns the plain
/// single-layer source (identical to [`crate::source`]), so callers can
/// treat depth as just another dimension — this is what
/// `EngineBuilder::layers` feeds on.
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
    match kind {
        ModelKind::Rgcn => rgcn_stack(layers, in_dim, hidden, out_dim),
        ModelKind::Rgat => rgat_stack(layers, in_dim, hidden, out_dim),
        ModelKind::Hgt => hgt_stack(layers, in_dim, hidden, out_dim),
    }
}

/// Builds an `layers`-deep RGCN, `in_dim → hidden → … → out_dim`.
///
/// # Panics
///
/// Panics if `layers == 0`.
#[must_use]
pub fn rgcn_stack(layers: usize, in_dim: usize, hidden: usize, out_dim: usize) -> ModelSource {
    assert!(layers > 0, "need at least one layer");
    let mut m = ModelBuilder::new("rgcn_stack", hidden);
    let h0 = m.node_input("h", in_dim);
    let cnorm = m.edge_input("cnorm", 1);
    let mut h: VarId = h0;
    let mut d_in = in_dim;
    for l in 0..layers {
        let d_out = if l + 1 == layers { out_dim } else { hidden };
        let w = m.weight_per_etype(&format!("W{l}"), d_in, d_out);
        let w0 = m.weight_shared(&format!("W0_{l}"), d_in, d_out);
        let msg = m.typed_linear(&format!("msg{l}"), m.src(h), w);
        let agg = m.aggregate(
            &format!("agg{l}"),
            m.edge(msg),
            Some(m.edge(cnorm)),
            AggNorm::None,
        );
        let selfl = m.typed_linear(&format!("self{l}"), m.this(h), w0);
        let sum = m.add(&format!("sum{l}"), m.this(agg), m.this(selfl));
        h = if l + 1 == layers {
            sum // final layer: logits, no activation
        } else {
            m.relu(&format!("h{}", l + 1), m.this(sum))
        };
        d_in = d_out;
    }
    m.output(h);
    m.finish()
}

/// Builds a `layers`-deep single-headed RGAT stack.
///
/// # Panics
///
/// Panics if `layers == 0`.
#[must_use]
pub fn rgat_stack(layers: usize, in_dim: usize, hidden: usize, out_dim: usize) -> ModelSource {
    assert!(layers > 0, "need at least one layer");
    let mut m = ModelBuilder::new("rgat_stack", hidden);
    let h0 = m.node_input("h", in_dim);
    let mut h: VarId = h0;
    let mut d_in = in_dim;
    for l in 0..layers {
        let d_out = if l + 1 == layers { out_dim } else { hidden };
        let w = m.weight_per_etype(&format!("W{l}"), d_in, d_out);
        let w_s = m.weight_vec_per_etype(&format!("w_s{l}"), d_out);
        let w_t = m.weight_vec_per_etype(&format!("w_t{l}"), d_out);
        let hs = m.typed_linear(&format!("hs{l}"), m.src(h), w);
        let atts = m.dot(&format!("atts{l}"), m.edge(hs), m.wvec(w_s));
        let ht = m.typed_linear(&format!("ht{l}"), m.dst(h), w);
        let attt = m.dot(&format!("attt{l}"), m.edge(ht), m.wvec(w_t));
        let raw = m.add(&format!("raw{l}"), m.edge(atts), m.edge(attt));
        let act = m.leaky_relu(&format!("act{l}"), m.edge(raw));
        let att = m.edge_softmax(&format!("att{l}"), act);
        let agg = m.aggregate(
            &format!("agg{l}"),
            m.edge(hs),
            Some(m.edge(att)),
            AggNorm::None,
        );
        h = if l + 1 == layers {
            agg
        } else {
            m.relu(&format!("h{}", l + 1), m.this(agg))
        };
        d_in = d_out;
    }
    m.output(h);
    m.finish()
}

/// Builds a `layers`-deep single-headed HGT stack (per-layer
/// key/query/message/attention/output projections, ReLU between layers,
/// raw logits on the last layer — consistent with the other stacks).
///
/// # Panics
///
/// Panics if `layers == 0`.
#[must_use]
pub fn hgt_stack(layers: usize, in_dim: usize, hidden: usize, out_dim: usize) -> ModelSource {
    assert!(layers > 0, "need at least one layer");
    let mut m = ModelBuilder::new("hgt_stack", hidden);
    let h0 = m.node_input("h", in_dim);
    let mut h: VarId = h0;
    let mut d_in = in_dim;
    for l in 0..layers {
        let d_out = if l + 1 == layers { out_dim } else { hidden };
        let d = d_out;
        let scale = 1.0 / (d as f32).sqrt();
        let wk = m.weight_per_ntype(&format!("Wk{l}"), d_in, d);
        let wq = m.weight_per_ntype(&format!("Wq{l}"), d_in, d);
        let wm = m.weight_per_etype(&format!("Wm{l}"), d_in, d);
        let wa = m.weight_per_etype(&format!("Wa{l}"), d, d);
        let wo = m.weight_per_ntype(&format!("Wo{l}"), d, d_out);
        let k = m.typed_linear(&format!("k{l}"), m.this(h), wk);
        let q = m.typed_linear(&format!("q{l}"), m.this(h), wq);
        let kw = m.typed_linear(&format!("kw{l}"), m.src(k), wa);
        let att_raw = m.dot(&format!("att_raw{l}"), m.edge(kw), m.dst(q));
        let att_sc = m.mul(&format!("att_sc{l}"), m.edge(att_raw), m.konst(scale));
        let att = m.edge_softmax(&format!("att{l}"), att_sc);
        let msg = m.typed_linear(&format!("msg{l}"), m.src(h), wm);
        let agg = m.aggregate(
            &format!("agg{l}"),
            m.edge(msg),
            Some(m.edge(att)),
            AggNorm::None,
        );
        let proj = m.typed_linear(&format!("ho{l}"), m.this(agg), wo);
        h = if l + 1 == layers {
            proj
        } else {
            m.relu(&format!("h{}", l + 1), m.this(proj))
        };
        d_in = d_out;
    }
    m.output(h);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_ir::Space;

    #[test]
    fn rgcn_stack_builds_and_validates() {
        for layers in 1..=3 {
            let s = rgcn_stack(layers, 16, 32, 8);
            s.program.validate();
            assert_eq!(s.program.weights.len(), 2 * layers);
        }
    }

    #[test]
    fn rgat_stack_builds_and_validates() {
        let s = rgat_stack(2, 16, 16, 4);
        s.program.validate();
        assert_eq!(s.program.weights.len(), 6);
        // The final output is nodewise logits.
        let out = s.program.outputs[0];
        assert_eq!(s.program.var(out).space, Space::Node);
        assert_eq!(s.program.var(out).width, 4);
    }

    #[test]
    fn single_layer_stack_matches_plain_shape() {
        let stack = rgcn_stack(1, 8, 999, 8);
        let plain = crate::rgcn::source(8, 8);
        // Same operator count modulo the final activation (the stack's
        // last layer emits raw logits).
        assert_eq!(stack.program.ops.len() + 1, plain.program.ops.len());
    }

    #[test]
    fn hgt_stack_builds_and_validates() {
        for layers in 1..=3 {
            let s = hgt_stack(layers, 8, 12, 4);
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
        let s = rgcn_stack(3, 10, 20, 5);
        let p = &s.program;
        assert_eq!(p.weight(hector_ir::WeightId(0)).rows, 10);
        assert_eq!(p.weight(hector_ir::WeightId(0)).cols, 20);
        assert_eq!(p.weight(hector_ir::WeightId(4)).rows, 20);
        assert_eq!(p.weight(hector_ir::WeightId(4)).cols, 5);
    }
}
