//! The model-author-facing DSL: Hector's programming interface.
//!
//! The paper's front end is a `@hector.compile` decorator over DGL/PyG
//! Python code plus the inter-operator IR constructs of Table 2
//! (`g.edges()`, `e.src.feature`, `W[e.etype]`, `n.incoming_edges()`, …).
//! In Rust those become methods on [`ModelBuilder`]; each call corresponds
//! to one statement of model source, which is how the paper's "51 lines of
//! code for three models" programming-effort metric is reproduced
//! ([`ModelSource::lines`]).
//!
//! # Example: RGAT attention (paper Listing 1)
//!
//! ```
//! use hector_ir::{AggNorm, ModelBuilder};
//!
//! let mut m = ModelBuilder::new("rgat_attention");
//! let h = m.node_input("h", 64);
//! let w = m.weight_per_etype("W", 64, 64);
//! let w_s = m.weight_vec_per_etype("w_s", 64);
//! let w_t = m.weight_vec_per_etype("w_t", 64);
//! let hs = m.typed_linear("hs", m.src(h), w);
//! let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
//! let ht = m.typed_linear("ht", m.dst(h), w);
//! let attt = m.dot("attt", m.edge(ht), m.wvec(w_t));
//! let raw = m.add("att_raw", m.edge(atts), m.edge(attt));
//! let act = m.leaky_relu("att_act", m.edge(raw));
//! let att = m.edge_softmax("att", act);
//! let out = m.aggregate("h_out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
//! m.output(out);
//! let source = m.finish();
//! assert!(source.lines <= 20, "RGAT in a handful of lines");
//! source.program.validate();
//! ```

use crate::interop::{
    AggNorm, BinOp, Endpoint, OpKind, Operand, Program, Space, TypeIndex, UnOp, VarId, WeightId,
};

/// A finished model definition: the inter-operator program plus the
/// source-line count of the DSL statements that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelSource {
    /// The inter-operator-level program.
    pub program: Program,
    /// Number of DSL statements (the paper's lines-of-code metric).
    pub lines: usize,
}

/// Builder for inter-operator programs.
///
/// Every semantic method (declaring weights, applying operators) counts
/// one source line; pure reference helpers ([`ModelBuilder::src`],
/// [`ModelBuilder::edge`], …) are free, as they correspond to
/// sub-expressions rather than statements.
#[derive(Debug)]
pub struct ModelBuilder {
    program: Program,
    lines: usize,
}

impl ModelBuilder {
    /// Starts a model named `name`.
    #[must_use]
    pub fn new(name: &str) -> ModelBuilder {
        ModelBuilder {
            program: Program::new(name),
            lines: 0,
        }
    }

    // ---- inputs and weights ------------------------------------------

    /// Declares a nodewise input feature tensor (`n.feature`).
    pub fn node_input(&mut self, name: &str, width: usize) -> VarId {
        self.lines += 1;
        let v = self.program.add_var(name, Space::Node, width);
        self.program.inputs.push(v);
        v
    }

    /// Declares an edgewise input tensor bound by the runtime (e.g. the
    /// per-edge normalisation constants `1/c_{v,r}` of RGCN).
    pub fn edge_input(&mut self, name: &str, width: usize) -> VarId {
        self.lines += 1;
        let v = self.program.add_var(name, Space::Edge, width);
        self.program.inputs.push(v);
        v
    }

    /// Declares a per-edge-type weight matrix (`W[e.etype]`).
    pub fn weight_per_etype(&mut self, name: &str, rows: usize, cols: usize) -> WeightId {
        self.lines += 1;
        self.program
            .add_weight(name, TypeIndex::EdgeType, rows, cols)
    }

    /// Declares a per-node-type weight matrix (`W[n.ntype]`).
    pub fn weight_per_ntype(&mut self, name: &str, rows: usize, cols: usize) -> WeightId {
        self.lines += 1;
        self.program
            .add_weight(name, TypeIndex::NodeType, rows, cols)
    }

    /// Declares a shared (untyped) weight matrix (RGCN's `W_0`).
    pub fn weight_shared(&mut self, name: &str, rows: usize, cols: usize) -> WeightId {
        self.lines += 1;
        self.program.add_weight(name, TypeIndex::Shared, rows, cols)
    }

    /// Declares a per-edge-type attention vector (`w_s[e.etype]`).
    pub fn weight_vec_per_etype(&mut self, name: &str, len: usize) -> WeightId {
        self.lines += 1;
        self.program.add_weight(name, TypeIndex::EdgeType, len, 1)
    }

    // ---- operand helpers (free) --------------------------------------

    /// Reads a node variable at the edge source (`e.src.x`).
    #[must_use]
    pub fn src(&self, v: VarId) -> Operand {
        Operand::Node(v, Endpoint::Src)
    }

    /// Reads a node variable at the edge destination (`e.dst.x`).
    #[must_use]
    pub fn dst(&self, v: VarId) -> Operand {
        Operand::Node(v, Endpoint::Dst)
    }

    /// Reads a node variable at the node itself (`n.x`, nodewise loops).
    #[must_use]
    pub fn this(&self, v: VarId) -> Operand {
        Operand::Node(v, Endpoint::This)
    }

    /// Reads an edge (or compact) variable (`e["x"]`).
    #[must_use]
    pub fn edge(&self, v: VarId) -> Operand {
        Operand::Edge(v)
    }

    /// References a per-type weight vector (`w_s[e.etype]`).
    #[must_use]
    pub fn wvec(&self, w: WeightId) -> Operand {
        Operand::WeightVec(w)
    }

    /// A constant scalar.
    #[must_use]
    pub fn konst(&self, c: f32) -> Operand {
        Operand::Const(c)
    }

    // ---- operators ----------------------------------------------------

    /// Space of the result of an op consuming `operands`.
    fn result_space(&self, operands: &[&Operand]) -> Space {
        let mut edgewise = false;
        for o in operands {
            match o {
                Operand::Node(_, Endpoint::Src | Endpoint::Dst) => edgewise = true,
                Operand::Edge(v) if self.program.var(*v).space != Space::Node => edgewise = true,
                _ => {}
            }
        }
        if edgewise {
            Space::Edge
        } else {
            Space::Node
        }
    }

    /// Typed linear transformation: `out = input × W[type]`
    /// (`self.typed_linear(W, feat, types)` in the paper's Fig. 5 input).
    pub fn typed_linear(&mut self, name: &str, input: Operand, weight: WeightId) -> VarId {
        self.lines += 1;
        let space = self.result_space(&[&input]);
        let cols = self.program.weight(weight).cols;
        let out = self.program.add_var(name, space, cols);
        self.program.push_op(OpKind::TypedLinear {
            input,
            weight,
            transpose_w: false,
            scatter: None,
            fused_scale: None,
            out,
        });
        out
    }

    /// Row-wise dot product producing a scalar (`dot_prd` in Listing 1).
    pub fn dot(&mut self, name: &str, a: Operand, b: Operand) -> VarId {
        self.lines += 1;
        let space = self.result_space(&[&a, &b]);
        let out = self.program.add_var(name, space, 1);
        self.program.push_op(OpKind::DotProduct { a, b, out });
        out
    }

    fn binary(&mut self, name: &str, op: BinOp, a: Operand, b: Operand) -> VarId {
        self.lines += 1;
        let space = self.result_space(&[&a, &b]);
        let width = self
            .program
            .operand_width(&a)
            .max(self.program.operand_width(&b));
        let out = self.program.add_var(name, space, width);
        self.program.push_op(OpKind::Binary { op, a, b, out });
        out
    }

    /// Elementwise addition.
    pub fn add(&mut self, name: &str, a: Operand, b: Operand) -> VarId {
        self.binary(name, BinOp::Add, a, b)
    }

    /// Elementwise multiplication (broadcasting scalars).
    pub fn mul(&mut self, name: &str, a: Operand, b: Operand) -> VarId {
        self.binary(name, BinOp::Mul, a, b)
    }

    /// Elementwise division (broadcasting scalars).
    pub fn div(&mut self, name: &str, a: Operand, b: Operand) -> VarId {
        self.binary(name, BinOp::Div, a, b)
    }

    fn unary(&mut self, name: &str, op: UnOp, a: Operand) -> VarId {
        self.lines += 1;
        let space = self.result_space(&[&a]);
        let width = self.program.operand_width(&a);
        let out = self.program.add_var(name, space, width);
        self.program.push_op(OpKind::Unary { op, a, out });
        out
    }

    /// Leaky ReLU (negative slope 0.01).
    pub fn leaky_relu(&mut self, name: &str, a: Operand) -> VarId {
        self.unary(name, UnOp::LeakyRelu, a)
    }

    /// ReLU.
    pub fn relu(&mut self, name: &str, a: Operand) -> VarId {
        self.unary(name, UnOp::Relu, a)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, name: &str, a: Operand) -> VarId {
        self.unary(name, UnOp::Exp, a)
    }

    /// Aggregates an edgewise value into destination nodes over their
    /// incoming edges, optionally scaled per edge.
    pub fn aggregate(
        &mut self,
        name: &str,
        edge_val: Operand,
        scale: Option<Operand>,
        norm: AggNorm,
    ) -> VarId {
        self.lines += 1;
        let width = self.program.operand_width(&edge_val);
        let out = self.program.add_var(name, Space::Node, width);
        self.program.push_op(OpKind::NodeAggregate {
            edge_val,
            scale,
            norm,
            endpoint: Endpoint::Dst,
            out,
        });
        out
    }

    /// Edge softmax over incoming edges of each destination node
    /// (the `edge_softmax(g)` function of Listing 1, lines 1-9).
    ///
    /// Expands to the listing's loops plus the standard numerical
    /// stabilisation every production edge softmax applies (e.g. DGL's):
    /// a per-destination max, a shift of the scores by that max, `exp` on
    /// every edge, a nodewise sum, and an edgewise division by the
    /// destination's sum. Without the shift, attention scores beyond
    /// ~88 overflow `exp` in f32 and training produces NaN. The max is
    /// detached in backward propagation (softmax is shift-invariant), so
    /// gradients are unchanged.
    pub fn edge_softmax(&mut self, name: &str, att: VarId) -> VarId {
        let max = self.aggregate(
            &format!("{name}_max"),
            Operand::Edge(att),
            None,
            AggNorm::Max,
        );
        let shifted = self.binary(
            &format!("{name}_shift"),
            BinOp::Sub,
            Operand::Edge(att),
            Operand::Node(max, Endpoint::Dst),
        );
        let e = self.exp(&format!("{name}_exp"), Operand::Edge(shifted));
        let sum = self.aggregate(
            &format!("{name}_sum"),
            Operand::Edge(e),
            None,
            AggNorm::None,
        );
        // The stabilisation ops belong to the same listing function, so
        // they do not change the paper's source-line metric.
        self.lines -= 2;
        self.div(name, Operand::Edge(e), Operand::Node(sum, Endpoint::Dst))
    }

    /// Marks a variable as a program output.
    pub fn output(&mut self, v: VarId) {
        self.lines += 1;
        self.program.outputs.push(v);
    }

    /// Finishes the model, validating the program.
    ///
    /// # Panics
    ///
    /// Panics if the program violates IR invariants.
    #[must_use]
    pub fn finish(self) -> ModelSource {
        self.program.validate();
        ModelSource {
            program: self.program,
            lines: self.lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgcn_like_fragment_builds() {
        let mut m = ModelBuilder::new("rgcn");
        let h = m.node_input("h", 16);
        let w = m.weight_per_etype("W", 16, 16);
        let w0 = m.weight_shared("W0", 16, 16);
        let msg = m.typed_linear("msg", m.src(h), w);
        let agg = m.aggregate("agg", m.edge(msg), None, AggNorm::MeanByRelation);
        let selfl = m.typed_linear("self", m.this(h), w0);
        let sum = m.add("sum", m.this(agg), m.this(selfl));
        let out = m.relu("out", m.this(sum));
        m.output(out);
        let src = m.finish();
        assert_eq!(src.program.ops.len(), 5);
        assert!(
            src.lines <= 10,
            "RGCN should be under 10 lines, got {}",
            src.lines
        );
        // msg is edgewise; self-loop is nodewise.
        assert_eq!(src.program.var(msg).space, Space::Edge);
        assert_eq!(src.program.var(selfl).space, Space::Node);
    }

    #[test]
    fn edge_softmax_expands_to_stabilised_form() {
        let mut m = ModelBuilder::new("sm");
        let h = m.node_input("h", 4);
        let w_s = m.weight_vec_per_etype("w_s", 4);
        let att = m.dot("att", m.src(h), m.wvec(w_s));
        let lines_before = m.lines;
        let norm = m.edge_softmax("att_sm", att);
        // Stabilisation ops stay invisible to the paper's LoC metric: the
        // whole softmax counts as the listing's three statements.
        assert_eq!(m.lines - lines_before, 3);
        // Feed the normalised attention into an aggregate so the program
        // has a node-space output.
        let out = m.aggregate("out", m.edge(norm), None, AggNorm::None);
        m.output(out);
        let src = m.finish();
        // dot + max + shift + exp + sum + div + aggregate = 7 ops.
        assert_eq!(src.program.ops.len(), 7);
        assert!(src.program.ops.iter().any(|o| matches!(
            o.kind,
            OpKind::NodeAggregate {
                norm: AggNorm::Max,
                ..
            }
        )));
    }

    #[test]
    fn nodewise_results_stay_nodewise() {
        let mut m = ModelBuilder::new("n");
        let h = m.node_input("h", 8);
        let w = m.weight_per_ntype("Wk", 8, 8);
        let k = m.typed_linear("k", m.this(h), w);
        assert_eq!(m.program.var(k).space, Space::Node);
    }

    #[test]
    fn dot_with_dst_operand_is_edgewise() {
        let mut m = ModelBuilder::new("d");
        let h = m.node_input("h", 8);
        let q = m.node_input("q", 8);
        let att = m.dot("att", m.src(h), m.dst(q));
        assert_eq!(m.program.var(att).space, Space::Edge);
        assert_eq!(m.program.var(att).width, 1);
    }

    #[test]
    fn line_counting_ignores_reference_helpers() {
        let mut m = ModelBuilder::new("lines");
        let h = m.node_input("h", 4); // 1
        let w = m.weight_per_etype("W", 4, 4); // 2
        let msg = m.typed_linear("m", m.src(h), w); // 3 (src() is free)
        let out = m.aggregate("o", m.edge(msg), None, AggNorm::None); // 4
        m.output(out); // 5
        assert_eq!(m.lines, 5);
    }
}
