//! Inter-operator level IR: model semantics decoupled from data layout.
//!
//! A [`Program`] is a single-assignment list of typed operators over
//! variables attached to the graph. Each variable has a [`Space`] (where
//! its rows live) and a width (scalar or hidden-dim vector). Operators
//! correspond to the constructs of the paper's Table 2: typed linear
//! transformations (GEMM-eligible), dot products, elementwise math,
//! and node aggregation over incoming edges.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Negative slope of [`UnOp::LeakyRelu`], matching DGL/PyTorch's default.
pub const LEAKY_RELU_SLOPE: f32 = 0.01;

/// Where a variable's rows live. This is the property compact
/// materialization rewrites: a legal edgewise tensor may be re-homed from
/// [`Space::Edge`] to [`Space::Compact`] (paper §3.2.2, Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// One row per node.
    Node,
    /// One row per edge.
    Edge,
    /// One row per unique `(source node, edge type)` pair.
    Compact,
}

/// Which endpoint of an edge a node-space operand is read at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The edge's source node (`e.src`).
    Src,
    /// The edge's destination node (`e.dst`).
    Dst,
    /// The node itself, in a nodewise loop (`n`).
    This,
}

/// Identifier of a [`VarInfo`] within a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Identifier of a [`WeightInfo`] within a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WeightId(pub u32);

/// Identifier of an [`Op`] within a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// A graph-attached variable: name, space, and width.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct VarInfo {
    /// Human-readable name (`"msg"`, `"att"`, …).
    pub name: String,
    /// Row space.
    pub space: Space,
    /// Vector width; `1` denotes a scalar (e.g. attention values).
    pub width: usize,
}

/// How a weight is indexed by type (the "type dimension" RGNNs add).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TypeIndex {
    /// One slab per edge type (`W[e.etype]`).
    EdgeType,
    /// One slab per node type (`W[n.ntype]`).
    NodeType,
    /// One slab per `(node type, edge type)` pair — produced by linear
    /// operator reordering when two typed linears are fused.
    NodeEdgePair,
    /// A single shared matrix (e.g. RGCN's self-loop weight `W_0`).
    Shared,
}

/// A learnable parameter: a stack of matrices (or vectors) indexed by
/// [`TypeIndex`].
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct WeightInfo {
    /// Parameter name.
    pub name: String,
    /// Type dimension.
    pub per: TypeIndex,
    /// Input dimension (rows of each slab).
    pub rows: usize,
    /// Output dimension (columns of each slab); `1` for attention vectors.
    pub cols: usize,
    /// Whether the weight was created by a compiler pass (e.g. fused
    /// reorder products) rather than by the model author; derived weights
    /// are recomputed from their [`WeightPrep`] at parameter-update time.
    pub derived: bool,
}

/// One-time weight-space precomputations inserted by linear operator
/// reordering (paper §3.2.3). Executed via the framework-fallback path
/// ("PyTorch BMM" in the paper) before the main kernel sequence.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum WeightPrep {
    /// `out[t] = w[t] × v[t]` where `v` is a per-type vector:
    /// collapses `dot(x·W[t], v[t])` into `dot(x, out[t])`.
    MatVec {
        /// Matrix stack, `[T, k, n]`.
        w: WeightId,
        /// Vector stack, `[T, n]`.
        v: WeightId,
        /// Result vector stack, `[T, k]`.
        out: WeightId,
    },
    /// `out[(nt, et)] = a[nt] × b[et]`: collapses two chained typed
    /// linears into one with a pair-indexed weight.
    MatMulPairs {
        /// Per-node-type stack, `[NT, k, m]`.
        a: WeightId,
        /// Per-edge-type stack, `[ET, m, n]`.
        b: WeightId,
        /// Result pair stack, `[NT*ET, k, n]`.
        out: WeightId,
    },
}

/// A value read by an operator.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// A node-space variable read at an edge endpoint (or at the node
    /// itself inside nodewise operators).
    Node(VarId, Endpoint),
    /// An edge-space or compact-space variable.
    Edge(VarId),
    /// A per-type weight *vector* (`w_s[e.etype]`), used by dot products.
    WeightVec(WeightId),
    /// A compile-time constant scalar.
    Const(f32),
}

/// Hashes `Const` by its bit pattern (`f32` has no `Hash`), so two
/// programs differing in one constant fingerprint differently.
impl Hash for Operand {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Operand::Node(v, e) => (v, e).hash(h),
            Operand::Edge(v) => v.hash(h),
            Operand::WeightVec(w) => w.hash(h),
            Operand::Const(c) => c.to_bits().hash(h),
        }
    }
}

impl Operand {
    /// The variable this operand reads, if any.
    #[must_use]
    pub fn var(&self) -> Option<VarId> {
        match self {
            Operand::Node(v, _) | Operand::Edge(v) => Some(*v),
            _ => None,
        }
    }
}

/// Elementwise binary operations (scalar-vector broadcast allowed when one
/// side is width 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Elementwise unary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Leaky ReLU with slope 0.01 (RGAT's attention activation).
    LeakyRelu,
    /// Rectified linear unit.
    Relu,
    /// Natural exponential (edge softmax numerator).
    Exp,
    /// Identity copy (used when re-homing tensors between spaces).
    Copy,
    /// Negation (backward of division).
    Neg,
    /// Derivative of [`UnOp::LeakyRelu`] evaluated at the forward input
    /// (`1` if `x >= 0`, else the slope). Emitted by backward generation.
    LeakyReluGrad,
    /// Derivative of [`UnOp::Relu`] evaluated at the forward input.
    ReluGrad,
}

/// Reduction/normalisation mode of a node aggregation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggNorm {
    /// Plain sum.
    None,
    /// Divide each contribution by the in-degree of `(dst, relation)` —
    /// RGCN's `1/c_{v,r}`.
    MeanByRelation,
    /// Elementwise maximum instead of a sum. Used by the numerically
    /// stabilised edge softmax: the per-destination maximum is subtracted
    /// from attention scores before `exp`. The reduction is treated as a
    /// detached constant in backward propagation — softmax is invariant
    /// under a per-group shift, so the gradient stays exact. Groups with
    /// no edges read back as `0`. Scaling is not supported.
    Max,
}

/// Operator kinds of the inter-operator IR.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum OpKind {
    /// Typed linear transformation — the GEMM-eligible workhorse
    /// (`e["msg"] = e.src.feature * W[e.etype]`).
    ///
    /// Space rules:
    /// * `input` node + `out` edge/compact → edgewise typed linear;
    /// * `input` node(@This) + `out` node → nodewise typed linear;
    /// * `input` edge/compact + `out` node + `scatter` set → backward
    ///   scatter-accumulating GEMM (`dH[src] += dMsg × W^T`).
    TypedLinear {
        /// Input rows.
        input: Operand,
        /// Weight stack.
        weight: WeightId,
        /// Apply the weight transposed (backward data gradients).
        transpose_w: bool,
        /// Scatter-accumulate rows into `out` at this endpoint (requires
        /// `out` in node space and atomic stores).
        scatter: Option<Endpoint>,
        /// Multiply each output row by this edge-space scalar before
        /// storing (the GEMM template's fused per-row scale, §3.4.1).
        fused_scale: Option<Operand>,
        /// Output variable.
        out: VarId,
    },
    /// Per-type weight-gradient accumulation: `dW[t] += x[t-rows]^T × dy`.
    /// Lowered to the GEMM template with outer-product shape; the paper
    /// notes these bound backward throughput (§4.4).
    TypedLinearGradW {
        /// Forward input rows.
        x: Operand,
        /// Upstream gradient rows.
        dy: Operand,
        /// Gradient accumulator (same shape as the forward weight).
        out_w: WeightId,
    },
    /// Row-wise dot product producing a scalar per row
    /// (`atts = dot(hs, w_s[e.etype])`).
    DotProduct {
        /// Left rows.
        a: Operand,
        /// Right rows (may be a per-type weight vector).
        b: Operand,
        /// Scalar output.
        out: VarId,
    },
    /// Elementwise binary operation.
    Binary {
        /// Operation.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Output.
        out: VarId,
    },
    /// Elementwise unary operation.
    Unary {
        /// Operation.
        op: UnOp,
        /// Input operand.
        a: Operand,
        /// Output.
        out: VarId,
    },
    /// Reduction of an edgewise value over groups of edges: into
    /// destination (or source) nodes (`n["h"] += e["msg"]` over
    /// `n.incoming_edges()`), or — in backward propagation under compact
    /// materialization — into unique `(src, etype)` rows. Optionally
    /// scaled by a per-edge scalar (attention).
    NodeAggregate {
        /// Edge rows to aggregate (edge or compact space).
        edge_val: Operand,
        /// Optional per-edge scalar multiplier.
        scale: Option<Operand>,
        /// Normalisation mode.
        norm: AggNorm,
        /// Grouping endpoint when `out` is node-space: [`Endpoint::Dst`]
        /// for forward aggregation, [`Endpoint::Src`] for backward
        /// scatter of source-node gradients. Ignored when `out` is
        /// compact-space (grouping is the edge→unique map).
        endpoint: Endpoint,
        /// Node- or compact-space output.
        out: VarId,
    },
}

impl OpKind {
    /// The variable this op defines, if it writes a variable (weight
    /// gradients write weights instead).
    #[must_use]
    pub fn out_var(&self) -> Option<VarId> {
        match self {
            OpKind::TypedLinear { out, .. }
            | OpKind::DotProduct { out, .. }
            | OpKind::Binary { out, .. }
            | OpKind::Unary { out, .. }
            | OpKind::NodeAggregate { out, .. } => Some(*out),
            OpKind::TypedLinearGradW { .. } => None,
        }
    }

    /// All operands the op reads, in reading order. Every op kind reads
    /// one or two operands, so this is a heap-free iterator — it runs in
    /// per-launch paths (the kernel cost model) that must not allocate.
    pub fn operands(&self) -> impl Iterator<Item = &Operand> {
        let (first, second): (&Operand, Option<&Operand>) = match self {
            OpKind::TypedLinear {
                input, fused_scale, ..
            } => (input, fused_scale.as_ref()),
            OpKind::TypedLinearGradW { x, dy, .. } => (x, Some(dy)),
            OpKind::DotProduct { a, b, .. } | OpKind::Binary { a, b, .. } => (a, Some(b)),
            OpKind::Unary { a, .. } => (a, None),
            OpKind::NodeAggregate {
                edge_val, scale, ..
            } => (edge_val, scale.as_ref()),
        };
        std::iter::once(first).chain(second)
    }
}

/// One operator instance.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Op {
    /// Identifier (dense, in program order).
    pub id: OpId,
    /// The operator.
    pub kind: OpKind,
}

/// A complete inter-operator-level program (one RGNN layer's forward or
/// backward pass).
#[derive(Clone, Debug, Default, PartialEq, Hash)]
pub struct Program {
    /// Program name (used in generated kernel names).
    pub name: String,
    /// Variable table.
    pub vars: Vec<VarInfo>,
    /// Weight table.
    pub weights: Vec<WeightInfo>,
    /// Weight-space precomputations (inserted by reordering).
    pub preps: Vec<WeightPrep>,
    /// Operators in program order (single assignment).
    pub ops: Vec<Op>,
    /// Input variables (bound by the caller, e.g. node features).
    pub inputs: Vec<VarId>,
    /// Output variables.
    pub outputs: Vec<VarId>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new(name: &str) -> Program {
        Program {
            name: name.to_string(),
            ..Program::default()
        }
    }

    /// Adds a variable and returns its id.
    pub fn add_var(&mut self, name: &str, space: Space, width: usize) -> VarId {
        self.vars.push(VarInfo {
            name: name.to_string(),
            space,
            width,
        });
        VarId((self.vars.len() - 1) as u32)
    }

    /// Adds a weight and returns its id.
    pub fn add_weight(&mut self, name: &str, per: TypeIndex, rows: usize, cols: usize) -> WeightId {
        self.weights.push(WeightInfo {
            name: name.to_string(),
            per,
            rows,
            cols,
            derived: false,
        });
        WeightId((self.weights.len() - 1) as u32)
    }

    /// Appends an operator and returns its id.
    pub fn push_op(&mut self, kind: OpKind) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Op { id, kind });
        id
    }

    /// Variable info lookup.
    #[must_use]
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// Mutable variable info lookup.
    pub fn var_mut(&mut self, id: VarId) -> &mut VarInfo {
        &mut self.vars[id.0 as usize]
    }

    /// Weight info lookup.
    #[must_use]
    pub fn weight(&self, id: WeightId) -> &WeightInfo {
        &self.weights[id.0 as usize]
    }

    /// The op that defines `v`, if any.
    #[must_use]
    pub fn def_of(&self, v: VarId) -> Option<&Op> {
        self.ops.iter().find(|op| op.kind.out_var() == Some(v))
    }

    /// How many edge hops back the outputs read: a node operand read at
    /// [`Endpoint::Src`] adds one hop to what it reads; reads at
    /// [`Endpoint::Dst`] / [`Endpoint::This`], edge operands and
    /// aggregation into destinations add none. One layer of a built-in
    /// model has depth 1, and an `n`-layer stack depth `n` — the halo a
    /// destination shard needs for exact owned rows.
    #[must_use]
    pub fn receptive_depth(&self) -> usize {
        let mut depth = vec![0usize; self.vars.len()];
        for op in &self.ops {
            let Some(out) = op.kind.out_var() else {
                continue;
            };
            let read = op
                .kind
                .operands()
                .map(|o| match o {
                    Operand::Node(v, Endpoint::Src) => depth[v.0 as usize] + 1,
                    _ => o.var().map_or(0, |v| depth[v.0 as usize]),
                })
                .max()
                .unwrap_or(0);
            // `max`, so a scatter-accumulated variable keeps its deepest write.
            depth[out.0 as usize] = depth[out.0 as usize].max(read);
        }
        self.outputs
            .iter()
            .map(|v| depth[v.0 as usize])
            .max()
            .unwrap_or(0)
    }

    /// The width (scalar=1 / vector) of an operand.
    #[must_use]
    pub fn operand_width(&self, o: &Operand) -> usize {
        match o {
            Operand::Node(v, _) | Operand::Edge(v) => self.var(*v).width,
            Operand::WeightVec(w) => {
                // A weight vector participates with its row dimension.
                self.weight(*w).rows
            }
            Operand::Const(_) => 1,
        }
    }

    /// Validates single assignment, def-before-use, and space/width
    /// consistency rules.
    ///
    /// # Panics
    ///
    /// Panics describing the violated rule.
    pub fn validate(&self) {
        let mut defined: Vec<bool> = vec![false; self.vars.len()];
        for &v in &self.inputs {
            defined[v.0 as usize] = true;
        }
        for op in &self.ops {
            for operand in op.kind.operands() {
                if let Some(v) = operand.var() {
                    assert!(
                        defined[v.0 as usize],
                        "op {:?} reads undefined var '{}'",
                        op.id,
                        self.var(v).name
                    );
                    // Node operands must read node-space vars; edge
                    // operands edge/compact-space vars.
                    match operand {
                        Operand::Node(v, _) => assert_eq!(
                            self.var(*v).space,
                            Space::Node,
                            "Node operand must read a node-space var"
                        ),
                        Operand::Edge(v) => assert_ne!(
                            self.var(*v).space,
                            Space::Node,
                            "Edge operand must read an edge/compact-space var"
                        ),
                        _ => {}
                    }
                }
            }
            if let Some(out) = op.kind.out_var() {
                let accumulating = matches!(
                    &op.kind,
                    OpKind::TypedLinear {
                        scatter: Some(_),
                        ..
                    }
                );
                assert!(
                    !defined[out.0 as usize] || accumulating,
                    "var '{}' assigned twice",
                    self.var(out).name
                );
                defined[out.0 as usize] = true;
            }
            self.check_op(op);
        }
        for &v in &self.outputs {
            assert!(
                defined[v.0 as usize],
                "output '{}' never defined",
                self.var(v).name
            );
        }
    }

    fn check_op(&self, op: &Op) {
        match &op.kind {
            OpKind::TypedLinear {
                input,
                weight,
                transpose_w,
                scatter,
                out,
                ..
            } => {
                let w = self.weight(*weight);
                let in_w = self.operand_width(input);
                let (wk, wn) = if *transpose_w {
                    (w.cols, w.rows)
                } else {
                    (w.rows, w.cols)
                };
                assert_eq!(in_w, wk, "typed linear input width must match weight rows");
                assert_eq!(self.var(*out).width, wn, "typed linear out width mismatch");
                if scatter.is_some() {
                    assert_eq!(
                        self.var(*out).space,
                        Space::Node,
                        "scatter target must be node space"
                    );
                }
            }
            OpKind::TypedLinearGradW { x, dy, out_w } => {
                let w = self.weight(*out_w);
                assert_eq!(self.operand_width(x), w.rows, "gradW x width");
                assert_eq!(self.operand_width(dy), w.cols, "gradW dy width");
            }
            OpKind::DotProduct { a, b, out } => {
                assert_eq!(
                    self.operand_width(a),
                    self.operand_width(b),
                    "dot product width mismatch"
                );
                assert_eq!(self.var(*out).width, 1, "dot product output is a scalar");
            }
            OpKind::Binary { a, b, out, .. } => {
                let (wa, wb) = (self.operand_width(a), self.operand_width(b));
                let wo = self.var(*out).width;
                assert!(
                    wa == wb || wa == 1 || wb == 1,
                    "binary operands must match or broadcast"
                );
                assert_eq!(wo, wa.max(wb), "binary output width mismatch");
            }
            OpKind::Unary { a, out, .. } => {
                assert_eq!(self.operand_width(a), self.var(*out).width, "unary width");
            }
            OpKind::NodeAggregate {
                edge_val,
                scale,
                norm,
                out,
                endpoint,
                ..
            } => {
                if let Some(v) = edge_val.var() {
                    assert_ne!(
                        self.var(v).space,
                        Space::Node,
                        "aggregation input must be edgewise"
                    );
                }
                if let Some(s) = scale {
                    assert_eq!(self.operand_width(s), 1, "aggregation scale is a scalar");
                }
                if *norm == AggNorm::Max {
                    assert!(scale.is_none(), "max aggregation does not take a scale");
                }
                assert_ne!(
                    self.var(*out).space,
                    Space::Edge,
                    "aggregation output is grouped (node or compact space)"
                );
                if self.var(*out).space == Space::Node {
                    assert_ne!(
                        *endpoint,
                        Endpoint::This,
                        "node aggregation groups by an edge endpoint"
                    );
                }
                assert_eq!(
                    self.var(*out).width,
                    self.operand_width(edge_val),
                    "aggregation width mismatch"
                );
            }
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} {{", self.name)?;
        for op in &self.ops {
            writeln!(f, "  %{}: {:?}", op.id.0, op.kind)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the RGCN message+aggregate fragment by hand.
    fn rgcn_fragment() -> Program {
        let mut p = Program::new("rgcn_frag");
        let h = p.add_var("h", Space::Node, 8);
        let msg = p.add_var("msg", Space::Edge, 16);
        let agg = p.add_var("agg", Space::Node, 16);
        let w = p.add_weight("W", TypeIndex::EdgeType, 8, 16);
        p.inputs.push(h);
        p.push_op(OpKind::TypedLinear {
            input: Operand::Node(h, Endpoint::Src),
            weight: w,
            transpose_w: false,
            scatter: None,
            fused_scale: None,
            out: msg,
        });
        p.push_op(OpKind::NodeAggregate {
            edge_val: Operand::Edge(msg),
            scale: None,
            norm: AggNorm::MeanByRelation,
            endpoint: Endpoint::Dst,
            out: agg,
        });
        p.outputs.push(agg);
        p
    }

    #[test]
    fn valid_program_validates() {
        rgcn_fragment().validate();
    }

    #[test]
    fn receptive_depth_counts_source_reads() {
        let mut p = rgcn_fragment();
        assert_eq!(p.receptive_depth(), 1);
        // A nodewise op on the output stays at depth 1; a second
        // message from it, read at the source, reaches two hops back.
        let agg = VarId(2);
        let h1 = p.add_var("h1", Space::Node, 16);
        let msg1 = p.add_var("msg1", Space::Edge, 16);
        let agg1 = p.add_var("agg1", Space::Node, 16);
        p.push_op(OpKind::Unary {
            op: UnOp::Relu,
            a: Operand::Node(agg, Endpoint::This),
            out: h1,
        });
        p.outputs = vec![h1];
        assert_eq!(p.receptive_depth(), 1);
        p.push_op(OpKind::Binary {
            op: BinOp::Mul,
            a: Operand::Node(h1, Endpoint::Src),
            b: Operand::Node(h1, Endpoint::Dst),
            out: msg1,
        });
        p.push_op(OpKind::NodeAggregate {
            edge_val: Operand::Edge(msg1),
            scale: None,
            norm: AggNorm::None,
            endpoint: Endpoint::Dst,
            out: agg1,
        });
        p.outputs = vec![agg1];
        assert_eq!(p.receptive_depth(), 2);
        p.outputs = vec![h1, agg1];
        assert_eq!(p.receptive_depth(), 2);
    }

    #[test]
    fn def_use_chains() {
        let p = rgcn_fragment();
        let msg = VarId(1);
        assert_eq!(p.def_of(msg).unwrap().id, OpId(0));
    }

    #[test]
    #[should_panic(expected = "reads undefined")]
    fn use_before_def_panics() {
        let mut p = Program::new("bad");
        let x = p.add_var("x", Space::Edge, 4);
        let y = p.add_var("y", Space::Edge, 4);
        p.push_op(OpKind::Unary {
            op: UnOp::Exp,
            a: Operand::Edge(x),
            out: y,
        });
        p.validate();
    }

    #[test]
    #[should_panic(expected = "width must match weight rows")]
    fn width_mismatch_panics() {
        let mut p = Program::new("bad");
        let h = p.add_var("h", Space::Node, 8);
        let m = p.add_var("m", Space::Edge, 16);
        let w = p.add_weight("W", TypeIndex::EdgeType, 4, 16); // wrong rows
        p.inputs.push(h);
        p.push_op(OpKind::TypedLinear {
            input: Operand::Node(h, Endpoint::Src),
            weight: w,
            transpose_w: false,
            scatter: None,
            fused_scale: None,
            out: m,
        });
        p.validate();
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_assignment_panics() {
        let mut p = Program::new("bad");
        let x = p.add_var("x", Space::Edge, 1);
        let y = p.add_var("y", Space::Edge, 1);
        p.inputs.push(x);
        p.push_op(OpKind::Unary {
            op: UnOp::Exp,
            a: Operand::Edge(x),
            out: y,
        });
        p.push_op(OpKind::Unary {
            op: UnOp::Relu,
            a: Operand::Edge(x),
            out: y,
        });
        p.validate();
    }

    #[test]
    fn scalar_broadcast_in_binary() {
        let mut p = Program::new("bcast");
        let v = p.add_var("v", Space::Edge, 8);
        let s = p.add_var("s", Space::Edge, 1);
        let o = p.add_var("o", Space::Edge, 8);
        p.inputs.extend([v, s]);
        p.push_op(OpKind::Binary {
            op: BinOp::Mul,
            a: Operand::Edge(v),
            b: Operand::Edge(s),
            out: o,
        });
        p.outputs.push(o);
        p.validate();
    }

    #[test]
    fn display_mentions_ops() {
        let s = rgcn_fragment().to_string();
        assert!(s.contains("TypedLinear"));
        assert!(s.contains("NodeAggregate"));
    }
}
