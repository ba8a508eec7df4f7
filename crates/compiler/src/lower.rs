//! Lowering from the inter-operator IR to kernel specifications
//! (paper §3.2.5).
//!
//! Hector "greedily lowers every eligible operator to instances derived
//! from GEMM templates. Then, it fuses each remaining region and lowers
//! them to as few traversal instances as possible." Operator preference
//! levels (§3.4.2) order the passes: GEMM template first, traversal
//! template second. Every operator kind lowers to one of the two; the
//! framework fallback runs only the weight precomputations of linear
//! reordering.
//!
//! Fusion follows the feasibility rules of §3.4.2: traversal-eligible
//! operators fuse as long as they share a loop nest after the
//! graph-semantic-aware canonicalization of §3.2.4 (a for-each-edge loop
//! is equivalent to a dst-node loop over incoming edges, which is what
//! lets edgewise softmax stages and node aggregation share one kernel).
//! Operators iterating different row spaces (edges vs. unique compact
//! pairs vs. nodes) never share a kernel, except that nodewise finishing
//! operators may ride along in a dst-node kernel as hoisted statements.
//! Temporaries used only inside a fused kernel are marked local and never
//! materialised (§3.4.2).

use std::collections::HashSet;

use hector_ir::intraop::FallbackSpec;
use hector_ir::{
    AdjacencyAccess, Endpoint, Gather, GemmSchedule, GemmSpec, KernelSpec, Op, OpKind, Operand,
    Program, RowDomain, Scatter, Space, TraversalDomain, TraversalSpec, VarId,
};

/// Options controlling lowering.
#[derive(Clone, Debug)]
pub struct LowerOptions {
    /// Sparse adjacency encoding traversal kernels read (§3.3.2).
    pub adjacency: AdjacencyAccess,
    /// Schedule applied to GEMM-template instances.
    pub schedule: GemmSchedule,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            adjacency: AdjacencyAccess::Coo,
            schedule: GemmSchedule::default(),
        }
    }
}

/// Row space an operator iterates over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum IterSpace {
    Edges,
    Compact,
    Nodes,
}

/// Iteration space of a traversal-eligible op.
fn op_iter_space(p: &Program, kind: &OpKind) -> IterSpace {
    let space = match kind {
        OpKind::NodeAggregate {
            edge_val,
            out,
            endpoint,
            ..
        } => {
            let in_space = edge_val.var().map_or(Space::Edge, |v| p.var(v).space);
            // Aggregations iterate edges — every edge contributes its own
            // term even when the value is compact-materialised — except
            // the backward grouping of compact rows into their source
            // nodes, where each unique row contributes exactly once.
            if in_space == Space::Compact
                && p.var(*out).space == Space::Node
                && *endpoint == Endpoint::Src
            {
                Space::Compact
            } else {
                Space::Edge
            }
        }
        other => match other.out_var() {
            Some(v) => p.var(v).space,
            None => Space::Edge,
        },
    };
    match space {
        Space::Edge => IterSpace::Edges,
        Space::Compact => IterSpace::Compact,
        Space::Node => IterSpace::Nodes,
    }
}

/// Lowers a program to an ordered kernel sequence.
///
/// Whether a kernel is executable is decided here: the fusion rules
/// (`Lowerer::fusion_blocker`) never put an op in a kernel that reads
/// an aggregate still being accumulated in it, and single assignment
/// ([`Program::validate`]) never gives two ops of a kernel one output.
/// The runtime prepares every kernel this returns.
///
/// # Panics
///
/// Panics if the schedule is invalid, or on an operand no GEMM gather
/// scheme reads (cannot happen for programs produced by the
/// builder/backward generator).
#[must_use]
pub fn lower_program(p: &Program, opts: &LowerOptions) -> Vec<KernelSpec> {
    opts.schedule.validate();
    let mut lw = Lowerer {
        p,
        opts,
        kid: 0,
        kernels: Vec::new(),
        group: Group::default(),
    };
    // Weight-space precomputations run first through the fallback path
    // ("rewritten operator instances use PyTorch BMM", §3.2.3).
    for i in 0..p.preps.len() {
        let kid = lw.next_kid();
        lw.kernels.push(KernelSpec::Fallback(FallbackSpec {
            kid,
            name: format!("prep_bmm_{kid}"),
            prep_index: i,
        }));
    }
    for op in &p.ops {
        lw.place(op);
    }
    lw.flush();
    let mut kernels = lw.kernels;
    mark_local_vars(p, &mut kernels);
    kernels
}

#[derive(Default)]
struct Group {
    ops: Vec<Op>,
    space: Option<IterSpace>,
    defs: HashSet<VarId>,
    /// Node-space vars defined in-group (aggregate outputs and nodewise
    /// elementwise results), readable later in the same dst-node kernel.
    node_defs: HashSet<VarId>,
    /// Outputs of in-group aggregations that are NOT dst-grouped node
    /// outputs (compact targets, source-endpoint scatters): unreadable
    /// within the same kernel.
    unreadable_defs: HashSet<VarId>,
    has_dst_agg: bool,
    has_non_dst_agg: bool,
    /// An admitted op relies on the dst-node loop: an edge op reads an
    /// in-group per-destination value (and is staged one pass after its
    /// producer), or a nodewise op rides along hoisted.
    dst_bound: bool,
}

impl Group {
    /// Whether the group lowers to a dst-node loop. A group that only
    /// aggregates per destination does; one that also scatters elsewhere
    /// (compact rows, source endpoints) runs edge-order with atomics —
    /// unless an op already relies on the dst-node loop: in edge order
    /// its staged read would see the partial sum over the edges so far,
    /// so the loop stays and the scatter rides along as the kernel's
    /// one atomic store.
    fn dst_grouped(&self) -> bool {
        self.has_dst_agg && (!self.has_non_dst_agg || self.dst_bound)
    }
}

struct Lowerer<'a> {
    p: &'a Program,
    opts: &'a LowerOptions,
    kid: usize,
    kernels: Vec<KernelSpec>,
    group: Group,
}

impl<'a> Lowerer<'a> {
    fn next_kid(&mut self) -> usize {
        self.kid += 1;
        self.kid - 1
    }

    fn reads_group_def(&self, op: &Op) -> bool {
        op.kind
            .operands()
            .any(|o| o.var().is_some_and(|v| self.group.defs.contains(&v)))
    }

    /// Why `op` cannot legally join the open group — `None` means it
    /// fuses. The reason strings feed the trace's fusion-decision
    /// annotations (`fusion/break` instants).
    fn fusion_blocker(&self, op: &Op) -> Option<&'static str> {
        let g = &self.group;
        if g.ops.is_empty() {
            return None;
        }
        let sp = op_iter_space(self.p, &op.kind);
        let gspace = g.space.expect("non-empty group has a space");
        // Space compatibility: same space, or a nodewise finisher joining
        // an edge group that aggregates per destination node.
        let space_ok = sp == gspace
            || (sp == IterSpace::Nodes && gspace == IterSpace::Edges && g.dst_grouped());
        if !space_ok {
            return Some("iteration-space mismatch with the open group");
        }
        // Read legality for in-group definitions.
        for operand in op.kind.operands() {
            let Some(v) = operand.var() else { continue };
            if g.unreadable_defs.contains(&v) {
                return Some("reads an aggregate output that is unreadable in-kernel");
            }
            if g.node_defs.contains(&v) {
                // Node-space values become visible per destination node
                // inside a dst-node loop; only Dst/This reads resolve.
                let ok = g.dst_grouped()
                    && matches!(operand, Operand::Node(_, Endpoint::Dst | Endpoint::This));
                if !ok && gspace != IterSpace::Nodes {
                    return Some("reads an in-group node value outside a dst-node loop");
                }
            }
        }
        None
    }

    /// Human-readable op label for fusion annotations (the output
    /// variable's name when the op has one).
    fn op_label(&self, op: &Op) -> String {
        op.kind
            .out_var()
            .map_or_else(|| format!("op_{}", op.id.0), |v| self.p.var(v).name.clone())
    }

    fn place(&mut self, op: &Op) {
        match &op.kind {
            OpKind::TypedLinear { .. } | OpKind::TypedLinearGradW { .. } => {
                if self.reads_group_def(op) {
                    hector_trace::record_instant(
                        "fusion/break",
                        hector_trace::SpanCat::Compiler,
                        || {
                            format!(
                                "'{}': GEMM reads the open group's output; flushing traversal first",
                                self.op_label(op)
                            )
                        },
                    );
                    self.flush();
                }
                let spec = self.gemm_spec(op);
                self.kernels.push(KernelSpec::Gemm(spec));
            }
            OpKind::DotProduct { .. }
            | OpKind::Binary { .. }
            | OpKind::Unary { .. }
            | OpKind::NodeAggregate { .. } => {
                match self.fusion_blocker(op) {
                    Some(reason) => {
                        hector_trace::record_instant(
                            "fusion/break",
                            hector_trace::SpanCat::Compiler,
                            || format!("'{}': {reason}; starting a new kernel", self.op_label(op)),
                        );
                        self.flush();
                    }
                    None if !self.group.ops.is_empty() => {
                        hector_trace::record_instant(
                            "fusion/fuse",
                            hector_trace::SpanCat::Compiler,
                            || {
                                format!(
                                    "'{}': fused into the open group ({} ops so far)",
                                    self.op_label(op),
                                    self.group.ops.len()
                                )
                            },
                        );
                    }
                    None => {}
                }
                self.admit(op);
            }
        }
    }

    fn admit(&mut self, op: &Op) {
        let sp = op_iter_space(self.p, &op.kind);
        let g = &mut self.group;
        // The first op sets the primary space; nodewise riders keep it.
        let gspace = *g.space.get_or_insert(sp);
        if gspace == IterSpace::Edges {
            let reads_node_def = op
                .kind
                .operands()
                .any(|o| o.var().is_some_and(|v| g.node_defs.contains(&v)));
            // Either was only admitted because the group is dst-grouped.
            g.dst_bound |= sp == IterSpace::Nodes || reads_node_def;
        }
        if let OpKind::NodeAggregate { endpoint, out, .. } = &op.kind {
            let dst_node = self.p.var(*out).space == Space::Node
                && *endpoint == Endpoint::Dst
                && sp == IterSpace::Edges;
            if dst_node {
                g.has_dst_agg = true;
                g.node_defs.insert(*out);
            } else {
                g.has_non_dst_agg = true;
                g.unreadable_defs.insert(*out);
            }
        } else if let Some(out) = op.kind.out_var() {
            if self.p.var(out).space == Space::Node {
                g.node_defs.insert(out);
            }
        }
        if let Some(out) = op.kind.out_var() {
            g.defs.insert(out);
        }
        g.ops.push(op.clone());
    }

    fn flush(&mut self) {
        if self.group.ops.is_empty() {
            return;
        }
        let g = std::mem::take(&mut self.group);
        let domain = match g.space.expect("non-empty group") {
            IterSpace::Edges => {
                if g.dst_grouped() {
                    TraversalDomain::DstNodes
                } else {
                    TraversalDomain::Edges
                }
            }
            IterSpace::Compact => TraversalDomain::UniquePairs,
            IterSpace::Nodes => TraversalDomain::Nodes,
        };
        // Aggregates outside a dst-node loop, and scatters riding along
        // in one, need atomics (multiple simultaneous updaters,
        // Algorithm 1/2 note). A group with none of them is dst-grouped.
        let atomic = g.has_non_dst_agg;
        let hoisted = g
            .ops
            .iter()
            .filter(|o| {
                domain == TraversalDomain::DstNodes
                    && op_iter_space(self.p, &o.kind) == IterSpace::Nodes
            })
            .map(|o| o.id)
            .collect();
        let kid = self.next_kid();
        let stages = hector_ir::stage_assignments(&g.ops, self.p);
        self.kernels.push(KernelSpec::Traversal(TraversalSpec {
            kid,
            name: format!("traversal_{kid}"),
            domain,
            adjacency: self.opts.adjacency,
            ops: g.ops,
            hoisted,
            partial_agg: true,
            atomic,
            local_vars: Vec::new(),
            stages,
        }));
    }

    fn gemm_spec(&mut self, op: &Op) -> GemmSpec {
        let p = self.p;
        let (rows, gather, scatter, weight, transpose_w, fused_scale) = match &op.kind {
            OpKind::TypedLinear {
                input,
                weight,
                transpose_w,
                scatter,
                fused_scale,
                out,
            } => {
                let rows = if scatter.is_some() {
                    operand_rows(p, input)
                } else {
                    space_rows(p.var(*out).space)
                };
                let gather = operand_gather(p, input, rows);
                let sc = match scatter {
                    Some(ep) => Scatter::AtomicNode(*ep),
                    None => Scatter::None,
                };
                (
                    rows,
                    gather,
                    sc,
                    *weight,
                    *transpose_w,
                    fused_scale.is_some(),
                )
            }
            OpKind::TypedLinearGradW { x, dy, out_w } => {
                let rows = operand_rows(p, dy);
                let gather = operand_gather(p, x, rows);
                (rows, gather, Scatter::None, *out_w, false, false)
            }
            other => unreachable!("not GEMM-eligible: {other:?}"),
        };
        let w = p.weight(weight);
        let (k, n) = if transpose_w {
            (w.cols, w.rows)
        } else {
            (w.rows, w.cols)
        };
        let kid = self.next_kid();
        GemmSpec {
            kid,
            name: format!("gemm_{kid}"),
            op: op.clone(),
            rows,
            gather,
            scatter,
            weight_index: w.per,
            transpose_w,
            k,
            n,
            fused_scale,
            schedule: self.opts.schedule,
        }
    }
}

fn space_rows(space: Space) -> RowDomain {
    match space {
        Space::Edge => RowDomain::Edges,
        Space::Compact => RowDomain::UniquePairs,
        Space::Node => RowDomain::Nodes,
    }
}

/// Row domain implied by an operand when it drives the iteration.
fn operand_rows(p: &Program, o: &Operand) -> RowDomain {
    match o {
        Operand::Node(_, Endpoint::This) => RowDomain::Nodes,
        Operand::Node(_, _) => RowDomain::Edges,
        Operand::Edge(v) => space_rows(p.var(*v).space),
        _ => RowDomain::Edges,
    }
}

/// Gather scheme needed to read `o` when iterating `rows`.
fn operand_gather(p: &Program, o: &Operand, rows: RowDomain) -> Gather {
    match (o, rows) {
        (Operand::Node(_, Endpoint::Src), RowDomain::Edges) => Gather::SrcNode,
        (Operand::Node(_, Endpoint::Src), RowDomain::UniquePairs) => Gather::UniqueSrcNode,
        (Operand::Node(_, Endpoint::Dst), RowDomain::Edges) => Gather::DstNode,
        (Operand::Node(_, Endpoint::This), RowDomain::Nodes) => Gather::None,
        (Operand::Edge(v), RowDomain::Edges) if p.var(*v).space == Space::Compact => {
            Gather::EdgeToUnique
        }
        (Operand::Edge(_), _) => Gather::None,
        (o, r) => unreachable!("no gather scheme for {o:?} over {r:?}"),
    }
}

/// Marks variables used only inside their defining traversal kernel as
/// register-local (never materialised).
fn mark_local_vars(p: &Program, kernels: &mut [KernelSpec]) {
    for i in 0..kernels.len() {
        let KernelSpec::Traversal(spec) = &kernels[i] else {
            continue;
        };
        let in_kernel: HashSet<VarId> = spec.ops.iter().filter_map(|o| o.kind.out_var()).collect();
        let mut locals: Vec<VarId> = Vec::new();
        'var: for &v in &in_kernel {
            if p.outputs.contains(&v) {
                continue;
            }
            for (j, other) in kernels.iter().enumerate() {
                let reads = match other {
                    KernelSpec::Gemm(g) => op_reads(&g.op.kind, v),
                    KernelSpec::Traversal(t) => {
                        j != i && t.ops.iter().any(|o| op_reads(&o.kind, v))
                    }
                    KernelSpec::Fallback(_) => false,
                };
                if reads {
                    continue 'var;
                }
            }
            locals.push(v);
        }
        locals.sort_unstable();
        let KernelSpec::Traversal(spec) = &mut kernels[i] else {
            unreachable!()
        };
        spec.local_vars = locals;
    }
}

fn op_reads(kind: &OpKind, v: VarId) -> bool {
    kind.operands().any(|o| o.var() == Some(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_ir::{AggNorm, ModelBuilder};

    fn rgat_program() -> Program {
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

    fn rgcn_program() -> Program {
        let mut m = ModelBuilder::new("rgcn");
        let h = m.node_input("h", 8);
        let c = m.edge_input("cnorm", 1);
        let w = m.weight_per_etype("W", 8, 8);
        let w0 = m.weight_shared("W0", 8, 8);
        let msg = m.typed_linear("msg", m.src(h), w);
        let agg = m.aggregate("agg", m.edge(msg), Some(m.edge(c)), AggNorm::None);
        let selfl = m.typed_linear("selfl", m.this(h), w0);
        let sum = m.add("sum", m.this(agg), m.this(selfl));
        let out = m.relu("out", m.this(sum));
        m.output(out);
        m.finish().program
    }

    fn gemm_count(ks: &[KernelSpec]) -> usize {
        ks.iter()
            .filter(|k| matches!(k, KernelSpec::Gemm(_)))
            .count()
    }

    fn traversal_count(ks: &[KernelSpec]) -> usize {
        ks.iter()
            .filter(|k| matches!(k, KernelSpec::Traversal(_)))
            .count()
    }

    #[test]
    fn rgat_lowers_to_two_gemms_and_one_traversal() {
        let kernels = lower_program(&rgat_program(), &LowerOptions::default());
        assert_eq!(gemm_count(&kernels), 2, "hs and ht");
        assert_eq!(traversal_count(&kernels), 1, "everything else fuses");
    }

    #[test]
    fn rgcn_nodewise_finishers_fuse_into_the_aggregation_kernel() {
        let kernels = lower_program(&rgcn_program(), &LowerOptions::default());
        assert_eq!(gemm_count(&kernels), 2, "msg and the self-loop");
        assert_eq!(
            traversal_count(&kernels),
            1,
            "agg + sum + relu in one kernel"
        );
        let spec = kernels
            .iter()
            .find_map(|k| match k {
                KernelSpec::Traversal(t) => Some(t),
                _ => None,
            })
            .unwrap();
        assert_eq!(spec.domain, TraversalDomain::DstNodes);
        assert_eq!(
            spec.hoisted.len(),
            2,
            "sum and relu are node-level statements"
        );
    }

    #[test]
    fn fused_traversal_uses_dst_domain_without_atomics() {
        let kernels = lower_program(&rgat_program(), &LowerOptions::default());
        let spec = kernels
            .iter()
            .find_map(|k| match k {
                KernelSpec::Traversal(t) => Some(t),
                _ => None,
            })
            .unwrap();
        assert_eq!(spec.domain, TraversalDomain::DstNodes);
        assert!(!spec.atomic, "dst-node loops give private accumulators");
        assert!(spec.partial_agg);
    }

    #[test]
    fn intermediate_attention_values_are_local() {
        let p = rgat_program();
        let kernels = lower_program(&p, &LowerOptions::default());
        let spec = kernels
            .iter()
            .find_map(|k| match k {
                KernelSpec::Traversal(t) => Some(t),
                _ => None,
            })
            .unwrap();
        let local_names: Vec<&str> = spec
            .local_vars
            .iter()
            .map(|&v| p.var(v).name.as_str())
            .collect();
        assert!(local_names.contains(&"raw"));
        assert!(local_names.contains(&"act"));
        assert!(local_names.contains(&"atts"));
    }

    #[test]
    fn gemm_gather_schemes_follow_endpoints() {
        let kernels = lower_program(&rgat_program(), &LowerOptions::default());
        let gathers: Vec<Gather> = kernels
            .iter()
            .filter_map(|k| match k {
                KernelSpec::Gemm(g) => Some(g.gather),
                _ => None,
            })
            .collect();
        assert_eq!(gathers, vec![Gather::SrcNode, Gather::DstNode]);
    }

    #[test]
    fn compacted_ops_get_their_own_unique_pair_kernels() {
        let mut p = rgat_program();
        crate::compact::compact_materialization(&mut p);
        let kernels = lower_program(&p, &LowerOptions::default());
        let hs_gemm = kernels
            .iter()
            .find_map(|k| match k {
                KernelSpec::Gemm(g) if g.gather == Gather::UniqueSrcNode => Some(g),
                _ => None,
            })
            .expect("hs should gather through unique_row_idx");
        assert_eq!(hs_gemm.rows, RowDomain::UniquePairs);
        // atts is compact → iterates unique pairs in its own kernel.
        let upairs = kernels.iter().any(
            |k| matches!(k, KernelSpec::Traversal(t) if t.domain == TraversalDomain::UniquePairs),
        );
        assert!(upairs, "compact dot product runs over unique pairs");
    }

    #[test]
    fn backward_gemm_after_traversal_flushes_group() {
        let mut m = ModelBuilder::new("rgcn_bw");
        let h = m.node_input("h", 4);
        let c = m.edge_input("cnorm", 1);
        let w = m.weight_per_etype("W", 4, 4);
        let msg = m.typed_linear("msg", m.src(h), w);
        let out = m.aggregate("out", m.edge(msg), Some(m.edge(c)), AggNorm::None);
        m.output(out);
        let fw = m.finish().program;
        let bw = crate::backward::generate_backward(&fw);
        let kernels = lower_program(&bw, &LowerOptions::default());
        let first_trav = kernels
            .iter()
            .position(|k| matches!(k, KernelSpec::Traversal(_)))
            .unwrap();
        let gradw_pos = kernels
            .iter()
            .position(|k| {
                matches!(k, KernelSpec::Gemm(g)
                    if matches!(g.op.kind, OpKind::TypedLinearGradW { .. }))
            })
            .unwrap();
        assert!(
            first_trav < gradw_pos,
            "gradW consumes the traversal's dmsg"
        );
    }

    #[test]
    fn prep_fallbacks_come_first() {
        let mut m = ModelBuilder::new("r");
        let h = m.node_input("h", 8);
        let w = m.weight_per_etype("W", 8, 8);
        let w_t = m.weight_vec_per_etype("w_t", 8);
        let ht = m.typed_linear("ht", m.dst(h), w);
        let attt = m.dot("attt", m.edge(ht), m.wvec(w_t));
        let s = m.aggregate("s", m.edge(attt), None, AggNorm::None);
        m.output(s);
        let mut p = m.finish().program;
        crate::reorder::linear_operator_reordering(&mut p);
        let kernels = lower_program(&p, &LowerOptions::default());
        assert!(matches!(kernels[0], KernelSpec::Fallback(_)));
    }

    #[test]
    fn nodewise_linear_lowers_to_plain_gemm() {
        let mut m = ModelBuilder::new("n");
        let h = m.node_input("h", 4);
        let w0 = m.weight_shared("W0", 4, 4);
        let y = m.typed_linear("y", m.this(h), w0);
        m.output(y);
        let p = m.finish().program;
        let kernels = lower_program(&p, &LowerOptions::default());
        assert_eq!(kernels.len(), 1);
        let KernelSpec::Gemm(g) = &kernels[0] else {
            panic!()
        };
        assert_eq!(g.rows, RowDomain::Nodes);
        assert_eq!(g.gather, Gather::None);
        assert_eq!(g.scatter, Scatter::None);
    }

    /// An aggregate scattered to source endpoints is still accumulating
    /// while its kernel runs, so an edge op reading it starts a new
    /// kernel. The runtime relies on this: it does not check it.
    #[test]
    fn reading_a_source_scatter_starts_a_new_kernel() {
        let mut p = Program::new("source_scatter_read_back");
        let x = p.add_var("x", Space::Edge, 1);
        let s = p.add_var("s", Space::Node, 1);
        let y = p.add_var("y", Space::Edge, 1);
        p.inputs.push(x);
        p.push_op(OpKind::NodeAggregate {
            edge_val: Operand::Edge(x),
            scale: None,
            norm: AggNorm::None,
            endpoint: Endpoint::Src,
            out: s,
        });
        p.push_op(OpKind::Binary {
            op: hector_ir::BinOp::Mul,
            a: Operand::Edge(x),
            b: Operand::Node(s, Endpoint::Src),
            out: y,
        });
        p.outputs.push(y);
        p.validate();
        let kernels = lower_program(&p, &LowerOptions::default());
        assert_eq!(traversal_count(&kernels), 2, "{kernels:?}");
        let KernelSpec::Traversal(scatter) = &kernels[0] else {
            panic!()
        };
        assert_eq!(scatter.domain, TraversalDomain::Edges);
        assert_eq!(scatter.ops.len(), 1, "the scatter alone");
    }

    #[test]
    fn pure_nodewise_chain_gets_nodes_domain() {
        let mut m = ModelBuilder::new("nodes");
        let a = m.node_input("a", 4);
        let b = m.node_input("b", 4);
        let s = m.add("s", m.this(a), m.this(b));
        let r = m.relu("r", m.this(s));
        m.output(r);
        let p = m.finish().program;
        let kernels = lower_program(&p, &LowerOptions::default());
        assert_eq!(kernels.len(), 1);
        let KernelSpec::Traversal(t) = &kernels[0] else {
            panic!()
        };
        assert_eq!(t.domain, TraversalDomain::Nodes);
        assert!(!t.atomic);
    }
}
