//! The sequential oracle: functional interpretation of kernel specs.
//!
//! This is the small, obviously-correct definition of what every kernel
//! computes — one row at a time, in ascending row order, on the calling
//! thread — that the production micro-op executor
//! ([`crate::backend`]) is pinned against bit for bit. Production shares
//! only this module's elementwise leaf numerics ([`unary_row`],
//! [`binary_row`] and the op → scalar-function tables behind them) and
//! index helpers, never its loops — and not its GEMM rows or dot
//! products: the oracle runs the plain scalar references of
//! `hector_tensor::microkernel` one row at a time and its own sequential
//! [`dot`], production runs the segment tiles and the row-parallel dot
//! tile pinned to them bit for bit (the backend parity suites check the
//! whole kernels).
//!
//! Each kernel spec is executed exactly as the generated CUDA would run:
//! GEMM instances gather rows through their access schemes, apply the
//! per-type weight slab, and scatter (atomically, in the backward
//! direction) into the output; traversal instances iterate their domain
//! (edges, unique pairs, destination nodes with staged inner passes, or
//! plain nodes) executing the fused statement list per row.
//!
//! # Zero-allocation hot path
//!
//! The per-row loops never touch the heap in steady state: operand reads
//! return borrowed [`OperandRef`] views, op results are computed into a
//! reusable [`Scratch`] arena owned by the executor, and the GEMM inner
//! loops run over `chunks_exact` windows of the weight slab (no per-row
//! `Vec`, no bounds checks in the multiply-accumulate). See the
//! [`crate::scratch`] module docs for the operand-view lifetime contract.

use hector_ir::{
    AggNorm, Endpoint, GemmSpec, KernelSpec, OpKind, Operand, Program, RowDomain, Space,
    TraversalDomain, TraversalSpec, TypeIndex, VarId,
};
use hector_tensor::microkernel;

use crate::scratch::Scratch;
use crate::store::VarStore;
use crate::{GraphData, ParamStore};

/// A row position in one of the three iteration spaces.
#[derive(Clone, Copy, Debug)]
enum Ctx {
    Edge(usize),
    Unique(usize),
    Node(usize),
}

/// A borrowed view of one operand row: either a slice into a variable,
/// parameter, or weight-vector store, or an inline broadcast constant.
///
/// Views stay valid only while the stores they borrow from are not
/// mutated — ops compute into [`Scratch`] slots first and write outputs
/// back only after every operand view is dropped (the lifetime contract
/// documented in [`crate::scratch`]).
#[derive(Clone, Copy, Debug)]
enum OperandRef<'a> {
    /// Borrowed row data.
    Slice(&'a [f32]),
    /// An inline scalar (an IR constant), broadcast over the row.
    Scalar(f32),
}

impl OperandRef<'_> {
    /// The view as a slice (scalars become one-element slices).
    fn as_slice(&self) -> &[f32] {
        match self {
            OperandRef::Slice(s) => s,
            OperandRef::Scalar(v) => std::slice::from_ref(v),
        }
    }

    /// First element — for operands contractually scalar (fused scales,
    /// aggregate scales).
    fn scalar(&self) -> f32 {
        self.as_slice()[0]
    }
}

/// Executes a GEMM-template instance.
///
/// # Panics
///
/// Panics on spec/program inconsistencies (compiler bugs).
pub(crate) fn exec_gemm(
    spec: &GemmSpec,
    program: &Program,
    graph: &GraphData,
    params: &mut ParamStore,
    vars: &mut VarStore,
    scratch: &mut Scratch,
) {
    let m = graph.rows_of(spec.rows);
    match &spec.op.kind {
        OpKind::TypedLinear {
            input,
            weight,
            transpose_w,
            scatter,
            fused_scale,
            out,
        } => {
            let params: &ParamStore = params;
            let wt = params.weight(*weight);
            let (wrows, wcols) = (wt.shape()[1], wt.shape()[2]);
            let out_width = program.var(*out).width;
            for r in 0..m {
                let ctx = row_ctx(spec.rows, r);
                let ty = weight_type_index(wt.shape()[0], spec.weight_index, spec.rows, r, graph);
                {
                    let x = read_operand(input, ctx, program, graph, params, vars);
                    let (x, y) = (x.as_slice(), scratch.y_zeroed(out_width));
                    debug_assert_eq!(x.len(), if *transpose_w { wcols } else { wrows });
                    if *transpose_w {
                        microkernel::gemm_row_tb_scalar(x, wt.slab(ty), wcols, y);
                    } else {
                        microkernel::gemm_row_scalar(x, wt.slab(ty), wcols, y);
                    }
                }
                if let Some(s) = fused_scale {
                    let sv = read_operand(s, ctx, program, graph, params, vars).scalar();
                    for v in scratch.y_mut(out_width) {
                        *v *= sv;
                    }
                }
                match scatter {
                    None => {
                        vars.get_mut(*out).set_row(r, scratch.y(out_width));
                    }
                    Some(ep) => {
                        let idx = scatter_index(spec.rows, *ep, r, graph);
                        let row = vars.get_mut(*out).row_mut(idx);
                        for (a, b) in row.iter_mut().zip(scratch.y(out_width)) {
                            *a += b;
                        }
                    }
                }
            }
        }
        OpKind::TypedLinearGradW { x, dy, out_w } => {
            let t_count = params.type_count(*out_w);
            for r in 0..m {
                let ctx = row_ctx(spec.rows, r);
                let (k, n) = {
                    let xr = read_operand(x, ctx, program, graph, params, vars);
                    let dyr = read_operand(dy, ctx, program, graph, params, vars);
                    scratch.stage_a(xr.as_slice());
                    scratch.stage_b(dyr.as_slice());
                    (xr.as_slice().len(), dyr.as_slice().len())
                };
                let ty = weight_type_index(t_count, spec.weight_index, spec.rows, r, graph);
                let g = params.grad_mut(*out_w);
                let slab = &mut g.data_mut()[ty * k * n..(ty + 1) * k * n];
                microkernel::outer_accum_scalar(scratch.a(k), scratch.b(n), slab);
            }
        }
        other => unreachable!("not a GEMM op: {other:?}"),
    }
}

/// Trace-span name and row count for one kernel spec — the per-kernel
/// metadata `RunPlan::run_kernels` attaches to the span wrapping each
/// invocation (on either backend). Names are
/// stable `category/domain` strings so profile aggregation and the
/// chrome-trace golden schema stay deterministic.
pub(crate) fn kernel_trace_meta(spec: &KernelSpec, graph: &GraphData) -> (&'static str, u64) {
    match spec {
        KernelSpec::Gemm(g) => {
            let name = match &g.op.kind {
                OpKind::TypedLinearGradW { .. } => "gemm/grad_w",
                _ => "gemm/typed_linear",
            };
            (name, graph.rows_of(g.rows) as u64)
        }
        KernelSpec::Traversal(t) => {
            let (name, rows) = match t.domain {
                TraversalDomain::Edges => ("traversal/edges", graph.graph().num_edges()),
                TraversalDomain::DstNodes => ("traversal/dst_nodes", graph.graph().num_nodes()),
                TraversalDomain::UniquePairs => {
                    ("traversal/unique_pairs", graph.compact().num_unique())
                }
                TraversalDomain::Nodes => ("traversal/nodes", graph.graph().num_nodes()),
            };
            (name, rows as u64)
        }
        KernelSpec::Fallback(_) => ("fallback/prep", 0),
    }
}

fn row_ctx(rows: RowDomain, r: usize) -> Ctx {
    match rows {
        RowDomain::Edges => Ctx::Edge(r),
        RowDomain::UniquePairs => Ctx::Unique(r),
        RowDomain::Nodes => Ctx::Node(r),
    }
}

fn scatter_index(rows: RowDomain, ep: Endpoint, r: usize, graph: &GraphData) -> usize {
    match rows {
        RowDomain::Edges => match ep {
            Endpoint::Src => graph.graph().src()[r] as usize,
            Endpoint::Dst => graph.graph().dst()[r] as usize,
            Endpoint::This => r,
        },
        RowDomain::UniquePairs => {
            // The production resolver rejects any other endpoint too.
            assert_eq!(ep, Endpoint::Src, "unique pairs scatter to their source");
            graph.compact().unique_row_idx()[r] as usize
        }
        RowDomain::Nodes => r,
    }
}

/// The slab of a `per`-typed weight that row `r` of `rows` reads: its
/// type, or for a pair weight the slot of its live pair (derived pair
/// stacks hold live pairs only, see [`ParamStore`]).
pub(crate) fn weight_type_index(
    t_count: usize,
    per: TypeIndex,
    rows: RowDomain,
    r: usize,
    graph: &GraphData,
) -> usize {
    let idx = match per {
        TypeIndex::Shared => 0,
        TypeIndex::EdgeType => match rows {
            RowDomain::Edges => graph.graph().etype()[r] as usize,
            RowDomain::UniquePairs => graph.unique_etype()[r] as usize,
            RowDomain::Nodes => unreachable!("edge-typed weight in node rows"),
        },
        TypeIndex::NodeType => match rows {
            RowDomain::Nodes => graph.graph().node_type()[r] as usize,
            _ => unreachable!("node-typed weight outside node rows"),
        },
        TypeIndex::NodeEdgePair => graph.pair_slot_of(rows, r),
    };
    debug_assert!(idx < t_count, "type index out of range");
    idx
}

/// Resolves one operand to a borrowed row view — no copy, no allocation.
/// See [`OperandRef`] for the lifetime contract.
fn read_operand<'a>(
    o: &Operand,
    ctx: Ctx,
    program: &Program,
    graph: &GraphData,
    params: &'a ParamStore,
    vars: &'a VarStore,
) -> OperandRef<'a> {
    match o {
        Operand::Const(c) => OperandRef::Scalar(*c),
        Operand::WeightVec(w) => {
            let ty = match ctx {
                Ctx::Edge(e) => graph.graph().etype()[e] as usize,
                Ctx::Unique(u) => graph.unique_etype()[u] as usize,
                Ctx::Node(_) => unreachable!("weight vectors need edge context"),
            };
            OperandRef::Slice(params.weight(*w).slab(ty))
        }
        Operand::Node(v, ep) => {
            let row = match (ctx, ep) {
                (Ctx::Edge(e), Endpoint::Src) => graph.graph().src()[e] as usize,
                (Ctx::Edge(e), Endpoint::Dst) => graph.graph().dst()[e] as usize,
                (Ctx::Unique(u), Endpoint::Src) => graph.compact().unique_row_idx()[u] as usize,
                (Ctx::Node(n), Endpoint::This | Endpoint::Dst) => n,
                (c, e) => unreachable!("node read {e:?} in context {c:?}"),
            };
            OperandRef::Slice(vars.get(*v).row(row))
        }
        Operand::Edge(v) => {
            let space = program.var(*v).space;
            let row = match (ctx, space) {
                (Ctx::Edge(e), Space::Edge) => e,
                (Ctx::Edge(e), Space::Compact) => graph.compact().edge_to_unique()[e] as usize,
                (Ctx::Unique(u), Space::Compact) => u,
                (c, s) => unreachable!("edge read of {s:?} var in context {c:?}"),
            };
            OperandRef::Slice(vars.get(*v).row(row))
        }
    }
}

/// Runs `$body` with `$f` bound to the scalar function of unary op
/// `$op`. The `match` is hoisted out of every element loop: it runs once
/// per expansion — per row in the oracle, per (op, block) in production —
/// and each arm is one monomorphic loop over the same scalar function,
/// so the two executors cannot diverge in a bit.
macro_rules! with_unary_fn {
    ($op:expr, $f:ident => $body:expr) => {{
        use hector_ir::{interop::LEAKY_RELU_SLOPE, UnOp};
        match $op {
            UnOp::LeakyRelu => {
                let $f = |v: f32| if v >= 0.0 { v } else { LEAKY_RELU_SLOPE * v };
                $body
            }
            UnOp::Relu => {
                let $f = |v: f32| v.max(0.0);
                $body
            }
            UnOp::Exp => {
                let $f = f32::exp;
                $body
            }
            UnOp::Copy => {
                let $f = |v: f32| v;
                $body
            }
            UnOp::Neg => {
                let $f = |v: f32| -v;
                $body
            }
            UnOp::LeakyReluGrad => {
                let $f = |v: f32| if v >= 0.0 { 1.0 } else { LEAKY_RELU_SLOPE };
                $body
            }
            UnOp::ReluGrad => {
                let $f = |v: f32| if v >= 0.0 { 1.0 } else { 0.0 };
                $body
            }
        }
    }};
}
pub(crate) use with_unary_fn;

/// [`with_unary_fn`] for binary ops.
macro_rules! with_binary_fn {
    ($op:expr, $f:ident => $body:expr) => {{
        use hector_ir::BinOp;
        match $op {
            BinOp::Add => {
                let $f = |x: f32, y: f32| x + y;
                $body
            }
            BinOp::Sub => {
                let $f = |x: f32, y: f32| x - y;
                $body
            }
            BinOp::Mul => {
                let $f = |x: f32, y: f32| x * y;
                $body
            }
            BinOp::Div => {
                let $f = $crate::exec::norm_div;
                $body
            }
        }
    }};
}
pub(crate) use with_binary_fn;

/// `0/0` yields `0` instead of the IEEE `NaN`: a zero denominator with a
/// zero numerator is a normalization group no edge touched (e.g. a
/// softmax/mean read at a zero-in-degree destination), and the
/// convention mirrors the `AggNorm::Max` sweep-back — untouched groups
/// produce a finite default, never a poisoned row. Any other division
/// keeps IEEE semantics (`x/0 = ±inf`, `NaN` operands propagate). Pinned
/// by `tests/numeric_edge_cases.rs`.
#[inline]
pub(crate) fn norm_div(x: f32, y: f32) -> f32 {
    if x == 0.0 && y == 0.0 {
        0.0
    } else {
        x / y
    }
}

/// `out[i] = f(x[i])` (same length).
#[inline(always)]
pub(crate) fn unary_row(f: impl Fn(f32) -> f32, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o = f(v);
    }
}

/// `out[i] = f(a[i], b[i])` with scalar broadcasting: `out` is
/// `max(a.len(), b.len())` wide.
#[inline(always)]
pub(crate) fn binary_row(f: impl Fn(f32, f32) -> f32, a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    debug_assert_eq!(n, a.len().max(b.len()));
    debug_assert!(a.len() == n || a.len() == 1);
    debug_assert!(b.len() == n || b.len() == 1);
    if a.len() == n && b.len() == n {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
    } else if a.len() == 1 {
        let x = a[0];
        for (o, &y) in out.iter_mut().zip(b) {
            *o = f(x, y);
        }
    } else {
        let y = b[0];
        for (o, &x) in out.iter_mut().zip(a) {
            *o = f(x, y);
        }
    }
}

/// Max-aggregate outputs of a kernel: seeded to `-inf` before execution so
/// the true maximum survives all-negative inputs, and swept back to `0`
/// afterwards for groups no edge touched (those rows are never read, but
/// `-inf` must not leak into later whole-tensor consumers).
pub(crate) fn max_agg_outputs(spec: &TraversalSpec) -> impl Iterator<Item = VarId> + '_ {
    spec.ops.iter().filter_map(|op| match op.kind {
        OpKind::NodeAggregate {
            norm: AggNorm::Max,
            out,
            ..
        } => Some(out),
        _ => None,
    })
}

/// The max-aggregate sweep-back: a group no edge touched still holds its
/// `-inf` seed; the 0-neighbor convention is `0`.
pub(crate) fn sweep_neg_inf(xs: &mut [f32]) {
    for x in xs {
        if *x == f32::NEG_INFINITY {
            *x = 0.0;
        }
    }
}

/// Max-aggregates (op index, output) of a dst-node kernel at stage `pass`
/// that write the iterated destination's own node row. Their row for
/// node `v` is final once `v`'s in-edge loop for `pass` completes, so a
/// zero-in-degree destination must have its `-inf` seed swept back to
/// `0` *there* — later stages of the same fused kernel (hoisted node
/// ops, per-edge consumers) read the row mid-kernel, before the
/// end-of-kernel sweep.
pub(crate) fn dst_private_max_aggs<'a>(
    spec: &'a TraversalSpec,
    program: &'a Program,
    pass: usize,
) -> impl Iterator<Item = (usize, VarId)> + 'a {
    let ops = spec.ops.iter().zip(&spec.stages).enumerate();
    ops.filter_map(move |(i, (op, &st))| match op.kind {
        OpKind::NodeAggregate {
            norm: AggNorm::Max,
            out,
            ..
        } if st == pass && spec.dst_private(program, &op.kind) => Some((i, out)),
        _ => None,
    })
}

/// Executes a traversal-template instance.
///
/// # Panics
///
/// Panics on spec/program inconsistencies (compiler bugs).
pub(crate) fn exec_traversal(
    spec: &TraversalSpec,
    program: &Program,
    graph: &GraphData,
    params: &ParamStore,
    vars: &mut VarStore,
    scratch: &mut Scratch,
) {
    for v in max_agg_outputs(spec) {
        vars.get_mut(v).data_mut().fill(f32::NEG_INFINITY);
    }
    let mut run = |op: &hector_ir::Op, ctx: Ctx, vars: &mut VarStore| {
        exec_op(&op.kind, ctx, program, graph, params, vars, scratch);
    };
    match spec.domain {
        TraversalDomain::DstNodes => {
            // Stage assignments are precomputed at lowering
            // (`hector_ir::stage_assignments`) so executing a kernel
            // allocates nothing.
            let st = &spec.stages;
            let max_stage = st.iter().copied().max().unwrap_or(0);
            let csc = graph.csc();
            for v in 0..graph.graph().num_nodes() {
                for pass in 0..=max_stage {
                    for &e in csc.in_edges(v) {
                        for (i, op) in spec.ops.iter().enumerate() {
                            if st[i] == pass && !spec.hoisted.contains(&op.id) {
                                run(op, Ctx::Edge(e as usize), vars);
                            }
                        }
                    }
                    // Zero-in-degree destinations: the in-edge loop above
                    // never touched `v`'s row of a max-aggregate at this
                    // stage, so it still holds the `-inf` seed. Pin the
                    // 0-neighbor convention to `0` *now* — hoisted node
                    // ops below and later passes read the row mid-kernel,
                    // long before the end-of-kernel sweep.
                    for (_, out) in dst_private_max_aggs(spec, program, pass) {
                        sweep_neg_inf(vars.get_mut(out).row_mut(v));
                    }
                    for (i, op) in spec.ops.iter().enumerate() {
                        if st[i] == pass && spec.hoisted.contains(&op.id) {
                            run(op, Ctx::Node(v), vars);
                        }
                    }
                }
            }
        }
        domain => {
            let rows = match domain {
                TraversalDomain::Edges => RowDomain::Edges,
                TraversalDomain::UniquePairs => RowDomain::UniquePairs,
                _ => RowDomain::Nodes,
            };
            for r in 0..graph.rows_of(rows) {
                for op in &spec.ops {
                    run(op, row_ctx(rows, r), vars);
                }
            }
        }
    }
    for v in max_agg_outputs(spec) {
        sweep_neg_inf(vars.get_mut(v).data_mut());
    }
}

/// The oracle's op interpreter: one op at one row. The production
/// executor's `BoundOp::run` must reproduce these float operations in this
/// order; divergence is caught by `tests/backend_parity.rs`.
///
/// Results are computed into `scratch` while the operand views borrow
/// `vars`, then written back — see the scratch-arena lifetime contract.
fn exec_op(
    kind: &OpKind,
    ctx: Ctx,
    program: &Program,
    graph: &GraphData,
    params: &ParamStore,
    vars: &mut VarStore,
    scratch: &mut Scratch,
) {
    match kind {
        OpKind::DotProduct { a, b, out } => {
            let acc = {
                let av = read_operand(a, ctx, program, graph, params, vars);
                let bv = read_operand(b, ctx, program, graph, params, vars);
                dot(av.as_slice(), bv.as_slice())
            };
            write_row(*out, ctx, &[acc], program, vars);
        }
        OpKind::Binary { op, a, b, out } => {
            let n = {
                let av = read_operand(a, ctx, program, graph, params, vars);
                let bv = read_operand(b, ctx, program, graph, params, vars);
                let (av, bv) = (av.as_slice(), bv.as_slice());
                let n = av.len().max(bv.len());
                with_binary_fn!(*op, f => binary_row(f, av, bv, scratch.y_uninit(n)));
                n
            };
            write_row(*out, ctx, scratch.y(n), program, vars);
        }
        OpKind::Unary { op, a, out } => {
            let n = {
                let av = read_operand(a, ctx, program, graph, params, vars);
                let av = av.as_slice();
                with_unary_fn!(*op, f => unary_row(f, av, scratch.y_uninit(av.len())));
                av.len()
            };
            write_row(*out, ctx, scratch.y(n), program, vars);
        }
        OpKind::NodeAggregate {
            edge_val,
            scale,
            norm,
            out,
            endpoint,
            ..
        } => {
            let (n, s) = {
                let val = read_operand(edge_val, ctx, program, graph, params, vars);
                scratch.stage_a(val.as_slice());
                let s = match scale {
                    Some(sc) => read_operand(sc, ctx, program, graph, params, vars).scalar(),
                    None => 1.0,
                };
                (val.as_slice().len(), s)
            };
            let out_space = program.var(*out).space;
            let idx = match (ctx, out_space) {
                (Ctx::Edge(e), Space::Node) => match endpoint {
                    Endpoint::Dst => graph.graph().dst()[e] as usize,
                    Endpoint::Src => graph.graph().src()[e] as usize,
                    Endpoint::This => unreachable!(),
                },
                (Ctx::Edge(e), Space::Compact) => graph.compact().edge_to_unique()[e] as usize,
                (Ctx::Unique(u), Space::Node) => graph.compact().unique_row_idx()[u] as usize,
                (c, s0) => unreachable!("aggregate {s0:?} in context {c:?}"),
            };
            let row = vars.get_mut(*out).row_mut(idx);
            if *norm == AggNorm::Max {
                // Rows are seeded with -inf before the kernel runs (see
                // `exec_traversal`) so the true maximum survives even when
                // every contribution is negative.
                for (acc, x) in row.iter_mut().zip(scratch.a(n)) {
                    *acc = acc.max(*x);
                }
            } else {
                for (acc, x) in row.iter_mut().zip(scratch.a(n)) {
                    *acc += x * s;
                }
            }
        }
        other => unreachable!("traversal cannot execute {other:?}"),
    }
}

/// Sequential dot product from `+0.0` in ascending index: the order each
/// lane of production's dot tile (`microkernel::dot_rows`) folds in.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0f32, |acc, (&x, &y)| acc + x * y)
}

fn write_row(out: VarId, ctx: Ctx, y: &[f32], program: &Program, vars: &mut VarStore) {
    let idx = match (ctx, program.var(out).space) {
        (Ctx::Edge(e), Space::Edge) => e,
        (Ctx::Unique(u), Space::Compact) => u,
        (Ctx::Node(n), Space::Node) => n,
        (c, s) => unreachable!("write of {s:?} var in context {c:?}"),
    };
    vars.get_mut(out).set_row(idx, y);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique-pair GEMM that scatters to its destination is rejected
    /// in every build, as the production resolver rejects it — not sent
    /// to the pair's source row.
    #[test]
    #[should_panic(expected = "unique pairs scatter to their source")]
    fn unique_pair_scatter_to_a_destination_is_rejected() {
        use hector_graph::HeteroGraphBuilder;
        use hector_ir::{Gather, GemmSchedule, Op, OpId, Scatter};
        use rand::{rngs::StdRng, SeedableRng};

        let mut b = HeteroGraphBuilder::new();
        b.add_node_type(2);
        b.add_edge(0, 1, 0);
        let g = GraphData::new(b.build());
        let mut p = Program::new("unique_pair_scatter");
        let x = p.add_var("x", Space::Compact, 2);
        let out = p.add_var("out", Space::Node, 2);
        let weight = p.add_weight("W", TypeIndex::EdgeType, 2, 2);
        let spec = GemmSpec {
            kid: 0,
            name: "gemm_0".into(),
            op: Op {
                id: OpId(0),
                kind: OpKind::TypedLinear {
                    input: Operand::Edge(x),
                    weight,
                    transpose_w: false,
                    scatter: Some(Endpoint::Dst),
                    fused_scale: None,
                    out,
                },
            },
            rows: RowDomain::UniquePairs,
            gather: Gather::None,
            scatter: Scatter::AtomicNode(Endpoint::Dst),
            weight_index: TypeIndex::EdgeType,
            transpose_w: false,
            k: 2,
            n: 2,
            fused_scale: false,
            schedule: GemmSchedule::default(),
        };
        let mut vars = VarStore::one_per_var(&p, &g);
        let mut params = ParamStore::init(&p, &g, &mut StdRng::seed_from_u64(0));
        exec_gemm(&spec, &p, &g, &mut params, &mut vars, &mut Scratch::new());
    }

    proptest::proptest! {
        /// Every lane of the dot tile is [`dot`] of its own pair, to the
        /// bit, on every instantiation the host runs: widths `0..=70`
        /// (past a column block, ragged tails), row counts that are no
        /// multiple of 8, signed zeros, `±inf` and `NaN` (whether a lane
        /// is NaN is pinned, not its payload).
        #[test]
        fn dot_tile_lanes_fold_like_dot(
            w in 0usize..=70,
            rows in 0usize..=32,
            specials in 0u64..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use hector_tensor::microkernel::{dot_rows, Isa};
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                s >> 33
            };
            let mut value = || {
                let r = next();
                match (r % 16, specials) {
                    (0, 1..) => [0.0, -0.0][(r >> 4) as usize % 2],
                    (1, 2..) => [f32::INFINITY, f32::NEG_INFINITY][(r >> 4) as usize % 2],
                    (2, 3) => f32::NAN,
                    // Magnitudes apart by orders, so a reassociated sum
                    // would lose bits.
                    _ => (((r >> 8) % 2001) as f32 / 1000.0 - 1.0)
                        * 10f32.powi((r >> 4) as i32 % 9 - 4),
                }
            };
            let a: Vec<f32> = (0..rows * w).map(|_| value()).collect();
            let b: Vec<f32> = (0..rows * w).map(|_| value()).collect();
            let ra: Vec<&[f32]> = (0..rows).map(|r| &a[r * w..][..w]).collect();
            let rb: Vec<&[f32]> = (0..rows).map(|r| &b[r * w..][..w]).collect();
            let canon = |x: f32| if x.is_nan() { f32::NAN } else { x }.to_bits();
            let want: Vec<u32> = ra.iter().zip(&rb).map(|(x, y)| canon(dot(x, y))).collect();
            for isa in Isa::available() {
                let mut got = vec![f32::NAN; rows];
                dot_rows(isa, &ra, &rb, &mut got);
                let got: Vec<u32> = got.into_iter().map(canon).collect();
                proptest::prop_assert_eq!(&got, &want, "{:?} w={} rows={}", isa, w, rows);
            }
        }
    }
}
