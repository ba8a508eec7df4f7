//! The production executor: prepared micro-op plans run over row chunks.
//!
//! [`compile_kernels`] resolves every scheduling fact of a lowered
//! kernel **once** — each `Operand` match, variable lookup, space and
//! endpoint decision, aggregation kind, the dst-node pass schedule —
//! into a [`MicroKernel`]: a list of [`MicroOp`]s over a per-launch table
//! of row views. One routine, [`run_rows`], holds each op's row
//! semantics; a launch hands it **(row range, aggregate sink)** pairs:
//!
//! * **One chunk** (one thread, or a kernel that must not split): the
//!   range is the whole domain and the sink is absent — aggregates and
//!   scatters fold where they land, in ascending-row order.
//! * **Many chunks**: disjoint ranges on the pool, row-aligned outputs
//!   written directly, aggregate/scatter contributions recorded per
//!   chunk and replayed in ascending chunk order (see [`super::chunk`]
//!   for why that is bit-exact).
//!
//! Kernel shapes:
//!
//! * **Row domains** (edges, unique pairs, nodes) run **op-at-a-time**:
//!   one tight loop over the chunk's rows per op. `TypedLinear` GEMMs
//!   are one-op kernels of this shape whose loop walks the chunk as runs
//!   of rows sharing a weight slab, each run through the segment tiles
//!   of `hector_tensor::microkernel`. The interchange is bit-exact
//!   because pure ops are row-local and aggregates fold in ascending
//!   row order — except where an aggregate's output is read back in the
//!   same kernel: the reader must observe the *partial* sum over the
//!   rows so far, so those ops (and everything between them) form a
//!   per-row window that replays row-major order, and the kernel runs
//!   as one chunk.
//! * **Dst-node kernels** (edge softmax and friends) walk each
//!   destination's in-edges once per inner pass: per-edge ops resolved
//!   in the edge context, hoisted ops in the node context, with the
//!   mid-pass `-inf` sweeps a zero-in-degree destination needs.
//! * **`TypedLinearGradW`** splits over type slabs instead of rows, each
//!   slab accumulating its rows through the gradient tile.
//!
//! A kernel the resolver declines (an operand shape outside it, an op
//! reading its own output, two ops folding into one aggregate) runs
//! through the oracle's loop as one chunk; `every_model_kernel_compiles`
//! pins that no built-in model produces one.

use std::collections::HashSet;
use std::ops::Range;

use hector_ir::{
    AggNorm, BinOp, Endpoint, GemmSpec, KernelSpec, OpKind, Operand, Program, RowDomain, Space,
    TraversalDomain, TraversalSpec, TypeIndex, UnOp, VarId, WeightId,
};
use hector_tensor::microkernel::{
    for_each_run, gemm_rows, outer_rows, pack_transposed, Isa, BLOCK_ROWS,
};
use hector_tensor::Tensor;

use crate::exec::{
    apply_binary_into, apply_unary_into, dot, dst_private_max_aggs, max_agg_outputs, sweep_neg_inf,
    weight_type_index,
};
use crate::scratch::Scratch;
use crate::{GraphData, ParamStore};

use super::chunk::{
    buffered_agg_outs, par_traversal_safe, record_chunk_span, ContribBuf, RawRows, RawSlabs,
};
use super::ExecCtx;

/// One kernel of a prepared plan.
pub(crate) enum PreparedKernel {
    /// A traversal or `TypedLinear` GEMM compiled to micro-ops.
    Micro(MicroKernel),
    /// A `TypedLinearGradW` GEMM (type-slab scheme).
    GradW(GradWKernel),
    /// No micro-op body — weight-prep fallbacks, and kernels the
    /// resolver declined: the oracle's routine runs it, as one chunk.
    Oracle,
}

/// Resolves each lowered kernel of `program` into its prepared form.
pub(super) fn compile_kernels(kernels: &[KernelSpec], program: &Program) -> Vec<PreparedKernel> {
    kernels
        .iter()
        .map(|spec| match spec {
            KernelSpec::Traversal(t) => {
                compile_traversal(t, program).map_or(PreparedKernel::Oracle, PreparedKernel::Micro)
            }
            KernelSpec::Gemm(g) => compile_gemm(g, program).unwrap_or(PreparedKernel::Oracle),
            KernelSpec::Fallback(_) => PreparedKernel::Oracle,
        })
        .collect()
}

/// Per-row index mapping of a pre-resolved operand or aggregate target,
/// fixed at prepare time from the row domain and the variable's space.
#[derive(Clone, Copy, Debug)]
enum RowMap {
    /// The iterated row itself.
    This,
    /// Edge row → source node row.
    Src,
    /// Edge row → destination node row.
    Dst,
    /// Edge row → its compacted unique-pair row.
    EdgeToUnique,
    /// Unique-pair row → its representative node row.
    UniqueRowIdx,
}

/// An operand with every space/endpoint decision already made:
/// execution binds the referenced storage once per op per chunk and
/// indexes it per row — no `Operand` match, no hash lookup in the loop.
#[derive(Clone, Copy, Debug)]
enum PreOperand {
    /// An inline IR constant (broadcast scalar).
    Const(f32),
    /// Per-edge-type weight vector; the slab index comes from the
    /// iterated domain's edge-type array (`true`: unique-pair rows).
    WVec(WeightId, bool),
    /// A launch-table variable through a prepare-time row map.
    Var(usize, RowMap),
}

/// One kernel op compiled for execution over a row range. `a` is the
/// first operand every op kind reads; `out` the launch-table slot of
/// the variable it writes.
#[derive(Clone, Debug)]
struct MicroOp {
    a: PreOperand,
    out: usize,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    Dot(PreOperand),
    Bin(BinOp, PreOperand),
    Un(UnOp),
    Agg {
        scale: Option<PreOperand>,
        max: bool,
        map: RowMap,
        /// The target row may belong to another chunk: record the
        /// contribution instead of folding it when the launch splits.
        deferred: bool,
    },
    Linear {
        weight: WeightId,
        transpose_w: bool,
        types: TypeIndex,
        rows: RowDomain,
        scale: Option<PreOperand>,
        /// Accumulate into the mapped row instead of storing row-aligned.
        scatter: Option<RowMap>,
    },
}

impl MicroOp {
    /// Launch-table slots of the variables this op reads.
    fn reads(&self) -> impl Iterator<Item = usize> + '_ {
        let second = match &self.kind {
            Kind::Dot(b) | Kind::Bin(_, b) => Some(b),
            Kind::Un(_) => None,
            Kind::Agg { scale, .. } | Kind::Linear { scale, .. } => scale.as_ref(),
        };
        std::iter::once(&self.a)
            .chain(second)
            .filter_map(|o| match o {
                PreOperand::Var(slot, _) => Some(*slot),
                _ => None,
            })
    }

    /// `run_rows` holds a shared view of every operand row and a mutable
    /// one of the output row at once; they must never be the same row,
    /// so the resolver declines such an op.
    fn reads_own_output(&self) -> bool {
        self.reads().any(|v| v == self.out)
    }
}

/// The row space a row-aligned store lands in, per row domain.
fn space_of(rows: RowDomain) -> Space {
    match rows {
        RowDomain::Edges => Space::Edge,
        RowDomain::UniquePairs => Space::Compact,
        RowDomain::Nodes => Space::Node,
    }
}

/// Prepare-time operand/op resolution; collects the kernel's variables
/// into launch-table slot order as it goes.
struct Resolver<'a> {
    program: &'a Program,
    vars: Vec<VarId>,
}

impl Resolver<'_> {
    fn slot(&mut self, v: VarId) -> usize {
        self.vars.iter().position(|&x| x == v).unwrap_or_else(|| {
            self.vars.push(v);
            self.vars.len() - 1
        })
    }

    /// Mirrors the oracle's `read_operand` context × operand table;
    /// `None` for any combination it calls unreachable.
    fn operand(&mut self, o: &Operand, rows: RowDomain) -> Option<PreOperand> {
        Some(match o {
            Operand::Const(c) => PreOperand::Const(*c),
            Operand::WeightVec(w) => match rows {
                RowDomain::Edges => PreOperand::WVec(*w, false),
                RowDomain::UniquePairs => PreOperand::WVec(*w, true),
                RowDomain::Nodes => return None,
            },
            Operand::Node(v, ep) => {
                let map = match (rows, ep) {
                    (RowDomain::Edges, Endpoint::Src) => RowMap::Src,
                    (RowDomain::Edges, Endpoint::Dst) => RowMap::Dst,
                    (RowDomain::UniquePairs, Endpoint::Src) => RowMap::UniqueRowIdx,
                    (RowDomain::Nodes, Endpoint::This | Endpoint::Dst) => RowMap::This,
                    _ => return None,
                };
                PreOperand::Var(self.slot(*v), map)
            }
            Operand::Edge(v) => {
                let map = match (rows, self.program.var(*v).space) {
                    (RowDomain::Edges, Space::Edge) => RowMap::This,
                    (RowDomain::Edges, Space::Compact) => RowMap::EdgeToUnique,
                    (RowDomain::UniquePairs, Space::Compact) => RowMap::This,
                    _ => return None,
                };
                PreOperand::Var(self.slot(*v), map)
            }
        })
    }

    /// A row-aligned output: its space must be the iterated domain's.
    fn aligned_out(&mut self, out: VarId, rows: RowDomain) -> Option<usize> {
        (self.program.var(out).space == space_of(rows)).then(|| self.slot(out))
    }

    /// One fused traversal op, resolved in the `rows` context.
    fn traversal_op(
        &mut self,
        kind: &OpKind,
        rows: RowDomain,
        deferred: &HashSet<VarId>,
    ) -> Option<MicroOp> {
        Some(match kind {
            OpKind::DotProduct { a, b, out } => MicroOp {
                a: self.operand(a, rows)?,
                kind: Kind::Dot(self.operand(b, rows)?),
                out: self.aligned_out(*out, rows)?,
            },
            OpKind::Binary { op, a, b, out } => MicroOp {
                a: self.operand(a, rows)?,
                kind: Kind::Bin(*op, self.operand(b, rows)?),
                out: self.aligned_out(*out, rows)?,
            },
            OpKind::Unary { op, a, out } => MicroOp {
                a: self.operand(a, rows)?,
                kind: Kind::Un(*op),
                out: self.aligned_out(*out, rows)?,
            },
            OpKind::NodeAggregate {
                edge_val,
                scale,
                norm,
                endpoint,
                out,
            } => {
                let map = match (rows, self.program.var(*out).space, endpoint) {
                    (RowDomain::Edges, Space::Node, Endpoint::Dst) => RowMap::Dst,
                    (RowDomain::Edges, Space::Node, Endpoint::Src) => RowMap::Src,
                    (RowDomain::Edges, Space::Compact, _) => RowMap::EdgeToUnique,
                    (RowDomain::UniquePairs, Space::Node, _) => RowMap::UniqueRowIdx,
                    _ => return None,
                };
                MicroOp {
                    a: self.operand(edge_val, rows)?,
                    kind: Kind::Agg {
                        scale: match scale {
                            Some(s) => Some(self.operand(s, rows)?),
                            None => None,
                        },
                        max: *norm == AggNorm::Max,
                        map,
                        deferred: deferred.contains(out),
                    },
                    out: self.slot(*out),
                }
            }
            OpKind::TypedLinear { .. } | OpKind::TypedLinearGradW { .. } => return None,
        })
    }
}

/// The prepare-time-resolved schedule of a dst-node kernel: exactly
/// which ops run where in each inner pass, and which max-aggregate rows
/// need the mid-pass `-inf` sweep.
struct DstSched {
    /// Per pass: indices (into the kernel's ops) of per-edge ops.
    edge_ops: Vec<Vec<usize>>,
    /// Per pass: indices of hoisted per-node ops.
    node_ops: Vec<Vec<usize>>,
    /// Per pass: launch-table slots of the dst-private max-aggregate
    /// outputs to sweep once the destination's in-edge loop is done.
    mid_sweeps: Vec<Vec<usize>>,
}

/// How a [`MicroKernel`] walks its domain.
enum Shape {
    /// `ops[..per_row.start]` op-at-a-time, the `per_row` hazard window
    /// row-at-a-time, `ops[per_row.end..]` op-at-a-time.
    Rows {
        domain: RowDomain,
        per_row: Range<usize>,
    },
    /// Destination nodes with staged inner passes over their in-edges.
    DstNodes(DstSched),
}

/// A traversal or `TypedLinear` kernel compiled to micro-ops.
pub(crate) struct MicroKernel {
    /// Variables the kernel touches; micro-ops name them by index.
    vars: Vec<VarId>,
    ops: Vec<MicroOp>,
    /// Slots of max-aggregate outputs: seeded `-inf` before the launch
    /// so the true maximum survives all-negative inputs, swept back to
    /// `0` afterwards for groups no edge touched.
    max_outs: Vec<usize>,
    /// The dataflow forbids splitting: always one chunk.
    solo: bool,
    shape: Shape,
}

/// The per-row window a row-domain kernel must replay in row-major
/// order: from the first to the last op involved in an in-kernel
/// read-back of an aggregate output (empty when there is none). `None`
/// when two ops write one aggregate output — segmenting would reorder
/// their interleaved accumulation.
fn hazard_window(ops: &[MicroOp]) -> Option<Range<usize>> {
    let mut hazard = vec![false; ops.len()];
    for (i, m) in ops.iter().enumerate() {
        if !matches!(m.kind, Kind::Agg { .. }) {
            continue;
        }
        if ops
            .iter()
            .enumerate()
            .any(|(j, o)| j != i && o.out == m.out)
        {
            return None;
        }
        for (j, o) in ops.iter().enumerate() {
            if o.reads().any(|v| v == m.out) {
                hazard[i] = true;
                hazard[j] = true;
            }
        }
    }
    Some(
        match (
            hazard.iter().position(|&h| h),
            hazard.iter().rposition(|&h| h),
        ) {
            (Some(lo), Some(hi)) => lo..hi + 1,
            _ => ops.len()..ops.len(),
        },
    )
}

fn compile_traversal(spec: &TraversalSpec, program: &Program) -> Option<MicroKernel> {
    let mut rs = Resolver {
        program,
        vars: Vec::new(),
    };
    let buffered = buffered_agg_outs(spec, program);
    let domain = match spec.domain {
        TraversalDomain::Edges => Some(RowDomain::Edges),
        TraversalDomain::UniquePairs => Some(RowDomain::UniquePairs),
        TraversalDomain::Nodes => Some(RowDomain::Nodes),
        TraversalDomain::DstNodes => None,
    };
    let mut ops = Vec::with_capacity(spec.ops.len());
    for op in &spec.ops {
        // Dst-node kernels: hoisted ops see the node, the rest an in-edge.
        let rows = domain.unwrap_or(if spec.hoisted.contains(&op.id) {
            RowDomain::Nodes
        } else {
            RowDomain::Edges
        });
        ops.push(rs.traversal_op(&op.kind, rows, &buffered)?);
    }
    if ops.iter().any(MicroOp::reads_own_output) {
        return None;
    }
    let shape = match domain {
        Some(domain) => Shape::Rows {
            domain,
            per_row: hazard_window(&ops)?,
        },
        None => {
            let passes = spec.stages.iter().copied().max().unwrap_or(0) + 1;
            let mut sched = DstSched {
                edge_ops: vec![Vec::new(); passes],
                node_ops: vec![Vec::new(); passes],
                mid_sweeps: vec![Vec::new(); passes],
            };
            for (i, op) in spec.ops.iter().enumerate() {
                if spec.hoisted.contains(&op.id) {
                    sched.node_ops[spec.stages[i]].push(i);
                } else {
                    sched.edge_ops[spec.stages[i]].push(i);
                }
            }
            for (pass, sweeps) in sched.mid_sweeps.iter_mut().enumerate() {
                sweeps.extend(dst_private_max_aggs(spec, program, pass).map(|v| rs.slot(v)));
            }
            Shape::DstNodes(sched)
        }
    };
    let windowed = matches!(&shape, Shape::Rows { per_row, .. } if !per_row.is_empty());
    Some(MicroKernel {
        max_outs: max_agg_outputs(spec).map(|v| rs.slot(v)).collect(),
        solo: windowed || !par_traversal_safe(spec, program),
        vars: rs.vars,
        ops,
        shape,
    })
}

fn compile_gemm(spec: &GemmSpec, program: &Program) -> Option<PreparedKernel> {
    let mut rs = Resolver {
        program,
        vars: Vec::new(),
    };
    let rows = spec.rows;
    Some(match &spec.op.kind {
        OpKind::TypedLinear {
            input,
            weight,
            transpose_w,
            scatter,
            fused_scale,
            out,
        } => {
            // Mirrors the oracle's `scatter_index` table.
            let scatter = match (scatter, rows) {
                (None, _) => None,
                (Some(Endpoint::Src), RowDomain::Edges) => Some(RowMap::Src),
                (Some(Endpoint::Dst), RowDomain::Edges) => Some(RowMap::Dst),
                (Some(Endpoint::Src), RowDomain::UniquePairs) => Some(RowMap::UniqueRowIdx),
                (Some(Endpoint::This), RowDomain::Edges) | (Some(_), RowDomain::Nodes) => {
                    Some(RowMap::This)
                }
                (Some(_), RowDomain::UniquePairs) => return None,
            };
            let op = MicroOp {
                a: rs.operand(input, rows)?,
                out: match scatter {
                    None => rs.aligned_out(*out, rows)?,
                    Some(_) => rs.slot(*out),
                },
                kind: Kind::Linear {
                    weight: *weight,
                    transpose_w: *transpose_w,
                    types: spec.weight_index,
                    rows,
                    scale: match fused_scale {
                        Some(s) => Some(rs.operand(s, rows)?),
                        None => None,
                    },
                    scatter,
                },
            };
            if op.reads_own_output() {
                return None;
            }
            PreparedKernel::Micro(MicroKernel {
                vars: rs.vars,
                ops: vec![op],
                max_outs: Vec::new(),
                solo: false,
                shape: Shape::Rows {
                    domain: rows,
                    per_row: 1..1, // no hazard window
                },
            })
        }
        OpKind::TypedLinearGradW { x, dy, out_w } => PreparedKernel::GradW(GradWKernel {
            x: rs.operand(x, rows)?,
            dy: rs.operand(dy, rows)?,
            out_w: *out_w,
            types: spec.weight_index,
            rows,
            vars: rs.vars,
        }),
        _ => return None,
    })
}

/// Everything the chunks of one launch share, read-only.
struct Launch<'a> {
    graph: &'a GraphData,
    params: &'a ParamStore,
    table: &'a [RawRows],
}

/// A [`PreOperand`] bound to its storage for one op of one chunk.
enum Bound<'a> {
    Scalar(f32),
    Rows(RawRows, Option<&'a [u32]>),
    WVec(&'a Tensor, &'a [u32]),
}

impl Bound<'_> {
    /// # Safety
    ///
    /// The launch table this operand was bound from is live, and no
    /// chunk concurrently writes the row `r` maps to.
    #[inline]
    unsafe fn row(&self, r: usize) -> &[f32] {
        match self {
            Bound::Scalar(v) => std::slice::from_ref(v),
            // SAFETY: forwarded to the caller.
            Bound::Rows(t, None) => unsafe { t.row(r) },
            // SAFETY: forwarded to the caller.
            Bound::Rows(t, Some(m)) => unsafe { t.row(m[r] as usize) },
            Bound::WVec(t, et) => t.slab(et[r] as usize),
        }
    }
}

impl<'a> Launch<'a> {
    fn map(&self, map: RowMap) -> Option<&'a [u32]> {
        match map {
            RowMap::This => None,
            RowMap::Src => Some(self.graph.graph().src()),
            RowMap::Dst => Some(self.graph.graph().dst()),
            RowMap::EdgeToUnique => Some(self.graph.compact().edge_to_unique()),
            RowMap::UniqueRowIdx => Some(self.graph.compact().unique_row_idx()),
        }
    }

    fn bind(&self, o: &PreOperand) -> Bound<'a> {
        match o {
            PreOperand::Const(c) => Bound::Scalar(*c),
            PreOperand::WVec(w, unique) => Bound::WVec(
                self.params.weight(*w),
                if *unique {
                    self.graph.unique_etype()
                } else {
                    self.graph.graph().etype()
                },
            ),
            PreOperand::Var(slot, map) => Bound::Rows(self.table[*slot], self.map(*map)),
        }
    }
}

/// The rows one chunk may write in place.
#[derive(Clone, Copy)]
struct Claim<'a> {
    /// The chunk's range of the launch domain (destination nodes, in a
    /// dst-node kernel).
    rows: &'a Range<usize>,
    /// The iterated rows are in-edges of claimed destinations (per-edge
    /// ops of dst-node kernels) rather than claimed rows themselves.
    via_dst: bool,
}

impl Claim<'_> {
    fn holds(&self, r: usize, graph: &GraphData) -> bool {
        let key = if self.via_dst {
            graph.graph().dst()[r] as usize
        } else {
            r
        };
        self.rows.contains(&key)
    }
}

/// Runs one micro-op over `rows` of chunk `own` — the single home of
/// each op kind's row semantics, performing the identical float
/// operations in the identical ascending-row order whatever the chunking.
/// Row-aligned results land directly in the output rows; aggregate and
/// scatter contributions fold in place, or — when the launch split
/// (`sink` present) and the target row may be another chunk's — are
/// recorded in `sink` for the ordered merge.
///
/// # Safety
///
/// `cx.table` is the live launch table of the kernel `m` belongs to,
/// and the calling chunk holds `own` exclusively: no other chunk of the
/// launch writes a row `own` holds, and (when the launch split) the
/// kernel passed [`par_traversal_safe`], so every operand row is
/// read-only in this kernel, written by this chunk, or the owned
/// destination's. With that, each write below targets a row the chunk
/// owns (row-aligned stores and in-place aggregates assert it; a launch
/// that did not split owns every row), and since prepare rejects ops
/// that read their own output, no shared and mutable view of one row
/// ever coexist.
unsafe fn run_rows(
    m: &MicroOp,
    rows: Range<usize>,
    own: Claim<'_>,
    cx: &Launch<'_>,
    scratch: &mut Scratch,
    sink: Option<&mut ContribBuf>,
) {
    let out = cx.table[m.out];
    let a = cx.bind(&m.a);
    match &m.kind {
        Kind::Dot(b) => {
            let b = cx.bind(b);
            for r in rows {
                debug_assert!(own.holds(r, cx.graph), "row {r} outside the chunk");
                out.row_mut(r).copy_from_slice(&[dot(a.row(r), b.row(r))]);
            }
        }
        Kind::Bin(op, b) => {
            let b = cx.bind(b);
            for r in rows {
                debug_assert!(own.holds(r, cx.graph), "row {r} outside the chunk");
                apply_binary_into(*op, a.row(r), b.row(r), out.row_mut(r));
            }
        }
        Kind::Un(op) => {
            for r in rows {
                debug_assert!(own.holds(r, cx.graph), "row {r} outside the chunk");
                apply_unary_into(*op, a.row(r), out.row_mut(r));
            }
        }
        Kind::Agg {
            scale,
            max,
            map,
            deferred,
        } => {
            let scale = scale.as_ref().map(|s| cx.bind(s));
            let idx = cx.map(*map);
            let split = sink.is_some();
            // (value row, target row, scale) of iterated row `r`.
            let at = |r: usize| {
                let s = scale.as_ref().map_or(1.0, |b| b.row(r)[0]);
                (a.row(r), idx.map_or(r, |ix| ix[r] as usize), s)
            };
            match sink.filter(|_| *deferred) {
                Some(buf) => {
                    for r in rows {
                        let (x, i, s) = at(r);
                        if *max {
                            buf.push(m.out, i, x.iter().copied(), true);
                        } else {
                            buf.push(m.out, i, x.iter().map(|v| v * s), false);
                        }
                    }
                }
                None => {
                    for r in rows {
                        let (x, i, s) = at(r);
                        debug_assert!(
                            !split || own.rows.contains(&i),
                            "in-place aggregate target {i} is not the chunk-owned destination"
                        );
                        let acc = out.row_mut(i);
                        if *max {
                            for (acc, v) in acc.iter_mut().zip(x) {
                                *acc = acc.max(*v);
                            }
                        } else {
                            for (acc, &v) in acc.iter_mut().zip(x) {
                                *acc += v * s;
                            }
                        }
                    }
                }
            }
        }
        Kind::Linear {
            weight,
            transpose_w,
            types,
            rows: domain,
            scale,
            scatter,
        } => {
            let scale = scale.as_ref().map(|s| cx.bind(s));
            let wt = cx.params.weight(*weight);
            let (t_count, wrows, wcols) = (wt.shape()[0], wt.shape()[1], wt.shape()[2]);
            let (isa, n) = (Isa::best(), out.width());
            let idx = scatter.map(|map| cx.map(map));
            // `x · Wᵀ` packs each run's `Wᵀ` once; scatters stage a block
            // of rows, row-aligned stores compute in the output rows.
            let (pack, stage) = scratch.a_and_y(
                if *transpose_w { wrows * wcols } else { 0 },
                if idx.is_some() { BLOCK_ROWS * n } else { 0 },
            );
            let mut sink = sink;
            let type_of = |r| weight_type_index(t_count, *types, *domain, r, cx.graph);
            for_each_run(rows, type_of, |ty, run| {
                let slab = if *transpose_w {
                    pack_transposed(wt.slab(ty), wrows, wcols, pack);
                    &*pack
                } else {
                    wt.slab(ty)
                };
                for b in run.clone().step_by(BLOCK_ROWS) {
                    let block = b..(b + BLOCK_ROWS).min(run.end);
                    let ys = match idx {
                        None => {
                            debug_assert!(block.clone().all(|r| own.holds(r, cx.graph)));
                            out.rows_mut(&block)
                        }
                        Some(_) => &mut stage[..block.len() * n],
                    };
                    gemm_rows(isa, block.clone().map(|r| a.row(r)), slab, n, ys);
                    for (r, y) in block.zip(ys.chunks_exact_mut(n.max(1))) {
                        if let Some(s) = &scale {
                            let sv = s.row(r)[0];
                            for v in y.iter_mut() {
                                *v *= sv;
                            }
                        }
                        if let Some(ix) = idx {
                            let i = ix.map_or(r, |ix| ix[r] as usize);
                            match &mut sink {
                                Some(buf) => buf.push(m.out, i, y.iter().copied(), false),
                                None => {
                                    for (acc, v) in out.row_mut(i).iter_mut().zip(&*y) {
                                        *acc += v;
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    }
}

impl MicroKernel {
    /// One chunk's share of the launch: `range` of the kernel's domain.
    ///
    /// # Safety
    ///
    /// `cx.table` is this kernel's live launch table and the caller
    /// holds `range` exclusively: no other chunk of the launch is given
    /// an overlapping range, and a `solo` kernel is given the whole
    /// domain as its only chunk.
    unsafe fn run_chunk(
        &self,
        range: Range<usize>,
        cx: &Launch<'_>,
        scratch: &mut Scratch,
        mut sink: Option<&mut ContribBuf>,
    ) {
        let own = Claim {
            rows: &range,
            via_dst: false,
        };
        // Every `run_rows` call below inherits this function's contract:
        // the rows it iterates are `range`'s (row domains), or a claimed
        // destination `v` and `v`'s in-edges (dst-node kernels).
        match &self.shape {
            Shape::Rows { per_row, .. } => {
                for m in &self.ops[..per_row.start] {
                    run_rows(m, range.clone(), own, cx, scratch, sink.as_deref_mut());
                }
                if !per_row.is_empty() {
                    for r in range.clone() {
                        for m in &self.ops[per_row.clone()] {
                            run_rows(m, r..r + 1, own, cx, scratch, sink.as_deref_mut());
                        }
                    }
                }
                for m in &self.ops[per_row.end..] {
                    run_rows(m, range.clone(), own, cx, scratch, sink.as_deref_mut());
                }
            }
            Shape::DstNodes(sched) => {
                let own_edges = Claim {
                    via_dst: true,
                    ..own
                };
                let csc = cx.graph.csc();
                for v in range.clone() {
                    for pass in 0..sched.edge_ops.len() {
                        for &e in csc.in_edges(v) {
                            let e = e as usize;
                            for &i in &sched.edge_ops[pass] {
                                let m = &self.ops[i];
                                run_rows(m, e..e + 1, own_edges, cx, scratch, sink.as_deref_mut());
                            }
                        }
                        // A zero-in-degree `v` still holds the `-inf`
                        // seed, and the hoisted ops below and later
                        // passes read the row mid-kernel — long before
                        // the end-of-launch sweep.
                        for &out in &sched.mid_sweeps[pass] {
                            sweep_neg_inf(cx.table[out].row_mut(v));
                        }
                        for &i in &sched.node_ops[pass] {
                            let m = &self.ops[i];
                            run_rows(m, v..v + 1, own, cx, scratch, sink.as_deref_mut());
                        }
                    }
                }
            }
        }
    }

    pub(super) fn run(&self, ctx: &mut ExecCtx<'_>) -> bool {
        for &slot in &self.max_outs {
            let t = ctx.vars.get_mut(self.vars[slot]).tensor_mut();
            t.data_mut().fill(f32::NEG_INFINITY);
        }
        let graph = ctx.graph;
        let rows = match &self.shape {
            Shape::Rows { domain, .. } => graph.rows_of(*domain),
            Shape::DstNodes(_) => graph.graph().num_nodes(),
        };
        let params: &ParamStore = ctx.params;
        let (split, grows) = ctx.arenas.run_chunks(
            &self.vars,
            ctx.vars,
            ctx.pool.filter(|_| !self.solo),
            ctx.min_chunk,
            rows,
            |table, range, scratch, sink| {
                let cx = Launch {
                    graph,
                    params,
                    table,
                };
                // SAFETY: `table` is the table `run_chunks` built from
                // this kernel's variables, live until it returns;
                // `run_chunks` hands every chunk a disjoint `range`,
                // and a `solo` kernel got no pool — one chunk.
                unsafe { self.run_chunk(range, &cx, scratch, sink) };
            },
        );
        ctx.scratch.note_external_grows(grows);
        for &slot in &self.max_outs {
            sweep_neg_inf(ctx.vars.get_mut(self.vars[slot]).tensor_mut().data_mut());
        }
        split
    }
}

/// A `TypedLinearGradW` kernel: `dW[type(r)] += x[r]ᵀ · dy[r]`.
pub(crate) struct GradWKernel {
    vars: Vec<VarId>,
    x: PreOperand,
    dy: PreOperand,
    out_w: WeightId,
    types: TypeIndex,
    rows: RowDomain,
}

impl GradWKernel {
    /// One chunk walks the rows as runs of one type, in ascending order.
    /// A split launch buckets the rows per type first (one O(m) pass,
    /// ascending within each bucket) and hands each chunk whole type
    /// slabs — the identical association order per slab.
    pub(super) fn run(&self, ctx: &mut ExecCtx<'_>) -> bool {
        let graph = ctx.graph;
        let m = graph.rows_of(self.rows);
        let t_count = ctx.params.type_count(self.out_w);
        let type_of = |r: usize| weight_type_index(t_count, self.types, self.rows, r, graph);
        let n = ctx.params.grad(self.out_w).shape()[2];
        let slabs = RawSlabs::of(ctx.params.grad_mut(self.out_w));
        let (params, pool): (&ParamStore, _) = (ctx.params, ctx.pool);
        let launch = |table: &[RawRows], buckets: &mut [Vec<u32>]| {
            let cx = Launch {
                graph,
                params,
                table,
            };
            let (x, dy, isa) = (cx.bind(&self.x), cx.bind(&self.dy), Isa::best());
            let accumulate = |rows: &mut dyn Iterator<Item = usize>, slab: &mut [f32]| {
                // SAFETY: `table` is live for this whole closure, and `x`
                // and `dy` are variables, which a weight-gradient kernel
                // only reads.
                let rows = rows.map(|r| unsafe { (x.row(r), dy.row(r)) });
                outer_rows(isa, rows, n, slab);
            };
            // A single shared slab has no type parallelism.
            let Some(pool) = pool.filter(|_| t_count >= 2 && m > 0) else {
                for_each_run(0..m, type_of, |ty, mut run| {
                    // SAFETY: the only chunk owns every slab, one at a time.
                    accumulate(&mut run, unsafe { slabs.slab_mut(ty) });
                });
                return false;
            };
            for r in 0..m {
                buckets[type_of(r)].push(r as u32);
            }
            let buckets: &[Vec<u32>] = buckets;
            pool.for_each_chunk(t_count, 1, |ci, types| {
                let tw = hector_trace::span_start();
                let n_types = types.len();
                for ty in types {
                    // SAFETY: chunks claim disjoint ranges of type
                    // slabs; rows of other types are never touched.
                    let slab = unsafe { slabs.slab_mut(ty) };
                    accumulate(&mut buckets[ty].iter().map(|&r| r as usize), slab);
                }
                record_chunk_span(tw, n_types, ci);
            });
            true
        };
        ctx.arenas.with_table(&self.vars, ctx.vars, t_count, launch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_compiler::{compile, CompileOptions};

    /// "Specialized × threads composes" as a checked fact: every
    /// traversal and GEMM kernel of every built-in model, under every
    /// option combination, forward and backward, compiles to a micro-op
    /// body — the resolver never hands a kernel back to the oracle.
    #[test]
    fn every_model_kernel_compiles() {
        for kind in hector_models::ModelKind::all() {
            for opts in [
                CompileOptions::unopt(),
                CompileOptions::compact_only(),
                CompileOptions::reorder_only(),
                CompileOptions::best(),
            ] {
                let src = hector_models::source(kind, 8, 8);
                let module = compile(&src, &opts.with_training(true));
                let bw = module.backward.as_ref().expect("compiled for training");
                for (phase, kernels, program) in [
                    ("fw", &module.fw_kernels, &module.forward),
                    ("bw", &module.bw_kernels, bw),
                ] {
                    let prepared = compile_kernels(kernels, program);
                    for (spec, k) in kernels.iter().zip(&prepared) {
                        let declined = matches!(k, PreparedKernel::Oracle);
                        assert_eq!(
                            declined,
                            matches!(spec, KernelSpec::Fallback(_)),
                            "{} / {} / {phase}: {spec:?}",
                            kind.name(),
                            module.options.label()
                        );
                    }
                }
            }
        }
    }
}
