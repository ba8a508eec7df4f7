//! The production executor: prepared micro-op plans run over row chunks.
//!
//! [`compile_kernels`] resolves every scheduling fact of a lowered
//! kernel **once** — each `Operand` match, variable lookup, space and
//! endpoint decision, aggregation kind, the dst-node pass schedule, which
//! register-local variables never leave the core — into a prepared
//! kernel. A launch hands each chunk a **(row range, aggregate sink)**
//! pair:
//!
//! * **One chunk** (one thread, or a kernel that must not split): the
//!   range is the whole domain and the sink is absent — aggregates and
//!   scatters fold where they land, in ascending-row order.
//! * **Many chunks**: disjoint ranges on the pool, row-aligned outputs
//!   written directly, aggregate/scatter contributions recorded per
//!   chunk and replayed in ascending chunk order (see [`super::chunk`]
//!   for why that is bit-exact).
//!
//! **Traversals** ([`MicroKernel`]) run one block-fused loop. A chunk
//! binds every op's operands, row maps and output once ([`BoundOp`]),
//! then walks its rows in blocks of [`BLOCK`] and runs *all* ops over a
//! block before moving on; dispatch on the op kind is per (op, block),
//! never per element. Row domains (edges, unique pairs, nodes) block
//! their range; a dst-node kernel (edge softmax and friends) runs the
//! same body per destination, passing over blocks of its in-edge list
//! once per inner pass, with the hoisted node ops and the mid-pass `-inf`
//! sweep a zero-in-degree destination needs after each pass. The
//! **register-local** variables of the kernel ([`block_resident`]) are
//! rows of the chunk's scratch — a block per local, or a destination's
//! in-edge list — so a fused temporary is written and read back while it
//! is still in cache and no `[E, w]` tensor exists for it.
//!
//! This is the oracle's row-major order (`for row { for op }`)
//! interchanged only *inside* a block, which is bit-exact: pure ops are
//! row-local, and every aggregate output still receives its
//! contributions in ascending iterated-row order, because the resolver
//! declines a kernel in which two ops write one output or an op reads
//! back an aggregate other than the owned destination's (whose reads the
//! compiler stages into a later pass).
//!
//! **GEMMs** ([`LinearKernel`], [`GradWKernel`]) are resolved and bound
//! here and run by [`super::gemm`]. A kernel the resolver declines runs
//! through the oracle's loop as one chunk; `every_model_kernel_compiles`
//! pins that no built-in model produces one.

use std::collections::HashSet;
use std::ops::Range;

use hector_ir::{
    AggNorm, BinOp, Endpoint, KernelSpec, OpKind, Operand, Program, RowDomain, Space,
    TraversalDomain, TraversalSpec, UnOp, VarId, WeightId,
};

use crate::exec::{
    binary_row, dot, dot_lanes, dst_private_max_aggs, max_agg_outputs, sweep_neg_inf, unary_row,
    with_binary_fn, with_unary_fn,
};
use crate::{GraphData, ParamStore};

use super::chunk::{
    block_resident, buffered_agg_outs, par_traversal_safe, Chunk, ContribBuf, RawRows,
};
use super::gemm::{compile_gemm, GradWKernel, LinearKernel};
use super::ExecCtx;

/// Rows a traversal runs every op over before moving to the next rows:
/// large enough that the per-(op, block) dispatch vanishes and `Edge×1`
/// attention scalars are short vector loops, small enough that a block
/// of 64-wide locals stays in L1.
const BLOCK: usize = 32;

/// One kernel of a prepared plan.
pub(crate) enum PreparedKernel {
    /// A traversal compiled to micro-ops.
    Micro(MicroKernel),
    /// A `TypedLinear` GEMM.
    Linear(LinearKernel),
    /// A `TypedLinearGradW` GEMM (type-slab scheme).
    GradW(GradWKernel),
    /// No prepared body — weight-prep fallbacks, and kernels the
    /// resolver declined: the oracle's routine runs it, as one chunk.
    Oracle,
}

impl PreparedKernel {
    /// Whether register-local `v` of this kernel lives in block scratch
    /// and needs no buffer.
    pub(super) fn holds_local(&self, v: VarId) -> bool {
        matches!(self, PreparedKernel::Micro(k) if k.locals.iter().any(|l| l.var == v))
    }
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
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum RowMap {
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

/// An operand (or output) with every space/endpoint decision already
/// made: a chunk binds the referenced storage once and indexes it per
/// row — no `Operand` match, no hash lookup in the loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum PreOperand {
    /// An inline IR constant (broadcast scalar).
    Const(f32),
    /// Per-edge-type weight vector; the slab index comes from the
    /// iterated domain's edge-type array (`true`: unique-pair rows).
    WVec(WeightId, bool),
    /// A launch-table variable through a prepare-time row map.
    Var(usize, RowMap),
    /// A block-resident local (index into [`MicroKernel::locals`]).
    Local(usize),
}

/// One fused traversal op compiled for execution over blocks of rows.
#[derive(Clone, Debug)]
struct MicroOp {
    a: PreOperand,
    /// The second operand of a dot product or binary op; an aggregate's
    /// scale.
    b: Option<PreOperand>,
    out: PreOperand,
    kind: Kind,
    /// The row context the op was resolved in (a dst-node kernel's
    /// hoisted ops see the node, the rest an in-edge).
    rows: RowDomain,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Dot,
    Bin(BinOp),
    Un(UnOp),
    Agg {
        max: bool,
        /// The target row may belong to another chunk: record the
        /// contribution instead of folding it when the launch splits.
        deferred: bool,
    },
}

/// The row space a row-aligned store lands in, per row domain.
pub(super) fn space_of(rows: RowDomain) -> Space {
    match rows {
        RowDomain::Edges => Space::Edge,
        RowDomain::UniquePairs => Space::Compact,
        RowDomain::Nodes => Space::Node,
    }
}

/// Prepare-time operand/op resolution; collects the kernel's variables
/// into launch-table slot order as it goes.
pub(super) struct Resolver<'a> {
    pub(super) program: &'a Program,
    pub(super) vars: Vec<VarId>,
    /// The kernel's block-resident locals, in [`MicroKernel::locals`]
    /// order: resolved to [`PreOperand::Local`], never given a slot.
    pub(super) resident: Vec<VarId>,
}

impl Resolver<'_> {
    pub(super) fn slot(&mut self, v: VarId) -> usize {
        self.vars.iter().position(|&x| x == v).unwrap_or_else(|| {
            self.vars.push(v);
            self.vars.len() - 1
        })
    }

    fn var(&mut self, v: VarId, map: RowMap) -> PreOperand {
        match self.resident.iter().position(|&x| x == v) {
            Some(i) => PreOperand::Local(i),
            None => PreOperand::Var(self.slot(v), map),
        }
    }

    /// Mirrors the oracle's `read_operand` context × operand table;
    /// `None` for any combination it calls unreachable.
    pub(super) fn operand(&mut self, o: &Operand, rows: RowDomain) -> Option<PreOperand> {
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
                self.var(*v, map)
            }
            Operand::Edge(v) => {
                let map = match (rows, self.program.var(*v).space) {
                    (RowDomain::Edges, Space::Edge) => RowMap::This,
                    (RowDomain::Edges, Space::Compact) => RowMap::EdgeToUnique,
                    (RowDomain::UniquePairs, Space::Compact) => RowMap::This,
                    _ => return None,
                };
                self.var(*v, map)
            }
        })
    }

    /// A row-aligned output: its space must be the iterated domain's.
    fn aligned_out(&mut self, out: VarId, rows: RowDomain) -> Option<PreOperand> {
        (self.program.var(out).space == space_of(rows)).then(|| self.var(out, RowMap::This))
    }

    /// One fused traversal op, resolved in the `rows` context.
    fn traversal_op(
        &mut self,
        kind: &OpKind,
        rows: RowDomain,
        deferred: &HashSet<VarId>,
    ) -> Option<MicroOp> {
        let (a, b, out, kind) = match kind {
            OpKind::DotProduct { a, b, out } => {
                (a, Some(b), self.aligned_out(*out, rows)?, Kind::Dot)
            }
            OpKind::Binary { op, a, b, out } => {
                (a, Some(b), self.aligned_out(*out, rows)?, Kind::Bin(*op))
            }
            OpKind::Unary { op, a, out } => (a, None, self.aligned_out(*out, rows)?, Kind::Un(*op)),
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
                let kind = Kind::Agg {
                    max: *norm == AggNorm::Max,
                    deferred: deferred.contains(out),
                };
                (edge_val, scale.as_ref(), self.var(*out, map), kind)
            }
            OpKind::TypedLinear { .. } | OpKind::TypedLinearGradW { .. } => return None,
        };
        Some(MicroOp {
            a: self.operand(a, rows)?,
            b: match b {
                Some(b) => Some(self.operand(b, rows)?),
                None => None,
            },
            out,
            kind,
            rows,
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
    /// Per pass: indices of the dst-private max-aggregates whose output
    /// row is swept once the destination's in-edge loop is done.
    mid_sweeps: Vec<Vec<usize>>,
}

/// How a [`MicroKernel`] walks its domain.
enum Shape {
    /// Blocks of the chunk's row range.
    Rows(RowDomain),
    /// Destination nodes with staged inner passes over blocks of their
    /// in-edges.
    DstNodes(DstSched),
}

/// A register-local variable kept in the chunk's scratch.
struct LocalVar {
    var: VarId,
    width: usize,
    /// Only row 0 is used (a dst-node kernel's per-destination value)
    /// rather than one row per block position.
    one: bool,
    /// Offset in the chunk's locals block, in rows of one float per
    /// position.
    offset: usize,
}

/// A traversal kernel compiled to micro-ops.
pub(crate) struct MicroKernel {
    /// Buffer-backed variables the kernel touches; micro-ops name them
    /// by index.
    vars: Vec<VarId>,
    locals: Vec<LocalVar>,
    ops: Vec<MicroOp>,
    /// Slots of buffer-backed max-aggregate outputs: seeded `-inf`
    /// before the launch so the true maximum survives all-negative
    /// inputs, swept back to `0` afterwards for groups no edge touched.
    max_outs: Vec<usize>,
    /// The dataflow forbids splitting: always one chunk.
    solo: bool,
    shape: Shape,
}

fn compile_traversal(spec: &TraversalSpec, program: &Program) -> Option<MicroKernel> {
    let mut rs = Resolver {
        program,
        vars: Vec::new(),
        resident: block_resident(spec, program),
    };
    let buffered = buffered_agg_outs(spec, program);
    // The block interchange keeps the oracle's bits only while no op
    // sees a partially folded aggregate other than through the staged
    // passes of a dst-node kernel.
    let reads_back = |op: &hector_ir::Op| {
        let mut vars = op.kind.operands().filter_map(Operand::var);
        vars.any(|v| buffered.contains(&v))
    };
    if spec.ops.iter().any(reads_back) {
        return None;
    }
    let domain = match spec.domain {
        TraversalDomain::Edges => Some(RowDomain::Edges),
        TraversalDomain::UniquePairs => Some(RowDomain::UniquePairs),
        TraversalDomain::Nodes => Some(RowDomain::Nodes),
        TraversalDomain::DstNodes => None,
    };
    let mut ops: Vec<MicroOp> = Vec::with_capacity(spec.ops.len());
    for op in &spec.ops {
        // Dst-node kernels: hoisted ops see the node, the rest an in-edge.
        let rows = domain.unwrap_or(if spec.hoisted.contains(&op.id) {
            RowDomain::Nodes
        } else {
            RowDomain::Edges
        });
        let m = rs.traversal_op(&op.kind, rows, &buffered)?;
        // A bound op holds a shared view of its operand rows and a
        // mutable one of its output row at once, and two ops folding
        // into one output would interleave differently per block.
        let is_out = |o: PreOperand| match (o, m.out) {
            (PreOperand::Var(x, _), PreOperand::Var(y, _)) => x == y,
            (x, y) => x == y,
        };
        if is_out(m.a) || m.b.is_some_and(is_out) || ops.iter().any(|o| is_out(o.out)) {
            return None;
        }
        ops.push(m);
    }
    let shape = match domain {
        Some(domain) => Shape::Rows(domain),
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
                sweeps.extend(dst_private_max_aggs(spec, program, pass).map(|(i, _)| i));
            }
            Shape::DstNodes(sched)
        }
    };
    let mut offset = 0;
    let locals = rs.resident.iter().map(|&var| {
        let info = program.var(var);
        offset += info.width;
        LocalVar {
            var,
            width: info.width,
            one: domain.is_none() && info.space == Space::Node,
            offset: offset - info.width,
        }
    });
    Some(MicroKernel {
        locals: locals.collect(),
        max_outs: max_agg_outputs(spec)
            .filter_map(|v| match rs.var(v, RowMap::This) {
                PreOperand::Var(slot, _) => Some(slot),
                _ => None,
            })
            .collect(),
        solo: !par_traversal_safe(spec, program),
        vars: rs.vars,
        ops,
        shape,
    })
}

/// Everything the chunks of one launch share, read-only.
pub(super) struct Launch<'a> {
    pub(super) graph: &'a GraphData,
    pub(super) params: &'a ParamStore,
    pub(super) table: &'a [RawRows],
}

/// Which row of a bound view a row position addresses.
#[derive(Clone, Copy)]
pub(super) enum Idx<'a> {
    /// The iterated row.
    This,
    /// The iterated row through a row map (or, for a weight vector, the
    /// edge-type array).
    Map(&'a [u32]),
    /// The owned destination's row (dst-node kernels).
    Owned,
    /// The block position: a block-resident local.
    Pos,
    /// Row 0: a block-resident per-destination local.
    One,
}

/// A [`PreOperand`] bound to its storage for one chunk.
#[derive(Clone, Copy)]
pub(super) enum Bound<'a> {
    Const(f32),
    Rows(RawRows, Idx<'a>),
}

impl Bound<'_> {
    /// The operand at iterated row `r` of a row domain (GEMM kernels,
    /// which bind through [`Launch::bind`] only).
    ///
    /// # Safety
    ///
    /// The launch this operand was bound in is live, `r` is a row of the
    /// domain it was bound for, and no chunk concurrently writes the row.
    #[inline]
    pub(super) unsafe fn row(&self, r: usize) -> &[f32] {
        match self {
            Bound::Const(v) => std::slice::from_ref(v),
            // SAFETY: `Launch::bind` checked the view against the space
            // the index lands in; the rest is the caller's.
            Bound::Rows(t, Idx::This) => unsafe { t.row(r) },
            // SAFETY: as above.
            Bound::Rows(t, Idx::Map(m)) => unsafe { t.row(m[r] as usize) },
            Bound::Rows(..) => unreachable!("block addressing outside a traversal"),
        }
    }

    /// Resolves the operand's row for every position of `blk`: the one
    /// place a block looks at the addressing mode. The cursor points
    /// into `self` for a constant, so it must not outlive the operand.
    #[inline]
    fn cursor(&self, blk: &Block<'_>) -> Cursor {
        fn fill(rows: &mut [usize], row_of: impl Fn(usize) -> usize) {
            (0..).zip(rows).for_each(|(j, row)| *row = row_of(j));
        }
        let mut rows = [0usize; BLOCK];
        let at = &mut rows[..blk.len];
        let view = match self {
            Bound::Const(v) => RawRows::reading(std::slice::from_ref(v), 1),
            Bound::Rows(t, idx) => {
                match idx {
                    Idx::This => fill(at, |j| blk.row(j)),
                    Idx::Map(m) => fill(at, |j| m[blk.row(j)] as usize),
                    Idx::Owned => at.fill(blk.v),
                    Idx::Pos => fill(at, |j| blk.p0 + j),
                    Idx::One => {}
                }
                *t
            }
        };
        debug_assert!(rows[..blk.len].iter().all(|&r| r < view.rows()));
        Cursor { view, rows }
    }
}

/// One operand's rows over a block, ready to index by block position.
struct Cursor {
    view: RawRows,
    rows: [usize; BLOCK],
}

impl Cursor {
    /// # Safety
    ///
    /// `j` is a position of the block the cursor was made for, under the
    /// contract of [`BoundOp::run`].
    #[inline]
    unsafe fn get(&self, j: usize) -> &[f32] {
        // SAFETY: forwarded to the caller.
        unsafe { self.view.row(self.rows[j]) }
    }

    /// # Safety
    ///
    /// As [`Self::get`], and the chunk owns the row.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn get_mut(&self, j: usize) -> &mut [f32] {
        // SAFETY: forwarded to the caller.
        unsafe { self.view.row_mut(self.rows[j]) }
    }
}

impl<'a> Launch<'a> {
    pub(super) fn map(&self, map: RowMap) -> Option<&'a [u32]> {
        match map {
            RowMap::This => None,
            RowMap::Src => Some(self.graph.graph().src()),
            RowMap::Dst => Some(self.graph.graph().dst()),
            RowMap::EdgeToUnique => Some(self.graph.compact().edge_to_unique()),
            RowMap::UniqueRowIdx => Some(self.graph.compact().unique_row_idx()),
        }
    }

    /// Binds `o` for rows of `rows`. This is the range check of every
    /// later unchecked row access through the result, once per operand
    /// instead of once per row: the view must cover the whole space the
    /// row map lands in, and the graph's index arrays only hold rows of
    /// that space.
    pub(super) fn bind(&self, o: &PreOperand, rows: RowDomain) -> Bound<'a> {
        match o {
            PreOperand::Const(c) => Bound::Const(*c),
            PreOperand::WVec(w, unique) => {
                let (wt, et) = (self.params.weight(*w), self.graph.graph().num_edge_types());
                assert!(
                    wt.shape()[0] >= et,
                    "weight vector without a slab per edge type"
                );
                let etype = if *unique {
                    self.graph.unique_etype()
                } else {
                    self.graph.graph().etype()
                };
                Bound::Rows(RawRows::reading(wt.data(), wt.width()), Idx::Map(etype))
            }
            PreOperand::Var(slot, map) => {
                let view = self.table[*slot];
                let target = match map {
                    RowMap::This => self.graph.rows_of(rows),
                    RowMap::Src | RowMap::Dst | RowMap::UniqueRowIdx => {
                        self.graph.graph().num_nodes()
                    }
                    RowMap::EdgeToUnique => self.graph.compact().num_unique(),
                };
                assert!(view.rows() >= target, "variable narrower than its space");
                Bound::Rows(view, self.map(*map).map_or(Idx::This, Idx::Map))
            }
            PreOperand::Local(_) => unreachable!("locals are bound by their kernel"),
        }
    }
}

/// One block of a chunk: up to [`BLOCK`] iterated rows — consecutive
/// from `start`, or the listed in-edges of destination `v` — whose
/// block-resident locals sit at positions `p0..`.
struct Block<'a> {
    ids: Option<&'a [u32]>,
    start: usize,
    len: usize,
    p0: usize,
    v: usize,
}

impl<'a> Block<'a> {
    /// `len` consecutive rows from `start` (for a node-level position of
    /// a dst-node kernel: the destination itself).
    fn rows(start: usize, len: usize) -> Block<'a> {
        Block {
            ids: None,
            start,
            len,
            p0: 0,
            v: start,
        }
    }

    /// In-edges `ids` of destination `v`, the first at position `p0`.
    fn in_edges(ids: &'a [u32], p0: usize, v: usize) -> Block<'a> {
        Block {
            ids: Some(ids),
            start: 0,
            len: ids.len(),
            p0,
            v,
        }
    }

    /// The iterated row at position `j`.
    #[inline]
    fn row(&self, j: usize) -> usize {
        self.ids.map_or(self.start + j, |ids| ids[j] as usize)
    }
}

/// A [`MicroOp`] bound for one chunk: nothing left to look up per row.
pub(super) struct BoundOp<'a> {
    a: Bound<'a>,
    /// `Const(1.0)` for an unscaled aggregate.
    b: Bound<'a>,
    out: Bound<'a>,
    kind: Kind,
    /// Launch-table slot of a deferred aggregate's output.
    slot: usize,
    /// What a per-destination local aggregate starts every destination
    /// from: `0` for sums, `-inf` for maxima.
    seed: Option<f32>,
}

impl BoundOp<'_> {
    /// Runs the op over every row of `blk` — the single home of each op
    /// kind's row semantics, performing the oracle's float operations in
    /// ascending row order. Row-aligned results land directly in the
    /// output rows; aggregate contributions fold in place, or — when the
    /// launch split (`sink` present) and the target row may be another
    /// chunk's — are recorded in `sink` for the ordered merge.
    ///
    /// # Safety
    ///
    /// The op was bound for the calling chunk of a live launch, `blk`
    /// lies inside that chunk (its rows, or a claimed destination and
    /// that destination's in-edges, at positions inside the locals
    /// block), and the chunk holds its range exclusively. With that,
    /// every row a cursor resolves is inside its view (sized and checked
    /// at bind time against the space the graph's index arrays land in),
    /// each write targets a row only this chunk touches (its own rows,
    /// its scratch, the owned destination; a launch that did not split
    /// owns every row), every operand row is read-only in this kernel,
    /// written by this chunk, or the owned destination's
    /// ([`par_traversal_safe`]), and since prepare rejects ops that read
    /// their own output no shared and mutable view of one row coexist.
    unsafe fn run(&self, blk: &Block<'_>, sink: Option<&mut ContribBuf>) {
        let (a, b, out) = (self.a.cursor(blk), self.b.cursor(blk), self.out.cursor(blk));
        let rows = 0..blk.len;
        // SAFETY: every `get`/`get_mut` below is at a position of `blk`,
        // under this function's contract.
        unsafe {
            match self.kind {
                Kind::Dot => {
                    let lanes = blk.len - blk.len % 4;
                    for j in (0..lanes).step_by(4) {
                        let at = [j, j + 1, j + 2, j + 3];
                        let dots = dot_lanes(at.map(|j| a.get(j)), at.map(|j| b.get(j)));
                        for (j, d) in at.into_iter().zip(dots) {
                            out.get_mut(j).copy_from_slice(&[d]);
                        }
                    }
                    for j in lanes..blk.len {
                        out.get_mut(j).copy_from_slice(&[dot(a.get(j), b.get(j))]);
                    }
                }
                Kind::Bin(op) => with_binary_fn!(op, f => rows.for_each(|j| {
                    binary_row(f, a.get(j), b.get(j), out.get_mut(j));
                })),
                Kind::Un(op) => with_unary_fn!(op, f => rows.for_each(|j| {
                    unary_row(f, a.get(j), out.get_mut(j));
                })),
                Kind::Agg { max, deferred } => match sink.filter(|_| deferred) {
                    Some(buf) => rows.for_each(|j| {
                        let (x, i) = (a.get(j), out.rows[j]);
                        if max {
                            buf.push(self.slot, i, x.iter().copied(), true);
                        } else {
                            let s = b.get(j)[0];
                            buf.push(self.slot, i, x.iter().map(|v| v * s), false);
                        }
                    }),
                    None => rows.for_each(|j| {
                        let (x, acc) = (a.get(j), out.get_mut(j));
                        if max {
                            for (acc, v) in acc.iter_mut().zip(x) {
                                *acc = acc.max(*v);
                            }
                        } else {
                            let s = b.get(j)[0];
                            for (acc, &v) in acc.iter_mut().zip(x) {
                                *acc += v * s;
                            }
                        }
                    }),
                },
            }
        }
    }

    /// Hands `f` the output row of the node-level position `node` (a
    /// dst-node kernel's owned destination, or its stand-in in the
    /// chunk's scratch).
    ///
    /// # Safety
    ///
    /// As [`Self::run`], for the one-row block `node`.
    unsafe fn with_out_row(&self, node: &Block<'_>, f: impl FnOnce(&mut [f32])) {
        // SAFETY: forwarded to the caller.
        f(unsafe { self.out.cursor(node).get_mut(0) });
    }
}

impl MicroKernel {
    /// Binds op `m` for a chunk whose locals block starts at `locals`
    /// and holds `positions` rows per block-position local.
    fn bind<'a>(
        &self,
        m: &MicroOp,
        cx: &Launch<'a>,
        locals: *mut f32,
        positions: usize,
    ) -> BoundOp<'a> {
        let dst_kernel = matches!(self.shape, Shape::DstNodes(_));
        let bind = |o: &PreOperand| match *o {
            PreOperand::Local(i) => {
                let l = &self.locals[i];
                // SAFETY: the caller sized the block at `locals` for
                // every local of this kernel at `positions` rows, so the
                // local's `positions * width` floats from its offset lie
                // inside it.
                let at = unsafe { locals.add(l.offset * positions) };
                let idx = if l.one { Idx::One } else { Idx::Pos };
                Bound::Rows(RawRows::at(at, positions, l.width), idx)
            }
            // Every in-edge of a destination maps back to it.
            PreOperand::Var(_, RowMap::Dst) if dst_kernel => match cx.bind(o, m.rows) {
                Bound::Rows(view, _) => Bound::Rows(view, Idx::Owned),
                constant => constant,
            },
            _ => cx.bind(o, m.rows),
        };
        let out = bind(&m.out);
        BoundOp {
            a: bind(&m.a),
            b: m.b.as_ref().map_or(Bound::Const(1.0), bind),
            seed: match (m.kind, &out) {
                (Kind::Agg { max, .. }, Bound::Rows(_, Idx::One)) => {
                    Some(if max { f32::NEG_INFINITY } else { 0.0 })
                }
                _ => None,
            },
            slot: match m.out {
                PreOperand::Var(slot, _) => slot,
                _ => usize::MAX,
            },
            out,
            kind: m.kind,
        }
    }

    /// One chunk's share of the launch: `range` of the kernel's domain.
    ///
    /// # Safety
    ///
    /// `cx.table` is this kernel's live launch table and the caller
    /// holds `range` exclusively: no other chunk of the launch is given
    /// an overlapping range, and a `solo` kernel is given the whole
    /// domain as its only chunk.
    unsafe fn run_chunk(&self, range: Range<usize>, cx: &Launch<'_>, chunk: Chunk<'_>) {
        let Chunk {
            scratch,
            ops: pooled,
            mut sink,
        } = chunk;
        let csc = cx.graph.csc();
        // Rows per local: a block, or (dst-node kernels, whose edge locals
        // survive from pass to pass) the chunk's longest in-edge list.
        let positions = match &self.shape {
            Shape::Rows(_) => BLOCK,
            Shape::DstNodes(_) => {
                let degrees = range.clone().map(|v| csc.in_edges(v).len());
                degrees.max().unwrap_or(0).max(1)
            }
        };
        let floats = self.locals.iter().map(|l| l.width * positions);
        // The pooled list is empty, so shortening its element lifetime to
        // this launch's borrows (covariance) moves no borrow anywhere.
        let mut ops: Vec<BoundOp<'_>> = std::mem::take(pooled);
        if ops.capacity() < self.ops.len() {
            scratch.note_external_grows(1);
        }
        let locals = scratch.locals(floats.sum()).as_mut_ptr();
        ops.extend(self.ops.iter().map(|m| self.bind(m, cx, locals, positions)));
        // Every `BoundOp::run` below inherits this function's contract:
        // the rows of a block are `range`'s (row domains), or a claimed
        // destination `v` and `v`'s in-edges (dst-node kernels).
        match &self.shape {
            Shape::Rows(_) => {
                for start in range.clone().step_by(BLOCK) {
                    let blk = Block::rows(start, BLOCK.min(range.end - start));
                    for op in &ops {
                        // SAFETY: see above.
                        unsafe { op.run(&blk, sink.as_deref_mut()) };
                    }
                }
            }
            Shape::DstNodes(sched) => {
                for v in range.clone() {
                    let node = Block::rows(v, 1);
                    // The scratch row still holds the previous
                    // destination's value: start over, exactly as a
                    // zero-filled (`-inf`-seeded) tensor row would.
                    for op in &ops {
                        if let Some(seed) = op.seed {
                            // SAFETY: the chunk's own scratch row.
                            unsafe { op.with_out_row(&node, |row| row.fill(seed)) };
                        }
                    }
                    for pass in 0..sched.edge_ops.len() {
                        for (b, ids) in csc.in_edges(v).chunks(BLOCK).enumerate() {
                            let blk = Block::in_edges(ids, b * BLOCK, v);
                            for &i in &sched.edge_ops[pass] {
                                // SAFETY: see above.
                                unsafe { ops[i].run(&blk, sink.as_deref_mut()) };
                            }
                        }
                        // A zero-in-degree `v` still holds the `-inf`
                        // seed, and the hoisted ops below and later
                        // passes read the row mid-kernel — long before
                        // the end-of-launch sweep.
                        for &i in &sched.mid_sweeps[pass] {
                            // SAFETY: the owned destination's row (or its
                            // stand-in in the chunk's scratch).
                            unsafe { ops[i].with_out_row(&node, sweep_neg_inf) };
                        }
                        for &i in &sched.node_ops[pass] {
                            // SAFETY: see above.
                            unsafe { ops[i].run(&node, sink.as_deref_mut()) };
                        }
                    }
                }
            }
        }
        ops.clear();
        // SAFETY: the vector is empty, and a lifetime parameter does not
        // change `BoundOp`'s layout: only the allocation changes hands.
        *pooled = unsafe { std::mem::transmute::<Vec<BoundOp<'_>>, Vec<BoundOp<'static>>>(ops) };
    }

    pub(super) fn run(&self, ctx: &mut ExecCtx<'_>) -> bool {
        for &slot in &self.max_outs {
            let t = ctx.vars.get_mut(self.vars[slot]).tensor_mut();
            t.data_mut().fill(f32::NEG_INFINITY);
        }
        let graph = ctx.graph;
        let rows = match &self.shape {
            Shape::Rows(domain) => graph.rows_of(*domain),
            Shape::DstNodes(_) => graph.graph().num_nodes(),
        };
        let params: &ParamStore = ctx.params;
        let (split, grows) = ctx.arenas.run_chunks(
            &self.vars,
            ctx.vars,
            ctx.pool.filter(|_| !self.solo),
            ctx.min_chunk,
            rows,
            |table, range, chunk| {
                let cx = Launch {
                    graph,
                    params,
                    table,
                };
                // SAFETY: `table` is the table `run_chunks` built from
                // this kernel's variables, live until it returns;
                // `run_chunks` hands every chunk a disjoint `range`,
                // and a `solo` kernel got no pool — one chunk.
                unsafe { self.run_chunk(range, &cx, chunk) };
            },
        );
        ctx.scratch.note_external_grows(grows);
        for &slot in &self.max_outs {
            sweep_neg_inf(ctx.vars.get_mut(self.vars[slot]).tensor_mut().data_mut());
        }
        split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_compiler::{compile, CompileOptions};

    /// `check(where, lowered kernel, prepared kernel)` for every kernel
    /// of every built-in model × option combination, forward and backward.
    fn for_each_model_kernel(check: impl Fn(&str, &KernelSpec, &PreparedKernel)) {
        let combos = [
            CompileOptions::unopt(),
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
            CompileOptions::best(),
        ];
        for (kind, opts) in hector_models::ModelKind::all()
            .into_iter()
            .flat_map(|kind| combos.iter().map(move |opts| (kind, opts)))
        {
            let src = hector_models::source(kind, 8, 8);
            let module = compile(&src, &opts.clone().with_training(true));
            let bw = module.backward.as_ref().expect("compiled for training");
            for (phase, kernels, program) in [
                ("fw", &module.fw_kernels, &module.forward),
                ("bw", &module.bw_kernels, bw),
            ] {
                let at = format!("{} / {} / {phase}", kind.name(), opts.label());
                for (spec, k) in kernels.iter().zip(&compile_kernels(kernels, program)) {
                    check(&format!("{at}: {spec:?}"), spec, k);
                }
            }
        }
    }

    /// "Specialized × threads composes" as a checked fact: every
    /// traversal and GEMM kernel compiles to a prepared body — the
    /// resolver never hands a kernel back to the oracle.
    #[test]
    fn every_model_kernel_compiles() {
        for_each_model_kernel(|at, spec, k| {
            let declined = matches!(k, PreparedKernel::Oracle);
            assert_eq!(declined, matches!(spec, KernelSpec::Fallback(_)), "{at}");
        });
    }

    /// Register-local means register-local: no local variable of any
    /// model needs a buffer.
    #[test]
    fn every_model_local_is_block_resident() {
        for_each_model_kernel(|at, spec, k| {
            if let KernelSpec::Traversal(t) = spec {
                assert!(t.local_vars.iter().all(|&v| k.holds_local(v)), "{at}");
            }
        });
    }
}
