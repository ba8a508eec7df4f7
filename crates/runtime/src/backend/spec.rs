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
//! their range. A dst-node kernel (edge softmax and friends) walks
//! **destination tiles** — maximal runs of consecutive destinations
//! whose in-edges fit one block together (at most [`BLOCK`] in-edges and
//! [`BLOCK`] destinations), or one heavier destination alone. Each inner
//! pass runs the edge ops over blocks of the tile's concatenated CSC
//! in-edge list, then the mid-pass `-inf` sweep (for zero-in-degree
//! destinations) and the hoisted node ops once over the tile's
//! destinations as one node block. The **register-local** variables
//! ([`block_resident`]) are rows of the chunk's scratch — a block, the
//! tile's in-edge list, or a row per tile destination — so a fused
//! temporary is read back while still in cache and no `[E, w]` tensor
//! exists for it.
//!
//! **Row tables are views.** Each bound operand names one addressing
//! ([`Idx`]): the iterated row, a map array, the block position, or the
//! destination owning an in-edge. A block sets up every addressing its
//! ops use once ([`Tables`]), and none of them is filled element by
//! element: a Rows-shape block's mapped table is a slice of the map
//! itself; an in-edge block's tables are slices, at the tile's CSC
//! offset, of `csc.edge_idx` (edge-space rows) or of the graph's
//! CSC-ordered copies of the source, destination, edge-type and
//! unique-pair maps (built once per graph, on the first dst-node launch:
//! `GraphData::in_edge_maps`). Block positions are a run of rows, and
//! the owning destination of a single-destination tile one row; only a
//! tile of several destinations reads its owners off the destination
//! map. So a width-1 operand (the `Edge×1` attention scalars) is
//! *contiguous* (a block-resident local, a Rows-shape `This` row),
//! *uniform* (a constant, a single-destination tile's own row) or
//! *gathered* (anything else). A `Bin` or `Un` op whose width-1 operands
//! are all contiguous or uniform runs a loop without index lookups, and a
//! scalar sum or max aggregate into a uniform target keeps the running
//! value in a register and stores it once — the same operations in the
//! same order.
//!
//! **Tiles for the row work.** A dot product runs the block's row pairs
//! through the row-parallel dot tile
//! (`hector_tensor::microkernel::dot_rows`), whose lanes fold each pair
//! in the oracle's sequential order. A row-wide sum aggregate folded in
//! place (non-deferred: a dst-node kernel's own destination or its
//! per-destination local) runs the aggregate tile
//! (`microkernel::accumulate_rows`): each position adds its scaled row
//! to its target in position order, one multiply then one add per
//! element, and a run of positions with one target — a
//! single-destination tile's whole in-edge list — keeps the target's
//! columns in registers and stores them once. Max aggregates and
//! contributions recorded for the ordered merge ([`ContribBuf`]) keep
//! the plain loops.
//!
//! **Destination dots are reused.** An in-edge dot product whose
//! operands are both constant along one destination's run of one edge
//! type — the owning destination's row, a per-destination local, a
//! per-edge-type weight vector or a constant; RGAT's `h_dst · a_r` — is
//! decided at prepare time ([`dot_reuse`]) to take one dot per run of
//! consecutive positions whose operand rows are both equal, copied to
//! every position of the run. The inputs are the same rows, so the dot
//! tile's lane gives the same bits; a position in the run reads nothing
//! else. On a graph whose in-edges are sorted by edge type within each
//! destination, that is one dot per (destination, edge type).
//!
//! **Products folded into their aggregates.** A row × scalar product
//! `t = x · s` whose output is a block-resident local read only by an
//! unscaled sum aggregate of the same pass and row context (`agg += t`)
//! leaves the kernel at prepare time: the aggregate takes `x` as its
//! value and `s` as its scale, and `t` gets neither a buffer nor scratch
//! rows ([`product_folds`]). The bits hold because the aggregate used to
//! add `t · 1.0`, and `t · 1.0 == t` for every float, while
//! `x · s == s · x` in IEEE arithmetic (a NaN's payload aside, which the
//! contract leaves open) — in place and through the [`ContribBuf`]
//! replay alike, which records the same scaled values. No op between the
//! two may write `x` or `s`, so the aggregate reads the values the
//! product read. The IR, the lowering, the oracle and the modeled costs
//! still see the product.
//!
//! This is the oracle's row-major order (`for row { for op }`)
//! interchanged only *inside* a block, which is bit-exact: pure ops are
//! row-local, and every aggregate output still receives its
//! contributions in ascending iterated-row order, because the lowering
//! never builds a kernel in which two ops write one output (single
//! assignment) or an op reads back an aggregate other than the owned
//! destination's (a `fusion/break`; the owned destination's reads it
//! stages into a later pass). Tiles keep that: a destination
//! finishes pass `p` over its in-edges, in order, before pass `p + 1`,
//! and a scatter (one op of one pass) sees the tile's edges in CSC
//! order. Only different destinations' passes interleave, which only an
//! op reading an in-kernel value at a source endpoint can observe — the
//! `solo` kernels ([`par_traversal_safe`]), tiled one destination each.
//!
//! **GEMMs** ([`LinearKernel`], [`GradWKernel`]) are resolved and bound
//! here and run by [`super::gemm`]; a weight prep runs
//! `ParamStore::run_prep`. Preparing is total: every lowered kernel
//! prepares, and a kernel whose operands the executor cannot address, or
//! whose op reads its own output, panics at prepare time naming the
//! kernel — the lowering never builds one.

use std::collections::HashSet;
use std::ops::Range;

use hector_ir::{
    AggNorm, BinOp, Endpoint, KernelSpec, OpKind, Operand, Program, RowDomain, Space,
    TraversalDomain, TraversalSpec, UnOp, VarId, WeightId,
};

use hector_tensor::microkernel::{accumulate_rows, dot_rows, Isa};

use crate::exec::{
    binary_row, dst_private_max_aggs, max_agg_outputs, sweep_neg_inf, unary_row, with_binary_fn,
    with_unary_fn,
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
    /// A weight prep: `ParamStore::run_prep` on the program's prep `i`.
    Prep(usize),
    /// The oracle's routine (`exec.rs`), as one chunk — the plan of
    /// [`BackendKind::Interp`](super::BackendKind::Interp) only.
    Oracle,
}

impl PreparedKernel {
    /// Whether register-local `v` of this kernel lives in block scratch
    /// (or was folded away with its product) and needs no buffer.
    pub(super) fn holds_local(&self, v: VarId) -> bool {
        matches!(self, PreparedKernel::Micro(k)
            if k.locals.iter().any(|l| l.var == v) || k.folded.contains(&v))
    }
}

/// Resolves each lowered kernel of `program` into its prepared form.
///
/// # Panics
///
/// Panics, naming the kernel, on a kernel the lowering never builds (see
/// the module docs).
pub(super) fn compile_kernels(kernels: &[KernelSpec], program: &Program) -> Vec<PreparedKernel> {
    kernels
        .iter()
        .map(|spec| match spec {
            KernelSpec::Traversal(t) => PreparedKernel::Micro(compile_traversal(t, program)),
            KernelSpec::Gemm(g) => compile_gemm(g, program),
            KernelSpec::Fallback(f) => PreparedKernel::Prep(f.prep_index),
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
    /// Edge row → its edge type (a weight vector's slab).
    Etype,
    /// Unique-pair row → its edge type.
    UniqueEtype,
}

/// An operand (or output) with every space/endpoint decision already
/// made: a chunk binds the referenced storage once and indexes it per
/// row — no `Operand` match, no hash lookup in the loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum PreOperand {
    /// An inline IR constant (broadcast scalar).
    Const(f32),
    /// Per-edge-type weight vector; the slab index comes through the
    /// iterated domain's edge-type map.
    WVec(WeightId, RowMap),
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
    Dot {
        /// Both operands are constant along one destination's run of one
        /// edge type: one dot per run of equal operand rows
        /// ([`dot_reuse`]).
        reuse: bool,
    },
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
    /// The kernel being resolved, for the prepare-time assertions.
    pub(super) kernel: &'a str,
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

    /// Fails the prepare-time assertion `what`, naming the kernel: the
    /// lowering never builds a kernel that gets here.
    pub(super) fn reject(&self, what: std::fmt::Arguments<'_>) -> ! {
        panic!("{}: {what}", self.kernel)
    }

    /// Mirrors the oracle's `read_operand` context × operand table,
    /// rejecting every combination it calls unreachable.
    pub(super) fn operand(&mut self, o: &Operand, rows: RowDomain) -> PreOperand {
        let unreadable =
            |rs: &Self| -> ! { rs.reject(format_args!("no {rows:?} row reads {o:?}")) };
        match o {
            Operand::Const(c) => PreOperand::Const(*c),
            Operand::WeightVec(w) => match rows {
                RowDomain::Edges => PreOperand::WVec(*w, RowMap::Etype),
                RowDomain::UniquePairs => PreOperand::WVec(*w, RowMap::UniqueEtype),
                RowDomain::Nodes => unreadable(self),
            },
            Operand::Node(v, ep) => {
                let map = match (rows, ep) {
                    (RowDomain::Edges, Endpoint::Src) => RowMap::Src,
                    (RowDomain::Edges, Endpoint::Dst) => RowMap::Dst,
                    (RowDomain::UniquePairs, Endpoint::Src) => RowMap::UniqueRowIdx,
                    (RowDomain::Nodes, Endpoint::This | Endpoint::Dst) => RowMap::This,
                    _ => unreadable(self),
                };
                self.var(*v, map)
            }
            Operand::Edge(v) => {
                let map = match (rows, self.program.var(*v).space) {
                    (RowDomain::Edges, Space::Edge) => RowMap::This,
                    (RowDomain::Edges, Space::Compact) => RowMap::EdgeToUnique,
                    (RowDomain::UniquePairs, Space::Compact) => RowMap::This,
                    _ => unreadable(self),
                };
                self.var(*v, map)
            }
        }
    }

    /// A row-aligned output: its space must be the iterated domain's.
    fn aligned_out(&mut self, out: VarId, rows: RowDomain) -> PreOperand {
        if self.program.var(out).space != space_of(rows) {
            self.reject(format_args!("a {rows:?} row writes {out:?} unaligned"));
        }
        self.var(out, RowMap::This)
    }

    /// One fused traversal op, resolved in the `rows` context.
    fn traversal_op(
        &mut self,
        kind: &OpKind,
        rows: RowDomain,
        deferred: &HashSet<VarId>,
    ) -> MicroOp {
        let (a, b, out, kind) = match kind {
            OpKind::DotProduct { a, b, out } => {
                let kind = Kind::Dot { reuse: false };
                (a, Some(b), self.aligned_out(*out, rows), kind)
            }
            OpKind::Binary { op, a, b, out } => {
                (a, Some(b), self.aligned_out(*out, rows), Kind::Bin(*op))
            }
            OpKind::Unary { op, a, out } => (a, None, self.aligned_out(*out, rows), Kind::Un(*op)),
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
                    _ => self.reject(format_args!("a {rows:?} row aggregates into {out:?}")),
                };
                let kind = Kind::Agg {
                    max: *norm == AggNorm::Max,
                    deferred: deferred.contains(out),
                };
                (edge_val, scale.as_ref(), self.var(*out, map), kind)
            }
            OpKind::TypedLinear { .. } | OpKind::TypedLinearGradW { .. } => {
                self.reject(format_args!("a GEMM op in a traversal"))
            }
        };
        MicroOp {
            a: self.operand(a, rows),
            b: b.map(|b| self.operand(b, rows)),
            out,
            kind,
            rows,
        }
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
    /// Tiles of destination nodes with staged inner passes over blocks
    /// of their in-edges.
    DstNodes(DstSched),
}

/// A register-local variable kept in the chunk's scratch.
struct LocalVar {
    var: VarId,
    width: usize,
    /// A dst-node kernel's per-destination value: one row per tile
    /// destination rather than one per in-edge position.
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
    /// Locals of products folded into their aggregates: written by no
    /// op, so held nowhere at all.
    folded: Vec<VarId>,
    ops: Vec<MicroOp>,
    /// Slots of buffer-backed max-aggregate outputs: seeded `-inf`
    /// before the launch so the true maximum survives all-negative
    /// inputs, swept back to `0` afterwards for groups no edge touched.
    max_outs: Vec<usize>,
    /// The dataflow forbids splitting: always one chunk.
    solo: bool,
    shape: Shape,
}

/// A product an aggregate folds in: op `mul` writes the block-resident
/// local `var` as `row × scalar`, and its one reader, the unscaled sum
/// aggregate `agg`, takes the product's operands instead (`kind`): the
/// row as its value, the scalar as its scale.
struct Fold {
    mul: usize,
    agg: usize,
    var: VarId,
    kind: OpKind,
}

/// The products of `spec` an aggregate folds in (see the module docs).
/// A `Binary{Mul}` qualifies when its output is one of the `resident`
/// locals, read by exactly one op — an unscaled sum aggregate of the
/// same pass and row context, as its value — one operand is a scalar
/// and the other as wide as the local, and no op between the two writes
/// an operand or the aggregate writes one.
fn product_folds(spec: &TraversalSpec, program: &Program, resident: &[VarId]) -> Vec<Fold> {
    // Width of a row an operand reads; a weight vector never folds.
    let width = |o: &Operand| match o {
        Operand::Const(_) => Some(1),
        Operand::Node(v, _) | Operand::Edge(v) => Some(program.var(*v).width),
        Operand::WeightVec(_) => None,
    };
    let context = |i: usize| {
        let hoisted = spec.hoisted.contains(&spec.ops[i].id);
        (spec.stages.get(i).copied().unwrap_or(0), hoisted)
    };
    let mut folds = Vec::new();
    for (mul, op) in spec.ops.iter().enumerate() {
        let OpKind::Binary {
            op: BinOp::Mul,
            a,
            b,
            out: var,
        } = &op.kind
        else {
            continue;
        };
        if !resident.contains(var) {
            continue;
        }
        let reads = |o: &Operand| o.var() == Some(*var);
        let mut readers = (0..spec.ops.len()).filter(|&i| spec.ops[i].kind.operands().any(reads));
        let (Some(agg), None) = (readers.next(), readers.next()) else {
            continue;
        };
        let OpKind::NodeAggregate {
            edge_val,
            scale: None,
            norm: AggNorm::None,
            endpoint,
            out,
        } = &spec.ops[agg].kind
        else {
            continue;
        };
        let w = program.var(*var).width;
        let (value, scalar) = match (width(a), width(b)) {
            (Some(wa), Some(1)) if wa == w => (a, b),
            (Some(1), Some(wb)) if wb == w => (b, a),
            _ => continue,
        };
        let written = |o: &Operand| {
            o.var().is_some_and(|v| {
                v == *out
                    || spec.ops[mul + 1..agg]
                        .iter()
                        .any(|x| x.kind.out_var() == Some(v))
            })
        };
        let fits = reads(edge_val) && mul < agg && context(mul) == context(agg);
        if !fits || written(value) || written(scalar) {
            continue;
        }
        folds.push(Fold {
            mul,
            agg,
            var: *var,
            kind: OpKind::NodeAggregate {
                edge_val: value.clone(),
                scale: Some(scalar.clone()),
                norm: AggNorm::None,
                endpoint: *endpoint,
                out: *out,
            },
        });
    }
    folds
}

/// Whether both operands of an in-edge dot product `m` of a dst-node
/// kernel are constant along one destination's run of one edge type:
/// the owning destination's row, a per-destination local, a per-edge-type
/// weight vector or a constant. Such a dot is computed once per run of
/// equal operand rows and copied to the run ([`dot_block`]) — RGAT's
/// `h_dst · a_r`. Decided here, once, never per position.
fn dot_reuse(m: &MicroOp, rs: &Resolver<'_>) -> bool {
    let per_run = |o: &PreOperand| match *o {
        PreOperand::Const(_) | PreOperand::WVec(_, RowMap::Etype) => true,
        PreOperand::Var(_, RowMap::Dst) => true,
        PreOperand::Local(i) => rs.program.var(rs.resident[i]).space == Space::Node,
        _ => false,
    };
    per_run(&m.a) && m.b.as_ref().is_some_and(per_run)
}

fn compile_traversal(spec: &TraversalSpec, program: &Program) -> MicroKernel {
    let resident = block_resident(spec, program);
    let folds = product_folds(spec, program, &resident);
    let folded = |v: &VarId| folds.iter().any(|f| f.var == *v);
    // The kernel's ops, by index into `spec.ops`: a folded product leaves
    // the kernel and its aggregate takes the product's operands.
    let kernel_ops: Vec<(usize, &OpKind)> = (spec.ops.iter().enumerate())
        .filter(|&(i, _)| !folds.iter().any(|f| f.mul == i))
        .map(|(i, op)| match folds.iter().find(|f| f.agg == i) {
            Some(f) => (i, &f.kind),
            None => (i, &op.kind),
        })
        .collect();
    let mut rs = Resolver {
        program,
        kernel: &spec.name,
        vars: Vec::new(),
        resident: resident.iter().copied().filter(|v| !folded(v)).collect(),
    };
    let buffered = buffered_agg_outs(spec, program);
    let domain = match spec.domain {
        TraversalDomain::Edges => Some(RowDomain::Edges),
        TraversalDomain::UniquePairs => Some(RowDomain::UniquePairs),
        TraversalDomain::Nodes => Some(RowDomain::Nodes),
        TraversalDomain::DstNodes => None,
    };
    let hoisted = |i: usize| spec.hoisted.contains(&spec.ops[i].id);
    let mut ops: Vec<MicroOp> = Vec::with_capacity(kernel_ops.len());
    for &(i, kind) in &kernel_ops {
        // Dst-node kernels: hoisted ops see the node, the rest an in-edge.
        let rows = domain.unwrap_or(if hoisted(i) {
            RowDomain::Nodes
        } else {
            RowDomain::Edges
        });
        let mut m = rs.traversal_op(kind, rows, &buffered);
        if let Kind::Dot { .. } = m.kind {
            let reuse = domain.is_none() && rows == RowDomain::Edges && dot_reuse(&m, &rs);
            m.kind = Kind::Dot { reuse };
        }
        // A bound op holds a shared view of its operand rows and a
        // mutable one of its output row at once, and two ops folding
        // into one output would interleave differently per block.
        let is_out = |o: PreOperand| match (o, m.out) {
            (PreOperand::Var(x, _), PreOperand::Var(y, _)) => x == y,
            (x, y) => x == y,
        };
        if is_out(m.a) || m.b.is_some_and(is_out) || ops.iter().any(|o| is_out(o.out)) {
            rs.reject(format_args!("op {:?} aliases an output", spec.ops[i].id));
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
            for (k, &(i, _)) in kernel_ops.iter().enumerate() {
                if hoisted(i) {
                    sched.node_ops[spec.stages[i]].push(k);
                } else {
                    sched.edge_ops[spec.stages[i]].push(k);
                }
            }
            let at = |i: usize| kernel_ops.iter().position(|&(j, _)| j == i);
            for (pass, sweeps) in sched.mid_sweeps.iter_mut().enumerate() {
                sweeps.extend(
                    dst_private_max_aggs(spec, program, pass)
                        .map(|(i, _)| at(i).expect("a max-aggregate never folds")),
                );
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
    MicroKernel {
        locals: locals.collect(),
        folded: folds.iter().map(|f| f.var).collect(),
        max_outs: max_agg_outputs(spec)
            .filter_map(|v| match rs.var(v, RowMap::This) {
                PreOperand::Var(slot, _) => Some(slot),
                _ => None,
            })
            .collect(),
        solo: !par_traversal_safe(spec),
        vars: rs.vars,
        ops,
        shape,
    }
}

/// Everything the chunks of one launch share, read-only.
pub(super) struct Launch<'a> {
    pub(super) graph: &'a GraphData,
    pub(super) params: &'a ParamStore,
    pub(super) table: &'a [RawRows],
}

/// How a bound operand picks its row at each position of a block. Each
/// addressing is one row table of the block ([`Tables`]), whatever the
/// number of ops that use it.
#[derive(Clone, Copy)]
pub(super) enum Idx<'a> {
    /// The iterated row through a row map (`None`: [`RowMap::This`]).
    Row(RowMap, Option<&'a [u32]>),
    /// The block position: a block-resident local.
    Pos,
    /// The tile destination that owns the in-edge at a position (its
    /// `dst`, from the CSC-ordered destination map): an in-edge's own
    /// destination row in a dst-node kernel.
    Owned,
    /// [`Idx::Owned`] counted from the tile's first destination: a
    /// per-destination local, read or folded per in-edge.
    Tile,
}

/// Row tables a block can hold: the three positional addressings, then
/// one per [`RowMap`].
const TABLES: usize = 10;

impl<'a> Idx<'a> {
    /// The row map an addressing of an iterated row reads (empty for the
    /// row itself and the positional ones).
    fn map(self) -> &'a [u32] {
        match self {
            Idx::Row(_, Some(map)) => map,
            _ => &[],
        }
    }

    /// The number of this addressing's row table.
    fn table(self) -> usize {
        match self {
            Idx::Pos => 0,
            Idx::Owned => 1,
            Idx::Tile => 2,
            Idx::Row(map, _) => 3 + map as usize,
        }
    }
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
            // the map lands in; the rest is the caller's.
            Bound::Rows(t, Idx::Row(_, map)) => unsafe { t.row(map.map_or(r, |m| m[r] as usize)) },
            Bound::Rows(..) => unreachable!("block addressing outside a traversal"),
        }
    }

    /// The operand's rows over the block whose tables are `t`.
    #[inline]
    fn over<'s>(&'s self, t: &Tables<'s>) -> Rows<'s> {
        match self {
            Bound::Const(v) => Rows {
                view: RawRows::reading(std::slice::from_ref(v), 1),
                at: At::one(0),
            },
            Bound::Rows(view, idx) => Rows {
                view: *view,
                at: t.at[idx.table()],
            },
        }
    }
}

/// Where the rows of one addressing sit over a block — what a block's
/// [`Tables`] hold per addressing: position `j` reads row `rows[j] +
/// add` (in wrapping `u32`), one load and one add whatever the layout.
#[derive(Clone, Copy)]
struct At<'a> {
    rows: &'a [u32],
    add: u32,
    lay: Lay,
}

/// How an [`At`]'s rows lie.
#[derive(Clone, Copy, PartialEq)]
enum Lay {
    /// Consecutive rows from `add` (`rows` counts positions).
    Run,
    /// Row `add` at every position (`rows` is zeros).
    One,
    /// A slice of a row map, less an offset.
    Map,
}

/// Block positions, and zeros: the tables of runs and of single rows.
static STEPS: [u32; BLOCK] = {
    let mut s = [0; BLOCK];
    let mut i = 0;
    while i < BLOCK {
        s[i] = i as u32;
        i += 1;
    }
    s
};
static ZEROS: [u32; BLOCK] = [0; BLOCK];

impl<'a> At<'a> {
    /// Rows `base + j`.
    fn run(base: usize) -> At<'a> {
        At {
            rows: &STEPS,
            add: base as u32,
            lay: Lay::Run,
        }
    }

    /// Row `r` at every position.
    fn one(r: usize) -> At<'a> {
        At {
            rows: &ZEROS,
            add: r as u32,
            lay: Lay::One,
        }
    }

    /// Rows `map[j] - off`.
    fn map(map: &'a [u32], off: u32) -> At<'a> {
        At {
            rows: map,
            add: off.wrapping_neg(),
            lay: Lay::Map,
        }
    }

    /// The row at position `j`.
    ///
    /// # Safety
    ///
    /// `j` is a position of the block the tables were set for: a map's
    /// slice covers the block, and a block holds at most [`BLOCK`].
    #[inline(always)]
    unsafe fn row(self, j: usize) -> usize {
        debug_assert!(j < self.rows.len(), "position {j} outside its block");
        // SAFETY: `j < rows.len()` (caller).
        unsafe { self.rows.get_unchecked(j).wrapping_add(self.add) as usize }
    }
}

/// One operand over one block: its view and where its rows sit. A
/// constant's view points into its [`Bound`], so this must not outlive
/// it.
#[derive(Clone, Copy)]
struct Rows<'s> {
    view: RawRows,
    at: At<'s>,
}

impl Rows<'_> {
    /// # Safety
    ///
    /// `j` is a position of the block the tables were filled for, under
    /// the contract of [`BoundOp::run`].
    #[inline]
    unsafe fn get(&self, j: usize) -> &[f32] {
        // SAFETY: forwarded to the caller.
        unsafe { self.view.row(self.at.row(j)) }
    }

    /// # Safety
    ///
    /// As [`Self::get`], and the chunk owns the row.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn get_mut(&self, j: usize) -> &mut [f32] {
        // SAFETY: forwarded to the caller.
        unsafe { self.view.row_mut(self.at.row(j)) }
    }

    /// The first float of the row at position `j`: a width-1 operand's
    /// value, loaded or stored directly.
    ///
    /// # Safety
    ///
    /// As [`Self::get`] (a store: [`Self::get_mut`]), and the view's
    /// rows are not empty.
    #[inline]
    unsafe fn ptr(&self, j: usize) -> *mut f32 {
        // SAFETY: forwarded to the caller.
        unsafe { self.view.row_ptr(self.at.row(j)) }
    }

    /// A width-1 operand as a lane that needs no row lookup: contiguous
    /// (consecutive rows) or uniform (one row, loaded once); `None` for
    /// a gathered one.
    ///
    /// # Safety
    ///
    /// As [`Self::get`] at a position of a non-empty block, and the
    /// view is one float wide.
    #[inline]
    unsafe fn lane(&self) -> Option<Lane> {
        // SAFETY: forwarded to the caller.
        unsafe {
            let first = self.view.row_ptr(self.at.row(0));
            match self.at.lay {
                Lay::Run => Some(Lane::Run(first)),
                Lay::One => Some(Lane::One(*first)),
                Lay::Map => None,
            }
        }
    }
}

/// A width-1 operand over a block whose rows need no lookup.
#[derive(Clone, Copy)]
enum Lane {
    /// Position `j` is the float at `j` from here.
    Run(*mut f32),
    /// Every position reads this value.
    One(f32),
}

/// A [`Lane`] as the loop body sees it, so each pair of kinds compiles
/// to its own loop.
trait LaneAt: Copy {
    /// # Safety
    ///
    /// `j` is a position of the block the lane was taken over.
    unsafe fn at(self, j: usize) -> f32;
}

#[derive(Clone, Copy)]
struct Contiguous(*mut f32);

impl LaneAt for Contiguous {
    #[inline(always)]
    unsafe fn at(self, j: usize) -> f32 {
        // SAFETY: the lane's block holds position `j` (caller).
        unsafe { *self.0.add(j) }
    }
}

#[derive(Clone, Copy)]
struct Uniform(f32);

impl LaneAt for Uniform {
    #[inline(always)]
    unsafe fn at(self, _: usize) -> f32 {
        self.0
    }
}

/// Runs `$body` with `$x` bound to the [`LaneAt`] of lane `$lane`.
macro_rules! with_lane {
    ($lane:expr, $x:ident => $body:expr) => {
        match $lane {
            Lane::Run(p) => {
                let $x = Contiguous(p);
                $body
            }
            Lane::One(v) => {
                let $x = Uniform(v);
                $body
            }
        }
    };
}

impl<'a> Launch<'a> {
    pub(super) fn map(&self, map: RowMap) -> Option<&'a [u32]> {
        let g = self.graph.graph();
        match map {
            RowMap::This => None,
            RowMap::Src => Some(g.src()),
            RowMap::Dst => Some(g.dst()),
            RowMap::EdgeToUnique => Some(self.graph.compact().edge_to_unique()),
            RowMap::UniqueRowIdx => Some(self.graph.compact().unique_row_idx()),
            RowMap::Etype => Some(g.etype()),
            RowMap::UniqueEtype => Some(self.graph.unique_etype()),
        }
    }

    /// The row an in-edge addressing lands in for every in-edge, in CSC
    /// order: an in-edge block's table is a slice of it. Positional
    /// addressings have none.
    fn in_edge_map(&self, idx: Idx<'a>) -> &'a [u32] {
        let maps = self.graph.in_edge_maps();
        match idx {
            Idx::Row(RowMap::This, _) => &self.graph.csc().edge_idx,
            Idx::Row(RowMap::Src, _) => &maps.src,
            Idx::Row(RowMap::Dst, _) | Idx::Owned | Idx::Tile => &maps.dst,
            Idx::Row(RowMap::Etype, _) => &maps.etype,
            Idx::Row(RowMap::EdgeToUnique, _) => &maps.edge_to_unique,
            Idx::Row(map @ (RowMap::UniqueRowIdx | RowMap::UniqueEtype), _) => {
                unreachable!("an in-edge read through {map:?}")
            }
            Idx::Pos => &[],
        }
    }

    /// Binds `o` for rows of `rows`. This is the range check of every
    /// later unchecked row access through the result, once per operand
    /// instead of once per row: the view must cover the whole space the
    /// row map lands in, and the graph's index arrays only hold rows of
    /// that space.
    pub(super) fn bind(&self, o: &PreOperand, rows: RowDomain) -> Bound<'a> {
        let (view, map) = match o {
            PreOperand::Const(c) => return Bound::Const(*c),
            PreOperand::WVec(w, map) => {
                let wt = self.params.weight(*w);
                (RawRows::reading(wt.data(), wt.width()), *map)
            }
            PreOperand::Var(slot, map) => (self.table[*slot], *map),
            PreOperand::Local(_) => unreachable!("locals are bound by their kernel"),
        };
        let g = self.graph.graph();
        let target = match map {
            RowMap::This => self.graph.rows_of(rows),
            RowMap::Src | RowMap::Dst | RowMap::UniqueRowIdx => g.num_nodes(),
            RowMap::EdgeToUnique => self.graph.compact().num_unique(),
            RowMap::Etype | RowMap::UniqueEtype => g.num_edge_types(),
        };
        assert!(view.rows() >= target, "{o:?} narrower than its space");
        Bound::Rows(view, Idx::Row(map, self.map(map)))
    }
}

/// Where every addressing the ops of one kind of block use lands over
/// the current block ([`Bound::over`]). A table is a slice of a row map
/// — the graph's, or its CSC-ordered copy for in-edges — or a run of
/// rows, or one row: setting one up per block reads no index.
struct Tables<'a> {
    /// Per addressing an op uses: the addressing and the row map its
    /// blocks slice (empty for a positional one).
    used: [Option<(Idx<'a>, &'a [u32])>; TABLES],
    at: [At<'a>; TABLES],
}

impl<'a> Tables<'a> {
    /// The tables of blocks that run `ops[i]` for each `i` of `which`,
    /// slicing the row map `map` names per addressing.
    fn of(
        ops: &[BoundOp<'a>],
        which: impl IntoIterator<Item = usize>,
        map: impl Fn(Idx<'a>) -> &'a [u32],
    ) -> Tables<'a> {
        let mut used = [None; TABLES];
        for op in which.into_iter().map(|i| &ops[i]) {
            for b in [&op.a, &op.b, &op.out] {
                if let Bound::Rows(_, idx) = *b {
                    used[idx.table()] = Some((idx, map(idx)));
                }
            }
        }
        Tables {
            used,
            at: [At::one(0); TABLES],
        }
    }

    /// Sets the tables to the `len` consecutive rows from `start`: a
    /// block of a row domain, or a tile's destinations.
    fn rows(&mut self, start: usize, len: usize) {
        for (used, at) in self.used.iter().zip(&mut self.at) {
            if let Some((idx, map)) = *used {
                *at = match idx {
                    Idx::Row(_, None) => At::run(start),
                    Idx::Row(..) => At::map(&map[start..start + len], 0),
                    Idx::Pos => At::run(0),
                    Idx::Owned | Idx::Tile => unreachable!("an in-edge addressing of a row"),
                };
            }
        }
    }

    /// Sets the tables to the `len` in-edges from CSC position `e`, tile
    /// position `p0`, of the tile of destinations `tile`.
    fn in_edges(&mut self, tile: &Range<usize>, e: usize, p0: usize, len: usize) {
        let single = tile.len() == 1;
        for (used, at) in self.used.iter().zip(&mut self.at) {
            if let Some((idx, map)) = *used {
                let map = || &map[e..e + len];
                *at = match idx {
                    Idx::Row(..) => At::map(map(), 0),
                    Idx::Pos => At::run(p0),
                    Idx::Owned if single => At::one(tile.start),
                    Idx::Owned => At::map(map(), 0),
                    Idx::Tile if single => At::one(0),
                    Idx::Tile => At::map(map(), tile.start as u32),
                };
            }
        }
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
    /// What a per-destination local aggregate starts every tile from:
    /// `0` for sums, `-inf` for maxima.
    seed: Option<f32>,
}

impl BoundOp<'_> {
    /// Runs the op over positions `0..len` of the block whose tables are
    /// `t` — the single home of each op kind's row semantics, performing
    /// the oracle's float operations in ascending position order.
    /// Row-aligned results land directly in the output rows; aggregate
    /// contributions fold in place, or — when the launch split (`sink`
    /// present) and the target row may be another chunk's — are recorded
    /// in `sink` for the ordered merge.
    ///
    /// # Safety
    ///
    /// The op was bound for the calling chunk of a live launch, `t` was
    /// set for a block inside that chunk (its rows, or a tile of its
    /// destinations and their in-edges, at positions inside the locals
    /// block) with `len` rows, and the chunk holds its range exclusively.
    /// With that, every row a table resolves is inside its view (sized
    /// and checked at bind time against the space the graph's index
    /// arrays land in), each write targets a row only this chunk touches
    /// (its own rows, its scratch, its tile's destinations; a launch that
    /// did not split owns every row), every operand row is read-only in
    /// this kernel, written by this chunk, or its own destination's
    /// ([`par_traversal_safe`]), and since prepare rejects ops that read
    /// their own output no shared and mutable view of one row coexist.
    unsafe fn run(&self, t: &Tables<'_>, len: usize, sink: Option<&mut ContribBuf>) {
        assert!(len <= BLOCK, "a block of {len} rows");
        let (a, b, out) = (self.a.over(t), self.b.over(t), self.out.over(t));
        let (rows, scalar) = (0..len, |x: &Rows<'_>| x.view.width() == 1);
        // SAFETY: every access below is at a position of the block, under
        // this function's contract; `ptr` and `lane` only where the width
        // is 1 (an aggregate's scale: checked at bind).
        unsafe {
            match self.kind {
                Kind::Dot { reuse } => dot_block(reuse, a, b, out, len),
                Kind::Bin(op) => with_binary_fn!(op, f => if [a, b, out].iter().all(scalar) {
                    match (a.lane(), b.lane(), out.at.lay) {
                        (Some(la), Some(lb), Lay::Run) => {
                            let o = out.ptr(0);
                            with_lane!(la, x => with_lane!(lb, y => {
                                rows.for_each(|j| *o.add(j) = f(x.at(j), y.at(j)));
                            }));
                        }
                        _ => rows.for_each(|j| *out.ptr(j) = f(*a.ptr(j), *b.ptr(j))),
                    }
                } else {
                    rows.for_each(|j| binary_row(f, a.get(j), b.get(j), out.get_mut(j)));
                }),
                Kind::Un(op) => with_unary_fn!(op, f => if scalar(&a) && scalar(&out) {
                    match (a.lane(), out.at.lay) {
                        (Some(la), Lay::Run) => {
                            let o = out.ptr(0);
                            with_lane!(la, x => rows.for_each(|j| *o.add(j) = f(x.at(j))));
                        }
                        _ => rows.for_each(|j| *out.ptr(j) = f(*a.ptr(j))),
                    }
                } else {
                    rows.for_each(|j| unary_row(f, a.get(j), out.get_mut(j)));
                }),
                Kind::Agg { max, deferred } => match sink.filter(|_| deferred) {
                    Some(buf) => rows.for_each(|j| {
                        let (x, i) = (a.get(j), out.at.row(j));
                        if max {
                            buf.push(self.slot, i, x.iter().copied(), true);
                        } else {
                            let s = *b.ptr(j);
                            buf.push(self.slot, i, x.iter().map(|v| v * s), false);
                        }
                    }),
                    None if scalar(&a) && scalar(&out) => {
                        let step = |acc: f32, j: usize| {
                            let x = *a.ptr(j);
                            if max {
                                acc.max(x)
                            } else {
                                acc + x * *b.ptr(j)
                            }
                        };
                        match out.at.lay {
                            // One target: its value stays in a register.
                            Lay::One => {
                                let acc = out.ptr(0);
                                *acc = rows.fold(*acc, step);
                            }
                            _ => rows.for_each(|j| {
                                let acc = out.ptr(j);
                                *acc = step(*acc, j);
                            }),
                        }
                    }
                    None if !deferred && !max && a.view.width() == out.view.width() => {
                        sum_block(a, b, out, len);
                    }
                    None => rows.for_each(|j| {
                        let (x, acc) = (a.get(j), out.get_mut(j));
                        if max {
                            for (acc, v) in acc.iter_mut().zip(x) {
                                *acc = acc.max(*v);
                            }
                        } else {
                            let s = *b.ptr(j);
                            for (acc, &v) in acc.iter_mut().zip(x) {
                                *acc += v * s;
                            }
                        }
                    }),
                },
            }
        }
    }

    /// Hands `f` the output rows of the destinations `tile` of a
    /// dst-node kernel's per-destination aggregate: rows `tile` of its
    /// buffer, or rows from 0 of its local in the chunk's scratch.
    ///
    /// # Safety
    ///
    /// As [`Self::run`], for the node block `tile`.
    unsafe fn with_tile_rows(&self, tile: Range<usize>, f: impl FnOnce(&mut [f32])) {
        let (view, rows) = match self.out {
            Bound::Rows(view, Idx::Tile) => (view, 0..tile.len()),
            Bound::Rows(view, _) => (view, tile),
            Bound::Const(_) => unreachable!("an op writes a constant"),
        };
        // SAFETY: forwarded to the caller; `rows_mut` checks the range.
        f(unsafe { view.rows_mut(&rows) });
    }
}

/// A dot product over a block: the row pairs through the row-parallel
/// dot tile. With `reuse`, a run of consecutive positions whose operands
/// both read the rows of the run's first position takes that position's
/// dot: the same inputs, so the same bits.
///
/// # Safety
///
/// As [`BoundOp::run`].
unsafe fn dot_block(reuse: bool, a: Rows<'_>, b: Rows<'_>, out: Rows<'_>, len: usize) {
    assert_eq!(out.view.width(), 1, "a dot product's output");
    let (mut ra, mut rb) = ([&[][..]; BLOCK], [&[][..]; BLOCK]);
    // Pair `k` covers the positions up to `ends[k]`.
    let (mut ends, mut pairs, mut j) = ([0; BLOCK], 0, 0);
    let mut dots = [0.0f32; BLOCK];
    // SAFETY: every access is at a position of the block (caller), and
    // the output is one float wide.
    unsafe {
        let rows = |j| (a.at.row(j), b.at.row(j));
        while j < len {
            let first = rows(j);
            (ra[pairs], rb[pairs]) = (a.view.row(first.0), b.view.row(first.1));
            j += 1;
            while reuse && j < len && rows(j) == first {
                j += 1;
            }
            ends[pairs] = j;
            pairs += 1;
        }
        dot_rows(Isa::best(), &ra[..pairs], &rb[..pairs], &mut dots[..pairs]);
        let mut j = 0;
        for (&end, &dot) in ends[..pairs].iter().zip(&dots) {
            (j..end).for_each(|p| *out.ptr(p) = dot);
            j = end;
        }
    }
}

/// A row-wide sum aggregate over a block, folded in place: the rows,
/// scales and targets through the aggregate tile
/// (`hector_tensor::microkernel::accumulate_rows`), which adds each
/// position's scaled row in position order and keeps a run of one
/// target in registers.
///
/// # Safety
///
/// As [`BoundOp::run`], with the chunk owning every output row between
/// the block's lowest and highest target (its tile's destinations or
/// their scratch rows; every row of a launch that did not split).
unsafe fn sum_block(a: Rows<'_>, b: Rows<'_>, out: Rows<'_>, len: usize) {
    if len == 0 {
        return;
    }
    let (mut xs, mut s, mut at) = ([&[][..]; BLOCK], [0.0f32; BLOCK], [0u32; BLOCK]);
    let (mut lo, mut hi) = (usize::MAX, 0);
    // SAFETY: every access is at a position of the block (caller), the
    // scale is one float wide (checked at bind), and the rows between
    // the targets are the chunk's and none of them an operand's.
    let acc = unsafe {
        for j in 0..len {
            let r = out.at.row(j);
            (lo, hi) = (lo.min(r), hi.max(r));
            (xs[j], s[j], at[j]) = (a.get(j), *b.ptr(j), r as u32);
        }
        out.view.rows_mut(&(lo..hi + 1))
    };
    for t in &mut at[..len] {
        *t -= lo as u32;
    }
    let w = out.view.width();
    accumulate_rows(Isa::best(), &xs[..len], &s[..len], &at[..len], w, acc);
}

impl MicroKernel {
    /// Binds op `m` for a chunk whose locals block starts at `locals`
    /// and holds `positions` rows per local.
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
                // A per-destination local has a row per tile destination:
                // an in-edge finds it through its destination, the node
                // block by position.
                let idx = match m.rows {
                    RowDomain::Edges if l.one => Idx::Tile,
                    _ => Idx::Pos,
                };
                Bound::Rows(RawRows::at(at, positions, l.width), idx)
            }
            // An in-edge's destination is the tile destination owning it.
            PreOperand::Var(_, RowMap::Dst) if dst_kernel => match cx.bind(o, m.rows) {
                Bound::Rows(view, _) => Bound::Rows(view, Idx::Owned),
                constant => constant,
            },
            _ => cx.bind(o, m.rows),
        };
        let (out, b) = (bind(&m.out), m.b.as_ref().map_or(Bound::Const(1.0), bind));
        if let (Kind::Agg { .. }, Bound::Rows(scale, _)) = (m.kind, b) {
            assert_eq!(scale.width(), 1, "an aggregate's scale is a scalar");
        }
        BoundOp {
            a: bind(&m.a),
            b,
            seed: match (m.kind, &out) {
                (Kind::Agg { max, .. }, Bound::Rows(_, Idx::Tile)) => {
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

    /// The end of the tile that starts at destination `v0` of a chunk
    /// ending at `end`: as many destinations as fit one block together,
    /// at least `v0` itself — and only `v0` in a `solo` kernel.
    fn tile_end(&self, ptr: &[usize], v0: usize, end: usize) -> usize {
        if self.solo {
            return v0 + 1;
        }
        let last = end.min(v0 + BLOCK);
        let fits = ptr[v0 + 1..=last].partition_point(|&p| p - ptr[v0] <= BLOCK);
        v0 + fits.max(1)
    }

    /// One chunk's share of the launch: `range` of the kernel's domain.
    ///
    /// # Safety
    ///
    /// `cx.table` is this kernel's live launch table and the caller
    /// holds `range` exclusively: no other chunk of the launch is given
    /// an overlapping range, and a `solo` kernel is given the whole
    /// domain as its only chunk.
    unsafe fn run_chunk<'a>(&self, range: Range<usize>, cx: &Launch<'a>, chunk: Chunk<'_>) {
        let Chunk {
            scratch,
            ops: pooled,
            mut sink,
        } = chunk;
        // Rows per local: a block, or (dst-node kernels, whose edge locals
        // survive from pass to pass of a tile) the longest tile's in-edge
        // list — a block, or the heaviest destination's.
        let positions = match &self.shape {
            Shape::Rows(_) => BLOCK,
            Shape::DstNodes(_) => BLOCK.max(cx.graph.max_in_degree()),
        };
        let floats = self.locals.iter().map(|l| l.width * positions);
        // The pooled list is empty, so shortening its element lifetime to
        // this launch's borrows (covariance) moves no borrow anywhere.
        let mut ops: Vec<BoundOp<'a>> = std::mem::take(pooled);
        if ops.capacity() < self.ops.len() {
            scratch.note_external_grows(1);
        }
        let locals = scratch.locals(floats.sum()).as_mut_ptr();
        ops.extend(self.ops.iter().map(|m| self.bind(m, cx, locals, positions)));
        // Every `BoundOp::run` below inherits this function's contract:
        // a block is rows of `range` (row domains), or a tile of
        // `range`'s destinations or their in-edges (dst-node kernels).
        match &self.shape {
            Shape::Rows(_) => {
                let mut t = Tables::of(&ops, 0..ops.len(), Idx::map);
                for start in range.clone().step_by(BLOCK) {
                    let len = BLOCK.min(range.end - start);
                    t.rows(start, len);
                    for op in &ops {
                        // SAFETY: see above.
                        unsafe { op.run(&t, len, sink.as_deref_mut()) };
                    }
                }
            }
            Shape::DstNodes(sched) => {
                let (edge_ops, node_ops) = (sched.edge_ops.iter(), sched.node_ops.iter());
                let in_edge_map = |idx| cx.in_edge_map(idx);
                let mut edge_t = Tables::of(&ops, edge_ops.flatten().copied(), in_edge_map);
                let mut node_t = Tables::of(&ops, node_ops.flatten().copied(), Idx::map);
                let csc = cx.graph.csc();
                let mut v0 = range.start;
                while v0 < range.end {
                    let v1 = self.tile_end(&csc.ptr, v0, range.end);
                    let (tile, in_edges) = (v0..v1, csc.ptr[v1] - csc.ptr[v0]);
                    // The scratch rows still hold the previous tile's
                    // values: start over, exactly as a zero-filled
                    // (`-inf`-seeded) tensor row would.
                    for op in &ops {
                        if let Some(seed) = op.seed {
                            // SAFETY: the chunk's own scratch rows.
                            unsafe { op.with_tile_rows(tile.clone(), |rows| rows.fill(seed)) };
                        }
                    }
                    node_t.rows(v0, tile.len());
                    for pass in 0..sched.edge_ops.len() {
                        for p0 in (0..in_edges).step_by(BLOCK) {
                            let len = in_edges.min(p0 + BLOCK) - p0;
                            edge_t.in_edges(&tile, csc.ptr[v0] + p0, p0, len);
                            for &i in &sched.edge_ops[pass] {
                                // SAFETY: see above.
                                unsafe { ops[i].run(&edge_t, len, sink.as_deref_mut()) };
                            }
                        }
                        // A zero-in-degree destination still holds the
                        // `-inf` seed, and the hoisted ops below and later
                        // passes read the row mid-kernel — long before the
                        // end-of-launch sweep.
                        for &i in &sched.mid_sweeps[pass] {
                            // SAFETY: the tile's own rows (or their
                            // stand-ins in the chunk's scratch).
                            unsafe { ops[i].with_tile_rows(tile.clone(), sweep_neg_inf) };
                        }
                        for &i in &sched.node_ops[pass] {
                            // SAFETY: see above.
                            unsafe { ops[i].run(&node_t, tile.len(), sink.as_deref_mut()) };
                        }
                    }
                    v0 = v1;
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
            ctx.vars
                .get_mut(self.vars[slot])
                .data_mut()
                .fill(f32::NEG_INFINITY);
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
            sweep_neg_inf(ctx.vars.get_mut(self.vars[slot]).data_mut());
        }
        split
    }
}

#[cfg(test)]
mod tests;
