//! Intra-operator level IR: kernel specifications derived from the GEMM
//! and traversal templates.
//!
//! Each spec carries everything code generation needs: the data-access
//! schemes (gather/scatter lists, adjacency encoding) chosen from the
//! layout decisions at the inter-operator level, and the operator-specific
//! schedule knobs of paper §3.4.1 (tile size, coarsening factor, launch
//! bounds, fused per-row scaling).

use crate::interop::{Endpoint, Op, OpId, TypeIndex};

/// What one row of a GEMM-template instance corresponds to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowDomain {
    /// One row per edge (vanilla edgewise materialization).
    Edges,
    /// One row per unique `(src, etype)` pair (compact materialization).
    UniquePairs,
    /// One row per node (nodewise typed linear; nodes pre-sorted by type).
    Nodes,
}

/// Gather scheme applied to the GEMM template's `X` operand
/// (`LoadXToShmemIfInRange` in Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gather {
    /// Rows are read contiguously (no indirection).
    None,
    /// Gather node rows through the edge source index (`row_idx`).
    SrcNode,
    /// Gather node rows through the edge destination index.
    DstNode,
    /// Gather node rows through the unique-pair source index
    /// (`unique_row_idx`, Fig. 7(b)).
    UniqueSrcNode,
    /// Gather compact rows through the edge→unique mapping (reading a
    /// compact-materialised operand from an edgewise kernel).
    EdgeToUnique,
}

/// Scatter scheme applied to the GEMM template's `Y` operand
/// (`StoreYIfInRange` in Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scatter {
    /// Rows are written contiguously, segmented by type
    /// (`entry_idx_per_etype + etype_ptr[etype_idx]`).
    None,
    /// Atomic accumulation into node rows addressed by an edge endpoint
    /// ("atomic intrinsics are used in the case of multiple simultaneous
    /// updaters").
    AtomicNode(Endpoint),
}

/// Schedule knobs of a GEMM-template instance (paper §3.4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmSchedule {
    /// Shared-memory tile width (the paper's default is 16).
    pub tile: usize,
    /// Thread coarsening factor in `{1, 2, 4}`.
    pub coarsen: usize,
    /// Whether `__launch_bounds__` caps registers for more active warps.
    pub launch_bounds: bool,
}

impl Default for GemmSchedule {
    fn default() -> Self {
        GemmSchedule {
            tile: 16,
            coarsen: 1,
            launch_bounds: false,
        }
    }
}

impl GemmSchedule {
    /// Validates the knob ranges.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported tile or coarsening factor.
    pub fn validate(&self) {
        assert!(
            matches!(self.tile, 8 | 16 | 32),
            "tile width must be 8, 16, or 32 (got {})",
            self.tile
        );
        assert!(
            matches!(self.coarsen, 1 | 2 | 4),
            "coarsening factor must be 1, 2, or 4 (got {})",
            self.coarsen
        );
    }
}

/// An instance of the GEMM template: `Y[S] = X[G] × W[T]` (Algorithm 1).
#[derive(Clone, Debug, PartialEq)]
pub struct GemmSpec {
    /// Unique kernel id (`kid` in the paper's pseudo-code).
    pub kid: usize,
    /// Kernel name, e.g. `gemm_1`.
    pub name: String,
    /// The inter-operator op this instance implements.
    pub op: Op,
    /// Row domain of the output.
    pub rows: RowDomain,
    /// `X` gather scheme.
    pub gather: Gather,
    /// `Y` scatter scheme.
    pub scatter: Scatter,
    /// How the weight is indexed.
    pub weight_index: TypeIndex,
    /// Whether `W` is applied transposed.
    pub transpose_w: bool,
    /// Inner (input) dimension.
    pub k: usize,
    /// Output dimension.
    pub n: usize,
    /// Whether a per-row scalar is fused into the store stage.
    pub fused_scale: bool,
    /// Schedule knobs.
    pub schedule: GemmSchedule,
}

/// Loop domain of a traversal-template instance (Algorithm 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraversalDomain {
    /// `foreach e in g.edges()` — edgewise; node aggregation from this
    /// domain requires atomic accumulation.
    Edges,
    /// `foreach n in g.dst_nodes(): foreach e in n.incoming_edges()` —
    /// gives each destination node a private accumulator (no atomics in
    /// forward).
    DstNodes,
    /// `foreach u in unique (src, etype) pairs` — compact-materialised
    /// operators iterate unique rows instead of edges.
    UniquePairs,
    /// `foreach n in g.nodes()` — nodewise elementwise kernels with no
    /// edge traversal at all.
    Nodes,
}

/// Sparse adjacency encoding the traversal kernel reads
/// (`GetEType/GetSrcId/GetDstId` specializations, §3.3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdjacencyAccess {
    /// COO: subscript into `src`/`dst`/`etype` arrays.
    Coo,
    /// CSR/CSC: offsets array + binary search / row lookup.
    Csr,
}

/// An instance of the node/edge traversal template (Algorithm 2).
///
/// The statements are the (fused) inter-operator ops themselves: the
/// runtime interprets them per edge or per `(node, incoming edge)`, and
/// the code generator renders them as CUDA-like statements. `hoisted`
/// records which statements loop hoisting moved out of the innermost
/// loop (§3.4.1).
#[derive(Clone, Debug, PartialEq)]
pub struct TraversalSpec {
    /// Unique kernel id.
    pub kid: usize,
    /// Kernel name, e.g. `traversal_3`.
    pub name: String,
    /// Loop domain.
    pub domain: TraversalDomain,
    /// Adjacency encoding.
    pub adjacency: AdjacencyAccess,
    /// Fused ops executed by this kernel, in order.
    pub ops: Vec<Op>,
    /// Ops hoisted out of the per-edge loop (valid only for
    /// [`TraversalDomain::DstNodes`]).
    pub hoisted: Vec<OpId>,
    /// Whether the kernel uses warp/thread partial-result aggregation
    /// before touching global memory (applied by default during
    /// lowering, §3.4.1).
    pub partial_agg: bool,
    /// Whether any aggregate store uses atomic accumulation (every
    /// aggregate that is not [`TraversalSpec::dst_private`]).
    pub atomic: bool,
    /// Variables defined and consumed entirely inside this kernel: they
    /// live in registers and are never materialised in global memory
    /// ("the variable no longer needs to be created in the global
    /// memory", §3.4.2).
    pub local_vars: Vec<crate::interop::VarId>,
    /// Inner-loop pass assignment per op (parallel to `ops`), computed
    /// once at lowering by [`stage_assignments`]: in a
    /// [`TraversalDomain::DstNodes`] kernel, an edgewise op that reads a
    /// node-space value produced in-kernel runs one pass later than its
    /// producer (edge softmax reads the per-node max/sum after all of
    /// the node's edges contributed). Precomputing this here keeps the
    /// interpreter's per-kernel execution allocation-free.
    pub stages: Vec<usize>,
}

impl TraversalSpec {
    /// Whether aggregate `kind` of this kernel accumulates into the
    /// iterated destination's own node row: a private accumulator that
    /// is complete once the destination's in-edge loop ends, so later
    /// passes of the same kernel may read it. Every other aggregate
    /// targets a row other work items update too — an atomic store on
    /// the GPU, a deferred contribution on the chunked CPU executor —
    /// and is unreadable inside the kernel.
    #[must_use]
    pub fn dst_private(&self, program: &crate::Program, kind: &crate::interop::OpKind) -> bool {
        use crate::interop::{Endpoint, OpKind, Space};
        matches!(kind, OpKind::NodeAggregate { out, endpoint: Endpoint::Dst, .. }
            if self.domain == TraversalDomain::DstNodes && program.var(*out).space == Space::Node)
    }
}

/// Stage assignment for a dst-node kernel's fused op list: edgewise ops
/// reading node-space values produced in-kernel must run one inner-loop
/// pass later than the producer. Every other domain executes everything
/// in pass 0 (the assignment degenerates to all-zero there).
#[must_use]
pub fn stage_assignments(ops: &[Op], program: &crate::Program) -> Vec<usize> {
    use crate::interop::{OpKind, Space, VarId};
    use std::collections::HashMap;
    let mut def_stage: HashMap<VarId, (usize, bool)> = HashMap::new(); // (stage, node-level)
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let is_node_op = op
            .kind
            .out_var()
            .is_some_and(|v| program.var(v).space == Space::Node)
            && !matches!(op.kind, OpKind::NodeAggregate { .. });
        let is_agg = matches!(op.kind, OpKind::NodeAggregate { .. });
        let mut s = 0;
        for operand in op.kind.operands() {
            if let Some(v) = operand.var() {
                if let Some(&(ds, node_level)) = def_stage.get(&v) {
                    if node_level && !is_node_op {
                        s = s.max(ds + 1);
                    } else {
                        s = s.max(ds);
                    }
                }
            }
        }
        if let Some(v) = op.kind.out_var() {
            def_stage.insert(v, (s, is_node_op || is_agg));
        }
        out.push(s);
    }
    out
}

/// A weight-space precomputation from linear reordering, run through the
/// framework-fallback path ("PyTorch BMM", §3.2.3). Every operator kind
/// lowers to a GEMM or traversal instance, so this is the only fallback.
#[derive(Clone, Debug, PartialEq)]
pub struct FallbackSpec {
    /// Unique kernel id.
    pub kid: usize,
    /// Routine name.
    pub name: String,
    /// Index into the program's `preps` table.
    pub prep_index: usize,
}

/// One generated kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelSpec {
    /// GEMM-template instance.
    Gemm(GemmSpec),
    /// Traversal-template instance.
    Traversal(TraversalSpec),
    /// Framework fallback: a weight precomputation.
    Fallback(FallbackSpec),
}

impl KernelSpec {
    /// The kernel's name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            KernelSpec::Gemm(g) => &g.name,
            KernelSpec::Traversal(t) => &t.name,
            KernelSpec::Fallback(f) => &f.name,
        }
    }

    /// The kernel's unique id.
    #[must_use]
    pub fn kid(&self) -> usize {
        match self {
            KernelSpec::Gemm(g) => g.kid,
            KernelSpec::Traversal(t) => t.kid,
            KernelSpec::Fallback(f) => f.kid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_matches_paper_default() {
        let s = GemmSchedule::default();
        assert_eq!(s.tile, 16);
        assert_eq!(s.coarsen, 1);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "coarsening factor")]
    fn schedule_rejects_bad_coarsen() {
        GemmSchedule {
            tile: 16,
            coarsen: 3,
            launch_bounds: false,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "tile width")]
    fn schedule_rejects_bad_tile() {
        GemmSchedule {
            tile: 10,
            coarsen: 1,
            launch_bounds: false,
        }
        .validate();
    }

    #[test]
    fn kernel_spec_accessors() {
        let f = KernelSpec::Fallback(FallbackSpec {
            kid: 7,
            name: "bmm_prep".into(),
            prep_index: 0,
        });
        assert_eq!(f.name(), "bmm_prep");
        assert_eq!(f.kid(), 7);
    }
}
