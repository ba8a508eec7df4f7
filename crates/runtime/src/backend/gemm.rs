//! The GEMM-template kernels of the production executor.
//!
//! * **`TypedLinear`** ([`LinearKernel`]) walks a chunk as runs of rows
//!   sharing a weight slab, each run through the segment tiles of
//!   `hector_tensor::microkernel`; chunks are disjoint row ranges, and
//!   scattered rows go through the chunk's `ContribBuf` like any other
//!   deferred contribution (see [`super::chunk`]).
//! * **`TypedLinearGradW`** ([`GradWKernel`]) splits over type slabs
//!   instead of rows, each slab accumulating its rows through the
//!   gradient tile.
//!
//! Operands are resolved and bound by the traversal executor's
//! machinery ([`super::spec`]); what is here is the row loops.

use std::ops::Range;

use hector_ir::{Endpoint, GemmSpec, OpKind, Program, RowDomain, TypeIndex, VarId, WeightId};
use hector_tensor::microkernel::{
    for_each_run, gemm_rows, outer_rows, pack_transposed, Isa, BLOCK_ROWS,
};

use crate::exec::weight_type_index;
use crate::ParamStore;

use super::chunk::{record_chunk_span, Chunk, RawRows, RawSlabs};
use super::spec::{space_of, Launch, PreOperand, PreparedKernel, Resolver, RowMap};
use super::ExecCtx;

/// Resolves a GEMM kernel.
///
/// # Panics
///
/// Panics, naming the kernel, on a scatter or operand the executor
/// cannot address, or an operand that is the output.
pub(super) fn compile_gemm(spec: &GemmSpec, program: &Program) -> PreparedKernel {
    let mut rs = Resolver {
        program,
        kernel: &spec.name,
        vars: Vec::new(),
        resident: Vec::new(),
    };
    let rows = spec.rows;
    match &spec.op.kind {
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
                (Some(ep), RowDomain::UniquePairs) => {
                    rs.reject(format_args!("unique pairs scatter to {ep:?}"))
                }
            };
            if scatter.is_none() && program.var(*out).space != space_of(rows) {
                rs.reject(format_args!("a {rows:?} row writes {out:?} unaligned"));
            }
            let (input, out) = (rs.operand(input, rows), rs.slot(*out));
            let scale = fused_scale.as_ref().map(|s| rs.operand(s, rows));
            // The GEMM reads operand rows while it holds output rows.
            let reads_out = |o: &PreOperand| matches!(o, PreOperand::Var(s, _) if *s == out);
            if reads_out(&input) || scale.as_ref().is_some_and(reads_out) {
                rs.reject(format_args!("an operand is its output"));
            }
            PreparedKernel::Linear(LinearKernel {
                input,
                out,
                weight: *weight,
                transpose_w: *transpose_w,
                types: spec.weight_index,
                rows,
                scale,
                scatter,
                vars: rs.vars,
            })
        }
        OpKind::TypedLinearGradW { x, dy, out_w } => PreparedKernel::GradW(GradWKernel {
            x: rs.operand(x, rows),
            dy: rs.operand(dy, rows),
            out_w: *out_w,
            types: spec.weight_index,
            rows,
            vars: rs.vars,
        }),
        other => rs.reject(format_args!("not a GEMM op: {other:?}")),
    }
}

/// A `TypedLinear` kernel: `y[r] = x[r] · W[type(r)]`, stored
/// row-aligned or accumulated into a mapped row.
pub(crate) struct LinearKernel {
    vars: Vec<VarId>,
    input: PreOperand,
    out: usize,
    weight: WeightId,
    transpose_w: bool,
    types: TypeIndex,
    rows: RowDomain,
    scale: Option<PreOperand>,
    /// Accumulate into the mapped row instead of storing row-aligned.
    scatter: Option<RowMap>,
}

impl LinearKernel {
    /// One chunk's share of the launch, as runs of rows sharing a weight
    /// slab. `x · Wᵀ` packs each run's `Wᵀ` once; scatters stage a block
    /// of rows, row-aligned stores compute in the output rows.
    ///
    /// # Safety
    ///
    /// As [`MicroKernel::run_chunk`]; a scatter either records into the
    /// sink or (one chunk) owns every row.
    unsafe fn run_chunk(&self, range: Range<usize>, cx: &Launch<'_>, chunk: Chunk<'_>) {
        let Chunk {
            scratch, mut sink, ..
        } = chunk;
        let (out, a) = (cx.table[self.out], cx.bind(&self.input, self.rows));
        let scale = self.scale.as_ref().map(|s| cx.bind(s, self.rows));
        let wt = cx.params.weight(self.weight);
        let (t_count, wrows, wcols) = (wt.shape()[0], wt.shape()[1], wt.shape()[2]);
        let (isa, n) = (Isa::best(), out.width());
        let idx = self.scatter.map(|map| cx.map(map));
        // Scatter targets are node rows (or, unmapped, the iterated row).
        let targets = match self.scatter {
            Some(RowMap::This) | None => cx.graph.rows_of(self.rows),
            Some(_) => cx.graph.graph().num_nodes(),
        };
        assert!(out.rows() >= targets, "output narrower than its space");
        let (pack, stage) = scratch.a_and_y(
            if self.transpose_w { wrows * wcols } else { 0 },
            if idx.is_some() { BLOCK_ROWS * n } else { 0 },
        );
        let type_of = |r| weight_type_index(t_count, self.types, self.rows, r, cx.graph);
        for_each_run(range, type_of, |ty, run| {
            let slab = if self.transpose_w {
                pack_transposed(wt.slab(ty), wrows, wcols, pack);
                &*pack
            } else {
                wt.slab(ty)
            };
            for b in run.clone().step_by(BLOCK_ROWS) {
                let block = b..(b + BLOCK_ROWS).min(run.end);
                let ys = match idx {
                    // SAFETY: `block` is rows of this chunk's range.
                    None => unsafe { out.rows_mut(&block) },
                    Some(_) => &mut stage[..block.len() * n],
                };
                // SAFETY: operand rows of the chunk's own range, which a
                // GEMM only reads (prepare rejects reading the output).
                let xs = block.clone().map(|r| unsafe { a.row(r) });
                gemm_rows(isa, xs, slab, n, ys);
                for (r, y) in block.zip(ys.chunks_exact_mut(n.max(1))) {
                    if let Some(s) = &scale {
                        // SAFETY: as for `xs`.
                        let sv = unsafe { s.row(r) }[0];
                        for v in y.iter_mut() {
                            *v *= sv;
                        }
                    }
                    if let Some(ix) = idx {
                        let i = ix.map_or(r, |ix| ix[r] as usize);
                        match &mut sink {
                            Some(buf) => buf.push(self.out, i, y.iter().copied(), false),
                            // SAFETY: the launch did not split, so this
                            // chunk owns every row; `i` is a row of the
                            // space checked against `out` above.
                            None => {
                                for (acc, v) in unsafe { out.row_mut(i) }.iter_mut().zip(&*y) {
                                    *acc += v;
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    pub(super) fn run(&self, ctx: &mut ExecCtx<'_>) -> bool {
        let (graph, params): (_, &ParamStore) = (ctx.graph, ctx.params);
        let (split, grows) = ctx.arenas.run_chunks(
            &self.vars,
            ctx.vars,
            ctx.pool,
            ctx.min_chunk,
            graph.rows_of(self.rows),
            |table, range, chunk| {
                let cx = Launch {
                    graph,
                    params,
                    table,
                };
                // SAFETY: as in `MicroKernel::run`.
                unsafe { self.run_chunk(range, &cx, chunk) };
            },
        );
        ctx.scratch.note_external_grows(grows);
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
            let (x, dy) = (cx.bind(&self.x, self.rows), cx.bind(&self.dy, self.rows));
            let isa = Isa::best();
            let accumulate = |rows: &mut dyn Iterator<Item = usize>, slab: &mut [f32]| {
                // SAFETY: `table` is live for this whole closure, `r` is
                // a row of the domain `x` and `dy` were bound for, and
                // both are variables, which a weight-gradient kernel
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
