//! Chunk infrastructure of the production executor: the raw row views,
//! per-chunk staging, and the deterministic merge that let one prepared
//! micro-op plan run over many disjoint row ranges at once.
//!
//! The scheme that keeps `HECTOR_THREADS` from changing a single output
//! bit:
//!
//! * **Row-aligned writes** (the output row *is* the iterated row) go
//!   straight into the shared output tensor through a [`RawRows`] view —
//!   chunks claim disjoint row ranges, so the writes never alias.
//! * **Aggregate and scatter writes** whose target row may belong to
//!   another chunk are *recorded* per chunk in a [`ContribBuf`] and
//!   replayed on the calling thread afterwards, in ascending chunk index
//!   and recorded order within each chunk. The replay applies exactly
//!   the floating-point operations of the one-chunk loop in exactly its
//!   order — the per-row *computation* runs in parallel, never the
//!   order-sensitive accumulation.
//! * **Weight-gradient GEMMs** split over per-type gradient slabs
//!   ([`RawSlabs`]) instead of rows: each chunk owns whole slabs and
//!   accumulates their rows in ascending row order.
//!
//! A traversal chunk runs the block-fused loop of [`super::spec`] over
//! its range: every op over a block of rows, then the next block, with
//! the kernel's register-local variables in the chunk's own scratch
//! ([`block_resident`]) — so two chunks never share a local, and the
//! three rules above cover everything a chunk writes outside it. A
//! dst-node kernel walks its range in destination tiles that never cross
//! the range's end, so a tile, its in-edges and its per-destination
//! locals belong to one chunk. Each block sets up its row tables (where
//! every position reads or writes, per addressing: views of the graph's
//! maps, a run of rows or one row) once, in the chunk's stack frame. A
//! kernel whose dataflow does not fit the rules
//! runs as one chunk: a dst-node op reading an in-kernel value at a
//! source endpoint ([`par_traversal_safe`] says no; its tiles are also
//! one destination each). No op reads back a deferred aggregate, nor do
//! two ops write one variable: the lowering never builds such a kernel.
//!
//! # Pooled worker arenas
//!
//! The run plan owns one [`WorkerArenas`]: a [`WorkerSlot`] per chunk
//! index (scratch block for GEMM staging and traversal locals, bound-op
//! list, contribution buffer), the per-launch [`RawRows`] table, and the
//! GradW type buckets. Every buffer's capacity persists across kernels
//! and runs, so warm runs perform **zero** heap allocations at any
//! thread count (`tests/run_alloc.rs`); slot growth events are folded
//! into the plan's scratch counter after each launch so the device
//! statistics see every allocation.

use std::cell::UnsafeCell;
use std::collections::HashSet;
use std::ops::Range;

use hector_ir::{Endpoint, OpKind, Operand, Program, Space, TraversalDomain, TraversalSpec, VarId};
use hector_par::{chunk_count, ThreadPool};
use hector_tensor::Tensor;

use crate::scratch::Scratch;
use crate::store::VarStore;

use super::spec::BoundOp;

/// Records one worker-chunk span (runs on the pool worker that executed
/// the chunk, so the span lands in that worker's timeline lane). One
/// span per executed pool job means the trace cross-checks
/// `ParallelStats.chunks` exactly: both derive from the pool's
/// per-kernel `executed` delta.
pub(crate) fn record_chunk_span(start: Option<u64>, rows: usize, chunk: usize) {
    if let Some(t0) = start {
        hector_trace::record_span(
            "worker/chunk",
            hector_trace::SpanCat::Worker,
            t0,
            rows as u64,
            u32::try_from(chunk).unwrap_or(u32::MAX),
            0.0,
        );
    }
}

/// Raw row-major view of one variable's tensor, valid for one kernel
/// launch and shared by every chunk of it.
///
/// # Safety contract
///
/// The pointer stays valid for the whole launch: the owning `VarStore`
/// is mutably borrowed by the launch's `ExecCtx`, and nothing inserts,
/// removes, or reshapes a buffer until the launch's table is cleared.
/// Callers only write rows their chunk owns and only read rows no other
/// chunk writes — that disjointness is what makes the concurrent
/// accesses sound.
#[derive(Clone, Copy)]
pub(crate) struct RawRows {
    ptr: *mut f32,
    rows: usize,
    width: usize,
}

// SAFETY: a `RawRows` is a pointer plus two lengths; sending or sharing
// it moves no data. Every dereference goes through the `unsafe` row
// accessors, whose callers uphold the disjoint-rows contract above.
unsafe impl Send for RawRows {}
// SAFETY: see `Send`.
unsafe impl Sync for RawRows {}

impl RawRows {
    pub(crate) fn of(t: &mut Tensor) -> RawRows {
        RawRows::at(t.data_mut().as_mut_ptr(), t.shape()[0], t.width())
    }

    /// `rows` rows of `width` floats from `ptr`: what the row accessors
    /// take on trust, so it must describe memory the launch keeps live
    /// (a chunk's scratch block, for views not built from a tensor).
    pub(crate) fn at(ptr: *mut f32, rows: usize, width: usize) -> RawRows {
        RawRows { ptr, rows, width }
    }

    /// A read-only view of `data` as rows of `width` floats.
    ///
    /// The result must never reach [`Self::row_mut`] or
    /// [`Self::rows_mut`]: it points into shared data (weights, an
    /// inline constant), which the executor only ever binds as an
    /// operand.
    pub(crate) fn reading(data: &[f32], width: usize) -> RawRows {
        RawRows {
            ptr: data.as_ptr().cast_mut(),
            rows: data.len().checked_div(width).unwrap_or(0),
            width,
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// # Safety
    ///
    /// The launch is live (see the type docs), `r < self.rows()` — the
    /// executor checks the range once per bound operand, not per row —
    /// and no other chunk writes row `r` concurrently.
    #[inline]
    pub(crate) unsafe fn row(&self, r: usize) -> &[f32] {
        // SAFETY: forwarded to the caller; liveness and non-aliasing are
        // the caller's too.
        unsafe { std::slice::from_raw_parts(self.row_ptr(r), self.width) }
    }

    /// # Safety
    ///
    /// The launch is live, `r < self.rows()`, and the calling chunk owns
    /// row `r`: no other reference to it exists for the returned
    /// borrow's lifetime.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub(crate) unsafe fn row_mut(&self, r: usize) -> &mut [f32] {
        // SAFETY: as in `row`, with exclusivity the caller's.
        unsafe { std::slice::from_raw_parts_mut(self.row_ptr(r), self.width) }
    }

    /// The first float of row `r`, for single-float loads and stores.
    ///
    /// # Safety
    ///
    /// `r < self.rows()`, and the pointer is used under the contract of
    /// [`Self::row`] (a load) or [`Self::row_mut`] (a store).
    #[inline]
    pub(crate) unsafe fn row_ptr(&self, r: usize) -> *mut f32 {
        debug_assert!(r < self.rows, "row {r} outside a {}-row view", self.rows);
        // SAFETY: `r < rows` (caller) keeps the offset inside the buffer
        // the view was built from.
        unsafe { self.ptr.add(r * self.width) }
    }

    /// The contiguous block of rows `rs`.
    ///
    /// # Safety
    ///
    /// As [`Self::row_mut`], for every row of `rs` (the range itself is
    /// checked here, once per block).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn rows_mut(&self, rs: &Range<usize>) -> &mut [f32] {
        let (start, len) = (rs.start * self.width, rs.len() * self.width);
        let inside = rs.start <= rs.end && rs.end <= self.rows;
        assert!(inside, "rows {rs:?} outside a {}-row view", self.rows);
        // SAFETY: the assert keeps the block inside the buffer the view
        // was built from; liveness and exclusivity are the caller's.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// Metadata of one deferred scatter/aggregate write; the values live in
/// the owning [`ContribBuf`]'s flat vector.
struct Contribution {
    /// Launch-table slot of the output variable.
    out: usize,
    row: usize,
    /// Offset into [`ContribBuf::vals`].
    off: usize,
    len: usize,
    max: bool,
}

/// Flat per-chunk store of deferred contributions: one metadata record
/// per (output row, value run), all values in a single growable vector —
/// no per-row heap allocation.
#[derive(Default)]
pub(crate) struct ContribBuf {
    meta: Vec<Contribution>,
    /// For sums the values are pre-scaled (`x * s`), so the replay's
    /// `acc += v` performs the identical f32 operations as the
    /// in-place `acc += x * s`.
    vals: Vec<f32>,
}

impl ContribBuf {
    pub(crate) fn push(
        &mut self,
        out: usize,
        row: usize,
        vals: impl Iterator<Item = f32>,
        max: bool,
    ) {
        let off = self.vals.len();
        self.vals.extend(vals);
        self.meta.push(Contribution {
            out,
            row,
            off,
            len: self.vals.len() - off,
            max,
        });
    }

    /// Empties the buffer for the next kernel; capacity persists.
    fn clear(&mut self) {
        self.meta.clear();
        self.vals.clear();
    }

    /// Applies every recorded contribution in recorded order.
    ///
    /// # Safety
    ///
    /// `table` is the live launch table the contributions were recorded
    /// against, and no chunk of the launch is still running.
    unsafe fn replay(&self, table: &[RawRows]) {
        for c in &self.meta {
            let vals = &self.vals[c.off..c.off + c.len];
            let view = table[c.out];
            assert!(c.row < view.rows(), "contribution outside its output");
            // SAFETY: the row is in range, and every chunk has finished
            // (caller contract), so the merging thread is the only one
            // touching any row.
            let row = unsafe { view.row_mut(c.row) };
            if c.max {
                for (acc, x) in row.iter_mut().zip(vals) {
                    *acc = acc.max(*x);
                }
            } else {
                for (acc, x) in row.iter_mut().zip(vals) {
                    *acc += *x;
                }
            }
        }
    }
}

/// One chunk's pooled working state: a scratch block (scatter-GEMM row
/// staging, block-resident locals), the bound-op list of the running
/// traversal, and the deferred-contribution buffer. Reused across
/// kernels and runs — every buffer grows to its high-water mark once,
/// then warm runs never allocate.
struct WorkerSlot {
    scratch: Scratch,
    /// Always empty between chunks: only its capacity is pooled, which
    /// is why the `'static` never names a real borrow.
    ops: Vec<BoundOp<'static>>,
    buf: ContribBuf,
    /// Scratch growth events already folded into the plan's counter.
    folded_grows: usize,
}

impl WorkerSlot {
    /// Growth events since the last fold (see `folded_grows`).
    fn take_grows(&mut self) -> usize {
        let total = self.scratch.grows();
        let delta = total - self.folded_grows;
        self.folded_grows = total;
        delta
    }
}

/// What [`WorkerArenas::run_chunks`] hands one chunk of a launch.
pub(super) struct Chunk<'a> {
    pub(super) scratch: &'a mut Scratch,
    /// Pooled storage for the chunk's bound ops (empty on entry; leave
    /// it empty).
    pub(super) ops: &'a mut Vec<BoundOp<'static>>,
    /// Present when the launch split: where contributions to rows that
    /// may be another chunk's are recorded.
    pub(super) sink: Option<&'a mut ContribBuf>,
}

/// Interior-mutable slot cell.
struct SlotCell(UnsafeCell<WorkerSlot>);

// SAFETY: slots are only reached by chunk index inside a
// `ThreadPool::for_each_chunk` job, which hands out every index exactly
// once (an atomic `fetch_add`): two threads never hold the same index,
// and distinct indices reach distinct slots. The merge runs after
// `for_each_chunk` returns, which happens-after every chunk completion.
unsafe impl Sync for SlotCell {}

/// The run plan's pool of per-chunk worker state — the reason warm
/// threaded runs are as allocation-free as one-chunk ones. See the
/// module docs ("Pooled worker arenas").
pub(crate) struct WorkerArenas {
    slots: Vec<SlotCell>,
    /// Launch table: one view per variable the running kernel touches,
    /// indexed by the kernel's prepare-time slot numbers. Rebuilt
    /// (capacity retained) by [`WorkerArenas::bind`] and cleared by
    /// [`WorkerArenas::unbind`], so no pointer outlives its launch.
    table: Vec<RawRows>,
    /// Pooled per-type row buckets for the type-parallel GradW path.
    rows_by_type: Vec<Vec<u32>>,
}

impl std::fmt::Debug for WorkerArenas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerArenas")
            .field("slots", &self.slots.len())
            .field("table_vars", &self.table.len())
            .field("type_buckets", &self.rows_by_type.len())
            .finish()
    }
}

impl WorkerArenas {
    pub(crate) fn new() -> WorkerArenas {
        WorkerArenas {
            slots: Vec::new(),
            table: Vec::new(),
            rows_by_type: Vec::new(),
        }
    }

    /// Footprint of the pooled scratch blocks, bound-op lists and launch
    /// table, bytes.
    pub(crate) fn bytes(&mut self) -> usize {
        let slot_bytes = |c: &mut SlotCell| {
            let slot = c.0.get_mut();
            slot.scratch.bytes() + slot.ops.capacity() * std::mem::size_of::<BoundOp<'_>>()
        };
        self.slots.iter_mut().map(slot_bytes).sum::<usize>()
            + self.table.capacity() * std::mem::size_of::<RawRows>()
    }

    /// Opens a launch: points the table at `vars`' buffers, in order.
    /// Callers keep `store` mutably borrowed until [`Self::unbind`] —
    /// that borrow is what keeps the table's pointers live.
    fn bind(&mut self, vars: &[VarId], store: &mut VarStore) {
        self.table.clear();
        for &v in vars {
            let view = RawRows::of(store.get_mut(v));
            self.table.push(view);
        }
    }

    /// Closes the launch opened by [`Self::bind`].
    fn unbind(&mut self) {
        self.table.clear();
    }

    /// Runs `f(table, buckets)` with the launch table bound to `vars`
    /// (`store` stays borrowed for the whole call, so the table is live
    /// throughout) and `types` emptied per-type row buckets.
    pub(crate) fn with_table<R>(
        &mut self,
        vars: &[VarId],
        store: &mut VarStore,
        types: usize,
        f: impl FnOnce(&[RawRows], &mut [Vec<u32>]) -> R,
    ) -> R {
        self.bind(vars, store);
        if self.rows_by_type.len() < types {
            self.rows_by_type.resize_with(types, Vec::new);
        }
        for bucket in &mut self.rows_by_type[..types] {
            bucket.clear();
        }
        let r = f(&self.table, &mut self.rows_by_type[..types]);
        self.unbind();
        r
    }

    /// Runs `body(table, range, chunk)` over `0..rows` with the
    /// launch table bound to `vars` (`store` stays borrowed for the
    /// whole call, so the table is live throughout). With no `pool` the
    /// whole domain is one chunk on the caller: the sink is `None` and
    /// aggregates fold in place. With a pool the domain splits as
    /// [`hector_par::chunk_ranges`] predicts; whenever that is more than
    /// one chunk the sink is the chunk's [`ContribBuf`], replayed here
    /// in ascending chunk order. Returns whether the launch split, and
    /// the slots' scratch growth events for the caller to fold into the
    /// plan's scratch counter.
    pub(super) fn run_chunks(
        &mut self,
        vars: &[VarId],
        store: &mut VarStore,
        pool: Option<&ThreadPool>,
        min_chunk: usize,
        rows: usize,
        body: impl Fn(&[RawRows], Range<usize>, Chunk<'_>) + Sync,
    ) -> (bool, usize) {
        self.bind(vars, store);
        let chunks = pool.map_or(1, |p| chunk_count(rows, min_chunk, p.parallelism()));
        while self.slots.len() < chunks {
            self.slots.push(SlotCell(UnsafeCell::new(WorkerSlot {
                scratch: Scratch::new(),
                ops: Vec::new(),
                buf: ContribBuf::default(),
                folded_grows: 0,
            })));
        }
        let (slots, table): (&[SlotCell], &[RawRows]) = (&self.slots, &self.table);
        let run = |ci: usize, range: Range<usize>| {
            // SAFETY: each chunk index is claimed exactly once per launch
            // (see `SlotCell`), so this slot has one user.
            let slot = unsafe { &mut *slots[ci].0.get() };
            slot.buf.clear();
            let chunk = Chunk {
                scratch: &mut slot.scratch,
                ops: &mut slot.ops,
                sink: (chunks > 1).then_some(&mut slot.buf),
            };
            body(table, range, chunk);
        };
        let executed = match pool {
            None => {
                run(0, 0..rows);
                1
            }
            Some(pool) => pool.for_each_chunk(rows, min_chunk, |ci, range| {
                let tw = hector_trace::span_start();
                let n = range.len();
                run(ci, range);
                record_chunk_span(tw, n, ci);
            }),
        };
        debug_assert!(pool.is_none() || executed == chunks);
        // Deterministic merge: ascending chunk index, recorded order
        // within each chunk — exactly the one-chunk accumulation order.
        let mut grows = 0;
        for cell in &mut self.slots[..executed] {
            let slot = cell.0.get_mut();
            // SAFETY: `for_each_chunk` has returned, so every chunk is
            // done, and `self.table` — bound above from `store`, which
            // is still borrowed — is the table `body` recorded against.
            unsafe { slot.buf.replay(&self.table) };
            grows += slot.take_grows();
        }
        self.unbind();
        (executed > 1, grows)
    }
}

/// Raw per-type slab view of a gradient stack for the type-parallel
/// `TypedLinearGradW` path.
pub(crate) struct RawSlabs {
    ptr: *mut f32,
    slabs: usize,
    slab_elems: usize,
}

// SAFETY: a pointer plus two lengths; every dereference goes through
// `slab_mut`, whose callers own disjoint slabs.
unsafe impl Send for RawSlabs {}
// SAFETY: see `Send`.
unsafe impl Sync for RawSlabs {}

impl RawSlabs {
    pub(crate) fn of(grad: &mut Tensor) -> RawSlabs {
        RawSlabs {
            slabs: grad.shape()[0],
            slab_elems: grad.shape()[1] * grad.shape()[2],
            ptr: grad.data_mut().as_mut_ptr(),
        }
    }

    /// # Safety
    ///
    /// The gradient tensor outlives the launch (it is borrowed from the
    /// launch's `ParamStore`) and the caller owns slab `ty` exclusively.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slab_mut(&self, ty: usize) -> &mut [f32] {
        assert!(ty < self.slabs, "type {ty} outside {} slabs", self.slabs);
        // SAFETY: `ty < slabs` keeps the range inside the tensor.
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.add(ty * self.slab_elems), self.slab_elems)
        }
    }
}

/// Aggregate outputs whose target row can belong to a different chunk
/// than the one producing the contribution — these must be deferred.
/// In dst-node kernels, aggregation into the owned destination row is
/// chunk-private and applies immediately (staged passes read it back).
pub(crate) fn buffered_agg_outs(spec: &TraversalSpec, program: &Program) -> HashSet<VarId> {
    let mut set = HashSet::new();
    for op in &spec.ops {
        if let OpKind::NodeAggregate { out, .. } = &op.kind {
            if !spec.dst_private(program, &op.kind) {
                set.insert(*out);
            }
        }
    }
    set
}

/// The register-local variables of `spec` that live in block scratch on
/// the production executor and never get a buffer: those every in-kernel
/// access addresses through the iterated row itself. In a row domain
/// that is a local of the iterated space written by a pure op; in a
/// dst-node kernel an edge-space local (addressed by its position in the
/// tile's in-edge list, so it survives from one pass of a tile to the
/// next) or a node-space one (a row per tile destination) that is
/// written by a pure op or a dst-private aggregate and never read at a
/// source endpoint. Anything else is materialised like a global.
pub(crate) fn block_resident(spec: &TraversalSpec, program: &Program) -> Vec<VarId> {
    let row_space = match spec.domain {
        TraversalDomain::Edges => Some(Space::Edge),
        TraversalDomain::UniquePairs => Some(Space::Compact),
        TraversalDomain::Nodes => Some(Space::Node),
        TraversalDomain::DstNodes => None,
    };
    let resident = |&&v: &&VarId| {
        let space = program.var(v).space;
        let in_space = row_space.map_or(space != Space::Compact, |s| s == space);
        in_space
            && spec.ops.iter().all(|op| {
                let at_src = |o: &Operand| matches!(o, Operand::Node(x, Endpoint::Src) if *x == v);
                let scattered = op.kind.out_var() == Some(v)
                    && matches!(op.kind, OpKind::NodeAggregate { .. })
                    && !spec.dst_private(program, &op.kind);
                !scattered && !op.kind.operands().any(at_src)
            })
    };
    spec.local_vars.iter().filter(resident).copied().collect()
}

/// Whether the kernel's dataflow permits the chunked execution scheme
/// (and, in a dst-node kernel, tiles of many destinations): not when a
/// dst-node op reads an in-kernel value at a source endpoint, a row
/// another destination owns and the oracle's destination order has not
/// finished yet. The lowering rules out the other hazards — reading a
/// deferred aggregate (a `fusion/break`) and mixing aggregate and direct
/// writes to one variable (single assignment).
pub(crate) fn par_traversal_safe(spec: &TraversalSpec) -> bool {
    let outs: HashSet<VarId> = spec.ops.iter().filter_map(|op| op.kind.out_var()).collect();
    let at_src = |o: &Operand| matches!(o, Operand::Node(v, Endpoint::Src) if outs.contains(v));
    spec.domain != TraversalDomain::DstNodes
        || !spec.ops.iter().any(|op| op.kind.operands().any(at_src))
}
