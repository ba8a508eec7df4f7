//! Reusable scratch buffers for the interpreter hot path.
//!
//! Without them, the oracle interpreter (`exec.rs`) would allocate a fresh
//! `Vec<f32>` for every operand read, every unary/binary op result, and
//! every GEMM output row — allocator traffic would dominate arithmetic.
//! A [`Scratch`] arena replaces all of that: the run plan owns
//! one arena for its whole lifetime (the production executor also pools
//! one block per chunk), buffers grow to the widest row a kernel
//! produces and are then reused verbatim, so a steady-state forward pass
//! performs **zero per-row heap allocations** (pinned by
//! `tests/interp_alloc.rs` with a counting global allocator).
//!
//! # Lifetime contract
//!
//! Operand reads return borrowed [`OperandRef`] views into the variable
//! or parameter stores (see `exec::read_operand`); they stay valid only
//! while no buffer of those stores is mutated. Ops therefore compute
//! into the arena's slots *first*, drop the operand borrows, and only
//! then write the finished row back into the output tensor. The three
//! slots (`y`, `a`, `b`) are distinct fields precisely so an op can hold
//! the output slot mutably while staged operand copies stay readable.
//!
//! The production executor's chunks also keep their traversal kernel's
//! register-local variables here (`locals`): a block of rows per local,
//! never a whole-graph tensor.

/// Growable, reusable scratch slots owned by one executor (or one
/// parallel worker chunk).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Output-row slot: GEMM rows and unary/binary/dot results.
    y: Vec<f32>,
    /// Staged operand copy A (aggregate values, `GradW` x rows; the
    /// production executor's packed `Wᵀ` slab).
    a: Vec<f32>,
    /// Staged operand copy B (`GradW` dy rows).
    b: Vec<f32>,
    /// Block-resident locals of the running traversal chunk (production
    /// executor): a block of rows per register-local variable.
    locals: Vec<f32>,
    /// Buffer-growth (heap allocation) events since construction.
    grows: usize,
}

impl Scratch {
    /// Fresh, empty arena.
    pub(crate) fn new() -> Scratch {
        Scratch::default()
    }

    fn grow_to(buf: &mut Vec<f32>, n: usize, grows: &mut usize) {
        if n > buf.capacity() {
            *grows += 1;
        }
        if n > buf.len() {
            buf.resize(n, 0.0);
        }
    }

    /// The output slot, zero-filled, exactly `n` wide.
    pub(crate) fn y_zeroed(&mut self, n: usize) -> &mut [f32] {
        Self::grow_to(&mut self.y, n, &mut self.grows);
        let y = &mut self.y[..n];
        y.fill(0.0);
        y
    }

    /// The output slot, contents unspecified, exactly `n` wide (for ops
    /// that overwrite every element).
    pub(crate) fn y_uninit(&mut self, n: usize) -> &mut [f32] {
        Self::grow_to(&mut self.y, n, &mut self.grows);
        &mut self.y[..n]
    }

    /// Slot A (`a` wide) beside the output slot (`y` wide), contents
    /// unspecified: a tiled GEMM reads the `Wᵀ` slab it packed into one
    /// while it fills the other.
    pub(crate) fn a_and_y(&mut self, a: usize, y: usize) -> (&mut [f32], &mut [f32]) {
        Self::grow_to(&mut self.a, a, &mut self.grows);
        Self::grow_to(&mut self.y, y, &mut self.grows);
        (&mut self.a[..a], &mut self.y[..y])
    }

    /// The locals slot, contents unspecified, exactly `n` floats.
    pub(crate) fn locals(&mut self, n: usize) -> &mut [f32] {
        Self::grow_to(&mut self.locals, n, &mut self.grows);
        &mut self.locals[..n]
    }

    /// The first `n` finished elements of the output slot.
    pub(crate) fn y(&self, n: usize) -> &[f32] {
        &self.y[..n]
    }

    /// Mutable view of the first `n` elements of the output slot (e.g.
    /// for a fused scale applied after the GEMM inner loop).
    pub(crate) fn y_mut(&mut self, n: usize) -> &mut [f32] {
        &mut self.y[..n]
    }

    /// Copies `src` into staged slot A; read it back via [`Scratch::a`].
    pub(crate) fn stage_a(&mut self, src: &[f32]) {
        Self::grow_to(&mut self.a, src.len(), &mut self.grows);
        self.a[..src.len()].copy_from_slice(src);
    }

    /// Copies `src` into staged slot B; read it back via [`Scratch::b`].
    pub(crate) fn stage_b(&mut self, src: &[f32]) {
        Self::grow_to(&mut self.b, src.len(), &mut self.grows);
        self.b[..src.len()].copy_from_slice(src);
    }

    /// The first `n` elements of staged slot A.
    pub(crate) fn a(&self, n: usize) -> &[f32] {
        &self.a[..n]
    }

    /// The first `n` elements of staged slot B.
    pub(crate) fn b(&self, n: usize) -> &[f32] {
        &self.b[..n]
    }

    /// Buffer-growth (allocation) events since construction.
    pub(crate) fn grows(&self) -> usize {
        self.grows
    }

    /// Adds externally observed growth events (the production
    /// executor's per-chunk arenas report theirs through the owning
    /// run plan's arena so the device counters see every allocation).
    pub(crate) fn note_external_grows(&mut self, n: usize) {
        self.grows += n;
    }

    /// Current arena footprint in bytes (all slots' capacities).
    pub(crate) fn bytes(&self) -> usize {
        (self.y.capacity() + self.a.capacity() + self.b.capacity() + self.locals.capacity())
            * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grow_then_reuse() {
        let mut s = Scratch::new();
        assert_eq!(s.grows(), 0);
        s.y_zeroed(8);
        let after_first = s.grows();
        assert!(after_first >= 1);
        // Same or smaller width: no further growth, contents rewritten.
        s.y_uninit(8)[0] = 3.0;
        assert_eq!(s.y(8)[0], 3.0);
        s.y_zeroed(4);
        assert_eq!(s.y(4), &[0.0; 4]);
        assert_eq!(s.grows(), after_first);
        // Wider row: exactly one more growth event.
        s.y_zeroed(16);
        assert_eq!(s.grows(), after_first + 1);
    }

    #[test]
    fn staged_slots_are_independent() {
        let mut s = Scratch::new();
        s.stage_a(&[1.0, 2.0]);
        s.stage_b(&[3.0]);
        assert_eq!(s.a(2), &[1.0, 2.0]);
        assert_eq!(s.b(1), &[3.0]);
        assert!(s.bytes() >= 3 * 4);
    }

    #[test]
    fn external_grows_accumulate() {
        let mut s = Scratch::new();
        s.note_external_grows(3);
        assert_eq!(s.grows(), 3);
    }
}
