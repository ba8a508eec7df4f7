//! Variable buffers for one run, packed by liveness.
//!
//! Every variable a run materialises has a **live interval** over the
//! run's kernel sequence ([`intervals`]), and variables whose intervals
//! never overlap share one buffer, a *slot* ([`assign_slots`]). The
//! [`VarStore`] holds the slots and hands each one to a variable at that
//! variable's first touch of the run; a read through a variable that no
//! longer owns its slot panics, naming the variable, instead of aliasing.

use hector_compiler::CompiledModule;
use hector_device::Phase;
use hector_ir::{KernelSpec, Operand, VarId};
use hector_tensor::Tensor;

use crate::backend::ExecPlan;
use crate::GraphData;

/// `slot_of` entry of a variable the run never materialises.
const NO_SLOT: u32 = u32::MAX;

/// The kernels during which a variable's buffer holds a value, as
/// inclusive positions on the run's timeline: forward kernel `i` is at
/// `i`, the loss and output-gradient seeds at `F` (the forward kernel
/// count), backward kernel `j` at `F + 1 + j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Interval {
    first: u32,
    last: u32,
}

impl Interval {
    fn at(p: u32) -> Interval {
        Interval { first: p, last: p }
    }

    fn cover(&mut self, p: u32) {
        self.first = self.first.min(p);
        self.last = self.last.max(p);
    }

    fn overlaps(self, other: Interval) -> bool {
        self.first <= other.last && other.first <= self.last
    }
}

/// The live interval of every variable a run of `module` on `plan`
/// materialises, indexed by [`VarId`]; `None` for the rest (register
/// locals the executor keeps in block scratch, variables no kernel
/// touches). An interval runs from the first kernel that writes the
/// variable — inputs at 0, output-gradient seeds at the end of the
/// forward — to the last kernel that reads or writes it. Forward outputs
/// stay live to the end of the run: the loss, [`crate::Engine::output`],
/// serving and shards read them after their last kernel.
fn intervals(module: &CompiledModule, plan: &ExecPlan) -> Vec<Option<Interval>> {
    let fw = &module.forward;
    let bw = module.backward.as_ref();
    let mut live = vec![None; bw.unwrap_or(fw).vars.len()];
    let mut touch = |v: VarId, p: usize| {
        let p = u32::try_from(p).expect("kernel count fits u32");
        let slot: &mut Option<Interval> = &mut live[v.0 as usize];
        slot.get_or_insert(Interval::at(p)).cover(p);
    };
    for &v in &fw.inputs {
        touch(v, 0);
    }
    let f = module.fw_kernels.len();
    walk(&module.fw_kernels, Phase::Forward, 0, plan, &mut touch);
    let mut end = f.saturating_sub(1);
    if let Some(bw) = bw {
        for &seed in &bw.inputs[..fw.outputs.len()] {
            touch(seed, f);
        }
        walk(&module.bw_kernels, Phase::Backward, f + 1, plan, &mut touch);
        end = f + module.bw_kernels.len();
    }
    for &out in &fw.outputs {
        touch(out, end);
    }
    live
}

/// Touches every variable kernel `ki` of `kernels` reads or writes at
/// timeline position `base + ki`, except the locals `plan` keeps in
/// block scratch.
fn walk(
    kernels: &[KernelSpec],
    phase: Phase,
    base: usize,
    plan: &ExecPlan,
    touch: &mut impl FnMut(VarId, usize),
) {
    for (ki, spec) in kernels.iter().enumerate() {
        let ops = match spec {
            KernelSpec::Gemm(g) => std::slice::from_ref(&g.op),
            KernelSpec::Traversal(t) => t.ops.as_slice(),
            KernelSpec::Fallback(_) => &[],
        };
        for op in ops {
            let reads = op.kind.operands().filter_map(Operand::var);
            for v in reads.chain(op.kind.out_var()) {
                if !plan.holds_local(phase, ki, v) {
                    touch(v, base + ki);
                }
            }
        }
    }
}

/// Packs variables into slots: biggest first (`size`, ties by id),
/// each into the first slot none of whose members' intervals overlaps
/// its own. Returns each variable's slot ([`NO_SLOT`] without an
/// interval) and the slot count. Sizes only order the packing — any
/// graph can run on the result; a different one changes capacities.
fn assign_slots(live: &[Option<Interval>], size: impl Fn(usize) -> usize) -> (Vec<u32>, usize) {
    let mut order: Vec<usize> = (0..live.len()).filter(|&v| live[v].is_some()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(size(v)));
    let mut members: Vec<Vec<Interval>> = Vec::new();
    let mut slot_of = vec![NO_SLOT; live.len()];
    for v in order {
        let iv = live[v].expect("filtered to live variables");
        let free = members
            .iter()
            .position(|m| m.iter().all(|&o| !o.overlaps(iv)));
        let s = free.unwrap_or_else(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[s].push(iv);
        slot_of[v] = u32::try_from(s).expect("slot count fits u32");
    }
    (slot_of, members.len())
}

/// One shared buffer and the variable that currently owns it.
#[derive(Debug, Default)]
struct Slot {
    owner: Option<VarId>,
    buf: Tensor,
    /// Floats allocated for `buf` (its data capacity).
    floats: usize,
}

/// Per-run variable storage: one buffer per slot, handed from variable
/// to variable as their live intervals end and begin.
#[derive(Debug, Default)]
pub(crate) struct VarStore {
    /// Per [`VarId`]: its slot, or [`NO_SLOT`].
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    /// Variable names, for the ownership panics.
    names: Vec<String>,
}

impl VarStore {
    /// The store for runs of `module` on `plan`: its variables' live
    /// intervals packed into slots, ranked by their sizes on `graph`.
    /// Every slot starts empty.
    pub(crate) fn planned(module: &CompiledModule, plan: &ExecPlan, graph: &GraphData) -> VarStore {
        let program = module.backward.as_ref().unwrap_or(&module.forward);
        let size = |v: usize| {
            let info = &program.vars[v];
            graph.rows_of_space(info.space) * info.width
        };
        let (slot_of, slots) = assign_slots(&intervals(module, plan), size);
        VarStore {
            slot_of,
            slots: (0..slots).map(|_| Slot::default()).collect(),
            names: program.vars.iter().map(|info| info.name.clone()).collect(),
        }
    }

    /// Hands `v`'s slot to `v`, shaped `shape` and zero-filled — a
    /// buffer indistinguishable from freshly allocated zeros. Returns
    /// whether the slot had to allocate (it grows to exactly `shape`,
    /// so its capacity is its biggest member's size).
    ///
    /// # Panics
    ///
    /// Panics if the plan gave `v` no slot.
    pub(crate) fn take(&mut self, v: VarId, shape: &[usize]) -> bool {
        let s = self.slot_index(v);
        let slot = &mut self.slots[s];
        slot.owner = Some(v);
        let n: usize = shape.iter().product();
        if n > slot.floats {
            slot.buf = Tensor::zeros(shape);
            slot.floats = n;
            true
        } else {
            if slot.buf.shape() == shape {
                slot.buf.data_mut().fill(0.0);
            } else {
                slot.buf.reset_shape_zeroed(shape);
            }
            false
        }
    }

    /// `v`'s buffer.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no slot or no longer owns it (an executor
    /// ordering or liveness bug).
    #[must_use]
    pub(crate) fn get(&self, v: VarId) -> &Tensor {
        &self.slots[self.owned(v)].buf
    }

    /// `v`'s buffer, mutably.
    ///
    /// # Panics
    ///
    /// As [`VarStore::get`].
    pub(crate) fn get_mut(&mut self, v: VarId) -> &mut Tensor {
        let s = self.owned(v);
        &mut self.slots[s].buf
    }

    /// Total bytes allocated across all slots.
    #[must_use]
    pub(crate) fn byte_size(&self) -> usize {
        self.slots.iter().map(|s| s.floats).sum::<usize>() * std::mem::size_of::<f32>()
    }

    fn name(&self, v: VarId) -> String {
        self.names
            .get(v.0 as usize)
            .map_or_else(|| format!("{v:?}"), |n| format!("'{n}' ({v:?})"))
    }

    fn slot_index(&self, v: VarId) -> usize {
        match self.slot_of.get(v.0 as usize) {
            Some(&s) if s != NO_SLOT => s as usize,
            _ => panic!("no buffer for {}", self.name(v)),
        }
    }

    /// `v`'s slot, which `v` must own.
    fn owned(&self, v: VarId) -> usize {
        let s = self.slot_index(v);
        let owner = self.slots[s].owner;
        if owner != Some(v) {
            let now = owner.map_or_else(|| "nobody".to_string(), |o| self.name(o));
            panic!(
                "{} used outside its live interval: its slot belongs to {now}",
                self.name(v)
            );
        }
        s
    }
}

#[cfg(test)]
impl VarStore {
    /// A store giving every variable of `program` its own slot, owned
    /// and zeroed at its size on `graph` — for tests that run a kernel
    /// by hand.
    pub(crate) fn one_per_var(program: &hector_ir::Program, graph: &GraphData) -> VarStore {
        let n = program.vars.len();
        let mut store = VarStore {
            slot_of: (0..n).map(|v| u32::try_from(v).unwrap()).collect(),
            slots: (0..n).map(|_| Slot::default()).collect(),
            names: program.vars.iter().map(|info| info.name.clone()).collect(),
        };
        for (v, info) in program.vars.iter().enumerate() {
            let rows = graph.rows_of_space(info.space);
            store.take(VarId(u32::try_from(v).unwrap()), &[rows, info.width]);
        }
        store
    }

    /// Whether the plan gave `v` a slot.
    pub(crate) fn has_slot(&self, v: VarId) -> bool {
        self.slot_of
            .get(v.0 as usize)
            .is_some_and(|&s| s != NO_SLOT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(first: u32, last: u32) -> Option<Interval> {
        Some(Interval { first, last })
    }

    #[test]
    fn disjoint_intervals_share_a_slot_biggest_first() {
        // 0 and 2 never overlap; 1 overlaps both; 3 has no interval.
        let live = [iv(0, 1), iv(1, 3), iv(2, 4), None];
        let sizes = [10, 30, 20, 99];
        let (slot_of, slots) = assign_slots(&live, |v| sizes[v]);
        assert_eq!(slots, 2);
        assert_eq!(slot_of, vec![1, 0, 1, NO_SLOT]);
    }

    #[test]
    fn insert_and_get() {
        let mut s = VarStore {
            slot_of: vec![0],
            slots: vec![Slot::default()],
            names: vec!["v".into()],
        };
        let v = VarId(0);
        assert!(s.take(v, &[2, 3]));
        assert_eq!(s.get(v).shape(), &[2, 3]);
        s.get_mut(v).data_mut().fill(1.0);
        // The next run's first touch reuses the buffer, zero-filled.
        assert!(!s.take(v, &[2, 3]));
        assert_eq!(s.get(v).data(), &[0.0; 6]);
        assert_eq!(s.byte_size(), 24);
    }

    #[test]
    fn a_handed_over_slot_refuses_its_old_owner() {
        let live = [iv(0, 0), iv(1, 1)];
        let (slot_of, slots) = assign_slots(&live, |_| 4);
        assert_eq!((slots, slot_of[0], slot_of[1]), (1, 0, 0));
        let mut store = VarStore {
            slot_of,
            slots: vec![Slot::default()],
            names: vec!["a".into(), "b".into()],
        };
        assert!(store.take(VarId(0), &[2, 3]));
        store.get_mut(VarId(0)).data_mut().fill(1.0);
        // Smaller: reuses the allocation, zero-filled.
        assert!(!store.take(VarId(1), &[1, 3]));
        assert_eq!(store.get(VarId(1)).data(), &[0.0; 3]);
        assert_eq!(store.byte_size(), 24);
        let stale = std::panic::catch_unwind(|| store.get(VarId(0)).len()).unwrap_err();
        let msg = stale.downcast_ref::<String>().unwrap();
        assert!(msg.contains("'a'") && msg.contains("'b'"), "{msg}");
    }

    /// Over every model, option combo, depth, mode and backend, on an
    /// edge-heavy and a node-heavy graph (they rank the variables
    /// differently): slot mates never overlap, every live variable has a
    /// slot, and forward outputs live to the end of the run.
    #[test]
    fn slot_mates_never_overlap() {
        use crate::{BackendKind, EngineBuilder};
        use hector_compiler::CompileOptions;
        use hector_graph::{generate, DatasetSpec};
        use hector_models::ModelKind;

        let graph = |num_nodes, num_edges| {
            GraphData::new(generate(&DatasetSpec {
                name: "liveness".into(),
                num_nodes,
                num_node_types: 2,
                num_edges,
                num_edge_types: 3,
                compaction_ratio: 0.5,
                type_skew: 1.0,
                seed: 3,
            }))
        };
        let graphs = [graph(30, 600), graph(400, 300)];
        let combos = [
            CompileOptions::unopt(),
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
            CompileOptions::best(),
        ];
        for kind in ModelKind::all() {
            for opts in &combos {
                for (layers, training) in [(1, false), (1, true), (2, false), (2, true)] {
                    let engine = EngineBuilder::new(kind)
                        .dims(8, 8)
                        .layers(layers)
                        .options(opts.clone())
                        .training(training)
                        .build()
                        .unwrap();
                    let module = engine.module();
                    let end = module.fw_kernels.len()
                        + module
                            .backward
                            .as_ref()
                            .map_or(0, |_| module.bw_kernels.len() + 1)
                        - 1;
                    for backend in [BackendKind::Interp, BackendKind::Specialized] {
                        let plan = ExecPlan::prepare(backend, module);
                        let live = intervals(module, &plan);
                        for &out in &module.forward.outputs {
                            let last = live[out.0 as usize].unwrap().last;
                            assert_eq!(last as usize, end, "{kind:?}: output dies early");
                        }
                        for g in &graphs {
                            let store = VarStore::planned(module, &plan, g);
                            for (a, ia) in live.iter().enumerate() {
                                let va = VarId(a as u32);
                                assert_eq!(store.has_slot(va), ia.is_some());
                                for (b, ib) in live.iter().enumerate().skip(a + 1) {
                                    let (Some(ia), Some(ib)) = (ia, ib) else {
                                        continue;
                                    };
                                    if store.slot_of[a] == store.slot_of[b] {
                                        assert!(
                                            !ia.overlaps(*ib),
                                            "{kind:?} {opts:?} {layers} {training} {backend:?}: \
                                             {} {ia:?} and {} {ib:?} share a slot",
                                            store.name(va),
                                            store.name(VarId(b as u32)),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no buffer for 'x'")]
    fn missing_buffer_panics() {
        let store = VarStore {
            slot_of: vec![NO_SLOT],
            slots: Vec::new(),
            names: vec!["x".into()],
        };
        let _ = store.get(VarId(0));
    }
}
