//! Derivation of [`KernelCost`]s from kernel specs and graph statistics.
//!
//! This is the bridge between the compiler's output and the simulated
//! GPU: each spec's FLOP count, memory traffic, atomic-update count, and
//! parallelism are computed from the graph's row counts and the program's
//! tensor widths. [`model_run`] walks a compiled plan with them and is
//! the only place that charges the simulated device: every real run
//! charges through it too, so modeled and real reports agree by
//! construction.

use hector_compiler::CompiledModule;
use hector_device::{Device, KernelCategory, KernelCost, OomError, Phase};
use hector_ir::{
    Gather, GemmSpec, KernelSpec, OpKind, Operand, Program, Scatter, Space, TraversalDomain,
    TraversalSpec, VarId, WeightPrep,
};

use crate::session::RunReport;
use crate::GraphData;

/// Charges one run of `module` on `graph` to `device` and reports it: a
/// forward pass, or with `train` a training step. The simulated time,
/// peak footprint and OOM point are a reading of the compiled plan and
/// the graph's shape, so nothing executes and no parameters or inputs
/// are needed — paper-scale graphs take milliseconds. Every real run
/// charges its device through this walk before its kernels execute, so
/// its report equals this one except for `loss` (always `None` here).
///
/// After `device.reset()`, the walk charges, in order: the graph
/// structures, the weights (and in training their gradients), each
/// input, then per forward kernel its non-local outputs — once per
/// variable per run — and its launch. Training adds the loss, the
/// output-gradient seeds, the backward kernels and one framework call
/// for the prep chain rule and optimizer.
///
/// # Errors
///
/// Returns [`OomError`] at the first allocation that exceeds device
/// memory.
///
/// # Panics
///
/// Panics if `train` is set for a module compiled without training.
pub fn model_run(
    module: &CompiledModule,
    graph: &GraphData,
    device: &mut Device,
    train: bool,
) -> Result<RunReport, OomError> {
    charge_run(module, graph, device, train, &mut Vec::new())
}

/// [`model_run`] over a caller-owned per-variable flag buffer, so a warm
/// run plan charges its device without allocating.
pub(crate) fn charge_run(
    module: &CompiledModule,
    graph: &GraphData,
    device: &mut Device,
    train: bool,
    charged: &mut Vec<bool>,
) -> Result<RunReport, OomError> {
    let fw = &module.forward;
    let bw = train.then(|| {
        let bw = module.backward.as_ref();
        bw.expect("module was not compiled for training")
    });
    device.reset();
    device.alloc(graph.structure_bytes(), "graph")?;
    let weights: usize = fw
        .weights
        .iter()
        .map(|w| graph.type_count(w.per) * w.rows * w.cols * 4)
        .sum();
    device.alloc(weights, "weights")?;
    if bw.is_some() {
        device.alloc(weights, "weight_grads")?;
    }
    charged.clear();
    charged.resize(fw.vars.len().max(bw.map_or(0, |p| p.vars.len())), false);
    let mut walk = Walk {
        graph,
        device,
        charged,
    };
    for &v in &fw.inputs {
        walk.charge(fw, v)?;
    }
    walk.kernels(&module.fw_kernels, fw, Phase::Forward)?;
    if let Some(bw) = bw {
        walk.device.launch(&loss_cost(fw, graph, fw.outputs[0]));
        for &seed in &bw.inputs[..fw.outputs.len()] {
            walk.charge(bw, seed)?;
        }
        walk.kernels(&module.bw_kernels, bw, Phase::Backward)?;
        // Prep backward + optimizer run as framework calls.
        walk.device.charge_api_call();
    }
    Ok(report(walk.device))
}

/// The report of everything charged to `device` since its reset.
fn report(device: &Device) -> RunReport {
    let c = device.counters();
    RunReport {
        elapsed_us: device.elapsed_us(),
        peak_bytes: device.memory().peak(),
        launches: c.total_launches(),
        gemm_us: c.category_duration_us(KernelCategory::Gemm),
        traversal_us: c.category_duration_us(KernelCategory::Traversal),
        copy_us: c.category_duration_us(KernelCategory::Copy),
        fallback_us: c.category_duration_us(KernelCategory::Fallback) + device.host_api_us(),
        forward_us: c.phase_duration_us(Phase::Forward),
        backward_us: c.phase_duration_us(Phase::Backward),
        loss: None,
    }
}

/// The device and per-variable charge flags of one [`charge_run`].
struct Walk<'a> {
    graph: &'a GraphData,
    device: &'a mut Device,
    charged: &'a mut [bool],
}

impl Walk<'_> {
    /// Allocates `v`'s buffer unless this run already did.
    fn charge(&mut self, program: &Program, v: VarId) -> Result<(), OomError> {
        if std::mem::replace(&mut self.charged[v.0 as usize], true) {
            return Ok(());
        }
        let bytes = var_bytes(program, self.graph, v);
        self.device.alloc(bytes, &program.var(v).name)?;
        Ok(())
    }

    /// Charges each kernel's materialised outputs, then its launch.
    fn kernels(
        &mut self,
        specs: &[KernelSpec],
        program: &Program,
        phase: Phase,
    ) -> Result<(), OomError> {
        for spec in specs {
            for (v, local) in kernel_outputs(spec) {
                if !local {
                    self.charge(program, v)?;
                }
            }
            let cost = kernel_cost(spec, program, self.graph, phase);
            self.device.launch(&cost);
        }
        Ok(())
    }
}

/// Each variable `spec` writes, with whether it is one of the kernel's
/// register locals (never charged to device memory, §3.4.2).
pub(crate) fn kernel_outputs(spec: &KernelSpec) -> impl Iterator<Item = (VarId, bool)> + '_ {
    let (ops, locals): (&[hector_ir::Op], &[VarId]) = match spec {
        KernelSpec::Gemm(g) => (std::slice::from_ref(&g.op), &[]),
        KernelSpec::Traversal(t) => (t.ops.as_slice(), t.local_vars.as_slice()),
        KernelSpec::Fallback(_) => (&[], &[]),
    };
    ops.iter()
        .filter_map(|op| op.kind.out_var())
        .map(move |v| (v, locals.contains(&v)))
}

/// Cost of the NLL loss and its gradient over the model output `out`.
fn loss_cost(program: &Program, graph: &GraphData, out: VarId) -> KernelCost {
    let info = program.var(out);
    let rows = graph.rows_of_space(info.space) as f64;
    let mut c = KernelCost::new(KernelCategory::Fallback, Phase::Backward);
    c.flops = rows * info.width as f64 * 4.0;
    c.bytes_read = rows * info.width as f64 * 4.0;
    c.bytes_written = rows * info.width as f64 * 4.0;
    c.items = rows * info.width as f64 / 32.0;
    c
}

/// Cost of one kernel launch of `spec` for `program` on `graph`.
#[must_use]
pub fn kernel_cost(
    spec: &KernelSpec,
    program: &Program,
    graph: &GraphData,
    phase: Phase,
) -> KernelCost {
    match spec {
        KernelSpec::Gemm(g) => gemm_cost(g, program, graph, phase),
        KernelSpec::Traversal(t) => traversal_cost(t, program, graph, phase),
        KernelSpec::Fallback(f) => fallback_cost(f.prep_index, program, graph, phase),
    }
}

/// Cost of a GEMM-template instance.
#[must_use]
pub fn gemm_cost(g: &GemmSpec, program: &Program, graph: &GraphData, phase: Phase) -> KernelCost {
    let m = graph.rows_of(g.rows) as f64;
    let (k, n) = (g.k as f64, g.n as f64);
    let mut c = KernelCost::new(KernelCategory::Gemm, phase);
    c.flops = 2.0 * m * k * n;
    // X rows (gathered or contiguous) + gather index + weight stack.
    let w = program.weight(match &g.op.kind {
        OpKind::TypedLinear { weight, .. } => *weight,
        OpKind::TypedLinearGradW { out_w, .. } => *out_w,
        _ => unreachable!(),
    });
    let t_slabs = graph.type_count(w.per) as f64;
    // Each weight slab is streamed once per segment thanks to type-sorted
    // rows; smaller shared-memory tiles re-stream the weight more often
    // (schedule knob, paper §3.4.1). Cap at total work in degenerate cases.
    let tile_restream = (16.0 / g.schedule.tile as f64).max(1.0);
    let weight_bytes = (t_slabs * k * n * 4.0 * tile_restream).min(m * k * n * 4.0);
    c.bytes_read = m * k * 4.0 + weight_bytes;
    if g.gather != Gather::None {
        c.bytes_read += m * 4.0;
    }
    match g.scatter {
        Scatter::None => {
            c.bytes_written = m * n * 4.0;
        }
        Scatter::AtomicNode(_) => {
            // Read-modify-write with atomics on every output element.
            c.bytes_written = 2.0 * m * n * 4.0;
            c.atomic_ops = m * n;
        }
    }
    if matches!(g.op.kind, OpKind::TypedLinearGradW { .. }) {
        // Outer-product accumulation: per-warp partial results still
        // contend on the (small) dW output — the paper's backward GEMM
        // throughput loss (§4.4).
        c.bytes_written = t_slabs * k * n * 4.0 * 2.0;
        c.atomic_ops += m * n / 32.0;
    }
    if g.fused_scale {
        c.bytes_read += m * 4.0;
    }
    // Parallelism in warp-equivalents: one warp per 32 output elements.
    // Thread coarsening trades active warps for register-level reuse
    // (§3.4.1): fewer resident warps, slightly higher per-warp throughput.
    c.items = m * n / 32.0 / g.schedule.coarsen as f64;
    if g.schedule.coarsen > 1 {
        c.flops /= 1.0 + 0.05 * (g.schedule.coarsen as f64 - 1.0);
    }
    if g.schedule.launch_bounds {
        // Capping registers buys a few percent more active warps.
        c.flops /= 1.02;
    }
    c
}

/// Width of a variable, or of the row vector an operand contributes.
fn operand_width(program: &Program, o: &Operand) -> f64 {
    program.operand_width(o) as f64
}

/// Whether the operand reads a local (register) variable of this kernel.
fn is_local(t: &TraversalSpec, o: &Operand) -> bool {
    o.var().is_some_and(|v| t.local_vars.contains(&v))
}

/// Cost of a traversal-template instance.
#[must_use]
pub fn traversal_cost(
    t: &TraversalSpec,
    program: &Program,
    graph: &GraphData,
    phase: Phase,
) -> KernelCost {
    let num_nodes = graph.graph().num_nodes() as f64;
    let rows = match t.domain {
        TraversalDomain::Edges | TraversalDomain::DstNodes => graph.graph().num_edges() as f64,
        TraversalDomain::UniquePairs => graph.compact().num_unique() as f64,
        TraversalDomain::Nodes => num_nodes,
    };
    let mut c = KernelCost::new(KernelCategory::Traversal, phase);
    // Adjacency access per row; CSR-encoded lookups pay binary-search
    // probes where COO uses direct subscripts (§3.3.2).
    let adj_extra = match t.adjacency {
        hector_ir::AdjacencyAccess::Coo => 0.0,
        hector_ir::AdjacencyAccess::Csr => 16.0,
    };
    c.bytes_read += match t.domain {
        TraversalDomain::Edges => rows * (12.0 + adj_extra),
        TraversalDomain::DstNodes => rows * 12.0 + num_nodes * 8.0,
        TraversalDomain::UniquePairs => rows * 8.0,
        TraversalDomain::Nodes => 0.0,
    };
    for op in &t.ops {
        let node_level = t.hoisted.contains(&op.id);
        let mult = if node_level { num_nodes } else { rows };
        // Reads.
        for operand in op.kind.operands() {
            if matches!(operand, Operand::Const(_)) || is_local(t, operand) {
                continue;
            }
            // Row-vector reads hit L2 heavily (neighbouring edges share
            // sources/destinations); charge a reuse-discounted volume.
            let w = operand_width(program, operand);
            let reuse = if w > 1.0 { 0.25 } else { 1.0 };
            c.bytes_read += mult * w * 4.0 * reuse;
            // Reading a compact tensor from an edge-domain kernel adds the
            // edge→unique indirection.
            if let Operand::Edge(v) = operand {
                if program.var(*v).space == Space::Compact
                    && matches!(t.domain, TraversalDomain::Edges | TraversalDomain::DstNodes)
                {
                    c.bytes_read += mult * 4.0;
                }
            }
        }
        // Compute + writes.
        match &op.kind {
            OpKind::NodeAggregate { edge_val, out, .. } => {
                let w = operand_width(program, edge_val);
                c.flops += rows * w * 2.0;
                if !t.dst_private(program, &op.kind) {
                    c.atomic_ops += rows * w;
                    // Warp-aggregated read-modify-write traffic.
                    c.bytes_written += 2.0 * rows * w * 4.0 / 4.0;
                } else {
                    // Private per-node accumulators, one store per node.
                    let out_rows = graph.rows_of_space(program.var(*out).space) as f64;
                    c.bytes_written += out_rows * w * 4.0;
                }
            }
            OpKind::DotProduct { a, .. } => {
                c.flops += mult * operand_width(program, a) * 2.0;
                if let Some(v) = op.kind.out_var() {
                    if !t.local_vars.contains(&v) {
                        c.bytes_written += mult * 4.0;
                    }
                }
            }
            _ => {
                if let Some(v) = op.kind.out_var() {
                    let w = program.var(v).width as f64;
                    c.flops += mult * w;
                    if !t.local_vars.contains(&v) {
                        c.bytes_written += mult * w * 4.0;
                    }
                }
            }
        }
    }
    if t.partial_agg && c.atomic_ops > 0.0 {
        // Thread- and warp-level partial aggregation before global atomics
        // (§3.4.1) cuts the atomic count substantially when consecutive
        // edges share a destination; credit a factor of 8.
        c.atomic_ops /= 8.0;
    }
    c.items = rows.max(1.0);
    c
}

/// Cost of a framework-fallback kernel: the weight prep
/// `program.preps[prep_index]`. Prep costs are weight-space only —
/// independent of the graph's edge count, which is exactly why
/// reordering pays off. Pair
/// preps are charged for the `(ntype, etype)` pairs the graph's edges
/// use, the only slabs the prep computes.
#[must_use]
pub fn fallback_cost(
    prep_index: usize,
    program: &Program,
    graph: &GraphData,
    phase: Phase,
) -> KernelCost {
    let mut c = KernelCost::new(KernelCategory::Fallback, phase);
    match &program.preps[prep_index] {
        WeightPrep::MatVec { w, .. } => {
            let info = program.weight(*w);
            let t = graph.type_count(info.per) as f64;
            let (k, n) = (info.rows as f64, info.cols as f64);
            c.flops = 2.0 * t * k * n;
            c.bytes_read = t * (k * n + n) * 4.0;
            c.bytes_written = t * k * 4.0;
            c.items = t * k / 32.0;
        }
        WeightPrep::MatMulPairs { a, b, .. } => {
            let ia = program.weight(*a);
            let ib = program.weight(*b);
            let pairs = graph.live_pairs().len() as f64;
            let nt = (graph.type_count(ia.per) as f64).min(pairs);
            let et = (graph.type_count(ib.per) as f64).min(pairs);
            let (k, m, n) = (ia.rows as f64, ia.cols as f64, ib.cols as f64);
            c.flops = 2.0 * pairs * k * m * n;
            c.bytes_read = (nt * k * m + et * m * n) * 4.0;
            c.bytes_written = pairs * k * n * 4.0;
            c.items = pairs * k * n / 32.0;
        }
    }
    c
}

/// Total cost of the row domain a variable materialises over, in bytes —
/// used by the memory accounting when allocating variable buffers.
#[must_use]
pub fn var_bytes(program: &Program, graph: &GraphData, v: hector_ir::VarId) -> usize {
    let info = program.var(v);
    graph.rows_of_space(info.space) * info.width * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use hector_compiler::lower::{lower_program, LowerOptions};
    use hector_graph::{generate, DatasetSpec};
    use hector_ir::{AggNorm, ModelBuilder};

    fn graph(ratio: f64) -> GraphData {
        GraphData::new(generate(&DatasetSpec {
            name: "t".into(),
            num_nodes: 200,
            num_node_types: 2,
            num_edges: 1000,
            num_edge_types: 4,
            compaction_ratio: ratio,
            type_skew: 1.0,
            seed: 5,
        }))
    }

    fn rgat_kernels(compact: bool) -> (Program, Vec<KernelSpec>) {
        let mut m = ModelBuilder::new("rgat");
        let h = m.node_input("h", 32);
        let w = m.weight_per_etype("W", 32, 32);
        let w_s = m.weight_vec_per_etype("w_s", 32);
        let hs = m.typed_linear("hs", m.src(h), w);
        let atts = m.dot("atts", m.edge(hs), m.wvec(w_s));
        let att = m.edge_softmax("att", atts);
        let out = m.aggregate("out", m.edge(hs), Some(m.edge(att)), AggNorm::None);
        m.output(out);
        let mut p = m.finish().program;
        if compact {
            hector_compiler::compact::compact_materialization(&mut p);
        }
        let ks = lower_program(&p, &LowerOptions::default());
        (p, ks)
    }

    #[test]
    fn compaction_reduces_gemm_flops() {
        let g = graph(0.3);
        let (pv, kv) = rgat_kernels(false);
        let (pc, kc) = rgat_kernels(true);
        let flops = |p: &Program, ks: &[KernelSpec]| -> f64 {
            ks.iter()
                .map(|k| kernel_cost(k, p, &g, Phase::Forward).flops)
                .sum()
        };
        let vanilla = flops(&pv, &kv);
        let compact = flops(&pc, &kc);
        assert!(
            compact < 0.6 * vanilla,
            "compaction at ratio 0.3 should cut GEMM work: {compact} vs {vanilla}"
        );
    }

    #[test]
    fn gemm_cost_scales_with_rows() {
        let g_small = graph(1.0);
        let g2 = GraphData::new(generate(&DatasetSpec {
            name: "t2".into(),
            num_nodes: 200,
            num_node_types: 2,
            num_edges: 4000,
            num_edge_types: 4,
            compaction_ratio: 1.0,
            type_skew: 1.0,
            seed: 5,
        }));
        let (p, ks) = rgat_kernels(false);
        let gemm = ks
            .iter()
            .find(|k| matches!(k, KernelSpec::Gemm(_)))
            .unwrap();
        let c1 = kernel_cost(gemm, &p, &g_small, Phase::Forward);
        let c2 = kernel_cost(gemm, &p, &g2, Phase::Forward);
        assert!((c2.flops / c1.flops - 4.0).abs() < 0.01);
    }

    #[test]
    fn local_vars_save_traffic() {
        let g = graph(1.0);
        let (p, ks) = rgat_kernels(false);
        let trav = ks
            .iter()
            .find_map(|k| match k {
                KernelSpec::Traversal(t) => Some(t.clone()),
                _ => None,
            })
            .unwrap();
        let with_locals = traversal_cost(&trav, &p, &g, Phase::Forward);
        let mut no_locals = trav.clone();
        no_locals.local_vars.clear();
        let without = traversal_cost(&no_locals, &p, &g, Phase::Forward);
        assert!(with_locals.bytes() < without.bytes());
    }

    #[test]
    fn backward_phase_is_tagged() {
        let g = graph(1.0);
        let (p, ks) = rgat_kernels(false);
        let c = kernel_cost(&ks[0], &p, &g, Phase::Backward);
        assert_eq!(c.phase, Phase::Backward);
    }

    #[test]
    fn var_bytes_by_space() {
        let g = graph(0.5);
        let (p, _) = rgat_kernels(true);
        // h: node space, width 32 → 200 * 32 * 4.
        let h = hector_ir::VarId(0);
        assert_eq!(var_bytes(&p, &g, h), 200 * 32 * 4);
    }
}
