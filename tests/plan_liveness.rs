//! Run memory follows liveness: an engine's run plan packs variables
//! whose live intervals never overlap into one buffer, so it holds the
//! peak of its live variables, not their sum.
//!
//! The intervals are recomputed here from the compiled kernel sequences
//! alone — a variable is live from the first kernel that writes it
//! (inputs from the start, output-gradient seeds from the end of the
//! forward) to the last kernel that touches it, and forward outputs to
//! the end of the run — and held against what the engine reports:
//!
//! - no two variables live at once share memory: every run completes
//!   (the plan panics on a read through a variable whose slot has passed
//!   on), production and oracle agree bit for bit, and `plan_bytes` is
//!   at least the peak of live bytes;
//! - `plan_bytes` never exceeds the sum of the variables' sizes;
//! - for 2-layer RGCN inference and for HGT training it is strictly below
//!   the bytes a buffer per variable would hold.

mod common;

use common::{bits, cyclic_labels, par};
use hector::prelude::*;
use hector_ir::{KernelSpec, Operand, VarId};
use proptest::prelude::*;

/// `nodes` nodes of two types, `nodes * per_node` edges over `etypes`
/// relations. Destinations never fall in the last quarter of the nodes,
/// so every graph has zero-in-degree destinations.
fn graph(seed: u64, nodes: usize, per_node: usize, etypes: usize) -> GraphData {
    let mut state = seed;
    let mut next = |bound: usize| {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        u32::try_from((z ^ (z >> 31)) % bound as u64).unwrap()
    };
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(nodes / 3);
    b.add_node_type(nodes - nodes / 3);
    b.reserve_edge_types(etypes);
    let fed = nodes - nodes / 4;
    for _ in 0..nodes * per_node {
        let (src, dst, etype) = (next(nodes), next(fed), next(etypes));
        b.add_edge(src, dst, etype);
    }
    GraphData::new(b.build())
}

/// What the kernel sequences say a run of `module` on `g` needs, bytes.
struct Footprint {
    /// The most bytes of non-local variables live at one kernel.
    peak_live: usize,
    /// Every variable the run touches, register locals included.
    all: usize,
    /// Every non-local variable: the least a buffer per variable holds
    /// (production keeps most locals in scratch, the oracle none).
    per_variable: usize,
}

fn footprint(module: &CompiledModule, g: &GraphData, training: bool) -> Footprint {
    let fw = &module.forward;
    let program = module.backward.as_ref().unwrap_or(fw);
    let size = |v: usize| {
        let info = &program.vars[v];
        g.rows_of_space(info.space) * info.width * 4
    };
    let mut live: Vec<Option<(usize, usize)>> = vec![None; program.vars.len()];
    let mut local = vec![false; program.vars.len()];
    let mut touch = |v: VarId, p: usize| {
        let iv = live[v.0 as usize].get_or_insert((p, p));
        *iv = (iv.0.min(p), iv.1.max(p));
    };
    for &v in &fw.inputs {
        touch(v, 0);
    }
    let f = module.fw_kernels.len();
    let mut end = f - 1;
    let mut kernels: Vec<(usize, &KernelSpec)> = module.fw_kernels.iter().enumerate().collect();
    if training {
        let bw = module.backward.as_ref().unwrap();
        for &seed in &bw.inputs[..fw.outputs.len()] {
            touch(seed, f);
        }
        kernels.extend(
            module
                .bw_kernels
                .iter()
                .enumerate()
                .map(|(j, k)| (f + 1 + j, k)),
        );
        end = f + module.bw_kernels.len();
    }
    for (p, spec) in kernels {
        let (ops, locals) = match spec {
            KernelSpec::Gemm(g) => (std::slice::from_ref(&g.op), &[][..]),
            KernelSpec::Traversal(t) => (&t.ops[..], &t.local_vars[..]),
            KernelSpec::Fallback(_) => continue,
        };
        for &v in locals {
            local[v.0 as usize] = true;
        }
        for op in ops {
            let reads = op.kind.operands().filter_map(Operand::var);
            for v in reads.chain(op.kind.out_var()) {
                touch(v, p);
            }
        }
    }
    for &out in &fw.outputs {
        touch(out, end);
    }
    let live_bytes = |keep: &dyn Fn(usize, (usize, usize)) -> bool| -> usize {
        let vars = live.iter().enumerate();
        vars.filter_map(|(v, iv)| iv.filter(|&iv| keep(v, iv)).map(|_| size(v)))
            .sum()
    };
    // The loss gradient stages through one output-sized buffer.
    let staging = if training {
        size(fw.outputs[0].0 as usize)
    } else {
        0
    };
    Footprint {
        peak_live: (0..=end)
            .map(|p| live_bytes(&|v, (a, b)| !local[v] && a <= p && p <= b))
            .max()
            .unwrap_or(0),
        all: live_bytes(&|_, _| true) + staging,
        per_variable: live_bytes(&|v, _| !local[v]) + staging,
    }
}

/// Two warm runs of `kind` on `g`: the plan's footprint, the
/// engine's module, and the output bits (after the losses in training).
fn run(
    kind: ModelKind,
    opts: &CompileOptions,
    layers: usize,
    training: bool,
    backend: BackendKind,
    threads: usize,
    g: &GraphData,
) -> (usize, CompiledModule, Vec<u32>) {
    let chain = EngineBuilder::new(kind)
        .dims(8, 8)
        .layers(layers)
        .options(opts.clone())
        .backend(backend)
        .parallel(par(threads, 4))
        .seed(7);
    let seen = |e: &Engine, mut out: Vec<u32>| {
        out.extend(bits(e.output()));
        let plan_bytes = e.device().counters().scratch().plan_bytes;
        (plan_bytes, e.module().clone(), out)
    };
    if training {
        let mut t = chain.build_trainer(Adam::new(0.01)).unwrap();
        t.bind(g).unwrap();
        t.set_labels(cyclic_labels(g, 4)).unwrap();
        let losses = t.epoch(2).unwrap().losses;
        seen(t.engine(), losses.iter().map(|l| l.to_bits()).collect())
    } else {
        let mut e = chain.build().unwrap();
        e.bind(g).unwrap().forward().unwrap();
        e.forward().unwrap();
        seen(&e, Vec::new())
    }
}

fn option_combos() -> [CompileOptions; 4] {
    [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ]
}

proptest! {
    /// Every model × option combo × depth × mode on a generated graph,
    /// on both backends (production at 1 or 4 threads).
    #[test]
    fn plan_holds_live_variables_apart_in_at_most_their_sum(
        seed in 0u64..100_000,
        nodes in 6usize..48,
        per_node in 1usize..6,
        etypes in 1usize..4,
        model_ix in 0usize..3,
        opt_ix in 0usize..4,
        layers in 1usize..3,
        training in 0usize..2,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let g = graph(seed, nodes, per_node, etypes);
        let kind = ModelKind::all()[model_ix];
        let opts = &option_combos()[opt_ix];
        let training = training == 1;
        let at = format!("{kind:?} {opts:?} layers {layers} training {training}");
        let (spec_bytes, module, spec_bits) =
            run(kind, opts, layers, training, BackendKind::Specialized, threads, &g);
        let (interp_bytes, _, interp_bits) =
            run(kind, opts, layers, training, BackendKind::Interp, 1, &g);
        prop_assert!(spec_bits == interp_bits, "{at}: backends disagree");
        let need = footprint(&module, &g, training);
        // The oracle materialises every local; production at least the
        // non-local variables.
        let buffered = [
            ("specialized", spec_bytes, need.per_variable),
            ("interp", interp_bytes, need.all),
        ];
        for (backend, bytes, per_variable) in buffered {
            prop_assert!(
                need.peak_live <= bytes,
                "{at} {backend}: {bytes} B of plan < {} B live at once",
                need.peak_live
            );
            prop_assert!(
                bytes <= need.all,
                "{at} {backend}: {bytes} B of plan > {} B of variables",
                need.all
            );
            let packs = matches!(
                (kind, layers, training),
                (ModelKind::Rgcn, 2, false) | (ModelKind::Hgt, _, true)
            );
            if packs {
                prop_assert!(
                    bytes < per_variable,
                    "{at} {backend}: {bytes} B of plan, a buffer per variable holds \
                     {per_variable} B"
                );
            }
        }
    }
}
