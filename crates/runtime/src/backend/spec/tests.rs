//! Prepare-time facts about every built-in model's kernels, and the
//! tile walk of a kernel no built-in model produces.

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

/// Every kernel prepares to the body of its kind — a traversal to
/// micro-ops, a GEMM to a tile kernel, a weight prep to `Prep` of its
/// own prep — and none to the oracle.
#[test]
fn every_model_kernel_compiles() {
    for_each_model_kernel(|at, spec, k| {
        let prepared = match (spec, k) {
            (KernelSpec::Traversal(_), PreparedKernel::Micro(_)) => true,
            (KernelSpec::Gemm(_), PreparedKernel::Linear(_) | PreparedKernel::GradW(_)) => true,
            (KernelSpec::Fallback(f), PreparedKernel::Prep(i)) => *i == f.prep_index,
            _ => false,
        };
        assert!(prepared, "{at}");
    });
}

/// An edge op reading an aggregate scattered to source endpoints: the
/// lowering splits it from the scatter, and both kernels prepare.
#[test]
fn a_source_scatter_read_back_prepares_as_two_kernels() {
    use hector_compiler::lower::{lower_program, LowerOptions};

    let mut p = Program::new("source_scatter_read_back");
    let x = p.add_var("x", Space::Edge, 1);
    let s = p.add_var("s", Space::Node, 1);
    let y = p.add_var("y", Space::Edge, 1);
    p.inputs.push(x);
    p.push_op(OpKind::NodeAggregate {
        edge_val: Operand::Edge(x),
        scale: None,
        norm: AggNorm::None,
        endpoint: Endpoint::Src,
        out: s,
    });
    p.push_op(OpKind::Binary {
        op: BinOp::Mul,
        a: Operand::Edge(x),
        b: Operand::Node(s, Endpoint::Src),
        out: y,
    });
    p.outputs.push(y);
    p.validate();
    let kernels = lower_program(&p, &LowerOptions::default());
    assert_eq!(kernels.len(), 2);
    for k in compile_kernels(&kernels, &p) {
        assert!(matches!(k, PreparedKernel::Micro(_)));
    }
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

/// Tiles reach every model: no dst-node kernel of a built-in model is
/// `solo`, so each walks tiles of many destinations.
#[test]
fn every_model_dst_node_kernel_tiles_many_destinations() {
    let seen = std::cell::Cell::new(0);
    for_each_model_kernel(|at, _, k| {
        if let PreparedKernel::Micro(
            m @ MicroKernel {
                shape: Shape::DstNodes(_),
                ..
            },
        ) = k
        {
            assert!(!m.solo, "{at}");
            seen.set(seen.get() + 1);
        }
    });
    assert!(seen.get() >= 3 * 4, "every model has dst-node kernels");
}

/// A dst-node kernel that reads an in-kernel value at a source
/// endpoint — `top` of the next destination, still unfolded in the
/// oracle's destination order — is `solo`: it walks one destination
/// per tile and matches the oracle bit for bit, where tiles of many
/// destinations would read the finished maximum instead.
#[test]
fn source_read_of_an_in_kernel_value_tiles_one_destination() {
    use crate::backend::chunk::WorkerArenas;
    use crate::exec::exec_traversal;
    use crate::scratch::Scratch;
    use crate::store::VarStore;
    use hector_graph::HeteroGraphBuilder;
    use hector_ir::{stage_assignments, AdjacencyAccess};
    use hector_par::ThreadPool;
    use rand::{rngs::StdRng, SeedableRng};

    let n = 12;
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(n);
    for v in 0..n as u32 - 1 {
        b.add_edge(v + 1, v, 0);
        if v + 2 < n as u32 {
            b.add_edge(v + 2, v, 0);
        }
    }
    let g = GraphData::new(b.build());
    let mut p = Program::new("source_read");
    let score = p.add_var("score", Space::Edge, 1);
    let top = p.add_var("top", Space::Node, 1);
    let z = p.add_var("z", Space::Edge, 1);
    let out = p.add_var("out", Space::Node, 1);
    for kind in [
        OpKind::NodeAggregate {
            edge_val: Operand::Edge(score),
            scale: None,
            norm: AggNorm::Max,
            endpoint: Endpoint::Dst,
            out: top,
        },
        OpKind::Binary {
            op: BinOp::Sub,
            a: Operand::Edge(score),
            b: Operand::Node(top, Endpoint::Src),
            out: z,
        },
        OpKind::NodeAggregate {
            edge_val: Operand::Edge(z),
            scale: None,
            norm: AggNorm::None,
            endpoint: Endpoint::Dst,
            out,
        },
    ] {
        p.push_op(kind);
    }
    let spec = TraversalSpec {
        kid: 0,
        name: "traversal_0".into(),
        domain: TraversalDomain::DstNodes,
        adjacency: AdjacencyAccess::Coo,
        stages: stage_assignments(&p.ops, &p),
        ops: p.ops.clone(),
        hoisted: Vec::new(),
        partial_agg: false,
        atomic: false,
        local_vars: vec![z],
    };
    let mut kernel = compile_traversal(&spec, &p);
    assert!(kernel.solo && kernel.locals.iter().any(|l| l.var == z));
    let ptr = &g.csc().ptr;
    assert!((0..n).all(|v| kernel.tile_end(ptr, v, n) == v + 1));

    let pool = ThreadPool::new(4);
    // `out` and `top` after one launch: production when `kernel` is
    // given (on `pool`, which a `solo` kernel does not split over),
    // else the oracle.
    let run = |kernel: Option<&MicroKernel>, pool: Option<&ThreadPool>| {
        let mut vars = VarStore::one_per_var(&p, &g);
        let scores = vars.get_mut(score).data_mut();
        for (e, s) in scores.iter_mut().enumerate() {
            *s = (e * 7 % 5) as f32 - 2.5;
        }
        let mut params = ParamStore::init(&p, &g, &mut StdRng::seed_from_u64(0));
        let (mut scratch, mut arenas) = (Scratch::new(), WorkerArenas::new());
        match kernel {
            Some(k) => {
                k.run(&mut ExecCtx {
                    program: &p,
                    graph: &g,
                    params: &mut params,
                    vars: &mut vars,
                    pool,
                    min_chunk: 4,
                    scratch: &mut scratch,
                    arenas: &mut arenas,
                });
            }
            None => exec_traversal(&spec, &p, &g, &params, &mut vars, &mut scratch),
        }
        [out, top].map(|v| {
            vars.get(v)
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        })
    };
    let oracle = run(None, None);
    assert_eq!(run(Some(&kernel), Some(&pool)), oracle);
    kernel.solo = false;
    assert!(kernel.tile_end(ptr, 0, n) > 1);
    assert_ne!(
        run(Some(&kernel), None),
        oracle,
        "tiles of many destinations"
    );
}

/// The products each built-in model folds into an aggregate, per option
/// combination (unopt, compact, reorder, both): all in backward, none in
/// forward. A lowering change that silently stops a fold fails here.
#[test]
fn every_model_folds_its_row_scalar_products() {
    let want = [
        (hector_models::ModelKind::Rgcn, [0, 1, 0, 1]),
        (hector_models::ModelKind::Rgat, [0, 1, 0, 1]),
        (hector_models::ModelKind::Hgt, [1, 3, 1, 3]),
    ];
    let combos = [
        CompileOptions::unopt(),
        CompileOptions::compact_only(),
        CompileOptions::reorder_only(),
        CompileOptions::best(),
    ];
    let folds = |kernels: &[KernelSpec], program: &Program| -> usize {
        compile_kernels(kernels, program)
            .iter()
            .map(|k| match k {
                PreparedKernel::Micro(m) => m.folded.len(),
                _ => 0,
            })
            .sum()
    };
    assert_eq!(want.len(), hector_models::ModelKind::all().len());
    for (kind, counts) in want {
        for (opts, count) in combos.iter().zip(counts) {
            let module = compile(
                &hector_models::source(kind, 8, 8),
                &opts.clone().with_training(true),
            );
            let bw = module.backward.as_ref().expect("compiled for training");
            let at = format!("{} / {}", kind.name(), opts.label());
            assert_eq!(folds(&module.fw_kernels, &module.forward), 0, "{at} fw");
            assert_eq!(folds(&module.bw_kernels, bw), count, "{at} bw");
        }
    }
}

/// The dot products each built-in model computes once per run of one
/// destination's in-edges of one edge type, per option combination
/// (unopt, compact, reorder, both): RGAT's `h_dst · a_r` in forward,
/// where reordering puts it in the edge softmax's dst-node kernel;
/// nothing else. A resolver change that silently stops the reuse fails
/// here.
#[test]
fn every_model_reuses_its_destination_dots() {
    let want = [
        (hector_models::ModelKind::Rgcn, [0, 0, 0, 0]),
        (hector_models::ModelKind::Rgat, [0, 0, 1, 1]),
        (hector_models::ModelKind::Hgt, [0, 0, 0, 0]),
    ];
    let reused = |kernels: &[KernelSpec], program: &Program| -> usize {
        compile_kernels(kernels, program)
            .iter()
            .map(|k| match k {
                PreparedKernel::Micro(m) => m
                    .ops
                    .iter()
                    .filter(|op| matches!(op.kind, Kind::Dot { reuse: true }))
                    .count(),
                _ => 0,
            })
            .sum()
    };
    assert_eq!(want.len(), hector_models::ModelKind::all().len());
    for (kind, counts) in want {
        for (opts, fw) in [
            CompileOptions::unopt(),
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
            CompileOptions::best(),
        ]
        .into_iter()
        .zip(counts)
        {
            let module = compile(
                &hector_models::source(kind, 8, 8),
                &opts.clone().with_training(true),
            );
            let bw = module.backward.as_ref().expect("compiled for training");
            let at = format!("{} / {}", kind.name(), opts.label());
            assert_eq!(reused(&module.fw_kernels, &module.forward), fw, "{at} fw");
            assert_eq!(reused(&module.bw_kernels, bw), 0, "{at} bw");
        }
    }
}

/// Every model at 64 × 64 — the aggregate tile's 64-column panel — on a
/// graph whose destinations need every in-edge table shape: one of 150
/// in-edges in runs of one edge type (a tile of five blocks, the dot
/// reuse across block ends), ones of 65 and 33, tiles of many
/// destinations, zero in-degrees between fed destinations. Forward
/// output, three Adam losses and the trained weights of production at
/// one and four threads against the oracle, bit for bit.
#[test]
fn heavy_destinations_at_width_64_match_the_oracle() {
    use crate::{Adam, BackendKind, EngineBuilder, ParallelConfig};
    use hector_graph::HeteroGraphBuilder;

    let mut degrees = vec![2, 150, 0, 3, 65, 0, 1, 33];
    degrees.extend((0..40).map(|i| i % 5));
    let n = degrees.len() as u32;
    let mut b = HeteroGraphBuilder::new();
    b.add_node_type(20);
    b.add_node_type(n as usize - 20);
    b.reserve_edge_types(3);
    for (dst, &degree) in (0..).zip(&degrees) {
        for k in 0..degree {
            // Runs of one edge type: the first half of a heavy
            // destination's in-edges type 0, then types 1 and 2.
            b.add_edge((dst + 1 + k * 7) % n, dst, (3 * k / degree.max(1)).min(2));
        }
    }
    let g = GraphData::new(b.build());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for kind in hector_models::ModelKind::all() {
        for opts in [CompileOptions::unopt(), CompileOptions::best()] {
            let chain = |threads: usize, backend: BackendKind| {
                EngineBuilder::new(kind)
                    .dims(64, 64)
                    .options(opts.clone())
                    .seed(41)
                    .parallel(
                        ParallelConfig::sequential()
                            .with_threads(threads)
                            .with_min_chunk_rows(4),
                    )
                    .backend(backend)
            };
            let run = |threads, backend| {
                let mut engine = chain(threads, backend).build().expect("valid engine");
                engine.bind(&g).expect("binds");
                engine.forward().expect("runs");
                let out = bits(engine.output().data());
                let mut trainer = chain(threads, backend)
                    .build_trainer(Adam::new(0.01))
                    .expect("valid trainer");
                trainer.bind(&g).expect("binds");
                let labels = (0..g.graph().num_nodes()).map(|i| i % 4).collect();
                trainer.set_labels(labels).expect("labels fit");
                let losses = trainer.epoch(3).expect("steps run").losses;
                let params = trainer.engine().params();
                let weights: Vec<u32> = (0..params.len())
                    .flat_map(|w| bits(params.weight(hector_ir::WeightId(w as u32)).data()))
                    .collect();
                (out, bits(&losses), weights)
            };
            let oracle = run(1, BackendKind::Interp);
            for threads in [1, 4] {
                let at = format!("{} / {} at {threads} thread(s)", kind.name(), opts.label());
                assert!(run(threads, BackendKind::Specialized) == oracle, "{at}");
            }
        }
    }
}

/// The custom programs of the fold properties: `(name, source, the
/// products the forward kernels fold, whether they are in a dst-node
/// kernel)`. A row × scalar product feeding an unscaled sum folds in an
/// `Edges` kernel (a sum scattered to the source endpoint; either
/// operand order), in a dst-node kernel, and there after an edge
/// softmax; a product read twice, or feeding a `Max` aggregate, does
/// not.
fn fold_programs(
    width: usize,
) -> Vec<(&'static str, hector_ir::builder::ModelSource, usize, bool)> {
    use hector_ir::builder::ModelBuilder;
    let start = |name: &str| {
        let mut m = ModelBuilder::new(name);
        let x = m.node_input("x", width);
        let s = m.edge_input("s", 1);
        (m, x, s)
    };
    let mut cases = Vec::new();
    for (name, endpoint) in [("src_sum", Endpoint::Src), ("dst_sum", Endpoint::Dst)] {
        for scalar_first in [false, true] {
            let (mut m, x, s) = start(name);
            let (row, scalar) = (m.src(x), m.edge(s));
            let t = match scalar_first {
                false => m.mul("t", row, scalar),
                true => m.mul("t", scalar, row),
            };
            let out = m.aggregate("out", m.edge(t), None, AggNorm::None);
            m.output(out);
            let mut src = m.finish();
            for op in &mut src.program.ops {
                if let OpKind::NodeAggregate { endpoint: at, .. } = &mut op.kind {
                    *at = endpoint;
                }
            }
            cases.push((name, src, 1, endpoint == Endpoint::Dst));
        }
    }
    let (mut m, x, s) = start("softmax_sum");
    let att = m.edge_softmax("att", s);
    let t = m.mul("t", m.src(x), m.edge(att));
    let out = m.aggregate("out", m.edge(t), None, AggNorm::None);
    m.output(out);
    cases.push(("softmax_sum", m.finish(), 1, true));

    let (mut m, x, s) = start("read_twice");
    let t = m.mul("t", m.src(x), m.edge(s));
    let u = m.relu("u", m.edge(t));
    let a = m.aggregate("a", m.edge(t), None, AggNorm::None);
    let b = m.aggregate("b", m.edge(u), None, AggNorm::None);
    let out = m.add("out", m.this(a), m.this(b));
    m.output(out);
    cases.push(("read_twice", m.finish(), 0, true));

    let (mut m, x, s) = start("max_agg");
    let t = m.mul("t", m.src(x), m.edge(s));
    let out = m.aggregate("out", m.edge(t), None, AggNorm::Max);
    m.output(out);
    cases.push(("max_agg", m.finish(), 0, true));
    cases
}

proptest::proptest! {
    /// Folding a product into its aggregate changes no bit: each custom
    /// program's forward on a generated graph (zero-in-degree
    /// destinations, signed zeros, infinities) runs production against
    /// the oracle (`BackendKind::Interp`) bit for bit at one and four
    /// threads, and its kernels fold exactly the products
    /// [`fold_programs`] names.
    #[test]
    fn folded_products_match_the_oracle(
        width in 1usize..=9,
        (nodes, edges) in (2usize..=40, 0usize..=160),
        specials in proptest::prelude::any::<bool>(),
        compact in proptest::prelude::any::<bool>(),
        seed in proptest::prelude::any::<u64>(),
    ) {
        use crate::{BackendKind, Bindings, EngineBuilder, ParallelConfig};
        use hector_graph::{generate, DatasetSpec};
        use hector_tensor::Tensor;

        let g = GraphData::new(generate(&DatasetSpec {
            name: "fold".into(),
            num_nodes: nodes,
            num_node_types: 2,
            num_edges: edges,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed,
        }));
        let (n, e) = (g.graph().num_nodes(), g.graph().num_edges());
        let value = |i: usize| -> f32 {
            let r = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            match r % 17 {
                0 if specials => -0.0,
                1 if specials => f32::INFINITY,
                2 if specials => f32::NEG_INFINITY,
                _ => (r % 4001) as f32 / 1000.0 - 2.0,
            }
        };
        let mut inputs = Bindings::new();
        inputs.set("x", Tensor::from_vec((0..n * width).map(value).collect(), &[n, width]));
        inputs.set("s", Tensor::from_vec((0..e).map(|i| value(i + 7_919)).collect(), &[e, 1]));
        let opts = if compact { CompileOptions::best() } else { CompileOptions::unopt() };
        for (name, src, want, in_dst_kernel) in fold_programs(width) {
            let module = compile(&src, &opts);
            let prepared = compile_kernels(&module.fw_kernels, &module.forward);
            let folded = |dst: bool| -> usize {
                prepared
                    .iter()
                    .map(|k| match k {
                        PreparedKernel::Micro(m) if matches!(m.shape, Shape::DstNodes(_)) == dst => {
                            m.folded.len()
                        }
                        _ => 0,
                    })
                    .sum()
            };
            proptest::prop_assert_eq!(folded(in_dst_kernel), want, "{} folds", name);
            proptest::prop_assert_eq!(folded(!in_dst_kernel), 0, "{} folds elsewhere", name);
            let run = |threads: usize, backend: BackendKind| -> Vec<u32> {
                let mut engine = EngineBuilder::from_source(src.clone())
                    .options(opts.clone())
                    .parallel(ParallelConfig::sequential().with_threads(threads).with_min_chunk_rows(4))
                    .backend(backend)
                    .build()
                    .expect("valid engine");
                engine.bind(&g).expect("binds");
                engine.set_bindings(inputs.clone());
                engine.forward().expect("runs");
                engine.output().data().iter().map(|v| v.to_bits()).collect()
            };
            let oracle = run(1, BackendKind::Interp);
            for threads in [1, 4] {
                let got = run(threads, BackendKind::Specialized);
                proptest::prop_assert!(got == oracle, "{} at {} thread(s)", name, threads);
            }
        }
    }
}
