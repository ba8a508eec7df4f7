//! Property-based tests over the lowering pipeline: for every model and
//! option combination, the emitted kernel plan must satisfy structural
//! invariants regardless of dimensions.

use hector_compiler::{compile, CompileOptions};
use hector_ir::builder::ModelSource;
use hector_ir::{KernelSpec, OpKind, VarId};
use hector_models::stacked::stack;
use hector_models::{source, ModelKind};
use proptest::prelude::*;
use std::collections::HashSet;

fn models() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::Rgcn),
        Just(ModelKind::Rgat),
        Just(ModelKind::Hgt)
    ]
}

fn options() -> impl Strategy<Value = CompileOptions> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(c, r, t)| CompileOptions {
        compact: c,
        reorder: r,
        training: t,
        ..CompileOptions::default()
    })
}

/// Ops covered by a kernel list (GEMM carries one op; traversal many).
fn covered_ops(kernels: &[KernelSpec]) -> Vec<u32> {
    let mut ids = Vec::new();
    for k in kernels {
        match k {
            KernelSpec::Gemm(g) => ids.push(g.op.id.0),
            KernelSpec::Traversal(t) => ids.extend(t.ops.iter().map(|o| o.id.0)),
            KernelSpec::Fallback(_) => {}
        }
    }
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_op_lowers_exactly_once(
        kind in models(),
        opts in options(),
        dim_exp in 2u32..6,
    ) {
        let dim = 1usize << dim_exp;
        let src: ModelSource = source(kind, dim, dim);
        let module = compile(&src, &opts);
        {
            let mut ids = covered_ops(&module.fw_kernels);
            ids.sort_unstable();
            let expected: Vec<u32> = module.forward.ops.iter().map(|o| o.id.0).collect();
            prop_assert_eq!(ids, expected, "forward ops must be covered exactly once");
        }
        if let Some(bw) = &module.backward {
            let mut ids = covered_ops(&module.bw_kernels);
            ids.sort_unstable();
            let mut expected: Vec<u32> = bw.ops.iter().map(|o| o.id.0).collect();
            expected.sort_unstable();
            prop_assert_eq!(ids, expected, "backward ops must be covered exactly once");
        }
    }

    #[test]
    fn kernel_order_respects_dependencies(
        kind in models(),
        opts in options(),
    ) {
        let module = compile(&source(kind, 16, 16), &opts);
        for (program, kernels) in
            [(&module.forward, &module.fw_kernels), (
                module.backward.as_ref().unwrap_or(&module.forward),
                if module.backward.is_some() { &module.bw_kernels } else { &module.fw_kernels },
            )]
        {
            let mut defined: HashSet<VarId> = program.inputs.iter().copied().collect();
            for k in kernels {
                let ops: Vec<_> = match k {
                    KernelSpec::Gemm(g) => vec![g.op.clone()],
                    KernelSpec::Traversal(t) => t.ops.clone(),
                    KernelSpec::Fallback(_) => vec![],
                };
                // Within a kernel, ops run in order; reads must be defined
                // by earlier kernels or earlier ops of this kernel.
                for op in ops {
                    for operand in op.kind.operands() {
                        if let Some(v) = operand.var() {
                            prop_assert!(
                                defined.contains(&v),
                                "kernel {} reads '{}' before any kernel defines it",
                                k.name(),
                                program.var(v).name
                            );
                        }
                    }
                    if let Some(out) = op.kind.out_var() {
                        defined.insert(out);
                    }
                }
            }
        }
    }

    #[test]
    fn local_vars_never_escape_their_kernel(
        kind in models(),
        opts in options(),
    ) {
        let module = compile(&source(kind, 16, 16), &opts);
        let pairs = [(&module.forward, &module.fw_kernels)];
        for (program, kernels) in pairs {
            for (i, k) in kernels.iter().enumerate() {
                let KernelSpec::Traversal(t) = k else { continue };
                for &lv in &t.local_vars {
                    prop_assert!(!program.outputs.contains(&lv));
                    for (j, other) in kernels.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        let reads = match other {
                            KernelSpec::Gemm(g) => {
                                g.op.kind.operands().any(|o| o.var() == Some(lv))
                            }
                            KernelSpec::Traversal(t2) => t2.ops.iter().any(|o| {
                                o.kind.operands().any(|x| x.var() == Some(lv))
                            }),
                            KernelSpec::Fallback(_) => false,
                        };
                        prop_assert!(!reads, "local var escapes kernel {}", t.name);
                    }
                }
            }
        }
    }

    /// Only a dst-node loop completes a per-destination aggregate before
    /// a later op of its kernel reads it (the read is staged one pass
    /// after). Every other aggregate — in edge or unique-pair order, or
    /// scattered to a source or compact row — is a partial sum while its
    /// kernel runs (HGT's backward once read one, under compaction). Nor
    /// does a kernel write one variable twice. The production executor
    /// relies on both and checks neither.
    #[test]
    fn aggregates_are_read_back_only_inside_dst_node_loops(
        kind in models(),
        opts in options(),
        layers in 1usize..=2,
    ) {
        let module = compile(&stack(kind, layers, 16, 16, 16), &opts);
        let phases = [(&module.forward, &module.fw_kernels)]
            .into_iter()
            .chain(module.backward.iter().map(|bw| (bw, &module.bw_kernels)));
        for (program, kernels) in phases {
            for k in kernels {
                let KernelSpec::Traversal(t) = k else { continue };
                let mut outs = HashSet::new();
                for v in t.ops.iter().filter_map(|o| o.kind.out_var()) {
                    prop_assert!(outs.insert(v), "{} writes '{}' twice", t.name, program.var(v).name);
                }
                let unfinished: HashSet<VarId> = t
                    .ops
                    .iter()
                    .filter(|o| matches!(o.kind, OpKind::NodeAggregate { .. }))
                    .filter(|o| !t.dst_private(program, &o.kind))
                    .filter_map(|o| o.kind.out_var())
                    .collect();
                let mut reads = t.ops.iter().flat_map(|o| o.kind.operands().filter_map(|x| x.var()));
                prop_assert!(
                    !reads.any(|v| unfinished.contains(&v)),
                    "{} ({:?}) reads an aggregate it is still accumulating",
                    t.name,
                    t.domain
                );
            }
        }
    }

    #[test]
    fn training_saved_activations_are_materialized(
        kind in models(),
        compact in any::<bool>(),
        reorder in any::<bool>(),
    ) {
        let opts = CompileOptions {
            compact,
            reorder,
            training: true,
            ..CompileOptions::default()
        };
        let module = compile(&source(kind, 16, 16), &opts);
        let bw = module.backward.as_ref().unwrap();
        let n_fw = module.forward.vars.len() as u32;
        let mut saved: HashSet<VarId> = HashSet::new();
        for op in &bw.ops {
            for operand in op.kind.operands() {
                if let Some(v) = operand.var() {
                    if v.0 < n_fw {
                        saved.insert(v);
                    }
                }
            }
        }
        for k in &module.fw_kernels {
            if let KernelSpec::Traversal(t) = k {
                for &lv in &t.local_vars {
                    prop_assert!(
                        !saved.contains(&lv),
                        "saved activation '{}' was marked register-local",
                        module.forward.var(lv).name
                    );
                }
            }
        }
    }

    #[test]
    fn gradw_exists_for_every_trainable_weight(
        kind in models(),
        compact in any::<bool>(),
    ) {
        let opts = CompileOptions {
            compact,
            reorder: false,
            training: true,
            ..CompileOptions::default()
        };
        let module = compile(&source(kind, 8, 8), &opts);
        let bw = module.backward.as_ref().unwrap();
        let targets: HashSet<u32> = bw
            .ops
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::TypedLinearGradW { out_w, .. } => Some(out_w.0),
                _ => None,
            })
            .collect();
        for (i, w) in module.forward.weights.iter().enumerate() {
            if !w.derived {
                prop_assert!(
                    targets.contains(&(i as u32)),
                    "weight '{}' has no gradient path",
                    w.name
                );
            }
        }
    }
}
