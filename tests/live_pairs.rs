//! Live-pair parameter properties: a reorder-fused `(node type, edge
//! type)` pair weight holds one slab per live pair of the graph being
//! run, so its slots follow whichever graph runs — and every run still
//! computes what a fresh engine bound to that graph computes.
//!
//! A builder-made graph `G` whose first relation has sources of two or
//! more node types and whose last relation never starts at node type 0,
//! plus `G+`, which adds one edge of that dead pair. HGT and RGAT at
//! `CompileOptions::{reorder_only, best}`, production at 1 or 4 threads
//! and the oracle, one SGD trainer bound on `G`, then:
//!
//! * one sampled batch (`train_batch`);
//! * `G+` through `forward_on` and through `rebind` plus a step, in
//!   either order (so the stacks grow on an inference run or on a
//!   training step);
//! * `G` again (`rebind` plus a step), after the new pair has died.
//!
//! After each run the output, the loss, every base weight and every base
//! gradient equal, bit for bit, those of a fresh same-seed engine bound
//! to the run's graph with the same base weights, bindings and labels.
//! The derived pair stacks start at `G`'s live-pair count, keep it over
//! the batch, and grow to `G+`'s once. CI runs the suite at
//! `PROPTEST_CASES=1024`.

mod common;

use common::{bits, par};
use hector::prelude::*;
use hector_ir::{TypeIndex, WeightId};
use proptest::prelude::*;

/// `G` and `G+` (see the module docs): `counts[t]` nodes of type `t`,
/// `edges` random edges over `etypes` relations.
fn graphs(seed: u64, counts: &[usize], etypes: usize, edges: usize) -> (GraphData, GraphData) {
    let mut state = seed;
    let mut next = |bound: usize| {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        u32::try_from((z ^ (z >> 31)) % bound as u64).unwrap()
    };
    let nodes: usize = counts.iter().sum();
    let first_of = |t: usize| counts[..t].iter().sum::<usize>() as u32;
    let last = etypes as u32 - 1;
    // Relation 0 starts at node types 0 and 1; the last relation never
    // at node type 0.
    let mut list = vec![(first_of(0), 0, 0), (first_of(1), 0, 0)];
    for _ in 0..edges {
        let etype = next(etypes);
        let src = if etype == last {
            counts[0] as u32 + next(nodes - counts[0])
        } else {
            next(nodes)
        };
        list.push((src, next(nodes), etype));
    }
    let build = |list: &[(u32, u32, u32)]| {
        let mut b = HeteroGraphBuilder::new();
        for &c in counts {
            b.add_node_type(c);
        }
        b.reserve_edge_types(etypes);
        for &(s, d, t) in list {
            b.add_edge(s, d, t);
        }
        GraphData::new(b.build())
    };
    let g = build(&list);
    list.push((next(counts[0]), next(nodes), last));
    (g, build(&list))
}

/// Pairs `(ntype(src), etype)` at least one edge of `g` uses.
fn live_pairs(g: &GraphData) -> usize {
    let g = g.graph();
    let et = g.num_edge_types();
    let mut live = vec![false; g.num_node_types() * et];
    for (&s, &t) in g.src().iter().zip(g.etype()) {
        live[g.node_type()[s as usize] as usize * et + t as usize] = true;
    }
    live.iter().filter(|&&l| l).count()
}

/// Slab counts of the derived pair stacks and their gradients.
fn pair_stack_slabs(t: &Trainer) -> Vec<(usize, usize)> {
    let (params, weights) = (t.engine().params(), &t.engine().module().forward.weights);
    (0u32..)
        .zip(weights)
        .filter(|(_, i)| i.derived && i.per == TypeIndex::NodeEdgePair)
        .map(|(w, _)| {
            let w = WeightId(w);
            (params.type_count(w), params.grad(w).shape()[0])
        })
        .collect()
}

/// Whether every derived pair stack of `t` and its gradient hold `n`
/// slabs.
fn holds(t: &Trainer, n: usize) -> bool {
    pair_stack_slabs(t).iter().all(|&s| s == (n, n))
}

/// Output, loss, base weights and base gradients of `t`'s latest run.
fn state(t: &Trainer, loss: Option<f32>) -> Vec<u32> {
    let (params, weights) = (t.engine().params(), &t.engine().module().forward.weights);
    let mut out = bits(t.engine().output());
    out.extend(loss.map(f32::to_bits));
    for (w, _) in (0u32..).zip(weights).filter(|(_, i)| !i.derived) {
        out.extend(bits(params.weight(WeightId(w))));
        out.extend(bits(params.grad(WeightId(w))));
    }
    out
}

/// A fresh trainer from `chain` bound to `g`, holding `from`'s base
/// weights and the given bindings and labels.
fn fresh(
    chain: &EngineBuilder,
    from: &Trainer,
    g: &GraphData,
    bindings: &Bindings,
    labels: &[usize],
) -> Trainer {
    let mut t = chain.clone().build_trainer(Sgd::new(0.1)).unwrap();
    t.bind(g).unwrap();
    let weights = &from.engine().module().forward.weights;
    for (w, _) in (0u32..).zip(weights).filter(|(_, i)| !i.derived) {
        let w = WeightId(w);
        let src = from.engine().params().weight(w).data();
        let dst = t.engine_mut().params_mut().weight_mut(w);
        dst.data_mut().copy_from_slice(src);
    }
    t.engine_mut().set_bindings(bindings.clone());
    t.set_labels(labels.to_vec()).unwrap();
    t
}

/// One SGD step of `t` on its bound graph, held against a fresh trainer
/// bound to it.
fn step_matches_fresh(chain: &EngineBuilder, t: &mut Trainer, at: &str) {
    let g = t.engine().graph().clone();
    let (bindings, labels) = (t.engine().bindings().clone(), t.labels().to_vec());
    let mut want = fresh(chain, t, &g, &bindings, &labels);
    let loss = t.step().unwrap().loss;
    let want_loss = want.step().unwrap().loss;
    assert!(state(t, loss) == state(&want, want_loss), "{at}");
}

/// A `forward_on` of `g` with `t`'s bindings, held against a fresh
/// trainer bound to `g`.
fn forward_on_matches_fresh(chain: &EngineBuilder, t: &mut Trainer, g: &GraphData, at: &str) {
    let bindings = t.engine().bindings().clone();
    let mut want = fresh(chain, t, g, &bindings, t.labels());
    t.engine_mut().forward_on(g, &bindings).unwrap();
    want.forward().unwrap();
    assert!(
        bits(t.engine().output()) == bits(want.engine().output()),
        "{at}"
    );
}

proptest! {
    #[test]
    fn pair_stacks_follow_the_graph_run(
        seed in 0u64..100_000,
        counts in proptest::collection::vec(2usize..7, 2..4),
        etypes in 2usize..4,
        edges in 4usize..40,
        model_ix in 0usize..2,
        reorder_only in any::<bool>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
        interp in any::<bool>(),
        forward_on_first in any::<bool>(),
    ) {
        let (g, more) = graphs(seed, &counts, etypes, edges);
        let (live, live_more) = (live_pairs(&g), live_pairs(&more));
        prop_assert_eq!(live_more, live + 1);
        let kind = [ModelKind::Hgt, ModelKind::Rgat][model_ix];
        let opts = if reorder_only {
            CompileOptions::reorder_only()
        } else {
            CompileOptions::best()
        };
        let backend = if interp { BackendKind::Interp } else { BackendKind::Specialized };
        let chain = EngineBuilder::new(kind)
            .dims(8, 8)
            .options(opts)
            .backend(backend)
            .parallel(par(threads, 4))
            .seed(seed);
        let at = format!("{kind:?} reorder_only={reorder_only} t={threads} interp={interp}");
        let mut t = chain.clone().build_trainer(Sgd::new(0.1)).unwrap();
        t.bind(&g).unwrap();
        // HGT fuses one pair weight per layer; RGAT fuses none.
        prop_assert_eq!(pair_stack_slabs(&t).len(), usize::from(kind == ModelKind::Hgt));
        prop_assert!(holds(&t, live), "{}: bound stacks", at);

        let batch = t.minibatch(&SamplerConfig::new(3).fanouts(&[2])).next().unwrap();
        let mut want = fresh(&chain, &t, &batch.graph, &batch.bindings, &batch.labels);
        let loss = t.train_batch(&batch).unwrap().loss;
        let want_loss = want.step().unwrap().loss;
        prop_assert!(state(&t, loss) == state(&want, want_loss), "{}: batch", at);
        prop_assert!(holds(&t, live), "{}: a batch never grows the stacks", at);

        for first in [forward_on_first, !forward_on_first] {
            if first {
                forward_on_matches_fresh(&chain, &mut t, &more, &format!("{at}: forward_on G+"));
            } else {
                t.engine_mut().rebind(&more).unwrap();
                step_matches_fresh(&chain, &mut t, &format!("{at}: rebind G+"));
            }
        }
        prop_assert!(holds(&t, live_more), "{}: one more pair grows the stacks", at);

        t.engine_mut().rebind(&g).unwrap();
        step_matches_fresh(&chain, &mut t, &format!("{at}: G after the pair died"));
        prop_assert!(holds(&t, live_more), "{}: the grown stacks stay", at);
    }
}
