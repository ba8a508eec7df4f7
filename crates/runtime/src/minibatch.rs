//! Mini-batch sampled training: batch materialisation and the prefetch
//! pipeline behind [`Trainer::minibatch`](crate::Trainer::minibatch).
//!
//! The sampling math lives in `hector-graph` ([`NeighborSampler`]);
//! this module turns a sampled batch into everything a training step
//! consumes — its [`Subgraph`] view (the extracted graph with its CSC
//! and compaction map, built once and shared by the batch), input
//! bindings sliced from the full-graph bindings through the view
//! ([`Subgraph::gather_inputs`]: the RGCN `cnorm` constants are
//! *recomputed* on the subgraph — normalisation denominators are
//! subgraph in-degrees, not sliced full-graph ones), and labels gathered
//! through the node map — and streams those batches to the consumer,
//! optionally producing them on a background [`Prefetcher`] so batch
//! `k+1` is sampled while batch `k` trains. A row-scoped forward
//! ([`crate::Engine::forward_rows`]) runs the same view through the same
//! engine path.
//!
//! # Determinism
//!
//! A batch's content is a pure function of `(engine seed, epoch, batch
//! index)` plus the trainer's current bindings/labels: the sampler's RNG
//! streams are derived per batch (`hector_graph::batch_stream_seed`),
//! production order is index order on a single producer, and the
//! training step itself replays through the deterministic executor. So
//! the batch sequence — and every trained loss — is bitwise identical
//! across `HECTOR_THREADS` values and pipeline on/off (pinned by
//! `tests/minibatch.rs`).

use std::sync::Arc;
use std::time::Instant;

use hector_graph::{NeighborSampler, SamplerConfig};
use hector_ir::VarInfo;
use hector_par::Prefetcher;

use crate::session::Bindings;
use crate::{GraphData, Subgraph};

/// How many batches the background producer may run ahead of training.
/// Two is enough to hide sampling (the consumer always finds batch `k+1`
/// ready) without tripling peak batch memory.
const PREFETCH_DEPTH: usize = 2;

/// One ready-to-train mini-batch: the extracted subgraph view, sliced
/// bindings and labels, and the host time that went into producing it.
#[derive(Debug)]
pub struct Batch {
    /// Batch index within the epoch.
    pub index: usize,
    /// The batch's view: its graph, remap tables and seed rows.
    pub subgraph: Subgraph,
    /// The view's graph with derived structures (CSC, compaction map):
    /// an `Arc` share of `subgraph.data()`, not a second copy.
    pub graph: GraphData,
    /// Input bindings in batch-local row order.
    pub bindings: Bindings,
    /// Labels in batch-local node order.
    pub labels: Vec<usize>,
    /// Host wall-clock time spent producing this batch, µs.
    pub sample_wall_us: f64,
    /// Host wall-clock time the consumer spent blocked on this batch's
    /// arrival, µs (set by the iterator; equals `sample_wall_us` when no
    /// pipeline hides production).
    pub wait_wall_us: f64,
}

/// Everything batch production needs, shared immutably with the
/// producer thread. Construction snapshots the trainer's state (the
/// graph as an `Arc` share of the trainer's, not a copy), so a later
/// `set_labels`/`set_bindings` does not affect an iterator already in
/// flight.
pub(crate) struct BatchSource {
    full: GraphData,
    sampler: NeighborSampler,
    inputs: Vec<VarInfo>,
    full_bindings: Bindings,
    full_labels: Vec<usize>,
}

impl BatchSource {
    pub(crate) fn new(
        full: &GraphData,
        cfg: &SamplerConfig,
        seed: u64,
        inputs: Vec<VarInfo>,
        full_bindings: Bindings,
        full_labels: Vec<usize>,
    ) -> BatchSource {
        BatchSource {
            full: full.clone(),
            sampler: NeighborSampler::new(full.graph(), cfg, seed),
            inputs,
            full_bindings,
            full_labels,
        }
    }

    pub(crate) fn num_batches(&self) -> usize {
        self.sampler.num_batches()
    }

    /// Produces batch `k` — pure in `k` (see module docs).
    fn make(&self, k: usize) -> Batch {
        // The sample span runs on whichever thread produces the batch
        // (the prefetcher's producer thread when pipelined), so the
        // trace timeline shows sampling overlapping training.
        let tr = hector_trace::span_start();
        let t0 = Instant::now();
        let sampled = self.sampler.sample(self.full.graph(), k);
        let subgraph = Subgraph::extract(self.full.graph(), &sampled);
        let bindings = subgraph.gather_inputs(&self.inputs, &self.full_bindings);
        let labels = subgraph.gather_node_values(&self.full_labels);
        let sample_wall_us = t0.elapsed().as_secs_f64() * 1e6;
        if let Some(ts) = tr {
            hector_trace::record_span(
                "pipeline/sample",
                hector_trace::SpanCat::Pipeline,
                ts,
                subgraph.graph().num_edges() as u64,
                u32::try_from(k).unwrap_or(u32::MAX),
                0.0,
            );
        }
        Batch {
            index: k,
            graph: subgraph.data().clone(),
            subgraph,
            bindings,
            labels,
            sample_wall_us,
            // Provisional: the iterator overwrites this with the time the
            // consumer actually spent blocked.
            wait_wall_us: sample_wall_us,
        }
    }
}

enum Producer {
    /// The consumer samples each batch inline when asked for it.
    Sync(Arc<BatchSource>),
    /// A background thread samples ahead through a bounded channel.
    Pipelined(Prefetcher<Batch>),
}

/// Iterator over one epoch of mini-batches, returned by
/// [`Trainer::minibatch`](crate::Trainer::minibatch).
///
/// Owns its snapshot of the trainer state (graph, bindings, labels) and
/// does not borrow the trainer, so the natural loop works:
///
/// ```ignore
/// for batch in trainer.minibatch(&cfg) {
///     trainer.train_batch(&batch)?;
/// }
/// ```
///
/// With `cfg.pipeline` on, batches are produced on a background thread
/// up to two ahead of the consumer; contents are bit-identical to the
/// synchronous path (see module docs). Each yielded [`Batch`] carries
/// its production time and the time the consumer actually waited —
/// [`Trainer::train_batch`](crate::Trainer::train_batch) feeds both into
/// the device's [`hector_device::SamplerStats`].
pub struct Minibatches {
    producer: Producer,
    total: usize,
    consumed: usize,
}

impl std::fmt::Debug for Minibatches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Minibatches")
            .field("total", &self.total)
            .field("consumed", &self.consumed)
            .field(
                "pipelined",
                &matches!(self.producer, Producer::Pipelined(_)),
            )
            .finish()
    }
}

impl Minibatches {
    pub(crate) fn new(source: BatchSource, pipeline: bool) -> Minibatches {
        let total = source.num_batches();
        let source = Arc::new(source);
        let producer = if pipeline && total > 1 {
            let src = Arc::clone(&source);
            Producer::Pipelined(Prefetcher::new(PREFETCH_DEPTH, move |k| {
                (k < src.num_batches()).then(|| src.make(k))
            }))
        } else {
            Producer::Sync(source)
        };
        Minibatches {
            producer,
            total,
            consumed: 0,
        }
    }

    /// Total batches in the epoch.
    #[must_use]
    pub fn num_batches(&self) -> usize {
        self.total
    }

    /// Whether a background producer is running.
    #[must_use]
    pub fn is_pipelined(&self) -> bool {
        matches!(self.producer, Producer::Pipelined(_))
    }
}

impl Iterator for Minibatches {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.consumed >= self.total {
            return None;
        }
        let k = self.consumed;
        self.consumed += 1;
        let tr = hector_trace::span_start();
        let t0 = Instant::now();
        let mut batch = match &mut self.producer {
            Producer::Sync(src) => src.make(k),
            Producer::Pipelined(p) => p.next()?,
        };
        debug_assert_eq!(batch.index, k);
        batch.wait_wall_us = t0.elapsed().as_secs_f64() * 1e6;
        if let Some(ts) = tr {
            // Consumer-side span: how long `next()` blocked for this
            // batch (≈ sample time when synchronous, ≈ 0 when the
            // pipeline hid production behind training).
            hector_trace::record_span(
                "pipeline/wait",
                hector_trace::SpanCat::Pipeline,
                ts,
                0,
                u32::try_from(k).unwrap_or(u32::MAX),
                0.0,
            );
        }
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.consumed;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Minibatches {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, Sgd};
    use hector_graph::{generate, DatasetSpec};
    use hector_models::ModelKind;

    /// A minibatch iterator samples the trainer's own graph (an `Arc`
    /// share), not a copy of it.
    #[test]
    fn minibatches_share_the_trainers_graph() {
        let mut t = EngineBuilder::new(ModelKind::Rgcn)
            .dims(8, 8)
            .build_trainer(Sgd::new(0.1))
            .unwrap();
        t.bind(&GraphData::new(generate(&DatasetSpec {
            name: "minibatch".into(),
            num_nodes: 60,
            num_node_types: 2,
            num_edges: 400,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 21,
        })))
        .unwrap();
        let batches = t.minibatch(&SamplerConfig::new(16).fanouts(&[2]).pipeline(false));
        let Producer::Sync(source) = &batches.producer else {
            panic!("a pipeline-off iterator samples inline");
        };
        assert!(std::ptr::eq(
            source.full.graph(),
            t.engine().graph().graph()
        ));
    }
}
