//! The sampled part of a round: `SamplerConfig::new(64)` (fanouts
//! [10, 5]) with the prefetch pipeline off, on trainers of their own
//! (1 thread). Each model keeps a live `Minibatches` iterator (a new
//! epoch stream starts when one runs out); a round takes a few batches
//! from each model in turn. A batch's wall is `next()` — sample, extract,
//! gather, and `Trainer::minibatch` when an epoch begins — plus
//! `train_batch`: all the work a seed costs, on one thread, so sampler
//! and trainer changes both show and no spare core is needed.
//!
//! A traced run takes every other round from a second set of iterators
//! with the pipeline on (what a spare core hides); those batches feed
//! `par.*` only.

use hector::prelude::*;

use crate::catalog::MODELS;
use crate::run::{Metrics, Stage, Tally};
use crate::spans::Recorder;
use crate::stats::{geomean, mean, median};

const BATCH_SIZE: usize = 64;
/// Batches one model trains before the round moves to the next model.
const BATCHES_PER_TURN: usize = 4;

/// A model's position in its stream of epochs.
struct Cursor {
    iter: Option<Minibatches>,
    pipeline: bool,
    epoch: u64,
}

impl Cursor {
    fn new(pipeline: bool) -> Cursor {
        Cursor {
            iter: None,
            pipeline,
            // Synchronous and pipelined cursors draw different epochs.
            epoch: if pipeline { 1 << 32 } else { 0 },
        }
    }

    /// The next batch, starting a new epoch when the current one is used
    /// up. An iterator that is not of this cursor's kind (pipeline on or
    /// off) is a mismatch: every number taken from it would be mislabelled.
    fn next(&mut self, trainer: &Trainer, rec: &mut Recorder, op: u64, tally: &mut Tally) -> Batch {
        loop {
            if let Some(iter) = &mut self.iter {
                if let (Some(batch), _) =
                    rec.timed("runtime.Minibatches::next", op, |_| iter.next())
                {
                    return batch;
                }
            }
            let cfg = SamplerConfig::new(BATCH_SIZE)
                .pipeline(self.pipeline)
                .epoch(self.epoch);
            self.epoch += 1;
            let (iter, _) = rec.timed("runtime.Trainer::minibatch", op, |_| {
                trainer.minibatch(&cfg)
            });
            tally.check(iter.is_pipelined() == self.pipeline, || {
                format!(
                    "epoch {}: asked for pipeline {}, the iterator says {}",
                    self.epoch - 1,
                    self.pipeline,
                    iter.is_pipelined()
                )
            });
            self.iter = Some(iter);
        }
    }
}

#[derive(Default)]
pub struct MinibatchOut {
    /// Per model: seeds of a batch over its wall (`next` + `train_batch`),
    /// pipeline off.
    pub seeds_per_s: [Vec<f64>; 3],
    /// Per model: the same wall in ms, pipeline off and on.
    batch_ms: [Vec<f64>; 3],
    piped_batch_ms: [Vec<f64>; 3],
    batch_step_ms: [Vec<f64>; 3],
    sample_ms: Vec<f64>,
    /// `Batch.wait_wall_us` of pipelined batches.
    wait_ms: Vec<f64>,
    /// Sizes of the first round's batches (a function of the seed only).
    subgraph_nodes: Vec<f64>,
    subgraph_edges: Vec<f64>,
}

/// The cursors of a run and what their batches measured.
pub struct MinibatchRun {
    sync: Vec<Cursor>,
    piped: Vec<Cursor>,
    pub out: MinibatchOut,
}

impl MinibatchRun {
    pub fn new() -> MinibatchRun {
        MinibatchRun {
            sync: (0..3).map(|_| Cursor::new(false)).collect(),
            piped: (0..3).map(|_| Cursor::new(true)).collect(),
            out: MinibatchOut::default(),
        }
    }

    pub fn round(
        &mut self,
        stage: &mut Stage,
        round: usize,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), HectorError> {
        let out = &mut self.out;
        let op = round as u64;
        let pipelined = rec.is_on() && round % 2 == 1;
        for (m, model) in stage.models.iter_mut().enumerate() {
            let cursor = if pipelined {
                &mut self.piped[m]
            } else {
                &mut self.sync[m]
            };
            for _ in 0..BATCHES_PER_TURN {
                let (batch, next_ms) = rec.timed("runtime.next_batch", op, |rec| {
                    cursor.next(&model.sampled, rec, op, tally)
                });
                let (report, step_ms) = rec.timed("runtime.Trainer::train_batch", op, |_| {
                    model.sampled.train_batch(&batch)
                });
                tally.op(report?.loss.is_some_and(f32::is_finite));
                let wall_ms = next_ms + step_ms;
                if pipelined {
                    out.piped_batch_ms[m].push(wall_ms);
                    out.wait_ms.push(batch.wait_wall_us / 1e3);
                } else {
                    let seeds = batch.subgraph.seed_local().len() as f64;
                    out.seeds_per_s[m].push(seeds / (wall_ms / 1e3));
                    out.batch_ms[m].push(wall_ms);
                    out.batch_step_ms[m].push(step_ms);
                    out.sample_ms.push(next_ms);
                }
                if round == 0 && m == 0 {
                    let g = batch.graph.graph();
                    out.subgraph_nodes.push(g.num_nodes() as f64);
                    out.subgraph_edges.push(g.num_edges() as f64);
                }
            }
        }
        Ok(())
    }
}

impl MinibatchOut {
    /// The per-layer metrics; `par.*` only when pipelined rounds ran.
    pub fn report(&self, metrics: &mut Metrics) {
        for (m, (_, model)) in MODELS.iter().enumerate() {
            metrics.insert(
                format!("runtime.batch_step_ms.{model}"),
                median(&self.batch_step_ms[m]),
            );
        }
        metrics.insert("graph.sample_ms_per_batch", median(&self.sample_ms));
        metrics.insert("graph.subgraph_nodes_per_batch", mean(&self.subgraph_nodes));
        metrics.insert("graph.subgraph_edges_per_batch", mean(&self.subgraph_edges));
        if !self.wait_ms.is_empty() {
            metrics.insert("par.wait_ms_per_batch", median(&self.wait_ms));
            let gains: Vec<f64> = (0..3)
                .map(|m| median(&self.batch_ms[m]) / median(&self.piped_batch_ms[m]))
                .collect();
            metrics.insert("par.prefetch_gain", geomean(&gains));
        }
    }
}
