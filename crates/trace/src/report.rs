//! Aggregation of trace events into a structured [`ProfileReport`].
//!
//! `Engine::profile` drains the recorder after the profiled closure and
//! feeds the events here. Aggregation is by span *name* within each
//! category, so "per kernel kind" falls out of the span naming scheme
//! (`gemm/typed_linear`, `traversal/edges`, ...). Per-relation rows are
//! model-based estimates: a fused kernel invocation covers every edge
//! type in one pass, so kernel time is apportioned by each relation's
//! share of edges (traversal) and of unique (src,etype) pairs (GEMM) —
//! see [`RelationShare`].

use std::collections::BTreeMap;
use std::fmt;

use crate::{SpanCat, TraceEvent};

/// Aggregate over all spans sharing one name within a category.
#[derive(Clone, Debug, Default)]
pub struct SpanAgg {
    /// Span name (e.g. `gemm/typed_linear`).
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Total time, microseconds.
    pub total_us: f64,
    /// Mean time per span, microseconds.
    pub mean_us: f64,
    /// 99th-percentile span time, microseconds.
    pub p99_us: f64,
    /// Total rows/edges processed across spans.
    pub rows: u64,
    /// Total estimated floating-point operations.
    pub flops: f64,
}

impl SpanAgg {
    /// Estimated GFLOP/s over this aggregate's own busy time.
    #[must_use]
    pub fn gflops(&self) -> f64 {
        if self.total_us <= 0.0 {
            0.0
        } else {
            self.flops / (self.total_us * 1e3)
        }
    }
}

/// One relation's share of the graph, used to apportion fused-kernel
/// time into per-relation estimates.
#[derive(Clone, Debug)]
pub struct RelationShare {
    /// Relation (edge type) name.
    pub name: String,
    /// Edges of this relation.
    pub edges: u64,
    /// Unique (source node, relation) pairs — the GEMM row count under
    /// compact materialization.
    pub unique: u64,
}

/// Per-relation time estimate derived from [`RelationShare`] fractions.
#[derive(Clone, Debug)]
pub struct RelationAgg {
    /// Relation (edge type) name.
    pub name: String,
    /// Edges of this relation.
    pub edges: u64,
    /// Estimated traversal time attributable to this relation, µs.
    pub traversal_us: f64,
    /// Estimated GEMM time attributable to this relation, µs.
    pub gemm_us: f64,
}

/// Structured profile built from one drained trace.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Total wall time of all `Run` spans, microseconds.
    pub wall_us: f64,
    /// Per-kernel-kind aggregates, sorted by descending total time.
    pub kernels: Vec<SpanAgg>,
    /// Per-phase aggregates (bind, loss, optimizer, ...), same order.
    pub phases: Vec<SpanAgg>,
    /// Compiler pass aggregates (present when compilation was traced).
    pub passes: Vec<SpanAgg>,
    /// Minibatch pipeline aggregates (sample, prefetch wait).
    pub pipeline: Vec<SpanAgg>,
    /// Sharded-execution aggregates (per-shard runs, boundary exchange,
    /// delta application); empty outside sharded execution.
    pub shard: Vec<SpanAgg>,
    /// Per-relation estimates (see module docs); empty when no graph
    /// relation mix was supplied.
    pub relations: Vec<RelationAgg>,
    /// Fraction of `Run` wall time attributed to kernel + phase spans.
    pub coverage: f64,
    /// Events aggregated into this report.
    pub events: usize,
    /// Ring-buffer overwrites during recording (0 = nothing lost).
    pub dropped: u64,
    /// Execution backend that produced the kernel spans ("interp",
    /// "specialized"); `""` when no backend label was set (for example,
    /// a compile-only trace).
    pub backend: String,
}

fn aggregate(events: &[TraceEvent], cat: SpanCat) -> Vec<SpanAgg> {
    let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rows: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for e in events.iter().filter(|e| e.cat == cat && !e.instant) {
        durs.entry(e.name).or_default().push(e.dur_ns as f64 / 1e3);
        let r = rows.entry(e.name).or_insert((0, 0.0));
        r.0 += e.rows;
        r.1 += e.flops;
    }
    let mut out: Vec<SpanAgg> = durs
        .into_iter()
        .map(|(name, mut ds)| {
            ds.sort_by(f64::total_cmp);
            let total: f64 = ds.iter().sum();
            let n = ds.len();
            let p99_idx = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
            let (r, f) = rows[name];
            SpanAgg {
                name: name.to_string(),
                count: n as u64,
                total_us: total,
                mean_us: total / n as f64,
                p99_us: ds[p99_idx],
                rows: r,
                flops: f,
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
    out
}

/// Builds a report from drained events plus the bound graph's relation
/// mix (pass `&[]` when no graph is bound).
#[must_use]
pub fn build_report(events: &[TraceEvent], relations: &[RelationShare]) -> ProfileReport {
    let kernels = aggregate(events, SpanCat::Kernel);
    let phases = aggregate(events, SpanCat::Phase);
    let passes = aggregate(events, SpanCat::Compiler);
    let pipeline = aggregate(events, SpanCat::Pipeline);
    let shard = aggregate(events, SpanCat::Shard);
    let wall_us: f64 = events
        .iter()
        .filter(|e| e.cat == SpanCat::Run)
        .map(|e| e.dur_ns as f64 / 1e3)
        .sum();
    let attributed: f64 = kernels
        .iter()
        .chain(phases.iter())
        .map(|a| a.total_us)
        .sum();
    let coverage = if wall_us > 0.0 {
        (attributed / wall_us).min(1.0)
    } else {
        0.0
    };

    let traversal_us: f64 = kernels
        .iter()
        .filter(|a| a.name.starts_with("traversal/"))
        .map(|a| a.total_us)
        .sum();
    let gemm_us: f64 = kernels
        .iter()
        .filter(|a| a.name.starts_with("gemm/"))
        .map(|a| a.total_us)
        .sum();
    let total_edges: u64 = relations.iter().map(|r| r.edges).sum();
    let total_unique: u64 = relations.iter().map(|r| r.unique).sum();
    let rel = relations
        .iter()
        .map(|r| RelationAgg {
            name: r.name.clone(),
            edges: r.edges,
            traversal_us: if total_edges == 0 {
                0.0
            } else {
                traversal_us * r.edges as f64 / total_edges as f64
            },
            gemm_us: if total_unique == 0 {
                0.0
            } else {
                gemm_us * r.unique as f64 / total_unique as f64
            },
        })
        .collect();

    ProfileReport {
        wall_us,
        kernels,
        phases,
        passes,
        pipeline,
        shard,
        relations: rel,
        coverage,
        events: events.len(),
        dropped: crate::stats().dropped,
        backend: crate::backend_label().to_string(),
    }
}

fn fmt_us(us: f64) -> String {
    if us >= 1e4 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} over {} events ({:.1}% of run wall attributed{}{})",
            fmt_us(self.wall_us),
            self.events,
            self.coverage * 100.0,
            if self.backend.is_empty() {
                String::new()
            } else {
                format!("; backend {}", self.backend)
            },
            if self.dropped > 0 {
                format!("; {} events dropped", self.dropped)
            } else {
                String::new()
            }
        )?;
        let table = |f: &mut fmt::Formatter<'_>, title: &str, aggs: &[SpanAgg]| -> fmt::Result {
            if aggs.is_empty() {
                return Ok(());
            }
            writeln!(f, "{title}")?;
            writeln!(
                f,
                "  {:<24} {:>7} {:>12} {:>10} {:>10} {:>12} {:>9}",
                "span", "count", "total", "mean", "p99", "rows", "GFLOP/s"
            )?;
            for a in aggs {
                writeln!(
                    f,
                    "  {:<24} {:>7} {:>12} {:>10} {:>10} {:>12} {:>9.2}",
                    a.name,
                    a.count,
                    fmt_us(a.total_us),
                    fmt_us(a.mean_us),
                    fmt_us(a.p99_us),
                    a.rows,
                    a.gflops()
                )?;
            }
            Ok(())
        };
        table(f, "kernels:", &self.kernels)?;
        table(f, "phases:", &self.phases)?;
        table(f, "compiler passes:", &self.passes)?;
        table(f, "pipeline:", &self.pipeline)?;
        table(f, "sharding:", &self.shard)?;
        if !self.relations.is_empty() {
            writeln!(f, "relations (estimated from edge/pair shares):")?;
            writeln!(
                f,
                "  {:<24} {:>12} {:>12} {:>12}",
                "relation", "edges", "traversal", "gemm"
            )?;
            for r in &self.relations {
                writeln!(
                    f,
                    "  {:<24} {:>12} {:>12} {:>12}",
                    r.name,
                    r.edges,
                    fmt_us(r.traversal_us),
                    fmt_us(r.gemm_us)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, cat: SpanCat, dur_us: f64, rows: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            start_ns: 0,
            dur_ns: (dur_us * 1e3) as u64,
            tid: 0,
            rows,
            stage: 0,
            flops: 1000.0,
            detail: None,
            instant: false,
        }
    }

    #[test]
    fn aggregates_and_coverage() {
        let evs = vec![
            span("run/train_step", SpanCat::Run, 100.0, 0),
            span("gemm/typed_linear", SpanCat::Kernel, 40.0, 64),
            span("gemm/typed_linear", SpanCat::Kernel, 20.0, 64),
            span("traversal/edges", SpanCat::Kernel, 30.0, 960),
            span("phase/optimizer", SpanCat::Phase, 5.0, 0),
        ];
        let rels = vec![
            RelationShare {
                name: "r0".into(),
                edges: 750,
                unique: 75,
            },
            RelationShare {
                name: "r1".into(),
                edges: 250,
                unique: 25,
            },
        ];
        let r = build_report(&evs, &rels);
        assert!((r.wall_us - 100.0).abs() < 1e-9);
        assert!((r.coverage - 0.95).abs() < 1e-9);
        let g = &r.kernels[0];
        assert_eq!(g.name, "gemm/typed_linear");
        assert_eq!(g.count, 2);
        assert!((g.mean_us - 30.0).abs() < 1e-9);
        assert_eq!(g.rows, 128);
        assert!((r.relations[0].traversal_us - 22.5).abs() < 1e-9);
        assert!((r.relations[0].gemm_us - 45.0).abs() < 1e-9);
        let shown = format!("{r}");
        assert!(shown.contains("gemm/typed_linear"));
        assert!(shown.contains("95.0%"));
    }

    #[test]
    fn shard_spans_render() {
        let evs = vec![
            span("run/forward", SpanCat::Run, 100.0, 0),
            span("shard/forward", SpanCat::Shard, 40.0, 64),
            span("shard/exchange", SpanCat::Shard, 5.0, 64),
        ];
        let r = build_report(&evs, &[]);
        assert_eq!(r.shard.len(), 2);
        assert_eq!(r.shard[0].name, "shard/forward");
        let shown = format!("{r}");
        assert!(shown.contains("sharding:"));
        assert!(shown.contains("shard/exchange"));
    }

    #[test]
    fn empty_report_is_zero_not_nan() {
        let r = build_report(&[], &[]);
        assert_eq!(r.coverage, 0.0);
        assert_eq!(r.wall_us, 0.0);
        assert!(format!("{r}").contains("0 events"));
    }
}
