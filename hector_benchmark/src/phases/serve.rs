//! Serving: an open loop against a `ServeHandle` (queue 4096,
//! `max_coalesce` 64, timeout 2 s, 1 worker) with read tenants `rgcn`
//! and `hgt` over the workload's graph.
//!
//! One generator (this thread) sends single-node requests on a schedule
//! fixed before each segment — 300 per second, alternating tenants — and
//! polls its tickets at most 0.25 ms apart. A request's latency runs
//! from the moment it was *due*, so a stall is charged to every request
//! it delays; how late the generator itself ran is reported beside it.
//! Traffic comes in one segment per round, so that its samples span the
//! run like every other metric's.
//!
//! Edge-only `DeltaBatch`es go through `ServeHandle::apply_delta`: a few
//! per round to the write-only tenant `rgcn_w` while no request is in
//! flight (these are what `delta_apply_ms` times), and in `serve_mixed`
//! also one per 250 ms of traffic to the read tenant `rgcn`, from a
//! writer thread beside the reads.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use hector::prelude::*;
use hector::serve::http::HttpServer;
use hector::serve::{Response, ServeError, ServeHandle, Ticket};
use hector::{DeltaBatch, GraphData, HeteroGraph, RangePartitioner, ShardConfig, ShardedGraph};

use crate::catalog::Workload;
use crate::run::{builder, Metrics, Stage, Tally};
use crate::spans::Recorder;
use crate::stats::{due_s, late_ms, median, percentile, substream, SplitMix64};

/// Read tenants: `(deployment name, model)`.
pub const TENANTS: [(&str, ModelKind); 2] = [("rgcn", ModelKind::Rgcn), ("hgt", ModelKind::Hgt)];
/// The tenant whose graph the between-rounds deltas move; never read.
pub const WRITE_TENANT: &str = "rgcn_w";

const RATE_PER_S: f64 = 300.0;
/// A request slower than this (from its due time) counts as failed.
///
/// ISSUE 12 fixed 250 ms, for tenants whose p99 is about 100 ms. Here
/// every workload serves its own graph, and `full_gemm`'s p99 is 330 ms
/// on a calm host (one tick, a forward of each tenant, is 115 ms). And
/// the host stalls: with 250 ms (500 on `full_trav`), one sweep of 50
/// runs failed 108 of 2298 requests in a `serve_mixed` run whose p50 was
/// 63 ms and 78 of 2301 in a `full_trav` run, each in one burst — about
/// 0.4 s of stolen CPU puts the hundred requests due meanwhile over the
/// limit. 1000 ms is three times the largest calm p99, and no request
/// failed in the 200 runs made with it, so a request fails only when the
/// program's tail is several times slower; anything less is for the bound
/// on `serve_p50_ms`, and `serve.p90_ms`/`serve.p99_ms`, to show.
const LATENCY_LIMIT_MS: f64 = 1000.0;
const DELTA_PERIOD_S: f64 = 0.25;
/// Edge insertions per delta; each delta also removes as many edges, so
/// the edge count stays where the first delta left it.
const DELTA_EDGES: usize = 4;
const POLL: Duration = Duration::from_micros(250);
/// Timelines the overlapping request spans are spread over.
const REQUEST_LANES: usize = 128;

/// Serving-policy errors have no `HectorError` of their own.
pub fn into_hector(e: ServeError) -> HectorError {
    match e {
        ServeError::Hector(e) => e,
        other => HectorError::InvalidConfig {
            detail: other.to_string(),
        },
    }
}

/// An endless seeded stream of deltas over one graph: the first removes
/// `DELTA_EDGES` existing edges, every later one removes what its
/// predecessor inserted; each inserts `DELTA_EDGES` random edges. Applied
/// in order, every removal matches an edge.
pub struct DeltaPlan {
    rng: SplitMix64,
    nodes: usize,
    relations: usize,
    doomed: Vec<(u32, u32, u32)>,
}

impl DeltaPlan {
    pub fn new(g: &HeteroGraph, seed: u64) -> DeltaPlan {
        let mut rng = SplitMix64::new(seed);
        let stride = g.num_edges() / DELTA_EDGES;
        let doomed = (0..DELTA_EDGES)
            .map(|i| {
                // Distinct edge ids, so two removals never claim one edge.
                let e = i * stride + rng.below(stride);
                (g.src()[e], g.dst()[e], g.etype()[e])
            })
            .collect();
        DeltaPlan {
            rng,
            nodes: g.num_nodes(),
            relations: g.num_edge_types(),
            doomed,
        }
    }

    pub fn next_batch(&mut self) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for &(s, d, t) in &self.doomed {
            batch = batch.remove_edge(s, d, t);
        }
        self.doomed = (0..DELTA_EDGES)
            .map(|_| {
                (
                    self.rng.below(self.nodes) as u32,
                    self.rng.below(self.nodes) as u32,
                    self.rng.below(self.relations) as u32,
                )
            })
            .collect();
        for &(s, d, t) in &self.doomed {
            batch = batch.add_edge(s, d, t);
        }
        batch
    }
}

/// A tenant whose graph moves: its storage and its stream of deltas.
pub struct DeltaTarget {
    tenant: &'static str,
    pub store: ShardedGraph,
    plan: DeltaPlan,
    applied: u64,
}

impl DeltaTarget {
    pub fn new(tenant: &'static str, w: &Workload, g: &HeteroGraph, seed: u64) -> DeltaTarget {
        DeltaTarget {
            tenant,
            store: ShardedGraph::partition(
                g.clone(),
                Box::new(RangePartitioner),
                ShardConfig::new(2).hops(w.layers),
            ),
            plan: DeltaPlan::new(g, seed),
            applied: 0,
        }
    }

    /// One `ServeHandle::apply_delta` with the next batch: its wall in
    /// ms and whether it succeeded.
    pub fn apply_next(
        &mut self,
        w: &Workload,
        seed: u64,
        server: &ServeHandle,
        rec: &mut Recorder,
    ) -> (f64, bool) {
        let batch = self.plan.next_batch();
        self.applied += 1;
        let (r, ms) = rec.timed("serve.ServeHandle::apply_delta", self.applied, |_| {
            let rgcn = builder(w, ModelKind::Rgcn, seed, 1);
            server.apply_delta(self.tenant, rgcn, &mut self.store, &batch)
        });
        (ms, r.is_ok())
    }
}

struct Served {
    latency_ms: f64,
    result: Result<Response, ServeError>,
}

/// The open loop over one segment. Returns one entry per planned
/// request, and how late the generator ran at worst. `first_id` numbers
/// the segment's requests within the run.
fn generate(
    server: &ServeHandle,
    plan: &[(usize, usize)],
    first_id: usize,
    t0: Instant,
    rec: &mut Recorder,
) -> (Vec<Served>, f64) {
    let mut served: Vec<Option<Served>> = plan.iter().map(|_| None).collect();
    let mut pending: Vec<(usize, Ticket, usize)> = Vec::new();
    let mut next = 0;
    let mut late_max = 0.0f64;
    // `t0` on the recorder's clock, where request spans are placed.
    let t0_ns = rec.now_ns().saturating_sub(t0.elapsed().as_nanos() as u64);
    while next < plan.len() || !pending.is_empty() {
        while next < plan.len() && due_s(next, RATE_PER_S) <= t0.elapsed().as_secs_f64() {
            let due = due_s(next, RATE_PER_S);
            late_max = late_max.max(late_ms(t0.elapsed().as_secs_f64(), due));
            let (tenant, node) = plan[next];
            let id = (first_id + next) as u64;
            let lane = 100 + ((first_id + next) % REQUEST_LANES) as u32;
            let due_ns = t0_ns + (due * 1e9) as u64;
            let span = rec.push("serve.request", lane, due_ns, due_ns, None, id);
            let sent_ns = rec.now_ns();
            let ticket = server.submit(TENANTS[tenant].0, node);
            rec.push(
                "serve.ServeHandle::submit",
                lane,
                sent_ns,
                rec.now_ns(),
                Some(span),
                id,
            );
            match ticket {
                Ok(t) => pending.push((next, t, span)),
                Err(e) => {
                    rec.close(span, rec.now_ns());
                    served[next] = Some(Served {
                        latency_ms: late_ms(t0.elapsed().as_secs_f64(), due),
                        result: Err(e),
                    });
                }
            }
            next += 1;
        }
        pending.retain(|(i, ticket, span)| {
            let Some(result) = ticket.try_wait() else {
                return true;
            };
            rec.close(*span, rec.now_ns());
            served[*i] = Some(Served {
                latency_ms: late_ms(t0.elapsed().as_secs_f64(), due_s(*i, RATE_PER_S)),
                result,
            });
            false
        });
        let until_due = if next < plan.len() {
            Duration::from_secs_f64(due_s(next, RATE_PER_S)).saturating_sub(t0.elapsed())
        } else {
            POLL
        };
        std::thread::sleep(until_due.min(POLL));
    }
    (
        served
            .into_iter()
            .map(|s| s.expect("every request resolved"))
            .collect(),
        late_max,
    )
}

/// A fresh engine identical to tenant `kind`'s, bound to `graph`, after
/// one forward: the reference served rows must match bit for bit.
fn oracle(
    w: &Workload,
    kind: ModelKind,
    seed: u64,
    graph: &GraphData,
) -> Result<Engine, HectorError> {
    let mut engine = builder(w, kind, seed, 1).build()?;
    engine.bind(graph)?;
    engine.forward()?;
    Ok(engine)
}

fn rows_match(resp: &Response, engine: &Engine, node: usize) -> bool {
    let want = engine.output().row(node);
    resp.rows.len() == 1
        && resp.rows[0].len() == want.len()
        && resp.rows[0]
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

#[derive(Default)]
pub struct ServeOut {
    /// Latency of every request that was answered, from its due time.
    pub latency_ms: Vec<f64>,
    /// Walls of the deltas applied beside the reads (`serve_mixed`).
    delta_beside_reads_ms: Vec<f64>,
    gen_late_ms_max: f64,
    traffic_s: f64,
    forwards: u64,
    coalesced: u64,
    shed: u64,
    timed_out: u64,
    direct_fwd_ms: [f64; 2],
    swap_ms: Vec<f64>,
    burst_rps: Vec<f64>,
    http_ms: Vec<f64>,
}

/// The request stream of a run: its generator state, the engines served
/// rows are checked against, and what the segments measured.
pub struct Traffic {
    rng: SplitMix64,
    nodes: usize,
    oracles: [Engine; 2],
    /// Version of tenant `rgcn` before any delta beside the reads.
    rgcn_version: u64,
    planned: usize,
    /// Traffic scheduled so far; the writer's deltas are due on this
    /// clock, one per `DELTA_PERIOD_S`.
    scheduled_s: f64,
    out: ServeOut,
}

impl Traffic {
    pub fn new(w: &Workload, seed: u64, stage: &Stage) -> Result<Traffic, HectorError> {
        Ok(Traffic {
            rng: SplitMix64::new(substream(seed, 3)),
            nodes: stage.graph.graph().num_nodes(),
            oracles: [
                oracle(w, TENANTS[0].1, seed, &stage.graph)?,
                oracle(w, TENANTS[1].1, seed, &stage.graph)?,
            ],
            rgcn_version: stage
                .server
                .stats("rgcn")
                .expect("tenant is deployed")
                .version,
            planned: 0,
            scheduled_s: 0.0,
            out: ServeOut::default(),
        })
    }

    /// `seconds` of traffic, in `serve_mixed` with the writer beside it;
    /// every answer is checked against the row a standalone engine
    /// computes.
    pub fn segment(
        &mut self,
        w: &Workload,
        seed: u64,
        stage: &mut Stage,
        seconds: f64,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) {
        let Stage {
            server,
            beside_reads,
            ..
        } = stage;
        let plan: Vec<(usize, usize)> = (0..(RATE_PER_S * seconds).ceil() as usize)
            .map(|i| {
                (
                    (self.planned + i) % TENANTS.len(),
                    self.rng.below(self.nodes),
                )
            })
            .collect();
        // Offsets into this segment at which a delta falls due.
        let first = (self.scheduled_s / DELTA_PERIOD_S).ceil() as u64;
        let last = ((self.scheduled_s + seconds) / DELTA_PERIOD_S).ceil() as u64;
        let due: Vec<f64> = (first..last)
            .map(|k| k as f64 * DELTA_PERIOD_S - self.scheduled_s)
            .collect();

        let t0 = Instant::now();
        let mut writer_rec = rec.fork(2);
        let ((served, late_max), writes) = std::thread::scope(|s| {
            let writer = w.writes_beside_reads.then(|| {
                s.spawn(|| {
                    due.iter()
                        .map(|&at| {
                            let wait = Duration::from_secs_f64(at).saturating_sub(t0.elapsed());
                            std::thread::sleep(wait);
                            beside_reads.apply_next(w, seed, server, &mut writer_rec)
                        })
                        .collect::<Vec<_>>()
                })
            });
            let (traffic, _) = rec.timed("serve.open_loop", self.planned as u64, |rec| {
                generate(server, &plan, self.planned, t0, rec)
            });
            let writes = writer.map_or_else(Vec::new, |h| h.join().expect("writer thread"));
            (traffic, writes)
        });
        rec.absorb(writer_rec);
        for (ms, ok) in writes {
            tally.op(ok);
            self.out.delta_beside_reads_ms.push(ms);
        }
        self.out.traffic_s += t0.elapsed().as_secs_f64();
        self.out.gen_late_ms_max = self.out.gen_late_ms_max.max(late_max);
        self.scheduled_s += seconds;

        for (i, s) in served.iter().enumerate() {
            let (tenant, node) = plan[i];
            match &s.result {
                Ok(resp) => {
                    tally.op(s.latency_ms <= LATENCY_LIMIT_MS);
                    self.out.latency_ms.push(s.latency_ms);
                    // A delta beside the reads moves `rgcn` to a new
                    // graph; only answers of the version the run began
                    // with belong to the oracle's graph.
                    if tenant == 1 || resp.version == self.rgcn_version {
                        tally.check(rows_match(resp, &self.oracles[tenant], node), || {
                            format!(
                                "request {}: {} row {node} differs from Engine::forward",
                                self.planned + i,
                                TENANTS[tenant].0
                            )
                        });
                    }
                }
                Err(_) => tally.op(false),
            }
        }
        self.planned += plan.len();
    }

    /// After the last segment: the serving counters, the post-delta
    /// check, and (traced) probes of single serve-layer calls.
    pub fn finish(
        mut self,
        w: &Workload,
        seed: u64,
        stage: &mut Stage,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<ServeOut, HectorError> {
        let Stage {
            graph,
            server,
            beside_reads,
            ..
        } = stage;
        let mut out = self.out;
        for (name, _) in TENANTS {
            let s = server.stats(name).expect("tenant is deployed");
            out.forwards += s.forwards;
            out.coalesced += s.coalesced_requests;
            out.shed += s.shed;
            out.timed_out += s.timed_out;
        }
        if w.writes_beside_reads {
            let moved = GraphData::new(beside_reads.store.full().clone());
            let post = oracle(w, ModelKind::Rgcn, seed, &moved)?;
            for k in 0..8 {
                let node = k * self.nodes / 8;
                let resp = server
                    .submit("rgcn", node)
                    .and_then(Ticket::wait)
                    .map_err(into_hector)?;
                tally.check(rows_match(&resp, &post, node), || {
                    format!("after the last delta: rgcn row {node} differs from a fresh engine on the post-delta graph")
                });
            }
        }
        if rec.is_on() {
            for (t, engine) in self.oracles.iter_mut().enumerate() {
                let mut ms = Vec::new();
                for k in 0..5 {
                    let (r, wall) = rec.timed("serve.direct_forward", k, |_| engine.forward());
                    r?;
                    ms.push(wall);
                }
                out.direct_fwd_ms[t] = median(&ms);
            }
            for k in 0..5 {
                let (r, ms) = rec.timed("serve.ServeHandle::swap", k, |_| {
                    server.swap("hgt", builder(w, ModelKind::Hgt, seed, 1), graph)
                });
                r.map_err(into_hector)?;
                out.swap_ms.push(ms);
            }
            for k in 0..2 {
                let (answered, ms) = rec.timed("serve.burst", k, |_| {
                    let tickets: Vec<_> = (0..512)
                        .map(|i| server.submit(TENANTS[i % 2].0, (i * 7919) % self.nodes))
                        .collect();
                    tickets
                        .into_iter()
                        .filter_map(|t| t.ok()?.wait().ok())
                        .count()
                });
                out.burst_rps.push(answered as f64 / (ms / 1e3));
            }
            // A sandbox without loopback sockets must not fail the run:
            // the metric is then not measured and the reason goes to stderr.
            out.http_ms = http_probe(server, self.nodes, rec).unwrap_or_else(|e| {
                eprintln!("hector_benchmark: serve.http_req_ms not measured: {e}");
                Vec::new()
            });
        }
        Ok(out)
    }
}

/// Sequential `GET /infer/rgcn/<node>` over loopback, one connection at
/// a time, for about half a second (at least 5).
fn http_probe(server: &ServeHandle, nodes: usize, rec: &mut Recorder) -> std::io::Result<Vec<f64>> {
    let http = HttpServer::start(server.clone(), "127.0.0.1:0", 1)?;
    let start = Instant::now();
    let mut ms = Vec::new();
    let mut outcome = Ok(());
    while ms.len() < 5 || start.elapsed() < Duration::from_millis(500) {
        let node = (ms.len() * 7919) % nodes;
        let (r, wall) = rec.timed("serve.http GET /infer", ms.len() as u64, |_| {
            let mut conn = std::net::TcpStream::connect(http.addr())?;
            write!(
                conn,
                "GET /infer/rgcn/{node} HTTP/1.1\r\nHost: bench\r\n\r\n"
            )?;
            let mut body = String::new();
            conn.read_to_string(&mut body)?;
            if body.starts_with("HTTP/1.1 200") {
                Ok(())
            } else {
                Err(std::io::Error::other(body))
            }
        });
        if let Err(e) = r {
            outcome = Err(e);
            break;
        }
        ms.push(wall);
    }
    http.shutdown();
    outcome.map(|()| ms)
}

impl ServeOut {
    pub fn report(&self, metrics: &mut Metrics) {
        metrics.insert("serve.p90_ms", percentile(&self.latency_ms, 90.0));
        metrics.insert("serve.p99_ms", percentile(&self.latency_ms, 99.0));
        metrics.insert("serve.gen_late_ms_max", self.gen_late_ms_max);
        metrics.insert("serve.shed", self.shed as f64);
        metrics.insert("serve.timed_out", self.timed_out as f64);
        metrics.insert(
            "serve.coalescing_factor",
            self.coalesced as f64 / (self.forwards as f64).max(1.0),
        );
        metrics.insert(
            "serve.forwards_per_s",
            self.forwards as f64 / self.traffic_s,
        );
        metrics.insert("serve.direct_fwd_ms.rgcn", self.direct_fwd_ms[0]);
        metrics.insert("serve.direct_fwd_ms.hgt", self.direct_fwd_ms[1]);
        // One worker: a tick is one forward of each read tenant in turn.
        let tick = self.direct_fwd_ms[0] + self.direct_fwd_ms[1];
        metrics.insert("serve.latency_over_fwd", median(&self.latency_ms) / tick);
        metrics.insert_median("serve.delta_beside_reads_ms", &self.delta_beside_reads_ms);
        metrics.insert("serve.swap_ms", median(&self.swap_ms));
        metrics.insert("serve.burst_rps", median(&self.burst_rps));
        metrics.insert_median("serve.http_req_ms", &self.http_ms);
    }
}
