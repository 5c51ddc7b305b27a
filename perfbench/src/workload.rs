//! The four workloads: their graphs, how their service is built, the
//! measured load loops, and the exact-RWR oracle check.

use crate::stats::{mean, median, peak_rss_mib, quantile, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpa_core::bounds::total_bound;
use tpa_core::engine::DEFAULT_LANE_TILE;
use tpa_core::{
    exact_rwr, top_k_scored, CpiConfig, EngineBackend, QueryRequest, QueryResponse, QueryResult,
    RwrService, ServiceBuilder, TpaError, TpaParams,
};
use tpa_graph::gen::{lfr_lite, LfrConfig};
use tpa_graph::{CsrGraph, DynamicGraph, EdgeUpdate, NodeId};

/// Every request asks for the best `K` nodes.
pub const K: usize = 20;
/// Each run serves its window from this many freshly built services in
/// turn, so its figures average over where their memory landed (one
/// process's placement moved the pokec-size workloads by ~10%).
const SEGMENTS: usize = 5;
/// Each segment is split into this many windows; latency p50/p90 and
/// throughput are the median of their per-window values, so a stall on
/// a shared host moves one window, not the figure.
const WINDOWS_PER_SEGMENT: usize = 2;
/// `setup_s` is the median build time of the segments' services, plus
/// further builds until they add up to this.
const SETUP_TIME: Duration = Duration::from_secs(2);
/// Background compaction trigger of `rw_mixed`, as a share of the base
/// edge count: ~48 writer batches per compaction, about one a second.
pub const COMPACT_THRESHOLD: f64 = 0.01;
/// Edge updates per writer batch (half inserts, half deletes).
pub const WRITE_BATCH: usize = 64;
/// `rw_mixed` calls `patch_index` after every this many batches.
pub const PATCH_EVERY: u64 = 25;
/// Background compactions each `rw_mixed` run must complete.
pub const MIN_COMPACTIONS: u64 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    OnlineTopk,
    BatchScoring,
    ExactTopk,
    RwMixed,
}

/// One workload: its graph, its service configuration, and its load.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// LFR-lite nodes and distinct directed edges.
    pub n: usize,
    pub m: usize,
    /// LFR-lite mixing parameter and edge reciprocity.
    pub mu: f64,
    pub reciprocity: f64,
    /// TPA split points.
    pub s: usize,
    pub t: usize,
    /// Closed-loop client threads (readers on `rw_mixed`).
    pub clients: usize,
    /// Seeds per request.
    pub batch: usize,
    /// Seeds checked against the exact-RWR oracle.
    pub verify: usize,
    /// Open-loop writer period (`rw_mixed` only).
    pub write_period: Duration,
    /// Unmeasured load before the timed window (caches, lazy state).
    pub warmup: Duration,
}

pub const NAMES: [&str; 4] = ["online_topk", "batch_scoring", "exact_topk", "rw_mixed"];

impl Spec {
    /// The named workload at full size, or at smoke size (tiny graphs,
    /// seconds in total) for the self-check.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let livejournal = Spec {
            kind: Kind::OnlineTopk,
            name: "online_topk",
            n: 400_000,
            m: 6_000_000,
            mu: 0.25,
            reciprocity: 0.7,
            s: 5,
            t: 10,
            clients: 2,
            batch: 1,
            verify: 12,
            write_period: Duration::ZERO,
            warmup: Duration::from_millis(200),
        };
        // The pokec-s analog. `batch_scoring` and `rw_mixed` use it too:
        // on a 100k-node graph their run-to-run spread was 13-23%
        // (see WORKLOADS.md).
        let pokec = Spec {
            kind: Kind::ExactTopk,
            name: "exact_topk",
            n: 16_328,
            m: 306_200,
            mu: 0.18,
            reciprocity: 0.75,
            verify: 96,
            ..livejournal
        };
        let mut spec = match name {
            "online_topk" => livejournal,
            "batch_scoring" => Spec {
                kind: Kind::BatchScoring,
                name: "batch_scoring",
                clients: 1,
                batch: 32,
                ..pokec
            },
            "exact_topk" => pokec,
            "rw_mixed" => Spec {
                kind: Kind::RwMixed,
                name: "rw_mixed",
                clients: 1,
                write_period: Duration::from_millis(20),
                ..pokec
            },
            _ => return None,
        };
        if smoke {
            spec.n = 2_000;
            spec.m = 16_000;
            spec.verify = 4;
            spec.warmup = Duration::from_millis(20);
            if spec.kind == Kind::RwMixed {
                spec.write_period = Duration::from_millis(5);
            }
        }
        Some(spec)
    }

    pub fn params(&self) -> TpaParams {
        TpaParams::new(self.s, self.t)
    }

    fn lfr(&self) -> LfrConfig {
        LfrConfig {
            n: self.n,
            m: self.m,
            mu: self.mu,
            degree_exponent: 2.5,
            community_exponent: 2.0,
            min_community: 20,
            max_community: (self.n / 20).max(40),
            reciprocity: self.reciprocity,
        }
    }

    /// Dense working set of one propagation: the in-adjacency (CSC),
    /// `x` and `y` for each lane of a tile, and `1/outdeg`.
    pub fn working_set_bytes(&self, g: &CsrGraph) -> usize {
        let lanes = self.batch.min(DEFAULT_LANE_TILE);
        g.in_sources().len() * 4 + g.in_offsets().len() * 8 + (2 * lanes + 1) * g.n() * 8
    }

    /// Description of the run's shape, printed above the result.
    pub fn describe(&self, g: &CsrGraph) -> String {
        let loop_kind = match self.kind {
            Kind::RwMixed => format!(
                "closed loop x{} reader + open-loop writer ({} updates every {:?})",
                self.clients, WRITE_BATCH, self.write_period
            ),
            _ => format!("closed loop x{}", self.clients),
        };
        format!(
            "workload {}: LFR-lite n={} m={} mu={} reciprocity={} S={} T={}; working set {:.1} MiB \
             vs 32 MiB L3; {loop_kind}; sequential backend; {} seed(s) per request",
            self.name,
            g.n(),
            g.m(),
            self.mu,
            self.reciprocity,
            self.s,
            self.t,
            self.working_set_bytes(g) as f64 / (1 << 20) as f64,
            self.batch,
        )
    }
}

/// A deterministic RNG for one purpose (`stream`) of one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.rotate_left(32))
}

/// The workload's graph for `seed` (node labels are shuffled onto
/// communities by the generator).
pub fn generate(spec: &Spec, seed: u64) -> CsrGraph {
    lfr_lite(spec.lfr(), &mut rng(seed, 1)).graph
}

/// Builds the workload's service over `graph`: sequential backend,
/// index preprocessing included.
pub fn build(spec: &Spec, graph: CsrGraph) -> Result<RwrService, TpaError> {
    let builder = match spec.kind {
        Kind::RwMixed => ServiceBuilder::dynamic(
            DynamicGraph::new(graph).with_compact_threshold(Some(COMPACT_THRESHOLD)),
        ),
        _ => ServiceBuilder::in_memory(graph),
    };
    builder.preprocess(spec.params()).build()
}

/// The request a client of this workload sends next.
pub fn next_request(spec: &Spec, rng: &mut StdRng, n: usize) -> QueryRequest {
    let mut pick = || rng.gen_range(0..n as NodeId);
    match spec.kind {
        Kind::BatchScoring => {
            QueryRequest::batch((0..spec.batch).map(|_| pick()).collect::<Vec<_>>()).top_k(K)
        }
        Kind::ExactTopk => QueryRequest::single(pick()).exact().top_k(K).with_exact_bounds(),
        Kind::OnlineTopk | Kind::RwMixed => QueryRequest::single(pick()).top_k(K),
    }
}

/// True when `resp` is a complete answer to `req`.
pub fn answer_ok(req: &QueryRequest, resp: &QueryResponse) -> bool {
    let QueryResult::Ranked(lists) = &resp.result else { return false };
    let complete = lists.len() == req.seeds().len() && lists.iter().all(|l| l.len() == K);
    let proven = !req.exact_bounds() || resp.topk.is_some_and(|g| g.proven_exact);
    complete && proven
}

/// What the closed-loop clients of one segment measured.
#[derive(Default)]
struct Load {
    /// Per request: completion time (s since the window opened),
    /// latency (ms), and seeds served.
    samples: Vec<(f64, f64, u64)>,
    failed: u64,
    /// From the first send to the last client's final answer.
    wall_s: f64,
}

/// One sub-window of a segment: the latencies and seeds completed in
/// it, and its length.
struct Window {
    latencies_ms: Vec<f64>,
    seeds: u64,
    secs: f64,
}

impl Load {
    /// Splits the segment into [`WINDOWS_PER_SEGMENT`] equal windows.
    fn windows(&self) -> impl Iterator<Item = Window> + '_ {
        let secs = self.wall_s / WINDOWS_PER_SEGMENT as f64;
        (0..WINDOWS_PER_SEGMENT).map(move |w| {
            let inside =
                |s: &&(f64, f64, u64)| ((s.0 / secs) as usize).min(WINDOWS_PER_SEGMENT - 1) == w;
            Window {
                latencies_ms: self.samples.iter().filter(inside).map(|s| s.1).collect(),
                seeds: self.samples.iter().filter(inside).map(|s| s.2).sum(),
                secs,
            }
        })
    }
}

/// Runs the workload's clients until `until`.
fn closed_loop(spec: &Spec, svc: &RwrService, seed: u64, stream: u64, until: Instant) -> Load {
    let n = svc.n();
    let started = Instant::now();
    let per_client: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = rng(seed, stream + c as u64);
                    let mut load = Load::default();
                    while Instant::now() < until {
                        let req = next_request(spec, &mut rng, n);
                        let t = Instant::now();
                        let resp = svc.submit(&req);
                        load.samples.push((
                            started.elapsed().as_secs_f64(),
                            t.elapsed().as_secs_f64() * 1e3,
                            req.seeds().len() as u64,
                        ));
                        if !resp.is_ok_and(|r| answer_ok(&req, &r)) {
                            load.failed += 1;
                        }
                    }
                    load
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    let mut all = Load { wall_s: started.elapsed().as_secs_f64(), ..Load::default() };
    for l in per_client {
        all.samples.extend(l.samples);
        all.failed += l.failed;
    }
    all
}

/// The writer's view of the graph: current out-lists, so it can draw
/// inserts of absent edges and deletes of present ones, and rebuild the
/// final edge set from scratch for the oracle.
pub struct Mirror {
    out: Vec<Vec<NodeId>>,
}

impl Mirror {
    pub fn new(g: &CsrGraph) -> Self {
        Mirror { out: (0..g.n() as NodeId).map(|u| g.out_neighbors(u).to_vec()).collect() }
    }

    /// A batch of `size` updates, half inserts and half deletes. Deletes
    /// never remove a self-loop or a node's last out-edge, so no node
    /// turns dangling.
    pub fn batch(&mut self, rng: &mut StdRng, size: usize) -> Vec<EdgeUpdate> {
        let n = self.out.len() as NodeId;
        let mut updates = Vec::with_capacity(size);
        while updates.len() < size {
            let u = rng.gen_range(0..n);
            let row = &mut self.out[u as usize];
            if updates.len() % 2 == 0 {
                let v = rng.gen_range(0..n);
                if v != u && !row.contains(&v) {
                    row.push(v);
                    updates.push(EdgeUpdate::Insert(u, v));
                }
            } else if row.len() >= 2 {
                let i = rng.gen_range(0..row.len());
                if row[i] != u {
                    updates.push(EdgeUpdate::Delete(u, row.swap_remove(i)));
                }
            }
        }
        updates
    }

    /// The current edge set as a freshly built CSR.
    pub fn csr(&self) -> CsrGraph {
        let edges: Vec<(NodeId, NodeId)> = self
            .out
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |&v| (u as NodeId, v)))
            .collect();
        CsrGraph::from_edges(self.out.len(), &edges)
    }
}

/// What the open-loop writer of `rw_mixed` measured.
#[derive(Default)]
pub struct Writes {
    pub publish_ms: Vec<f64>,
    pub patch_index_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub compactions: u64,
    pub failed: u64,
}

/// The open-loop writer: one batch every `spec.write_period` until
/// `until`, `patch_index` every [`PATCH_EVERY`] batches. A completed
/// background compaction shows as a new base CSR under the published
/// patched backend. `publish`/`patch` wrap the two calls (the traced run
/// records spans there).
pub fn write_loop(
    spec: &Spec,
    svc: &RwrService,
    mirror: &mut Mirror,
    rng: &mut StdRng,
    until: Instant,
    mut publish: impl FnMut(&[EdgeUpdate]) -> Result<(), TpaError>,
    mut patch: impl FnMut() -> Result<(), TpaError>,
) -> Writes {
    let mut w = Writes::default();
    let start = Instant::now();
    let mut base = base_of(svc);
    for i in 0u64.. {
        let due = start + spec.write_period * i as u32;
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let batch = mirror.batch(rng, WRITE_BATCH);
        let t = Instant::now();
        let ok = publish(&batch).is_ok();
        w.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        w.failed += u64::from(!ok);
        if (i + 1) % PATCH_EVERY == 0 {
            let t = Instant::now();
            w.failed += u64::from(patch().is_err());
            w.patch_index_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let now = base_of(svc);
        w.compactions += u64::from(now != base);
        base = now;
    }
    w.failed += svc.compaction_failures();
    w
}

/// Identity of the base CSR under the published epoch (0 for backends
/// without one).
fn base_of(svc: &RwrService) -> usize {
    match svc.snapshot().backend() {
        EngineBackend::Patched(p) => Arc::as_ptr(p.base()) as usize,
        _ => 0,
    }
}

/// Exact RWR (ε = 1e-9) for each seed, on two threads.
pub fn oracle(g: &CsrGraph, seeds: &[NodeId]) -> Vec<Vec<f64>> {
    let cfg = CpiConfig::default();
    let half = seeds.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = seeds
            .chunks(half)
            .map(|part| {
                scope.spawn(move || part.iter().map(|&s| exact_rwr(g, s, &cfg)).collect::<Vec<_>>())
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().unwrap_or_default()).collect::<Vec<Vec<f64>>>()
    })
}

/// Oracle verification of a finished run, outside the timed window.
#[derive(Default)]
pub struct Verdict {
    pub l1: Vec<f64>,
    pub recall: Vec<f64>,
    pub checked: u64,
    pub failed: u64,
}

fn ids(list: &[(NodeId, f64)]) -> Vec<NodeId> {
    list.iter().map(|&(v, _)| v).collect()
}

/// A ranking with its scores as bit patterns, for bitwise comparison.
pub fn bits(list: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    list.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

/// Checks the service's answers for `seeds` against exact RWR on
/// `truth` (the graph the service should be serving):
/// * indexed full scores lie within Theorem 2's L1 bound (plus the CPI
///   tolerance) — their L1 error and recall@K are the accuracy metrics;
/// * the workload's own top-K request ranks exactly like the full
///   scores it came from (bitwise), or — for `exact_topk` — equals the
///   oracle's top-K in set and order.
pub fn verify(spec: &Spec, svc: &RwrService, truth: &CsrGraph, seeds: &[NodeId]) -> Verdict {
    let exact = oracle(truth, seeds);
    let bound = total_bound(spec.params().c, spec.s) + 1e-6;
    let mut v = Verdict::default();
    let served: Result<Vec<Vec<f64>>, TpaError> = match spec.kind {
        Kind::BatchScoring => {
            svc.submit(&QueryRequest::batch(seeds.to_vec())).map(|r| r.result.into_scores())
        }
        _ => seeds.iter().map(|&s| svc.query(s)).collect(),
    };
    let ranked: Result<Vec<Vec<(NodeId, f64)>>, TpaError> = match spec.kind {
        Kind::BatchScoring => svc
            .submit(&QueryRequest::batch(seeds.to_vec()).top_k(K))
            .map(|r| r.result.into_ranked()),
        _ => seeds
            .iter()
            .map(|&s| {
                let req = match spec.kind {
                    Kind::ExactTopk => QueryRequest::single(s).exact().top_k(K).with_exact_bounds(),
                    _ => QueryRequest::single(s).top_k(K),
                };
                svc.submit(&req).map(|r| r.result.into_ranked().pop().unwrap_or_default())
            })
            .collect(),
    };
    let (Ok(served), Ok(ranked)) = (served, ranked) else {
        v.checked = seeds.len() as u64;
        v.failed = seeds.len() as u64;
        return v;
    };
    if served.len() != seeds.len() || ranked.len() != seeds.len() {
        v.checked = seeds.len() as u64;
        v.failed = seeds.len() as u64;
        return v;
    }
    for ((scores, truth), list) in served.iter().zip(&exact).zip(&ranked) {
        v.checked += 1;
        let l1: f64 = scores.iter().zip(truth).map(|(a, b)| (a - b).abs()).sum();
        let truth_top = top_k_scored(truth, K);
        let ok = match spec.kind {
            Kind::ExactTopk => ids(list) == ids(&truth_top),
            _ => bits(list) == bits(&top_k_scored(scores, K)),
        };
        let hits = ids(list).iter().filter(|id| ids(&truth_top).contains(id)).count();
        v.recall.push(hits as f64 / K as f64);
        v.l1.push(l1);
        let within = l1 <= bound; // false for NaN
        if !ok || !within || scores.len() != truth.len() {
            v.failed += 1;
        }
    }
    v
}

/// The verification seeds of a run.
pub fn verify_seeds(spec: &Spec, seed: u64, n: usize) -> Vec<NodeId> {
    let mut r = rng(seed, 7);
    (0..spec.verify).map(|_| r.gen_range(0..n as NodeId)).collect()
}

/// One segment of the measured run: a freshly built (and timed)
/// service, a warm-up, then `window` of load — with the open-loop
/// writer alongside on `rw_mixed`, whose final edge set is returned for
/// the oracle. `warm_rss` receives the process's peak RSS as the
/// warm-up ends.
#[allow(clippy::too_many_arguments)]
fn segment(
    spec: &Spec,
    graph: &CsrGraph,
    seed: u64,
    index: u64,
    window: Duration,
    setup: &mut Vec<f64>,
    writes: &mut Writes,
    warm_rss: &mut f64,
) -> Result<(RwrService, Load, Option<Mirror>), TpaError> {
    let g = graph.clone();
    let t = Instant::now();
    let svc = build(spec, g)?;
    setup.push(t.elapsed().as_secs_f64());
    let stream = 1000 * (index + 1);
    if spec.kind != Kind::RwMixed {
        closed_loop(spec, &svc, seed, stream, Instant::now() + spec.warmup);
        *warm_rss = peak_rss_mib();
        let load = closed_loop(spec, &svc, seed, stream + 100, Instant::now() + window);
        return Ok((svc, load, None));
    }
    let mut mirror = Mirror::new(graph);
    let mut wrng = rng(seed, stream + 3);
    let (load, w) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            write_loop(
                spec,
                &svc,
                &mut mirror,
                &mut wrng,
                Instant::now() + spec.warmup + window,
                |b| svc.apply_updates(b).map(drop),
                || svc.patch_index().map(drop),
            )
        });
        closed_loop(spec, &svc, seed, stream, Instant::now() + spec.warmup);
        *warm_rss = peak_rss_mib();
        let load = closed_loop(spec, &svc, seed, stream + 100, Instant::now() + window);
        (load, writer.join().unwrap_or_default())
    });
    writes.publish_ms.extend(w.publish_ms);
    writes.patch_index_ms.extend(w.patch_index_ms);
    writes.late_ms.extend(w.late_ms);
    writes.compactions += w.compactions;
    writes.failed += w.failed;
    svc.patch_index()?;
    Ok((svc, load, Some(mirror)))
}

/// The measured run: [`SEGMENTS`] timed builds, each followed by a
/// warm-up and an equal share of the load window, then oracle
/// verification against the last segment's service.
pub fn run_measured(
    spec: &Spec,
    graph: CsrGraph,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, TpaError> {
    let mut out = Outcome::default();
    out.notes.push(spec.describe(&graph));
    let mut setup = Vec::new();
    let mut writes = Writes::default();
    let mut windows = Vec::new();
    let (mut requests, mut seeds, mut failed) = (0u64, 0u64, 0u64);
    let share = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut last = None;
    // Peak RSS once the first service is built and warm: graph load,
    // preprocessing, and the clients' steady per-request memory. Later
    // in the run the allocator's reuse across client threads varies from
    // run to run (198 vs 234 MiB on online_topk), so the end-of-run peak
    // would measure glibc, not the program.
    let mut peak_rss = 0.0;
    for index in 0..SEGMENTS as u64 {
        drop(last.take());
        let mut warm_rss = 0.0;
        let (svc, load, mirror) =
            segment(spec, &graph, seed, index, share, &mut setup, &mut writes, &mut warm_rss)?;
        if index == 0 {
            peak_rss = warm_rss;
        }
        requests += load.samples.len() as u64;
        seeds += load.samples.iter().map(|s| s.2).sum::<u64>();
        failed += load.failed;
        windows.extend(load.windows());
        last = Some((svc, mirror));
    }
    let (svc, mirror) = last.ok_or(TpaError::Internal("no segment ran"))?;
    while setup.iter().sum::<f64>() < SETUP_TIME.as_secs_f64() && setup.len() < 100 {
        let g = graph.clone();
        let t = Instant::now();
        drop(build(spec, g)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let truth = mirror.map_or(graph, |m| m.csr());
    let verdict = verify(spec, &svc, &truth, &verify_seeds(spec, seed, truth.n()));

    out.attempted = requests + verdict.checked;
    out.failed = failed + verdict.failed;
    let per_window =
        |stat: &dyn Fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(stat).collect() };
    let p50s = per_window(&|w| quantile(&w.latencies_ms, 0.5));
    let m = &mut out.metrics;
    m.push("setup_s", median(&setup), "s");
    m.push("latency_p50_ms", median(&p50s), "ms");
    m.push("throughput_seeds_per_s", median(&per_window(&|w| w.seeds as f64 / w.secs)), "1/s");
    m.push("l1_error", mean(&verdict.l1), "L1");
    m.push("recall_at_20", mean(&verdict.recall), "ratio");
    m.push("peak_rss_mb", peak_rss, "MiB");
    out.notes.push(format!(
        "requests {requests} ({seeds} seeds) = latency samples, {} windows in {SEGMENTS} \
         segments, {} builds; failed requests {failed}, oracle checks {} ({} failed), \
         error_ratio {:.6}",
        windows.len(),
        setup.len(),
        verdict.checked,
        verdict.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    // Tails are printed, not reported: on a shared 2-vCPU host their
    // run-to-run spread (0.15-0.38) exceeds any bound a regression
    // check could use. p90 is the median over windows; p99 is taken
    // over the whole run, where at least ten samples lie beyond it.
    let all: Vec<f64> = windows.iter().flat_map(|w| w.latencies_ms.iter().copied()).collect();
    out.notes.push(format!(
        "latency_p90_ms {:.4} (median of windows), latency_p99_ms {:.4} ({} samples)",
        median(&per_window(&|w| quantile(&w.latencies_ms, 0.9))),
        quantile(&all, 0.99),
        all.len(),
    ));
    let p50s: Vec<String> = p50s.iter().map(|v| format!("{v:.3}")).collect();
    out.notes.push(format!("per-window latency p50 (ms): {}", p50s.join(" ")));
    if spec.kind == Kind::RwMixed {
        let w = writes;
        out.attempted += w.publish_ms.len() as u64;
        out.failed += w.failed;
        out.notes.push(format!(
            "writer: {} publishes, publish_p50_ms {:.4}, publish_p99_ms {:.4}, patch_index p50 \
             {:.3} ms ({} calls), late p50/max {:.3}/{:.3} ms, compactions completed {}",
            w.publish_ms.len(),
            quantile(&w.publish_ms, 0.5),
            quantile(&w.publish_ms, 0.99),
            median(&w.patch_index_ms),
            w.patch_index_ms.len(),
            median(&w.late_ms),
            quantile(&w.late_ms, 1.0),
            w.compactions,
        ));
        if w.compactions < MIN_COMPACTIONS {
            out.fail(format!("only {} background compactions completed", w.compactions));
        }
    }
    Ok(out)
}
