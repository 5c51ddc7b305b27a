//! The traced run: replays a seeded sample of the workload's requests
//! through the public layer calls behind `RwrService::submit`, with a
//! benchmark-side span around each call, and reports per-layer self
//! times and kernel-decision counts.
//!
//! Each sampled request is also submitted untraced, in alternating
//! order, so the run can check that the replay's answer is bitwise the
//! service's, that the stage sum accounts for the submit latency, and
//! how much the tracing itself costs.

use crate::probe::kernel_floor;
use crate::stats::{mean, median, quantile, Outcome};
use crate::workload::{
    bits, build, next_request, rng, write_loop, Kind, Mirror, Spec, Writes, COMPACT_THRESHOLD, K,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};
use tpa_core::engine::DEFAULT_LANE_TILE;
use tpa_core::{
    cpi_policy, kernel_profile, set_profiling_enabled, top_k_scored, EngineBackend, KernelProfile,
    Propagator, QueryRequest, QueryResponse, QueryResult, RwrService, SeedSet, ServiceBuilder,
    TpaError, TpaIndex, Transition,
};
use tpa_graph::{CsrGraph, DynamicGraph, NodeId};

/// Stage sum vs submit latency tolerance (the per-request ledger bar).
const STAGE_TOLERANCE: f64 = 0.10;
/// Requests in each auxiliary replay (layers the workload's own
/// requests do not reach).
const AUX_REQUESTS: usize = 16;
/// Writer period and length of the dynamic probe on static workloads.
const PROBE_PERIOD: Duration = Duration::from_millis(5);
const PROBE_TIME: Duration = Duration::from_millis(400);
/// Request ids of writer operations carry this bit, so they never
/// collide with reader request ids.
const WRITER_REQ: u64 = 1 << 63;

/// One timed call: which request it served, the span that caused it,
/// and when it ran (ns since the run's origin).
#[derive(Clone, Debug)]
struct Span {
    req: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, req: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span { req, parent, name, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a child span of `parent`.
    fn child<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(self.spans[parent].req, Some(parent), name);
        let out = f();
        self.close(id);
        out
    }

    fn dur_ms(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-6
    }

    /// Summed duration of `id`'s direct children.
    fn children_ms(&self, id: usize) -> f64 {
        self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .sum()
    }

    /// Appends another recorder's spans (parents re-based).
    fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time (duration minus direct children) of every span, in ms,
    /// grouped by layer name.
    fn self_ms(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            by_name.entry(s.name).or_default().push(own as f64 * 1e-6);
        }
        by_name
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {id}, \"req\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

fn profile_delta(after: KernelProfile, before: KernelProfile) -> KernelProfile {
    KernelProfile {
        cpi_runs: after.cpi_runs - before.cpi_runs,
        cpi_iterations: after.cpi_iterations - before.cpi_iterations,
        sparse_iterations: after.sparse_iterations - before.sparse_iterations,
        dense_iterations: after.dense_iterations - before.dense_iterations,
        auto_dense_switches: after.auto_dense_switches - before.auto_dense_switches,
        gather_bails: after.gather_bails - before.gather_bails,
        sparse_edge_work: after.sparse_edge_work - before.sparse_edge_work,
        dense_edge_work: after.dense_edge_work - before.dense_edge_work,
        offset_runs: after.offset_runs - before.offset_runs,
        offset_iterations: after.offset_iterations - before.offset_iterations,
        strip_resolutions: after.strip_resolutions - before.strip_resolutions,
        flat_resolutions: after.flat_resolutions - before.flat_resolutions,
        topk_runs: after.topk_runs - before.topk_runs,
        topk_bound_checks: after.topk_bound_checks - before.topk_bound_checks,
        topk_early_terminations: after.topk_early_terminations - before.topk_early_terminations,
        topk_pruned_nodes: after.topk_pruned_nodes - before.topk_pruned_nodes,
    }
}

/// One seed's top-K list.
type Ranking = Vec<(NodeId, f64)>;

fn ranked(resp: &QueryResponse) -> &[Ranking] {
    match &resp.result {
        QueryResult::Ranked(lists) => lists,
        QueryResult::Scores(_) => &[],
    }
}

/// Everything the replays accumulate.
#[derive(Default)]
struct Ledger {
    /// Main-loop pairs: untraced submit latency, traced root duration,
    /// and the traced stage sum, per request.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    stage_ms: Vec<f64>,
    /// Client latency minus `QueryResponse::elapsed`, per submit.
    outside_us: Vec<f64>,
    /// Single-seed family + finish time per replay.
    single_kernel_ms: Vec<f64>,
    /// Kernel decisions of the single-seed family sweeps that ran alone
    /// (no concurrent writer kernel flushed into the same counters).
    frontier: KernelProfile,
    /// Bounded top-k replays: summed guarantees and profile counts.
    topk_requests: u64,
    topk_early: u64,
    topk_saved: u64,
    topk_pruned: u64,
    topk_fallback: u64,
    topk_profile: KernelProfile,
    replays: u64,
    /// Replays whose untraced twin saw the same epoch.
    compared: u64,
    mismatched: u64,
    errors: u64,
}

impl Ledger {
    fn add_frontier(&mut self, d: KernelProfile) {
        if d.cpi_runs == 1 && d.offset_runs == 0 {
            let f = &mut self.frontier;
            f.cpi_runs += 1;
            f.cpi_iterations += d.cpi_iterations;
            f.sparse_iterations += d.sparse_iterations;
            f.dense_iterations += d.dense_iterations;
            f.gather_bails += d.gather_bails;
            f.sparse_edge_work += d.sparse_edge_work;
            f.dense_edge_work += d.dense_edge_work;
        }
    }

    /// Compares a replay against its untraced answer, when both saw the
    /// same epoch.
    fn compare(
        &mut self,
        untraced: &Result<QueryResponse, TpaError>,
        replay: &[Vec<(NodeId, f64)>],
        epoch: u64,
    ) {
        match untraced {
            Ok(resp) if resp.epoch == epoch => {
                self.compared += 1;
                let same = ranked(resp).len() == replay.len()
                    && ranked(resp).iter().zip(replay).all(|(a, b)| bits(a) == bits(b));
                self.mismatched += u64::from(!same);
            }
            Ok(_) => {}
            Err(_) => self.errors += 1,
        }
    }
}

/// Submits `req` untraced; records the outside-the-run time.
fn submit(
    svc: &RwrService,
    req: &QueryRequest,
    led: &mut Ledger,
) -> (Result<QueryResponse, TpaError>, f64) {
    let t = Instant::now();
    let resp = svc.submit(req);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Ok(r) = &resp {
        led.outside_us.push((ms - r.elapsed.as_secs_f64() * 1e3) * 1e3);
    }
    (resp, ms)
}

/// The layer calls behind one request, in spans under a root span.
/// Returns the replayed rankings, the root span, and the pinned epoch.
fn replay(
    tr: &mut Tracer,
    req_id: u64,
    svc: &RwrService,
    req: &QueryRequest,
    led: &mut Ledger,
) -> Result<(Vec<Ranking>, usize, u64), TpaError> {
    let root = tr.open(req_id, None, "request");
    let snap = tr.child(root, "service.pin", || svc.snapshot());
    let epoch = snap.epoch();
    let index = snap.index().ok_or(TpaError::Internal("workload service has no index"))?;
    let lists = if req.exact_bounds() {
        let before = kernel_profile();
        let resp = tr.child(root, "topk.run", || snap.run(req))?;
        let d = profile_delta(kernel_profile(), before);
        let g = resp.topk.unwrap_or_default();
        led.topk_requests += 1;
        led.topk_early += u64::from(g.early_terminated);
        led.topk_saved += g.iterations_saved as u64;
        led.topk_pruned += g.pruned_nodes as u64;
        led.topk_fallback += u64::from(g.fallback_dense);
        led.topk_profile.topk_runs += d.topk_runs;
        led.topk_profile.topk_bound_checks += d.topk_bound_checks;
        ranked(&resp).to_vec()
    } else if let [seed] = req.seeds()[..] {
        let before = kernel_profile();
        let t = Instant::now();
        let family = tr.child(root, "tpa.family", || {
            cpi_policy(
                snap.backend(),
                &SeedSet::single(seed),
                &index.params().cpi_config(),
                0,
                Some(index.params().s - 1),
                snap.frontier(),
            )
        });
        led.add_frontier(profile_delta(kernel_profile(), before));
        let scores = tr.child(root, "tpa.finish", || index.finish_family(family.scores));
        led.single_kernel_ms.push(t.elapsed().as_secs_f64() * 1e3);
        vec![tr.child(root, "engine.select", || top_k_scored(&scores, K))]
    } else {
        let mut lanes = Vec::with_capacity(req.seeds().len());
        for tile in req.seeds().chunks(DEFAULT_LANE_TILE) {
            lanes.extend(
                tr.child(root, "batch.tile", || index.query_batch_on(snap.backend(), tile)),
            );
        }
        lanes.iter().map(|s| tr.child(root, "engine.select", || top_k_scored(s, K))).collect()
    };
    drop(snap);
    tr.close(root);
    Ok((lists, root, epoch))
}

/// Replays requests from `next` until `until` (at least `min` of them),
/// each paired with an untraced submit in alternating order. With
/// `main`, the pairs feed the stage-sum and overhead figures.
#[allow(clippy::too_many_arguments)]
fn replay_loop(
    tr: &mut Tracer,
    svc: &RwrService,
    led: &mut Ledger,
    next: &mut dyn FnMut() -> QueryRequest,
    until: Instant,
    min: usize,
    max: usize,
    main: bool,
) {
    let mut i = 0;
    while i < max && (i < min || Instant::now() < until) {
        let req = next();
        let req_id = tr.spans.len() as u64;
        led.replays += 1;
        let (untraced, ms, replayed) = if i % 2 == 0 {
            let (u, ms) = submit(svc, &req, led);
            (u, ms, replay(tr, req_id, svc, &req, led))
        } else {
            let r = replay(tr, req_id, svc, &req, led);
            let (u, ms) = submit(svc, &req, led);
            (u, ms, r)
        };
        match replayed {
            Ok((lists, root, epoch)) => {
                led.compare(&untraced, &lists, epoch);
                if main {
                    led.untraced_ms.push(ms);
                    led.traced_ms.push(tr.dur_ms(root));
                    led.stage_ms.push(tr.children_ms(root));
                }
            }
            Err(_) => led.errors += 1,
        }
        i += 1;
    }
}

/// Writer-side tallies of the traced run.
#[derive(Default)]
struct WriterLedger {
    writes: Writes,
    offset_runs: u64,
    offset_iterations: u64,
    kernel_vs_static: f64,
}

/// Runs the open-loop writer against `svc` with spans around
/// `apply_updates` and `patch_index`, then times one propagation on the
/// final epoch's patched backend against its static base CSR.
fn traced_writer(
    spec: &Spec,
    svc: &RwrService,
    graph: &CsrGraph,
    seed: u64,
    period: Duration,
    until: Instant,
    origin: Instant,
) -> (Tracer, WriterLedger) {
    let tr = RefCell::new(Tracer::new(origin));
    let offsets = RefCell::new((0u64, 0u64));
    let mut mirror = Mirror::new(graph);
    let mut wrng = rng(seed, 3);
    let writes = write_loop(
        &Spec { write_period: period, ..*spec },
        svc,
        &mut mirror,
        &mut wrng,
        until,
        |batch| {
            let mut t = tr.borrow_mut();
            let req = WRITER_REQ | t.spans.len() as u64;
            let id = t.open(req, None, "patch.publish");
            let r = svc.apply_updates(batch);
            t.close(id);
            r.map(drop)
        },
        || {
            let before = kernel_profile();
            let mut t = tr.borrow_mut();
            let req = WRITER_REQ | t.spans.len() as u64;
            let id = t.open(req, None, "patch.patch_index");
            let r = svc.patch_index();
            t.close(id);
            let d = profile_delta(kernel_profile(), before);
            let mut o = offsets.borrow_mut();
            o.0 += d.offset_runs;
            o.1 += d.offset_iterations;
            r.map(drop)
        },
    );
    let (offset_runs, offset_iterations) = offsets.into_inner();
    let snap = svc.snapshot();
    let kernel_vs_static = match snap.backend() {
        EngineBackend::Patched(p) => {
            let base = Transition::shared(p.base().clone());
            let x = vec![1.0 / p.n() as f64; p.n()];
            let mut y = vec![0.0; p.n()];
            let patched_ns = time_median(|| p.propagate_into(0.85, &x, &mut y));
            let static_ns = time_median(|| base.propagate_into(0.85, &x, &mut y));
            patched_ns / static_ns
        }
        _ => f64::NAN,
    };
    (tr.into_inner(), WriterLedger { writes, offset_runs, offset_iterations, kernel_vs_static })
}

fn time_median(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn pick(rng: &mut StdRng, n: usize) -> NodeId {
    rng.gen_range(0..n as NodeId)
}

/// The traced run of `spec` over `graph`.
pub fn run_traced(
    spec: &Spec,
    graph: CsrGraph,
    seed: u64,
    seconds: f64,
    smoke: bool,
    spans_out: Option<&Path>,
) -> Result<Outcome, TpaError> {
    let mut out = Outcome::default();
    out.notes.push(spec.describe(&graph));
    set_profiling_enabled(true);
    let floor = kernel_floor(&graph, smoke);
    let t = Instant::now();
    let index = TpaIndex::preprocess_on(&Transition::new(&graph), spec.params());
    let preprocess_s = t.elapsed().as_secs_f64();
    let preprocess_iterations = index.stats().iterations;
    let svc = build(spec, graph.clone())?;
    let n = svc.n();

    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let mut led = Ledger::default();
    let mut r = rng(seed, 500);
    // Warm the service's caches before replaying.
    for _ in 0..4 {
        let _ = svc.submit(&next_request(spec, &mut r, n));
    }
    let window = Duration::from_secs_f64(seconds * 0.5);
    let main = |tr: &mut Tracer, led: &mut Ledger, r: &mut StdRng| {
        let mut next = || next_request(spec, r, n);
        replay_loop(tr, &svc, led, &mut next, Instant::now() + window, 4, usize::MAX, true);
    };
    let writer = if spec.kind == Kind::RwMixed {
        let until = Instant::now() + window;
        let (wtr, wl) = std::thread::scope(|scope| {
            let w = scope.spawn(|| {
                traced_writer(spec, &svc, &graph, seed, spec.write_period, until, origin)
            });
            main(&mut tr, &mut led, &mut r);
            w.join()
        })
        .map_err(|_| TpaError::Internal("writer thread panicked"))?;
        tr.merge(wtr);
        wl
    } else {
        main(&mut tr, &mut led, &mut r);
        // The writer layers, on a dynamic service over the same graph.
        let probe = ServiceBuilder::dynamic(
            DynamicGraph::new(graph.clone()).with_compact_threshold(Some(COMPACT_THRESHOLD)),
        )
        .index(index.clone())
        .build()?;
        let until = Instant::now() + if smoke { PROBE_TIME / 8 } else { PROBE_TIME };
        let (wtr, wl) = traced_writer(spec, &probe, &graph, seed, PROBE_PERIOD, until, origin);
        tr.merge(wtr);
        wl
    };

    // Layers the workload's own requests do not reach (`rw_mixed` sends
    // `online_topk`'s request).
    let own = if spec.kind == Kind::RwMixed { Kind::OnlineTopk } else { spec.kind };
    let aux = |k: Kind| k != own;
    let now = Instant::now();
    if aux(Kind::OnlineTopk) {
        let mut next = || QueryRequest::single(pick(&mut r, n)).top_k(K);
        replay_loop(&mut tr, &svc, &mut led, &mut next, now, AUX_REQUESTS, AUX_REQUESTS, false);
    }
    if aux(Kind::BatchScoring) {
        let seeds: Vec<NodeId> = (0..2 * DEFAULT_LANE_TILE).map(|_| pick(&mut r, n)).collect();
        let mut next = || QueryRequest::batch(seeds.clone()).top_k(K);
        replay_loop(&mut tr, &svc, &mut led, &mut next, now, 1, 1, false);
    }
    if aux(Kind::ExactTopk) {
        let mut next = || QueryRequest::single(pick(&mut r, n)).top_k(K).with_exact_bounds();
        replay_loop(&mut tr, &svc, &mut led, &mut next, now, AUX_REQUESTS, AUX_REQUESTS, false);
    }
    set_profiling_enabled(false);

    if let Some(path) = spans_out {
        if let Err(e) = tr.write(path) {
            out.fail(format!("could not write spans to {}: {e}", path.display()));
        }
    }
    let layers = tr.self_ms();
    let layer = |name: &str| median(layers.get(name).map_or(&[][..], |v| &v[..]));
    let stage_ratio = led.stage_ms.iter().sum::<f64>() / led.untraced_ms.iter().sum::<f64>();
    let overhead_pct =
        (led.traced_ms.iter().sum::<f64>() / led.untraced_ms.iter().sum::<f64>() - 1.0) * 100.0;
    let f = &led.frontier;
    let per_query = |x: u64| x as f64 / f.cpi_runs.max(1) as f64;
    let topk_n = led.topk_requests.max(1) as f64;
    let w = &writer.writes;

    let m = &mut out.metrics;
    m.push("service.pin_us", layer("service.pin") * 1e3, "us");
    m.push("service.outside_run_us", median(&led.outside_us), "us");
    m.push("tpa.preprocess_s", preprocess_s, "s");
    m.push("tpa.preprocess_iterations", preprocess_iterations as f64, "count");
    m.push("tpa.family_ms", layer("tpa.family"), "ms");
    m.push("tpa.finish_ms", layer("tpa.finish"), "ms");
    m.push("engine.select_ms", layer("engine.select"), "ms");
    m.push("cpi.iterations_per_query", per_query(f.cpi_iterations), "count");
    m.push(
        "frontier.sparse_iteration_share",
        f.sparse_iterations as f64 / (f.sparse_iterations + f.dense_iterations).max(1) as f64,
        "ratio",
    );
    m.push("frontier.sparse_edges_per_query", per_query(f.sparse_edge_work), "count");
    m.push("frontier.dense_edges_per_query", per_query(f.dense_edge_work), "count");
    m.push("frontier.gather_bails_per_query", per_query(f.gather_bails), "count");
    m.push("kernel.scalar_ns_per_edge", floor.scalar_ns_per_edge, "ns");
    m.push("kernel.parallel_ns_per_edge", floor.parallel_ns_per_edge, "ns");
    m.push("kernel.block8_ns_per_edge_lane", floor.block8_ns_per_edge_lane, "ns");
    m.push("kernel.stream_gbps", floor.stream_gbps, "GB/s");
    m.push("kernel.bandwidth_share", floor.bandwidth_share, "ratio");
    m.push("batch.tile_ms", layer("batch.tile"), "ms");
    m.push(
        "batch.per_seed_vs_single",
        layer("batch.tile") / DEFAULT_LANE_TILE as f64 / median(&led.single_kernel_ms),
        "ratio",
    );
    m.push("topk.run_ms", layer("topk.run"), "ms");
    m.push("topk.early_termination_ratio", led.topk_early as f64 / topk_n, "ratio");
    m.push("topk.iterations_saved_per_query", led.topk_saved as f64 / topk_n, "count");
    m.push("topk.pruned_nodes_per_query", led.topk_pruned as f64 / topk_n, "count");
    m.push(
        "topk.bound_checks_per_query",
        led.topk_profile.topk_bound_checks as f64 / led.topk_profile.topk_runs.max(1) as f64,
        "count",
    );
    m.push("topk.fallback_ratio", led.topk_fallback as f64 / topk_n, "ratio");
    m.push("patch.kernel_vs_static", writer.kernel_vs_static, "ratio");
    m.push("patch.publish_ms", median(&w.publish_ms), "ms");
    m.push("patch.patch_index_ms", median(&w.patch_index_ms), "ms");
    m.push("patch.compactions", w.compactions as f64, "count");
    m.push(
        "dynamic.offset_iterations",
        writer.offset_iterations as f64 / writer.offset_runs.max(1) as f64,
        "count",
    );
    m.push("writer.late_ms", quantile(&w.late_ms, 0.99), "ms");
    m.push("trace.stage_sum_ratio", stage_ratio, "ratio");
    m.push("trace.overhead_pct", overhead_pct, "%");

    out.attempted = led.replays + w.publish_ms.len() as u64;
    out.failed = led.mismatched + led.errors + w.failed;
    out.notes.push(format!(
        "replays {} (main {}), bitwise-compared on the same epoch {} ({} mismatched), errors {}, \
         spans {}",
        led.replays,
        led.untraced_ms.len(),
        led.compared,
        led.mismatched,
        led.errors,
        tr.spans.len(),
    ));
    out.notes.push(format!(
        "stage sum {:.3} ms vs submit {:.3} ms per request (ratio {stage_ratio:.4}); tracing \
         overhead {overhead_pct:+.2}% (traced {:.3} ms vs untraced {:.3} ms mean)",
        mean(&led.stage_ms),
        mean(&led.untraced_ms),
        mean(&led.traced_ms),
        mean(&led.untraced_ms),
    ));
    out.notes.push(format!(
        "kernel floor: stream {:.2} GB/s; scalar {:.3} ns/edge ({:.1} B/edge computed), parallel \
         {:.3} ns/edge, block8 {:.3} ns/edge-lane ({:.2} B/edge-lane computed)",
        floor.stream_gbps,
        floor.scalar_ns_per_edge,
        floor.scalar_bytes_per_edge,
        floor.parallel_ns_per_edge,
        floor.block8_ns_per_edge_lane,
        floor.block8_bytes_per_edge_lane,
    ));
    if (stage_ratio - 1.0).abs() > STAGE_TOLERANCE {
        out.fail(format!("stage sum is {stage_ratio:.3}x the submit latency"));
    }
    Ok(out)
}
