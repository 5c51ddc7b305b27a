//! Direction-optimizing sparse-frontier propagation.
//!
//! A single-seed CPI run starts with `x(0)` supported on one node; after
//! `i` iterations the interim vector is nonzero only on the seed's
//! `i`-hop out-neighborhood. The dense gather kernels still sweep every
//! destination row each iteration, so on a billion-scale power-law graph
//! the first few iterations waste almost all of their memory traffic on
//! rows that gather exactly `0.0`. This module tracks the **active
//! frontier** — the support of `x(i)` — and pushes mass only along the
//! frontier's own out-edges:
//!
//! 1. **Scatter** (forward push): for each source `u` of the ascending
//!    frontier, add `x[u]·inv[u]` into `y[v]` for every out-neighbor
//!    `v`, recording each newly touched `v` (a marked list, cleared in
//!    `O(touched)`). The step costs exactly the frontier's out-edges,
//!    which is what [`FrontierWork::frontier_edges`] predicts, however
//!    long the touched nodes' in-rows are.
//! 2. **Scale** the sorted touched entries by `coeff`.
//! 3. **Fold** the convergence residual `‖x(i+1)‖₁` and the next
//!    frontier over the touched set, so the sparse path never touches
//!    the other `n − |touched|` entries at all.
//!
//! **Why push is bitwise identical to the dense kernels.** A dense
//! kernel computes `y[v] = coeff · (((0 + t₁) + t₂) + …)` over `v`'s
//! CSC in-row, which is ascending by source, with `tₖ = x[u]·inv[u]`.
//! The scatter visits sources in ascending order, so every destination
//! receives the same terms in the same order; a parallel edge repeats
//! its term back to back in both. The only terms push omits come from
//! sources outside the frontier, where `x[u] == 0.0`: each is an exact
//! `+ 0.0`, the identity on an accumulator that started at `+0.0`.
//! `coeff` is still applied last. Scores, residuals and iteration counts
//! therefore match bit for bit on every backend, which is what lets
//! [`FrontierPolicy`] be invisible.
//!
//! **Direction switching** (after Beamer's push/pull BFS): push wins
//! while the frontier is small and loses once it saturates — power-law
//! graphs reach most of the graph within a few hops, and a scattered add
//! costs more per edge than the dense kernel's streaming gather.
//! [`FrontierPolicy::Auto`] therefore pushes while the frontier's
//! out-edge count stays under `m / `[`DENSE_SWITCH_DIVISOR`] and the
//! cumulative sparse edge work stays under
//! [`SPARSE_CUMULATIVE_BUDGET`]` · m`, and latches to the dense kernels
//! for the rest of the run (frontiers only grow under propagation, so
//! the switch is one-way). `auto_keeps_sparse` is that rule, shared by
//! every sweep that can run sparse.

use tpa_graph::{CsrGraph, DynamicGraph, NodeId};

/// How CPI schedules its per-iteration propagation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontierPolicy {
    /// Beamer-style direction optimization: sparse while the frontier is
    /// small, latching to dense once it saturates (the default).
    #[default]
    Auto,
    /// Always the dense kernels (the pre-frontier behavior).
    Dense,
    /// Always the sparse-frontier kernel, however large the frontier
    /// grows (diagnostics / benchmarking; `Auto` is faster in general).
    Sparse,
}

impl FrontierPolicy {
    /// Stable lowercase name (CLI flag value / bench label).
    pub fn name(&self) -> &'static str {
        match self {
            FrontierPolicy::Auto => "auto",
            FrontierPolicy::Dense => "dense",
            FrontierPolicy::Sparse => "sparse",
        }
    }

    /// Parses a [`FrontierPolicy::name`] string.
    pub fn parse(s: &str) -> Option<FrontierPolicy> {
        match s {
            "auto" => Some(FrontierPolicy::Auto),
            "dense" => Some(FrontierPolicy::Dense),
            "sparse" => Some(FrontierPolicy::Sparse),
            _ => None,
        }
    }
}

/// `Auto` switches to dense when the frontier's out-edges reach
/// `m / DENSE_SWITCH_DIVISOR`. A push step costs one scattered add per
/// frontier out-edge plus a sort of the touched set; a dense step
/// streams all `m` in-edges at roughly half the per-edge cost. Measured
/// on the `online_topk` benchmark workload (LFR-lite, n = 400k, m = 6M,
/// 2 vCPUs, two traced runs per divisor), the family sweep took
/// 47.0–49.7, 30.8–32.9, 30.6–31.1 and 31.5–32.7 ms per query at
/// divisors 8, 4, 2 and 1, against 91.0–95.2 ms for the earlier pull
/// gather.
pub const DENSE_SWITCH_DIVISOR: usize = 2;

/// `Auto` also latches dense once *cumulative* sparse edge work crosses
/// this fraction of `m`: a full sweep's worth of sparse work means the
/// frontier has effectively saturated and the per-step overheads are
/// pure loss from here on.
pub const SPARSE_CUMULATIVE_BUDGET: f64 = 1.0;

/// Frontier cost probe: what a sparse step would have to touch.
/// Returned by [`crate::Propagator::frontier_work`]; `None` from a
/// backend means it has no sparse path and `Auto` should stay dense.
#[derive(Clone, Copy, Debug)]
pub struct FrontierWork {
    /// Σ out-degree over the active frontier: exactly the edges a push
    /// step scans.
    pub frontier_edges: usize,
    /// Total edge count `m` (the dense sweep's work).
    pub total_edges: usize,
}

impl FrontierWork {
    /// True when the frontier is small enough for [`FrontierPolicy::Auto`]
    /// to push it (under `m / DENSE_SWITCH_DIVISOR` out-edges).
    pub fn prefers_sparse(&self) -> bool {
        self.frontier_edges < self.total_edges / DENSE_SWITCH_DIVISOR
    }
}

/// The [`FrontierPolicy::Auto`] rule for the next iteration of a sweep
/// that is still sparse: push again only if the backend has a sparse
/// path (`work` is its [`crate::Propagator::frontier_work`] probe), the
/// frontier [prefers sparse](FrontierWork::prefers_sparse), and the
/// sweep's `cumulative_work` so far stays under
/// `SPARSE_CUMULATIVE_BUDGET · m`. The CPI sweep and the offset
/// propagation behind index patches and score-cache refreshes both
/// decide through it.
pub(crate) fn auto_keeps_sparse(work: Option<FrontierWork>, cumulative_work: usize) -> bool {
    work.is_some_and(|w| {
        w.prefers_sparse()
            && (cumulative_work as f64) < SPARSE_CUMULATIVE_BUDGET * w.total_edges as f64
    })
}

/// What one [`crate::Propagator::propagate_frontier`] call did.
#[derive(Clone, Copy, Debug)]
pub struct FrontierStep {
    /// `‖y‖₁` in the blocked-canonical association — bitwise equal to a
    /// dense `propagate_into_norm` of the same step (skipped entries are
    /// exact zeros).
    pub residual: f64,
    /// Edges the push scanned (Σ out-degree over the frontier); 0 when
    /// the step ran the dense kernel.
    pub edge_work: usize,
    /// True if the step ran the dense kernel instead: only backends
    /// without a native sparse path do. `Auto` latches dense on it.
    pub went_dense: bool,
}

/// Reusable workspace for sparse-frontier steps: the touched bitmap and
/// list for the scatter, plus the next-frontier output. One allocation
/// per CPI run, `O(n)` bytes.
pub struct FrontierScratch {
    mark: Vec<bool>,
    touched: Vec<NodeId>,
    next_active: Vec<NodeId>,
}

impl std::fmt::Debug for FrontierScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontierScratch").field("n", &self.mark.len()).finish_non_exhaustive()
    }
}

impl FrontierScratch {
    /// Workspace for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        Self { mark: vec![false; n], touched: Vec::new(), next_active: Vec::new() }
    }

    /// The frontier the last step produced: ascending nodes with
    /// `y != 0.0`.
    pub fn next_active(&self) -> &[NodeId] {
        &self.next_active
    }

    /// Mutable access for callers that rotate the frontier buffers
    /// between iterations (see [`crate::cpi`]).
    pub fn next_active_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.next_active
    }
}

/// Monotone union of per-iteration supports. The sweep's `active` list
/// is the support of the *current* interim vector only — on DAG-ish
/// graphs the frontier moves on and earlier nodes drop out — so
/// observers that need "every node with a nonzero accumulated score"
/// (the bounded top-k checker) fold each iteration's support into this
/// set. `O(n)` bytes, `O(|support|)` per merge, membership list kept
/// unordered.
pub(crate) struct SupportUnion {
    mark: Vec<bool>,
    nodes: Vec<NodeId>,
}

impl SupportUnion {
    /// Empty union over an `n`-node graph.
    pub fn new(n: usize) -> Self {
        Self { mark: vec![false; n], nodes: Vec::new() }
    }

    /// Folds one iteration's support in.
    pub fn merge(&mut self, support: &[NodeId]) {
        for &v in support {
            let m = &mut self.mark[v as usize];
            if !*m {
                *m = true;
                self.nodes.push(v);
            }
        }
    }

    /// Every node seen in any merged support, in merge order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of distinct nodes seen so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `v` has appeared in any merged support.
    pub fn contains(&self, v: NodeId) -> bool {
        self.mark[v as usize]
    }
}

/// Out-adjacency access for the push scatter: implemented by
/// [`CsrGraph`] (plain CSR rows), [`DynamicGraph`] (merged overlay view)
/// and the patched snapshot's row view, so all backends share one
/// sparse step. It must mirror the in-rows the dense kernels gather:
/// `v` appears in `u`'s out-row exactly as often as `u` in `v`'s in-row.
pub(crate) trait OutAdjacency {
    /// Out-degree of `u` (the push-cost predictor).
    fn out_deg(&self, u: NodeId) -> usize;
    /// Visits every out-neighbor of `u`.
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, f: F);
}

impl OutAdjacency for CsrGraph {
    #[inline]
    fn out_deg(&self, u: NodeId) -> usize {
        self.out_degree(u)
    }
    #[inline]
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        for &v in self.out_neighbors(u) {
            f(v);
        }
    }
}

impl OutAdjacency for DynamicGraph {
    #[inline]
    fn out_deg(&self, u: NodeId) -> usize {
        self.out_degree(u)
    }
    #[inline]
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        for v in self.out_neighbors(u) {
            f(v);
        }
    }
}

/// Σ out-degree over the frontier — the cheap `O(|F|)` work predictor
/// behind [`crate::Propagator::frontier_work`].
pub(crate) fn frontier_out_edges<O: OutAdjacency + ?Sized>(out: &O, active: &[NodeId]) -> usize {
    active.iter().map(|&u| out.out_deg(u)).sum()
}

/// Post-scale fold over the ascending touched set: accumulates `‖y‖₁`
/// and collects the next frontier (`y != 0.0`). Entries are grouped by
/// their `NORM_BLOCK`, matching the blocked-canonical association of the
/// dense kernels' fused residual (see [`crate::tiling`]): blocks without
/// touched entries contribute an exact `+0.0` partial (elided), and
/// within a block the skipped terms are exact zeros — so the residual is
/// bitwise equal to a dense `propagate_into_norm` of the same step.
fn fold_touched(y: &[f64], touched: &[NodeId], next_active: &mut Vec<NodeId>) -> f64 {
    use crate::tiling::NORM_BLOCK;
    next_active.clear();
    let mut residual = 0.0f64;
    for block in touched.chunk_by(|&a, &b| a as usize / NORM_BLOCK == b as usize / NORM_BLOCK) {
        let mut part = 0.0f64;
        for &v in block {
            let yv = y[v as usize];
            if yv != 0.0 {
                part += yv.abs();
                next_active.push(v);
            }
        }
        residual += part;
    }
    residual
}

/// The sparse-frontier step every native backend runs: a forward push
/// over `out` (see the module docs for why it is bitwise identical to
/// the dense kernels). Its edge work is exactly
/// [`frontier_out_edges`]`(out, active)`.
///
/// Contract (same for every implementor of
/// [`crate::Propagator::propagate_frontier`]): `active` is ascending and
/// covers the support of `x`, every entry of `y` is `+0.0` on entry, and
/// `inv` is non-negative.
pub(crate) fn sparse_step<O: OutAdjacency + ?Sized>(
    out: &O,
    inv: &[f64],
    coeff: f64,
    x: &[f64],
    y: &mut [f64],
    active: &[NodeId],
    scratch: &mut FrontierScratch,
) -> FrontierStep {
    let FrontierScratch { mark, touched, next_active } = scratch;
    touched.clear();
    let mut edge_work = 0usize;
    for &u in active {
        let term = x[u as usize] * inv[u as usize];
        out.for_each_out(u, |v| {
            edge_work += 1;
            let m = &mut mark[v as usize];
            if !*m {
                *m = true;
                touched.push(v);
            }
            y[v as usize] += term;
        });
    }
    touched.sort_unstable();
    for &v in touched.iter() {
        mark[v as usize] = false;
        y[v as usize] *= coeff;
    }
    let residual = fold_touched(y, touched, next_active);
    FrontierStep { residual, edge_work, went_dense: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::gather_flat;
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        lfr_lite(LfrConfig { n: 300, m: 2700, ..Default::default() }, &mut rng).graph
    }

    /// Three 10-way fans plus a long filler chain that inflates `m`
    /// without being reachable from the fan roots.
    fn fan_edges() -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (root, base) in [(0u32, 10u32), (1, 100), (2, 200)] {
            for k in 0..10 {
                edges.push((root, base + k));
            }
        }
        edges.extend((400..1199u32).map(|v| (v, v + 1)));
        edges
    }

    fn fan_graph() -> CsrGraph {
        CsrGraph::from_edges(1200, &fan_edges())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs one push step and asserts it equals the dense flat kernel
    /// bit for bit: output, residual, next frontier and edge work.
    fn assert_step_matches_dense(
        g: &CsrGraph,
        x: &[f64],
        active: &[NodeId],
        scratch: &mut FrontierScratch,
    ) -> Vec<f64> {
        let inv = g.inv_out_degrees();
        let n = g.n();
        let mut dense = vec![0.0f64; n];
        let dense_res = gather_flat(g, &inv, 0.85, x, &mut dense, 0..n as NodeId);
        let mut sparse = vec![0.0f64; n];
        let step = sparse_step(g, &inv, 0.85, x, &mut sparse, active, scratch);
        assert_eq!(bits(&sparse), bits(&dense));
        assert_eq!(step.residual.to_bits(), dense_res.to_bits());
        assert!(!step.went_dense);
        assert_eq!(step.edge_work, frontier_out_edges(g, active));
        // The reported frontier is exactly the support of the output.
        let support: Vec<NodeId> = (0..n as NodeId).filter(|&v| dense[v as usize] != 0.0).collect();
        assert_eq!(scratch.next_active(), &support[..]);
        sparse
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in [FrontierPolicy::Auto, FrontierPolicy::Dense, FrontierPolicy::Sparse] {
            assert_eq!(FrontierPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(FrontierPolicy::parse("frog"), None);
        assert_eq!(FrontierPolicy::default(), FrontierPolicy::Auto);
    }

    #[test]
    fn sparse_step_matches_dense_bitwise() {
        let g = fan_graph();
        // A sparse input supported on the three fan roots.
        let active: Vec<NodeId> = vec![0, 1, 2];
        let mut x = vec![0.0f64; g.n()];
        for (k, &u) in active.iter().enumerate() {
            x[u as usize] = 0.05 * (k + 1) as f64;
        }
        let mut scratch = FrontierScratch::new(g.n());
        assert_step_matches_dense(&g, &x, &active, &mut scratch);
    }

    #[test]
    fn push_step_stays_sparse_through_a_hub() {
        // Node 3 collects an in-edge from fan root 0 and from every
        // chain node, so its in-row alone exceeds m/8. Reaching it must
        // cost only the frontier's out-edges, not that in-row.
        let mut edges = fan_edges();
        edges.push((0, 3));
        edges.extend((400..1199u32).map(|v| (v, 3)));
        let g = CsrGraph::from_edges(1200, &edges);
        assert!(g.in_degree(3) > g.m() / 8);
        // Four frontier sources feed the hub, with values whose sum
        // rounds differently in descending order: only the dense
        // kernel's ascending-source order matches it bit for bit.
        let active: Vec<NodeId> = vec![0, 1, 500, 600, 700];
        let mut x = vec![0.0f64; g.n()];
        for (&u, xu) in active.iter().zip([0.013, 0.5, 0.29, 0.61, 0.97]) {
            x[u as usize] = xu;
        }
        let mut scratch = FrontierScratch::new(g.n());
        let y = assert_step_matches_dense(&g, &x, &active, &mut scratch);
        assert!(y[3] != 0.0, "the hub must be reached");
        // A second step through the same scratch re-touches the hub (its
        // self-loop and chain node 501 both point at it), which only
        // comes out right if the first step cleared its marks.
        let next = scratch.next_active().to_vec();
        assert!(next.contains(&3) && next.contains(&501));
        assert_step_matches_dense(&g, &y, &next, &mut scratch);
    }

    #[test]
    fn empty_frontier_propagates_to_nothing() {
        let g = test_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let x = vec![0.0f64; n];
        let mut y = vec![0.0f64; n];
        let mut scratch = FrontierScratch::new(n);
        let step = sparse_step(&g, &inv, 0.85, &x, &mut y, &[], &mut scratch);
        assert_eq!(step.residual, 0.0);
        assert_eq!(step.edge_work, 0);
        assert!(scratch.next_active().is_empty());
    }

    #[test]
    fn switch_heuristic_prefers_sparse_only_for_small_frontiers() {
        let m = 1000;
        let cut = m / DENSE_SWITCH_DIVISOR;
        let work = |frontier_edges| FrontierWork { frontier_edges, total_edges: m };
        assert!(work(10).prefers_sparse());
        assert!(work(cut - 1).prefers_sparse());
        assert!(!work(cut).prefers_sparse());
        assert!(!work(m).prefers_sparse());
        // The shared Auto rule adds the cumulative budget and needs a
        // sparse path at all.
        assert!(auto_keeps_sparse(Some(work(10)), 0));
        assert!(!auto_keeps_sparse(Some(work(10)), m));
        assert!(!auto_keeps_sparse(Some(work(cut)), 0));
        assert!(!auto_keeps_sparse(None, 0));
    }
}
