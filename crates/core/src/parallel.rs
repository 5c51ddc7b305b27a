//! Multi-threaded propagation backend.
//!
//! The gather kernel is embarrassingly parallel over *destination* nodes:
//! each thread owns a contiguous slice of `y` and reads shared `x`, so the
//! result is bit-identical to the sequential kernel (no atomics, no
//! reduction reordering). Thread ranges are balanced by in-edge count, not
//! node count, because power-law graphs concentrate edges on few nodes.
//! Within its range each worker runs the same flat-or-strip-mined kernels
//! as the sequential backend (see [`crate::tiling`]), so cache blocking
//! and parallelism compose.

use crate::batch::ScoreBlock;
use crate::frontier::{self, FrontierScratch, FrontierStep, FrontierWork};
use crate::tiling::{self, TilePolicy};
use crate::transition::GraphHandle;
use crate::Propagator;
use std::sync::Arc;
use tpa_graph::{CsrGraph, NodeId};

/// Parallel version of [`crate::Transition`].
pub struct ParallelTransition<'g> {
    graph: GraphHandle<'g>,
    inv_out_deg: Vec<f64>,
    /// Destination ranges, one per worker, balanced by in-edge count.
    ranges: Vec<(u32, u32)>,
    tile: TilePolicy,
    /// Memoized sampled `Auto` tile decisions (the graph is immutable
    /// for this backend's lifetime).
    strips: tiling::StripCache,
}

impl std::fmt::Debug for ParallelTransition<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelTransition")
            .field("threads", &self.ranges.len())
            .finish_non_exhaustive()
    }
}

impl<'g> ParallelTransition<'g> {
    /// Binds the operator with `threads` workers. The worker count is
    /// clamped to `[1, n]` — a range per worker is only useful while
    /// there are nodes to hand out — and every range is non-empty by
    /// construction (see [`crate::tiling`]'s range balancing).
    pub fn new(graph: &'g CsrGraph, threads: usize) -> Self {
        Self::from_handle(GraphHandle::Borrowed(graph), threads)
    }

    /// Binds the operator to a shared-ownership graph (used by reordered
    /// engines, which own the permuted graph they serve).
    pub fn shared(graph: Arc<CsrGraph>, threads: usize) -> ParallelTransition<'static> {
        ParallelTransition::from_handle(GraphHandle::Shared(graph), threads)
    }

    fn from_handle(graph: GraphHandle<'_>, threads: usize) -> ParallelTransition<'_> {
        let g = graph.get();
        let ranges = tiling::balance_ranges(g.in_offsets(), threads);
        let inv_out_deg = g.inv_out_degrees();
        ParallelTransition {
            graph,
            inv_out_deg,
            ranges,
            tile: TilePolicy::Auto,
            strips: tiling::StripCache::new(),
        }
    }

    /// Default worker count: available parallelism.
    pub fn with_default_threads(graph: &'g CsrGraph) -> Self {
        let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        Self::new(graph, threads)
    }

    /// Overrides the cache-blocking policy (default: the
    /// [`TilePolicy::Auto`] cost model). Any policy stays bit-identical.
    pub fn with_tile_policy(mut self, tile: TilePolicy) -> Self {
        self.tile = tile;
        self
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        self.graph.get()
    }

    /// Number of worker ranges.
    pub fn threads(&self) -> usize {
        self.ranges.len()
    }

    #[cfg(test)]
    pub(crate) fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }
}

impl Propagator for ParallelTransition<'_> {
    fn n(&self) -> usize {
        self.graph.get().n()
    }

    fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]) {
        let g = self.graph.get();
        let n = g.n();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let strip = self.strips.resolve(self.tile, g, n, g.m(), 1);
        if self.ranges.len() == 1 {
            // Sequential fast path.
            tiling::gather_range(g, &self.inv_out_deg, coeff, x, y, 0..n as NodeId, strip);
            return;
        }
        let inv = &self.inv_out_deg;
        tiling::par_ranges(&self.ranges, 1, y, |slice, start, end| {
            tiling::gather_range(g, inv, coeff, x, slice, start..end, strip);
        });
    }

    /// Fused-residual step with the `O(n)` fold parallelized: each
    /// worker propagates its block-aligned band and folds its own
    /// per-`NORM_BLOCK` partials over the just-written (cache-warm)
    /// slice; the calling thread folds the partials ascending. That
    /// two-level chain is the blocked-canonical association every
    /// backend's residual uses, so the result is bitwise identical to
    /// the sequential backends and every backend makes the same
    /// convergence decision. Graphs too small for block-aligned ranges
    /// propagate and pay one sequential blocked scan instead.
    fn propagate_into_norm(&self, coeff: f64, x: &[f64], y: &mut [f64]) -> f64 {
        let g = self.graph.get();
        let n = g.n();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let strip = self.strips.resolve(self.tile, g, n, g.m(), 1);
        if self.ranges.len() == 1 {
            return tiling::gather_range(g, &self.inv_out_deg, coeff, x, y, 0..n as NodeId, strip);
        }
        let inv = &self.inv_out_deg;
        if tiling::ranges_block_aligned(&self.ranges) {
            return tiling::par_ranges_norm(&self.ranges, y, |slice, start, end| {
                tiling::gather_range(g, inv, coeff, x, slice, start..end, strip);
            });
        }
        self.propagate_into(coeff, x, y);
        tiling::blocked_norm(y)
    }

    fn frontier_work(&self, active: &[NodeId]) -> Option<FrontierWork> {
        let g = self.graph.get();
        Some(FrontierWork {
            frontier_edges: frontier::frontier_out_edges(g, active),
            total_edges: g.m(),
        })
    }

    /// Sparse-frontier step: the same sequential push as
    /// [`crate::Transition`], on the calling thread. `Auto` only pushes
    /// frontiers under `m / DENSE_SWITCH_DIVISOR` out-edges; the dense
    /// kernels keep the worker ranges.
    fn propagate_frontier(
        &self,
        coeff: f64,
        x: &[f64],
        y: &mut [f64],
        active: &[NodeId],
        scratch: &mut FrontierScratch,
    ) -> FrontierStep {
        let g = self.graph.get();
        let n = g.n();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        frontier::sparse_step(g, &self.inv_out_deg, coeff, x, y, active, scratch)
    }

    /// Fused parallel block kernel: each worker owns a contiguous band of
    /// destination *rows* (`lanes` floats per node), so the split is the
    /// same disjoint-write scheme as the scalar path — bit-identical to
    /// the sequential block kernel, no atomics.
    fn propagate_block_into(&self, coeff: f64, x: &ScoreBlock, y: &mut ScoreBlock) {
        let g = self.graph.get();
        let n = g.n();
        assert_eq!(x.n(), n, "input block height mismatch");
        assert_eq!(y.n(), n, "output block height mismatch");
        assert_eq!(x.lanes(), y.lanes(), "lane count mismatch");
        let lanes = x.lanes();
        let strip = self.strips.resolve(self.tile, g, n, g.m(), lanes);
        if self.ranges.len() == 1 {
            tiling::block_gather_range(
                g,
                &self.inv_out_deg,
                coeff,
                x,
                y.data_mut(),
                0..n as NodeId,
                strip,
            );
            return;
        }
        let inv = &self.inv_out_deg;
        tiling::par_ranges(&self.ranges, lanes, y.data_mut(), |slice, start, end| {
            tiling::block_gather_range(g, inv, coeff, x, slice, start..end, strip)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cpi, CpiConfig, SeedSet, Transition};
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(83);
        lfr_lite(LfrConfig { n: 500, m: 4000, ..Default::default() }, &mut rng).graph
    }

    #[test]
    fn matches_sequential_bitwise() {
        let g = test_graph();
        let seq = Transition::new(&g);
        for threads in [1usize, 2, 3, 8] {
            let par = ParallelTransition::new(&g, threads);
            let x: Vec<f64> = (0..g.n()).map(|i| (i % 13) as f64 / 13.0).collect();
            let mut y_seq = vec![0.0; g.n()];
            let mut y_par = vec![0.0; g.n()];
            seq.propagate_into(0.85, &x, &mut y_seq);
            par.propagate_into(0.85, &x, &mut y_par);
            assert_eq!(y_seq, y_par, "threads = {threads}");
        }
    }

    #[test]
    fn strip_mining_is_bitwise_invisible_across_threads() {
        let g = test_graph();
        let flat = ParallelTransition::new(&g, 3).with_tile_policy(TilePolicy::Flat);
        let strip = ParallelTransition::new(&g, 3).with_tile_policy(TilePolicy::Strip(37));
        let x: Vec<f64> = (0..g.n()).map(|i| (i % 7) as f64 / 7.0).collect();
        let mut y_flat = vec![0.0; g.n()];
        let mut y_strip = vec![0.0; g.n()];
        flat.propagate_into(0.85, &x, &mut y_flat);
        strip.propagate_into(0.85, &x, &mut y_strip);
        assert_eq!(y_flat, y_strip);
    }

    #[test]
    fn cpi_identical_through_parallel_backend() {
        let g = test_graph();
        let seq = Transition::new(&g);
        let par = ParallelTransition::new(&g, 4);
        let cfg = CpiConfig::default();
        let a = cpi(&seq, &SeedSet::single(3), &cfg, 0, None).scores;
        let b = cpi(&par, &SeedSet::single(3), &cfg, 0, None).scores;
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_cover_all_nodes_disjointly() {
        let g = test_graph();
        for threads in [1usize, 2, 5, 16, 1000] {
            let par = ParallelTransition::new(&g, threads);
            let mut covered = 0u32;
            for &(start, end) in par.ranges() {
                assert_eq!(start, covered);
                covered = end;
            }
            assert_eq!(covered as usize, g.n());
        }
    }

    #[test]
    fn large_fan_out_stays_sparse_and_matches_dense_bitwise() {
        // A 3000-way fan-out from one seed: a touched set far larger
        // than small property graphs produce, pushed by a multi-range
        // backend.
        use crate::frontier::FrontierScratch;
        let n = 9001usize;
        // Fan-out 0 → 1..=3000 (the touched set) plus unreachable filler
        // among 3001..9000. The push costs the seed's 3000 out-edges
        // whatever the filler adds to m.
        let mut edges: Vec<(u32, u32)> = (1..=3000u32).map(|v| (0, v)).collect();
        for v in 3001..9000u32 {
            for k in 1..=9u32 {
                edges.push((v, 3001 + (v - 3001 + k * 997) % 6000));
            }
        }
        let g = CsrGraph::from_edges(n, &edges);
        let x = {
            let mut x = vec![0.0; n];
            x[0] = 1.0;
            x
        };
        let seq = Transition::new(&g);
        let mut dense = vec![0.0; n];
        seq.propagate_into(0.85, &x, &mut dense);
        for threads in [2usize, 4] {
            let par = ParallelTransition::new(&g, threads);
            let mut y = vec![0.0; n];
            let mut scratch = FrontierScratch::new(n);
            let step = par.propagate_frontier(0.85, &x, &mut y, &[0], &mut scratch);
            assert!(!step.went_dense, "fan-out frontier must stay sparse");
            assert_eq!(step.edge_work, 3000);
            assert_eq!(y, dense, "threads = {threads}");
            assert_eq!(scratch.next_active().len(), 3000);
        }
    }

    #[test]
    fn parallel_residual_fold_matches_sequential_bitwise() {
        // n spans several NORM_BLOCKs, so the parallel backend really
        // folds per-worker partials — and must still return the exact
        // bits of the sequential fused fold (and of a full CPI run's
        // convergence decisions).
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(97);
        let g = lfr_lite(LfrConfig { n: 10_000, m: 60_000, ..Default::default() }, &mut rng).graph;
        let seq = Transition::new(&g);
        let x: Vec<f64> = (0..g.n()).map(|i| (i % 17) as f64 / 17.0).collect();
        let mut y_seq = vec![0.0; g.n()];
        let norm_seq = seq.propagate_into_norm(0.85, &x, &mut y_seq);
        for threads in [2usize, 3] {
            let par = ParallelTransition::new(&g, threads);
            assert!(par.ranges().len() > 1, "threads = {threads}");
            let mut y_par = vec![0.0; g.n()];
            let norm_par = par.propagate_into_norm(0.85, &x, &mut y_par);
            assert_eq!(y_seq, y_par, "threads = {threads}");
            assert_eq!(norm_seq.to_bits(), norm_par.to_bits(), "threads = {threads}");
            let a = cpi(&seq, &SeedSet::single(5), &CpiConfig::default(), 0, None);
            let b = cpi(&par, &SeedSet::single(5), &CpiConfig::default(), 0, None);
            assert_eq!(a.scores, b.scores);
            assert_eq!(a.last_iteration, b.last_iteration);
            assert_eq!(a.final_residual.to_bits(), b.final_residual.to_bits());
        }
    }

    #[test]
    fn more_threads_than_nodes_is_fine() {
        let g = tpa_graph::gen::cycle_graph(3);
        let par = ParallelTransition::new(&g, 64);
        let x = vec![1.0 / 3.0; 3];
        let mut y = vec![0.0; 3];
        par.propagate_into(1.0, &x, &mut y);
        let total: f64 = y.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
