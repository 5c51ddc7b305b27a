//! Cache-blocked ("destination-tiled") gather kernels and the cost model
//! that decides when to use them.
//!
//! The CPI step `y ← coeff·Ãᵀ·x` gathers `x[u]` in in-neighbor order.
//! Once `x` outgrows the private L2 cache, those reads are the bound on
//! throughput: on a power-law graph with arbitrary labels nearly every
//! gather misses. The strip-mined kernels here sweep the CSR in
//! **source strips** — column blocks of `Ãᵀ` sized so one strip of `x`
//! stays L2-resident — and visit every destination row once per strip,
//! consuming only the row's neighbors that fall inside the strip (a
//! per-row cursor makes that resumption `O(1)` amortized). Each strip of
//! `x` is then reused across *all* destination rows before the next
//! strip is touched.
//!
//! **Bit-identity.** Per destination the additions still happen in
//! ascending in-neighbor order, folded left into one accumulator that
//! persists across strips, with the `coeff` multiply applied once at the
//! end — the exact floating-point chain of the flat kernel. Strip width
//! therefore cannot change results, and every backend stays bitwise
//! equal to every other no matter what each one picks.
//!
//! The cost model ([`resolve_strip`]) strips only when it can pay off:
//! the active slice of `x` (all lanes) must overflow what a last-level
//! cache can plausibly hold and the graph must have enough average
//! degree that each strip's resident entries are actually reused.
//! Everything else takes the flat kernel, whose inner loop is an
//! iterator fold over the row slice (no per-edge bounds check on the
//! row; degree-zero rows short-circuit). Structure alone cannot see the
//! *ordering*, which decides whether rows' neighbors concentrate into
//! few strips (strips shine) or spray across all of them (scheduling
//! overhead bites) — so `Auto` is deliberately conservative, and
//! [`crate::QueryEngine::with_tile_policy`] /
//! [`crate::Transition::with_tile_policy`] exist to force strips for
//! workloads known to be in their regime (score blocks beyond the LLC
//! on a strip-friendly ordering like hub-clustering; the `spmv_kernels`
//! bench measures the matrix).

use crate::batch::ScoreBlock;
use std::ops::Range;
use tpa_graph::{CsrGraph, NodeId};

/// Block size of the canonical residual fold. Every `‖y‖₁` the engine
/// computes — fused into a dense kernel, scanned after a parallel
/// propagation, or folded over a sparse frontier's touched set — uses
/// the same two-level association: the absolute values of each aligned
/// `NORM_BLOCK`-sized block are folded left in index order into a
/// per-block partial, and the partials are folded left in ascending
/// block order. Worker ranges that end on block boundaries can therefore
/// fold their partials locally and let the caller combine them — the
/// `O(n)` residual scan parallelizes — while staying **bitwise
/// identical** to the sequential backends (and, for `n ≤ NORM_BLOCK`,
/// to a plain index-order scan: `0.0 + partial` is exact).
pub(crate) const NORM_BLOCK: usize = 4096;

/// The canonical residual: two-level blocked fold of `Σ|y|` (see
/// [`NORM_BLOCK`]). Every backend's `propagate_into_norm` and every
/// sparse-path residual must match this chain bit for bit.
pub(crate) fn blocked_norm(y: &[f64]) -> f64 {
    y.chunks(NORM_BLOCK)
        .fold(0.0f64, |acc, chunk| acc + chunk.iter().fold(0.0f64, |a, v| a + v.abs()))
}

/// Fills `parts` with the per-block partials of a block-aligned local
/// slice (`parts[k]` = the `k`-th `NORM_BLOCK` chunk's index-order
/// `Σ|·|` fold). The inner level of the canonical association.
pub(crate) fn norm_parts(slice: &[f64], parts: &mut [f64]) {
    debug_assert_eq!(parts.len(), slice.len().div_ceil(NORM_BLOCK));
    for (part, chunk) in parts.iter_mut().zip(slice.chunks(NORM_BLOCK)) {
        *part = chunk.iter().fold(0.0f64, |a, v| a + v.abs());
    }
}

/// Ascending fold of per-block partials — the outer level of the
/// canonical association.
pub(crate) fn fold_norm_parts(parts: &[f64]) -> f64 {
    parts.iter().fold(0.0f64, |a, &p| a + p)
}

/// True when every interior range boundary is a [`NORM_BLOCK`] multiple
/// — the precondition for composing per-worker residual partials into
/// the canonical fold. [`balance_ranges`] guarantees this whenever the
/// graph has at least one block per worker.
pub(crate) fn ranges_block_aligned(ranges: &[(u32, u32)]) -> bool {
    let interior = ranges.len().saturating_sub(1);
    ranges.iter().take(interior).all(|&(_, end)| (end as usize).is_multiple_of(NORM_BLOCK))
}

/// How a propagation backend blocks its gather loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TilePolicy {
    /// Let the cost model pick per call (the default).
    #[default]
    Auto,
    /// Always the flat (un-tiled) kernel.
    Flat,
    /// Always strip-mine with the given `x`-strip width in *entries*
    /// (clamped to ≥ 1). One strip's working set is
    /// `width × lanes × 8` bytes.
    Strip(usize),
}

/// Per-strip footprint the model aims `x` slices at: half of a typical
/// 2 MiB private L2, leaving the other half for the streaming
/// row/cursor/output traffic.
pub const STRIP_TARGET_BYTES: usize = 1 << 20;

/// What the auto model assumes a last-level cache absorbs. Below this
/// the flat gather's working set effectively stays cached and blocking
/// only adds scheduling overhead (measured: tiling a 8 MB score vector
/// on a big-L3 part *lost* 40%); above it the strips are the only thing
/// keeping gathers out of DRAM.
pub const LLC_ASSUME_BYTES: usize = 32 << 20;

/// Auto model only strips graphs with at least this average degree —
/// below it each resident `x` entry is reused too rarely to repay the
/// extra sweep bookkeeping.
const MIN_AVG_DEGREE: usize = 8;

/// Resolves a policy for one propagation call: `None` = flat kernel,
/// `Some(width)` = strip-mined with that `x`-strip width.
///
/// This is the *structural* model (node/edge counts only). The backends
/// route through [`resolve_strip_sampled`], which replaces the blind
/// average-degree gate with a sampled strips-per-row statistic of the
/// actual adjacency — the ordering-aware version.
pub fn resolve_strip(policy: TilePolicy, n: usize, m: usize, lanes: usize) -> Option<usize> {
    match policy {
        TilePolicy::Flat => None,
        TilePolicy::Strip(w) => Some(w.max(1)),
        TilePolicy::Auto => {
            let row_bytes = 8 * lanes.max(1);
            // The score block plausibly stays LLC-resident: blocking can
            // only add cost.
            if n.saturating_mul(row_bytes) <= LLC_ASSUME_BYTES {
                return None;
            }
            if m < MIN_AVG_DEGREE * n {
                return None;
            }
            Some((STRIP_TARGET_BYTES / row_bytes).max(1024))
        }
    }
}

/// Rows probed by the sampled `Auto` statistic (stride-spaced, so the
/// probe sees every region of the id space, hubs and tails alike).
const REUSE_SAMPLE_ROWS: usize = 64;
/// In-neighbors inspected per sampled row — caps the probe cost when a
/// sample lands on a hub with a six-figure in-degree.
const REUSE_ROW_CAP: usize = 1024;
/// Minimum sampled in-neighbors-per-strip-visit for strips to pay:
/// below two consumed entries per visit the scheduler bookkeeping eats
/// the locality win.
const MIN_STRIP_REUSE: f64 = 2.0;

/// Average in-neighbors a destination row consumes per strip visit at
/// the given strip `width`, estimated from [`REUSE_SAMPLE_ROWS`]
/// stride-sampled rows. The statistic the structural model cannot see:
/// a banded ordering (RCM) concentrates each row into one or two strips
/// (high reuse), while arbitrary labels spray a row across all of them
/// (reuse ≈ 1, strips pure overhead). Deterministic — no RNG.
pub(crate) fn sampled_strip_reuse<A: InAdjacency + ?Sized>(adj: &A, n: usize, width: usize) -> f64 {
    let stride = (n / REUSE_SAMPLE_ROWS).max(1);
    let mut edges = 0usize;
    let mut visits = 0usize;
    let mut v = 0usize;
    while v < n {
        let row = adj.in_row(v as NodeId);
        let row = &row[..row.len().min(REUSE_ROW_CAP)];
        if !row.is_empty() {
            edges += row.len();
            // Rows are ascending, so distinct strips = bucket changes + 1.
            let mut last = row[0] as usize / width;
            visits += 1;
            for &u in &row[1..] {
                let s = u as usize / width;
                if s != last {
                    visits += 1;
                    last = s;
                }
            }
        }
        v += stride;
    }
    if visits == 0 {
        0.0
    } else {
        edges as f64 / visits as f64
    }
}

/// Ordering-aware [`resolve_strip`]: the `Auto` arm keeps the LLC gate
/// but decides *strips vs flat* from [`sampled_strip_reuse`] on the live
/// adjacency instead of a structural average-degree guess, so the model
/// picks strips exactly when the node ordering concentrates rows into
/// few strips (closing the ROADMAP "ordering-aware auto-tiling" gap).
pub(crate) fn resolve_strip_sampled<A: InAdjacency + ?Sized>(
    policy: TilePolicy,
    adj: &A,
    n: usize,
    m: usize,
    lanes: usize,
) -> Option<usize> {
    match policy {
        TilePolicy::Flat => None,
        TilePolicy::Strip(w) => Some(w.max(1)),
        TilePolicy::Auto => {
            let row_bytes = 8 * lanes.max(1);
            if n.saturating_mul(row_bytes) <= LLC_ASSUME_BYTES || m == 0 {
                return None;
            }
            let width = (STRIP_TARGET_BYTES / row_bytes).max(1024);
            (sampled_strip_reuse(adj, n, width) >= MIN_STRIP_REUSE).then_some(width)
        }
    }
}

/// Per-backend memo of the sampled `Auto` decisions: the inputs
/// (adjacency, n, m) are fixed for a backend's lifetime — or until a
/// dynamic overlay mutates, which calls [`StripCache::clear`] — so the
/// 64-row probe runs once per lane width instead of once per
/// propagation call. Forced policies bypass the cache entirely.
pub(crate) struct StripCache(std::sync::Mutex<Vec<(usize, Option<usize>)>>);

impl StripCache {
    pub(crate) fn new() -> Self {
        Self(std::sync::Mutex::new(Vec::new()))
    }

    /// [`resolve_strip_sampled`], memoized by lane width.
    pub(crate) fn resolve<A: InAdjacency + ?Sized>(
        &self,
        policy: TilePolicy,
        adj: &A,
        n: usize,
        m: usize,
        lanes: usize,
    ) -> Option<usize> {
        if policy != TilePolicy::Auto {
            return resolve_strip_sampled(policy, adj, n, m, lanes);
        }
        let mut memo = self.0.lock().expect("strip cache lock");
        if let Some(&(_, strip)) = memo.iter().find(|&&(l, _)| l == lanes) {
            return strip;
        }
        let strip = resolve_strip_sampled(policy, adj, n, m, lanes);
        if crate::profiling::profiling_enabled() {
            crate::profiling::record_tile_resolution(strip.is_some());
        }
        memo.push((lanes, strip));
        strip
    }

    /// Drops every memoized decision (the adjacency changed).
    pub(crate) fn clear(&self) {
        self.0.lock().expect("strip cache lock").clear();
    }
}

/// A destination-row source for the gather kernels: node `v`'s
/// in-neighbors as one ascending slice. Implemented by [`CsrGraph`]
/// (plain CSC rows) and by the dynamic backend's merged-row view, so all
/// backends share the same monomorphized kernels.
pub(crate) trait InAdjacency {
    /// In-neighbor row of destination `v`, ascending.
    fn in_row(&self, v: NodeId) -> &[NodeId];
}

impl InAdjacency for CsrGraph {
    #[inline]
    fn in_row(&self, v: NodeId) -> &[NodeId] {
        self.in_neighbors(v)
    }
}

/// Left fold of one (partial) row into a running accumulator. Both the
/// flat and the strip kernels build each destination's sum through this
/// same chain, which is what keeps them bit-identical.
#[inline]
fn row_gather_from(acc: f64, row: &[NodeId], x: &[f64], inv: &[f64]) -> f64 {
    row.iter().fold(acc, |a, &u| a + x[u as usize] * inv[u as usize])
}

/// Flat scalar gather for destinations `range`, writing into `y_local`
/// (`y_local[0]` is node `range.start`). Returns the range's `Σ|y|` in
/// the blocked-canonical association (per-[`NORM_BLOCK`] partials folded
/// ascending, blocks aligned to *global* node ids) — the convergence
/// residual, for free (see
/// [`crate::Propagator::propagate_into_norm`]).
pub(crate) fn gather_flat<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &[f64],
    y_local: &mut [f64],
    range: Range<NodeId>,
) -> f64 {
    debug_assert_eq!(y_local.len(), range.len());
    let mut norm = 0.0f64;
    let mut part = 0.0f64;
    let mut until = NORM_BLOCK - (range.start as usize % NORM_BLOCK);
    for (y, v) in y_local.iter_mut().zip(range) {
        let row = adj.in_row(v);
        // Degree-zero rows skip the fold (and the coeff multiply:
        // `coeff · 0.0 = 0.0` for the positive coefficients CPI uses).
        *y = if row.is_empty() { 0.0 } else { coeff * row_gather_from(0.0, row, x, inv) };
        part += y.abs();
        until -= 1;
        if until == 0 {
            norm += part;
            part = 0.0;
            until = NORM_BLOCK;
        }
    }
    if until != NORM_BLOCK {
        norm += part;
    }
    norm
}

/// The strip scheduler: rows queued at the strip holding their next
/// unconsumed neighbor, so a sweep visits each destination only in
/// strips where it actually gathers something. Total row-visits are
/// bounded by `min(m, rows × strips)` — without the schedule every strip
/// would pay an `O(rows)` scan, which drowns the locality win on
/// medium-degree graphs.
struct StripSchedule {
    width: usize,
    /// `buckets[s]` = local row indexes whose next neighbor is in strip
    /// `s`.
    buckets: Vec<Vec<u32>>,
}

impl StripSchedule {
    fn new(n: usize, width: usize) -> Self {
        let strips = n.div_ceil(width).max(1);
        Self { width, buckets: vec![Vec::new(); strips] }
    }

    #[inline]
    fn enqueue(&mut self, next_neighbor: NodeId, i: u32) {
        self.buckets[next_neighbor as usize / self.width].push(i);
    }
}

/// Strip-mined scalar gather for destinations `range`: sweeps `x` in
/// strips of `width` entries; per destination the accumulation chain is
/// identical to [`gather_flat`] (see the module docs). Returns the
/// range's `Σ|y|` in the blocked-canonical association, fused into the
/// final coefficient pass.
pub(crate) fn gather_strip<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &[f64],
    y_local: &mut [f64],
    range: Range<NodeId>,
    width: usize,
) -> f64 {
    let rows = range.len();
    debug_assert_eq!(y_local.len(), rows);
    y_local.fill(0.0);
    let mut cursor = vec![0u32; rows];
    let mut sched = StripSchedule::new(x.len(), width);
    for (i, v) in range.clone().enumerate() {
        if let Some(&first) = adj.in_row(v).first() {
            sched.enqueue(first, i as u32);
        }
    }
    for s in 0..sched.buckets.len() {
        let hi = ((s + 1) * width).min(x.len()) as NodeId;
        let queued = std::mem::take(&mut sched.buckets[s]);
        for i in queued {
            let v = range.start + i;
            let row = adj.in_row(v);
            let mut c = cursor[i as usize] as usize;
            // Continue this destination's fold where the previous strip
            // left it — the chain stays identical to the flat kernel's —
            // consuming neighbors in one linear scan until the strip
            // boundary.
            let mut acc = y_local[i as usize];
            for &u in &row[c..] {
                if u >= hi {
                    break;
                }
                acc += x[u as usize] * inv[u as usize];
                c += 1;
            }
            y_local[i as usize] = acc;
            cursor[i as usize] = c as u32;
            if let Some(&next) = row.get(c) {
                sched.enqueue(next, i);
            }
        }
    }
    let mut norm = 0.0f64;
    let mut part = 0.0f64;
    let mut until = NORM_BLOCK - (range.start as usize % NORM_BLOCK);
    for y in y_local.iter_mut() {
        *y *= coeff;
        part += y.abs();
        until -= 1;
        if until == 0 {
            norm += part;
            part = 0.0;
            until = NORM_BLOCK;
        }
    }
    if until != NORM_BLOCK {
        norm += part;
    }
    norm
}

/// One source's contribution to a block row: `yrow += w · xrow`.
#[inline]
fn block_row_add(yrow: &mut [f64], xrow: &[f64], w: f64) {
    for (yj, xj) in yrow.iter_mut().zip(xrow) {
        *yj += xj * w;
    }
}

/// Flat fused block gather for destinations `range` into the row-aligned
/// slice `y_local` (lane width from `x`; `y_local`'s first row is node
/// `range.start`).
pub(crate) fn block_gather_flat<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &ScoreBlock,
    y_local: &mut [f64],
    range: Range<NodeId>,
) {
    let lanes = x.lanes();
    debug_assert_eq!(y_local.len(), range.len() * lanes);
    for (yrow, v) in y_local.chunks_exact_mut(lanes).zip(range) {
        yrow.fill(0.0);
        for &u in adj.in_row(v) {
            let w = inv[u as usize];
            if w == 0.0 {
                continue;
            }
            block_row_add(yrow, x.row(u as usize), w);
        }
        for e in yrow.iter_mut() {
            *e *= coeff;
        }
    }
}

/// Strip-mined fused block gather: like [`gather_strip`] but every
/// resident `x` *row* (all lanes of one source) is reused across the
/// strip. Bit-identical to [`block_gather_flat`].
pub(crate) fn block_gather_strip<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &ScoreBlock,
    y_local: &mut [f64],
    range: Range<NodeId>,
    width: usize,
) {
    let lanes = x.lanes();
    let rows = range.len();
    debug_assert_eq!(y_local.len(), rows * lanes);
    y_local.fill(0.0);
    let mut cursor = vec![0u32; rows];
    let mut sched = StripSchedule::new(x.n(), width);
    for (i, v) in range.clone().enumerate() {
        if let Some(&first) = adj.in_row(v).first() {
            sched.enqueue(first, i as u32);
        }
    }
    for s in 0..sched.buckets.len() {
        let hi = ((s + 1) * width).min(x.n()) as NodeId;
        let queued = std::mem::take(&mut sched.buckets[s]);
        for i in queued {
            let v = range.start + i;
            let row = adj.in_row(v);
            let mut c = cursor[i as usize] as usize;
            let yrow = &mut y_local[i as usize * lanes..(i as usize + 1) * lanes];
            for &u in &row[c..] {
                if u >= hi {
                    break;
                }
                c += 1;
                let w = inv[u as usize];
                if w == 0.0 {
                    continue;
                }
                block_row_add(yrow, x.row(u as usize), w);
            }
            cursor[i as usize] = c as u32;
            if let Some(&next) = row.get(c) {
                sched.enqueue(next, i);
            }
        }
    }
    for e in y_local.iter_mut() {
        *e *= coeff;
    }
}

/// Scalar gather for destinations `range`, flat or strip-mined per the
/// resolved policy. Returns the range's blocked-canonical `Σ|y|` fold
/// (bitwise identical between the two kernels: both fold `|y_v|` in
/// ascending destination order within each block after the coefficient
/// multiply).
pub(crate) fn gather_range<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &[f64],
    y_local: &mut [f64],
    range: Range<NodeId>,
    strip: Option<usize>,
) -> f64 {
    match strip {
        None => gather_flat(adj, inv, coeff, x, y_local, range),
        Some(width) => gather_strip(adj, inv, coeff, x, y_local, range, width),
    }
}

/// Fused block gather for destinations `range`, flat or strip-mined per
/// the resolved policy.
pub(crate) fn block_gather_range<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &ScoreBlock,
    y_local: &mut [f64],
    range: Range<NodeId>,
    strip: Option<usize>,
) {
    match strip {
        None => block_gather_flat(adj, inv, coeff, x, y_local, range),
        Some(width) => block_gather_strip(adj, inv, coeff, x, y_local, range, width),
    }
}

/// Fan-out shared by the parallel and dynamic backends: splits `y` into
/// per-range row-aligned slices (`row_width` = 1 for scalar, `lanes`
/// for blocks) and runs `work(slice, start, end)` on each range in its
/// own scoped worker. Disjoint writes, shared reads — bit-identical to
/// running the ranges sequentially.
pub(crate) fn par_ranges<F>(ranges: &[(u32, u32)], row_width: usize, y: &mut [f64], work: F)
where
    F: Fn(&mut [f64], u32, u32) + Sync,
{
    let mut slices: Vec<&mut [f64]> = Vec::with_capacity(ranges.len());
    let mut rest = y;
    for &(start, end) in ranges {
        let (head, tail) = rest.split_at_mut((end - start) as usize * row_width);
        slices.push(head);
        rest = tail;
    }
    std::thread::scope(|scope| {
        for (slice, &(start, end)) in slices.into_iter().zip(ranges) {
            let work = &work;
            scope.spawn(move || work(slice, start, end));
        }
    });
}

/// [`par_ranges`] with the residual fold parallelized: each worker
/// propagates its band via `work`, then folds its own per-[`NORM_BLOCK`]
/// partials over the just-written (cache-warm) slice; the calling thread
/// folds all partials in ascending block order. The two-level chain is
/// exactly [`blocked_norm`] of the full output, so the returned residual
/// is bitwise identical to the sequential backends'. Requires
/// block-aligned ranges (see [`ranges_block_aligned`]).
pub(crate) fn par_ranges_norm<F>(ranges: &[(u32, u32)], y: &mut [f64], work: F) -> f64
where
    F: Fn(&mut [f64], u32, u32) + Sync,
{
    debug_assert!(ranges_block_aligned(ranges));
    let blocks_of = |(start, end): (u32, u32)| {
        (end as usize).div_ceil(NORM_BLOCK) - start as usize / NORM_BLOCK
    };
    let total_blocks: usize = ranges.iter().map(|&r| blocks_of(r)).sum();
    let mut parts = vec![0.0f64; total_blocks];
    let mut y_slices: Vec<&mut [f64]> = Vec::with_capacity(ranges.len());
    let mut part_slices: Vec<&mut [f64]> = Vec::with_capacity(ranges.len());
    let (mut y_rest, mut p_rest) = (y, parts.as_mut_slice());
    for &(start, end) in ranges {
        let (head, tail) = y_rest.split_at_mut((end - start) as usize);
        y_slices.push(head);
        y_rest = tail;
        let (head, tail) = p_rest.split_at_mut(blocks_of((start, end)));
        part_slices.push(head);
        p_rest = tail;
    }
    std::thread::scope(|scope| {
        for ((slice, parts), &(start, end)) in
            y_slices.into_iter().zip(part_slices).zip(ranges.iter())
        {
            let work = &work;
            scope.spawn(move || {
                work(slice, start, end);
                norm_parts(slice, parts);
            });
        }
    });
    fold_norm_parts(&parts)
}

/// Destination ranges for `threads` workers over `n` nodes, balanced by
/// in-edge count via the CSC offset array (power-law graphs concentrate
/// edges on few destinations, so node-count splits starve most workers).
/// Every range is non-empty; an edgeless graph falls back to node-count
/// balancing. Shared by the parallel and dynamic backends.
///
/// Whenever the graph has at least one [`NORM_BLOCK`] per worker, range
/// boundaries are snapped to block multiples so the fused residual fold
/// can compose per-worker partials (see [`par_ranges_norm`]); smaller
/// graphs keep the node-granular split — their sequential residual scan
/// is cheap anyway.
pub(crate) fn balance_ranges(in_offsets: &[usize], threads: usize) -> Vec<(u32, u32)> {
    let n = in_offsets.len() - 1;
    let m = in_offsets[n];
    let threads = threads.clamp(1, n.max(1));
    let blocks = n.div_ceil(NORM_BLOCK).max(1);
    if blocks >= threads {
        let block_end = |b: usize| (b * NORM_BLOCK).min(n);
        let mut ranges = Vec::with_capacity(threads);
        let mut start_b = 0usize;
        for w in 0..threads {
            let end_b = if w + 1 == threads {
                blocks
            } else if m == 0 {
                blocks * (w + 1) / threads
            } else {
                // First block boundary at or past this worker's edge
                // share, clamped so this range and every later one keep
                // at least one block.
                let target = (m * (w + 1)).div_ceil(threads);
                let mut e = start_b;
                while e < blocks && in_offsets[block_end(e + 1)] <= target {
                    e += 1;
                }
                e.max(start_b + 1).min(blocks - (threads - w - 1))
            };
            ranges.push((block_end(start_b) as u32, block_end(end_b) as u32));
            start_b = end_b;
        }
        return ranges;
    }
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    for w in 0..threads {
        let end = if w + 1 == threads {
            n
        } else if m == 0 {
            // No edges to balance: split nodes evenly.
            n * (w + 1) / threads
        } else {
            // First node boundary at or past this worker's edge share,
            // clamped so this range and every later one stay non-empty.
            let target = (m * (w + 1)).div_ceil(threads);
            let mut end = start;
            while end < n && in_offsets[end + 1] <= target {
                end += 1;
            }
            end.max(start + 1).min(n - (threads - w - 1))
        };
        ranges.push((start as u32, end as u32));
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        lfr_lite(LfrConfig { n: 300, m: 3600, ..Default::default() }, &mut rng).graph
    }

    #[test]
    fn auto_model_flat_for_small_or_sparse() {
        // Small n: x fits cache.
        assert_eq!(resolve_strip(TilePolicy::Auto, 10_000, 200_000, 1), None);
        // Large but too sparse.
        assert_eq!(resolve_strip(TilePolicy::Auto, 8_000_000, 16_000_000, 1), None);
        // LLC-resident at n=1M scalar: flat.
        assert_eq!(resolve_strip(TilePolicy::Auto, 1_000_000, 10_000_000, 1), None);
        // Huge and dense enough: strips.
        let w = resolve_strip(TilePolicy::Auto, 8_000_000, 80_000_000, 1).unwrap();
        assert_eq!(w, STRIP_TARGET_BYTES / 8);
        // Wider lanes shrink the strip to keep the footprint constant
        // (and cross the LLC bound sooner).
        let w8 = resolve_strip(TilePolicy::Auto, 1_000_000, 10_000_000, 8).unwrap();
        assert_eq!(w8, STRIP_TARGET_BYTES / 64);
    }

    #[test]
    fn forced_policies_override_the_model() {
        assert_eq!(resolve_strip(TilePolicy::Flat, 1 << 30, 1 << 34, 1), None);
        assert_eq!(resolve_strip(TilePolicy::Strip(777), 4, 4, 1), Some(777));
        assert_eq!(resolve_strip(TilePolicy::Strip(0), 4, 4, 1), Some(1));
    }

    #[test]
    fn strip_kernel_bitwise_equals_flat_for_any_width() {
        let g = test_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 / 101.0 - 0.3).collect();
        let mut flat = vec![0.0; n];
        gather_flat(&g, &inv, 0.85, &x, &mut flat, 0..n as NodeId);
        for width in [1usize, 7, 64, 255, n, 10 * n] {
            let mut tiled = vec![0.0; n];
            gather_strip(&g, &inv, 0.85, &x, &mut tiled, 0..n as NodeId, width);
            assert_eq!(tiled, flat, "width = {width}");
        }
    }

    #[test]
    fn block_strip_kernel_bitwise_equals_flat() {
        let g = test_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let lanes = 5;
        let mut x = ScoreBlock::zeros(n, lanes);
        for (i, e) in x.data_mut().iter_mut().enumerate() {
            *e = ((i * 13) % 97) as f64 / 97.0;
        }
        let mut flat = ScoreBlock::zeros(n, lanes);
        block_gather_flat(&g, &inv, 0.85, &x, flat.data_mut(), 0..n as NodeId);
        for width in [3usize, 50, 299, n] {
            let mut tiled = ScoreBlock::zeros(n, lanes);
            block_gather_strip(&g, &inv, 0.85, &x, tiled.data_mut(), 0..n as NodeId, width);
            assert_eq!(tiled.data(), flat.data(), "width = {width}");
        }
    }

    #[test]
    fn kernels_return_the_index_order_residual() {
        let g = test_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 29) as f64 / 29.0 - 0.4).collect();
        let mut y = vec![0.0; n];
        let flat_norm = gather_flat(&g, &inv, 0.85, &x, &mut y, 0..n as NodeId);
        let scan: f64 = y.iter().map(|v| v.abs()).sum();
        assert_eq!(flat_norm.to_bits(), scan.to_bits());
        let mut y2 = vec![0.0; n];
        let strip_norm = gather_strip(&g, &inv, 0.85, &x, &mut y2, 0..n as NodeId, 64);
        assert_eq!(strip_norm.to_bits(), flat_norm.to_bits());
    }

    #[test]
    fn sampled_reuse_separates_concentrated_from_scattered_rows() {
        // Concentrated: every in-row lives inside one strip (low ids).
        let n = 2048;
        let mut edges = Vec::new();
        for v in 64..n as NodeId {
            for u in 0..8 {
                edges.push((u, v));
            }
        }
        let banded = CsrGraph::from_edges(n, &edges);
        assert!(sampled_strip_reuse(&banded, n, 512) > 4.0);
        // Scattered: each row's neighbors land in distinct strips.
        let mut edges = Vec::new();
        for v in 0..n as NodeId {
            for k in 0..8u32 {
                edges.push(((k * 256) % n as NodeId, v));
            }
        }
        let scattered = CsrGraph::from_edges(n, &edges);
        assert!(sampled_strip_reuse(&scattered, n, 64) < 1.5);
    }

    #[test]
    fn sampled_auto_model_gates_like_the_structural_one() {
        let g = test_graph();
        // Forced policies pass straight through.
        assert_eq!(resolve_strip_sampled(TilePolicy::Flat, &g, 1 << 30, 1 << 34, 1), None);
        assert_eq!(resolve_strip_sampled(TilePolicy::Strip(99), &g, g.n(), g.m(), 1), Some(99));
        // LLC-resident score vectors stay flat without sampling.
        assert_eq!(resolve_strip_sampled(TilePolicy::Auto, &g, g.n(), g.m(), 1), None);
    }

    #[test]
    fn ranges_balance_and_cover() {
        let g = test_graph();
        for threads in [1usize, 2, 5, 16, 1000] {
            let ranges = balance_ranges(g.in_offsets(), threads);
            let mut covered = 0u32;
            for &(start, end) in &ranges {
                assert_eq!(start, covered);
                assert!(end > start);
                covered = end;
            }
            assert_eq!(covered as usize, g.n());
        }
    }

    /// A graph spanning several norm blocks (n > 2·NORM_BLOCK).
    fn multi_block_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        lfr_lite(LfrConfig { n: 3 * NORM_BLOCK + 777, m: 80_000, ..Default::default() }, &mut rng)
            .graph
    }

    #[test]
    fn large_ranges_snap_to_norm_blocks() {
        let g = multi_block_graph();
        for threads in [2usize, 3] {
            let ranges = balance_ranges(g.in_offsets(), threads);
            assert_eq!(ranges.len(), threads);
            assert!(ranges_block_aligned(&ranges), "{ranges:?}");
            let mut covered = 0u32;
            for &(start, end) in &ranges {
                assert_eq!(start, covered);
                assert!(end > start);
                covered = end;
            }
            assert_eq!(covered as usize, g.n());
        }
        // More workers than blocks: node-granular fallback, unaligned.
        let ranges = balance_ranges(g.in_offsets(), 64);
        assert_eq!(ranges.len(), 64);
    }

    #[test]
    fn fused_residual_is_the_blocked_canonical_fold() {
        let g = multi_block_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 83) as f64 / 83.0 - 0.2).collect();
        let mut y = vec![0.0; n];
        let flat_norm = gather_flat(&g, &inv, 0.85, &x, &mut y, 0..n as NodeId);
        assert_eq!(flat_norm.to_bits(), blocked_norm(&y).to_bits());
        let mut y2 = vec![0.0; n];
        let strip_norm = gather_strip(&g, &inv, 0.85, &x, &mut y2, 0..n as NodeId, 512);
        assert_eq!(strip_norm.to_bits(), flat_norm.to_bits());
        // Per-worker partials over block-aligned ranges compose into the
        // same canonical fold.
        let ranges = balance_ranges(g.in_offsets(), 3);
        assert!(ranges_block_aligned(&ranges));
        let mut y3 = vec![0.0; n];
        let par_norm = par_ranges_norm(&ranges, &mut y3, |slice, start, end| {
            gather_flat(&g, &inv, 0.85, &x, slice, start..end);
        });
        assert_eq!(y3, y);
        assert_eq!(par_norm.to_bits(), flat_norm.to_bits());
    }
}
