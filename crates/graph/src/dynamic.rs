//! Delta-overlay dynamic graphs.
//!
//! [`CsrGraph`] is immutable by design — the propagation kernels depend on
//! its packed, sorted adjacency. Real serving graphs (social follows,
//! transactions) mutate continuously, and rebuilding the CSR per edge is
//! `O(n + m)`. [`DynamicGraph`] bridges the two: it overlays per-node
//! insert/delete patches on an immutable base snapshot, exposes a *merged
//! view* whose neighbor iteration is indistinguishable (same nodes, same
//! ascending order) from a CSR rebuilt from scratch, and compacts the
//! patches back into a fresh base once they grow past a threshold.
//!
//! Semantics of the merged view:
//!
//! * Edges are a **set**: inserting an existing edge or deleting a missing
//!   one is a no-op (reported in [`ApplyStats`]).
//! * Node count is fixed at construction; self-loops are permitted.
//! * No dangling patching — deleting a node's last out-edge leaves it
//!   dangling, exactly like building the merged edge list with
//!   [`crate::DanglingPolicy::Keep`]. ([`DynamicGraph::compact`] preserves
//!   this, so compaction never changes the edge set.)

use crate::{CsrGraph, DanglingPolicy, GraphBuilder, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

/// One edge mutation in an update stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Add the directed edge `(u, v)`; a no-op if it already exists.
    Insert(NodeId, NodeId),
    /// Remove the directed edge `(u, v)`; a no-op if it does not exist.
    Delete(NodeId, NodeId),
}

impl EdgeUpdate {
    /// The edge's source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        match *self {
            EdgeUpdate::Insert(u, _) | EdgeUpdate::Delete(u, _) => u,
        }
    }

    /// The edge's target node.
    #[inline]
    pub fn target(&self) -> NodeId {
        match *self {
            EdgeUpdate::Insert(_, v) | EdgeUpdate::Delete(_, v) => v,
        }
    }
}

/// What an [`DynamicGraph::apply`] batch actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Edges newly present after the batch.
    pub inserted: usize,
    /// Edges removed by the batch.
    pub deleted: usize,
    /// Updates that changed nothing (duplicate insert / missing delete).
    pub noops: usize,
    /// True if the batch pushed the overlay past its compaction threshold
    /// and the patches were folded into a fresh base snapshot.
    pub compacted: bool,
}

/// Per-node adjacency patch: edges added to and removed from the base
/// snapshot's neighbor list. Both vectors are kept sorted ascending; `ins`
/// is disjoint from the base list, `del` is a subset of it.
#[derive(Clone, Debug, Default)]
struct Patch {
    ins: Vec<NodeId>,
    del: Vec<NodeId>,
}

impl Patch {
    fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }
}

/// A mutable graph: an immutable [`CsrGraph`] base plus insert/delete
/// overlay patches in both orientations. See the module docs.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    /// Shared immutable base: cloning the overlay (e.g. to hand a
    /// background compactor its own copy) costs `O(patches)`, not
    /// `O(n + m)`, and copy-on-write snapshots can alias the base.
    base: Arc<CsrGraph>,
    /// Out-adjacency patches, keyed by source.
    out_patch: HashMap<NodeId, Patch>,
    /// In-adjacency patches, keyed by target (mirror of `out_patch`).
    in_patch: HashMap<NodeId, Patch>,
    /// Current merged edge count.
    m: usize,
    /// Total patch entries (inserts + deletes) across all out-patches.
    delta_edges: usize,
    /// Compact when `delta_edges > threshold · base.m()`; `None` disables
    /// automatic compaction.
    compact_threshold: Option<f64>,
}

/// Default automatic compaction threshold: fold the overlay into a fresh
/// CSR once the patches reach 2% of the base edge count.
///
/// The trade: a compaction costs roughly one edge-list sort
/// (`O(m log m)` — empirically under ten propagation passes), while
/// every patched destination pays a merge premium on *every* subsequent
/// neighbor scan. RWR propagation sweeps the whole graph ~100 times per
/// converged query, so even a few percent of patched adjacency quickly
/// costs more than folding it in. Workloads that only mutate (no
/// propagation between batches) can raise the threshold or disable it.
pub const DEFAULT_COMPACT_THRESHOLD: f64 = 0.02;

impl DynamicGraph {
    /// Wraps a base snapshot with empty patches and the
    /// [`DEFAULT_COMPACT_THRESHOLD`].
    pub fn new(base: CsrGraph) -> Self {
        Self::shared(Arc::new(base))
    }

    /// [`DynamicGraph::new`] over an already-shared base — the overlay
    /// aliases it instead of owning a private copy, so rebasing a live
    /// service onto a background-compacted snapshot is `O(patches)`.
    pub fn shared(base: Arc<CsrGraph>) -> Self {
        let m = base.m();
        Self {
            base,
            out_patch: HashMap::new(),
            in_patch: HashMap::new(),
            m,
            delta_edges: 0,
            compact_threshold: Some(DEFAULT_COMPACT_THRESHOLD),
        }
    }

    /// Sets the automatic compaction threshold as a fraction of the base
    /// edge count; `None` disables automatic compaction (explicit
    /// [`DynamicGraph::compact`] still works).
    pub fn with_compact_threshold(mut self, threshold: Option<f64>) -> Self {
        if let Some(t) = threshold {
            assert!(t > 0.0, "compaction threshold must be positive");
        }
        self.compact_threshold = threshold;
        self
    }

    /// The automatic compaction threshold currently in force (`None` =
    /// disabled); see [`DynamicGraph::with_compact_threshold`].
    pub fn compact_threshold(&self) -> Option<f64> {
        self.compact_threshold
    }

    /// Number of nodes (fixed at construction).
    #[inline]
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Number of edges in the merged view.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The immutable base snapshot the patches overlay.
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// The shared handle to the base snapshot (clone to alias it, e.g.
    /// into a copy-on-write snapshot that must outlive this overlay).
    pub fn base_arc(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Total pending patch entries (inserts + deletes). Zero right after
    /// construction or [`DynamicGraph::compact`].
    pub fn delta_edges(&self) -> usize {
        self.delta_edges
    }

    /// True if any patch is pending (the merged view differs from
    /// [`DynamicGraph::base`] — or did, until edits cancelled out).
    pub fn is_dirty(&self) -> bool {
        self.delta_edges > 0
    }

    /// Out-degree of `u` in the merged view.
    pub fn out_degree(&self, u: NodeId) -> usize {
        let base = self.base.out_degree(u);
        match self.out_patch.get(&u) {
            Some(p) => base + p.ins.len() - p.del.len(),
            None => base,
        }
    }

    /// In-degree of `v` in the merged view.
    pub fn in_degree(&self, v: NodeId) -> usize {
        let base = self.base.in_degree(v);
        match self.in_patch.get(&v) {
            Some(p) => base + p.ins.len() - p.del.len(),
            None => base,
        }
    }

    /// Merged out-neighbors of `u`, ascending — the same sequence a CSR
    /// rebuilt from the merged edge set would yield.
    pub fn out_neighbors(&self, u: NodeId) -> MergedNeighbors<'_> {
        MergedNeighbors::new(self.base.out_neighbors(u), self.out_patch.get(&u))
    }

    /// Merged in-neighbors of `v`, ascending.
    pub fn in_neighbors(&self, v: NodeId) -> MergedNeighbors<'_> {
        MergedNeighbors::new(self.base.in_neighbors(v), self.in_patch.get(&v))
    }

    /// True if `v`'s in-adjacency currently carries a patch. Propagation
    /// kernels use this to route unpatched destinations straight to the
    /// base CSR slices (the overwhelming majority between compactions).
    #[inline]
    pub fn has_in_patch(&self, v: NodeId) -> bool {
        self.in_patch.contains_key(&v)
    }

    /// True if `u`'s out-adjacency currently carries a patch.
    #[inline]
    pub fn has_out_patch(&self, u: NodeId) -> bool {
        self.out_patch.contains_key(&u)
    }

    /// True if the merged view contains the directed edge `(u, v)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if let Some(p) = self.out_patch.get(&u) {
            if p.ins.binary_search(&v).is_ok() {
                return true;
            }
            if p.del.binary_search(&v).is_ok() {
                return false;
            }
        }
        self.base.has_edge(u, v)
    }

    /// Applies one update. Returns `true` if it changed the edge set.
    pub fn apply_one(&mut self, update: EdgeUpdate) -> bool {
        let (u, v) = (update.source(), update.target());
        let n = self.n();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "update touches edge ({u},{v}) out of range for n={n}"
        );
        match update {
            EdgeUpdate::Insert(..) => {
                if self.has_edge(u, v) {
                    false
                } else {
                    self.patch_insert(u, v);
                    self.m += 1;
                    true
                }
            }
            EdgeUpdate::Delete(..) => {
                if !self.has_edge(u, v) {
                    false
                } else {
                    self.patch_delete(u, v);
                    self.m -= 1;
                    true
                }
            }
        }
    }

    /// Applies a batch of updates in order, then compacts if the overlay
    /// crossed the threshold. Returns what actually changed.
    pub fn apply(&mut self, updates: &[EdgeUpdate]) -> ApplyStats {
        let mut stats = ApplyStats::default();
        for &up in updates {
            match (self.apply_one(up), up) {
                (true, EdgeUpdate::Insert(..)) => stats.inserted += 1,
                (true, EdgeUpdate::Delete(..)) => stats.deleted += 1,
                (false, _) => stats.noops += 1,
            }
        }
        if let Some(threshold) = self.compact_threshold {
            if self.delta_edges as f64 > threshold * self.base.m().max(1) as f64 {
                self.compact();
                stats.compacted = true;
            }
        }
        stats
    }

    /// Materializes the merged view as a fresh [`CsrGraph`]. Dangling
    /// nodes are kept as-is (see the module docs) and parallel edges of a
    /// multigraph base survive, so the snapshot's edge multiset is
    /// exactly the merged view's.
    pub fn snapshot(&self) -> CsrGraph {
        let mut builder = GraphBuilder::with_capacity(self.n(), self.m)
            .allow_parallel_edges()
            .dangling_policy(DanglingPolicy::Keep);
        for u in 0..self.n() as NodeId {
            for v in self.out_neighbors(u) {
                builder.add_edge(u, v);
            }
        }
        builder.build()
    }

    /// Folds the patches into a fresh base snapshot (the merged view is
    /// unchanged — neighbor iteration yields the identical sequence before
    /// and after). Idempotent; cheap when clean.
    pub fn compact(&mut self) {
        if !self.is_dirty() {
            self.out_patch.clear();
            self.in_patch.clear();
            return;
        }
        self.base = Arc::new(self.snapshot());
        self.out_patch.clear();
        self.in_patch.clear();
        self.delta_edges = 0;
        debug_assert_eq!(self.base.m(), self.m);
    }

    /// Records the insert `(u, v)` in both orientations. Caller has
    /// established the edge is absent from the merged view.
    fn patch_insert(&mut self, u: NodeId, v: NodeId) {
        self.delta_edges =
            apply_to_patch(self.out_patch.entry(u).or_default(), v, self.delta_edges, true);
        apply_to_patch(self.in_patch.entry(v).or_default(), u, 0, true);
        self.prune(u, v);
    }

    /// Records the delete `(u, v)` in both orientations. Caller has
    /// established the edge is present in the merged view.
    fn patch_delete(&mut self, u: NodeId, v: NodeId) {
        self.delta_edges =
            apply_to_patch(self.out_patch.entry(u).or_default(), v, self.delta_edges, false);
        apply_to_patch(self.in_patch.entry(v).or_default(), u, 0, false);
        self.prune(u, v);
    }

    /// Drops patch entries that cancelled back to empty, so `is_dirty`
    /// reflects real divergence from the base.
    fn prune(&mut self, u: NodeId, v: NodeId) {
        if self.out_patch.get(&u).is_some_and(Patch::is_empty) {
            self.out_patch.remove(&u);
        }
        if self.in_patch.get(&v).is_some_and(Patch::is_empty) {
            self.in_patch.remove(&v);
        }
    }
}

/// Applies an insert (`insert = true`) or delete of `x` to one patch,
/// returning the updated `delta_edges` counter. An insert first tries to
/// cancel a pending delete (re-inserting a base edge) before staging a new
/// entry, and symmetrically for deletes.
fn apply_to_patch(patch: &mut Patch, x: NodeId, delta: usize, insert: bool) -> usize {
    let (cancel_from, stage_into) =
        if insert { (&mut patch.del, &mut patch.ins) } else { (&mut patch.ins, &mut patch.del) };
    if let Ok(pos) = cancel_from.binary_search(&x) {
        cancel_from.remove(pos);
        delta.saturating_sub(1)
    } else {
        let pos = stage_into.binary_search(&x).unwrap_err();
        stage_into.insert(pos, x);
        delta + 1
    }
}

/// Ascending merge of a base neighbor slice (minus its deletes) with the
/// staged inserts — the merged view's neighbor iterator.
pub struct MergedNeighbors<'a> {
    base: &'a [NodeId],
    ins: &'a [NodeId],
    del: &'a [NodeId],
    bi: usize,
    ii: usize,
    di: usize,
}

static EMPTY: [NodeId; 0] = [];

impl<'a> MergedNeighbors<'a> {
    fn new(base: &'a [NodeId], patch: Option<&'a Patch>) -> Self {
        let (ins, del): (&[NodeId], &[NodeId]) = match patch {
            Some(p) => (&p.ins, &p.del),
            None => (&EMPTY, &EMPTY),
        };
        Self { base, ins, del, bi: 0, ii: 0, di: 0 }
    }

    /// Next surviving base neighbor, skipping deleted entries.
    fn peek_base(&mut self) -> Option<NodeId> {
        while self.bi < self.base.len() {
            let b = self.base[self.bi];
            // `del` and `base` are both ascending; advance the delete
            // cursor past entries below `b`, then check for a match.
            while self.di < self.del.len() && self.del[self.di] < b {
                self.di += 1;
            }
            if self.di < self.del.len() && self.del[self.di] == b {
                self.bi += 1;
                self.di += 1;
                continue;
            }
            return Some(b);
        }
        None
    }
}

impl Iterator for MergedNeighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let ins = (self.ii < self.ins.len()).then(|| self.ins[self.ii]);
        match (self.peek_base(), ins) {
            (Some(b), Some(i)) if i < b => {
                self.ii += 1;
                Some(i)
            }
            (Some(b), _) => {
                self.bi += 1;
                Some(b)
            }
            (None, Some(i)) => {
                self.ii += 1;
                Some(i)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EdgeUpdate::{Delete, Insert};

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    fn out(g: &DynamicGraph, u: NodeId) -> Vec<NodeId> {
        g.out_neighbors(u).collect()
    }

    fn ins(g: &DynamicGraph, v: NodeId) -> Vec<NodeId> {
        g.in_neighbors(v).collect()
    }

    #[test]
    fn clean_overlay_matches_base() {
        let g = DynamicGraph::new(diamond());
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        assert!(!g.is_dirty());
        assert_eq!(out(&g, 0), vec![1, 2]);
        assert_eq!(ins(&g, 3), vec![1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn insert_merges_in_ascending_order() {
        let mut g = DynamicGraph::new(diamond());
        let stats = g.apply(&[Insert(0, 3), Insert(0, 0)]);
        assert_eq!(stats.inserted, 2);
        assert_eq!(out(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(ins(&g, 3), vec![0, 1, 2]);
        assert_eq!(g.m(), 7);
        assert_eq!(g.out_degree(0), 4);
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn delete_hides_base_edges() {
        let mut g = DynamicGraph::new(diamond());
        let stats = g.apply(&[Delete(0, 1)]);
        assert_eq!(stats.deleted, 1);
        assert_eq!(out(&g, 0), vec![2]);
        assert_eq!(ins(&g, 1), Vec::<NodeId>::new());
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.m(), 4);
        assert_eq!(g.in_degree(1), 0);
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let mut g = DynamicGraph::new(diamond());
        let stats = g.apply(&[Insert(0, 1), Delete(1, 0), Insert(0, 3), Insert(0, 3)]);
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.noops, 3);
        assert_eq!(g.m(), 6);
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut g = DynamicGraph::new(diamond());
        g.apply(&[Insert(1, 2), Delete(1, 2)]);
        assert!(!g.is_dirty());
        assert_eq!(g.m(), 5);
        assert_eq!(out(&g, 1), vec![3]);
    }

    #[test]
    fn delete_then_reinsert_cancels() {
        let mut g = DynamicGraph::new(diamond());
        g.apply(&[Delete(0, 2), Insert(0, 2)]);
        assert!(!g.is_dirty());
        assert_eq!(out(&g, 0), vec![1, 2]);
    }

    #[test]
    fn deleting_last_out_edge_leaves_dangling() {
        let mut g = DynamicGraph::new(diamond());
        g.apply(&[Delete(3, 0)]);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(out(&g, 3), Vec::<NodeId>::new());
        // Snapshot preserves the dangling node (no self-loop patching).
        let snap = g.snapshot();
        assert_eq!(snap.out_degree(3), 0);
        assert_eq!(snap.m(), 4);
    }

    #[test]
    fn snapshot_equals_rebuilt_from_scratch() {
        let mut g = DynamicGraph::new(diamond());
        g.apply(&[Insert(0, 3), Delete(2, 3), Insert(3, 2)]);
        let want = GraphBuilder::new(4)
            .dangling_policy(DanglingPolicy::Keep)
            .extend_edges([(0, 1), (0, 2), (0, 3), (1, 3), (3, 0), (3, 2)])
            .build();
        assert_eq!(g.snapshot(), want);
    }

    #[test]
    fn snapshot_keeps_parallel_edges_of_a_multigraph_base() {
        let base = GraphBuilder::new(3)
            .allow_parallel_edges()
            .dangling_policy(DanglingPolicy::Keep)
            .extend_edges([(0, 1), (0, 1), (1, 1), (1, 2), (2, 0)])
            .build();
        let mut g = DynamicGraph::new(base.clone());
        assert_eq!(g.snapshot(), base);
        g.apply(&[Insert(2, 1)]);
        g.compact();
        assert_eq!(g.base().m(), base.m() + 1);
        assert_eq!(out(&g, 0), vec![1, 1]);
    }

    #[test]
    fn compact_preserves_merged_view() {
        let mut g = DynamicGraph::new(diamond());
        g.apply(&[Insert(0, 3), Delete(1, 3), Insert(2, 0)]);
        let before: Vec<Vec<NodeId>> = (0..4).map(|u| out(&g, u)).collect();
        let m = g.m();
        g.compact();
        assert!(!g.is_dirty());
        assert_eq!(g.m(), m);
        assert_eq!(g.base().m(), m);
        let after: Vec<Vec<NodeId>> = (0..4).map(|u| out(&g, u)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn threshold_triggers_automatic_compaction() {
        // Base has 5 edges; threshold 0.4 ⇒ compact when delta > 2.
        let mut g = DynamicGraph::new(diamond()).with_compact_threshold(Some(0.4));
        let stats = g.apply(&[Insert(1, 0), Insert(2, 1)]);
        assert!(!stats.compacted);
        assert!(g.is_dirty());
        let stats = g.apply(&[Insert(3, 2)]);
        assert!(stats.compacted);
        assert!(!g.is_dirty());
        assert_eq!(g.base().m(), 8);
    }

    #[test]
    fn disabled_threshold_never_compacts() {
        let mut g = DynamicGraph::new(diamond()).with_compact_threshold(None);
        let ups: Vec<EdgeUpdate> = (0..4).flat_map(|u| (0..4).map(move |v| Insert(u, v))).collect();
        let stats = g.apply(&ups);
        assert!(!stats.compacted);
        assert!(g.is_dirty());
        assert_eq!(g.m(), 16);
    }

    #[test]
    fn in_orientation_mirrors_out() {
        let mut g = DynamicGraph::new(diamond());
        g.apply(&[Insert(1, 0), Delete(0, 1), Insert(2, 0)]);
        for v in 0..4u32 {
            let via_in: Vec<NodeId> = ins(&g, v);
            let via_out: Vec<NodeId> = (0..4u32).filter(|&u| g.has_edge(u, v)).collect();
            assert_eq!(via_in, via_out, "node {v}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_update() {
        DynamicGraph::new(diamond()).apply_one(Insert(0, 9));
    }
}
