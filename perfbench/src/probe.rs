//! Kernel floor: the gather kernels' cost per edge on the workload's
//! graph, against a streaming-read bandwidth probe on the same host.
//!
//! Bytes per edge are *computed* from the kernels' data layout, not
//! measured: the scalar CSC gather reads a 4-byte source id plus the
//! source's `x` and `1/outdeg` (8 bytes each) per edge, and an 8-byte
//! row offset plus an 8-byte `y` store per destination. The 8-lane
//! block gather reads the id and `1/outdeg` once per edge and 8 lanes of
//! `x`; per destination it stores 8 lanes of `y`.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tpa_core::batch::ScoreBlock;
use tpa_core::{ParallelTransition, Propagator, Transition};
use tpa_graph::CsrGraph;

/// The streaming probe reads a buffer twice the size of a 32 MiB L3.
const STREAM_BYTES: usize = 64 << 20;
/// Lanes of the block kernel probe.
const LANES: usize = 8;

#[derive(Debug)]
pub struct Floor {
    pub stream_gbps: f64,
    pub scalar_ns_per_edge: f64,
    pub parallel_ns_per_edge: f64,
    pub block8_ns_per_edge_lane: f64,
    pub scalar_bytes_per_edge: f64,
    pub block8_bytes_per_edge_lane: f64,
    /// Achieved scalar-gather bandwidth (computed bytes ÷ time) as a
    /// share of the streaming probe.
    pub bandwidth_share: f64,
}

/// Median wall time of `f` in nanoseconds, over at least `min_reps`
/// calls and at least `min_time` (after one unmeasured call).
fn time_ns(min_reps: usize, min_time: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed() < min_time {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

fn stream_gbps(smoke: bool) -> f64 {
    let words = if smoke { STREAM_BYTES / 64 } else { STREAM_BYTES / 8 };
    let buf: Vec<u64> = (0..words as u64).collect();
    let ns = time_ns(5, Duration::ZERO, || {
        let mut acc = [0u64; 4];
        for c in buf.chunks_exact(4) {
            for (a, &x) in acc.iter_mut().zip(c) {
                *a = a.wrapping_add(x);
            }
        }
        black_box(acc);
    });
    (words * 8) as f64 / ns
}

pub fn kernel_floor(g: &CsrGraph, smoke: bool) -> Floor {
    let (n, m) = (g.n(), g.m().max(1));
    let min_time = if smoke { Duration::ZERO } else { Duration::from_millis(200) };
    let x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let scalar = Transition::new(g);
    let scalar_ns = time_ns(5, min_time, || scalar.propagate_into(0.85, &x, &mut y)) / m as f64;
    let parallel = ParallelTransition::new(g, 2);
    let parallel_ns = time_ns(5, min_time, || parallel.propagate_into(0.85, &x, &mut y)) / m as f64;
    let mut xb = ScoreBlock::zeros(n, LANES);
    xb.data_mut().iter_mut().for_each(|v| *v = 1.0 / n as f64);
    let mut yb = ScoreBlock::zeros(n, LANES);
    let block_ns = time_ns(3, min_time, || scalar.propagate_block_into(0.85, &xb, &mut yb))
        / (m * LANES) as f64;
    let per_dest = n as f64 / m as f64;
    let scalar_bytes = 20.0 + 16.0 * per_dest;
    let block_bytes =
        (12.0 + 8.0 * LANES as f64 + (8.0 + 8.0 * LANES as f64) * per_dest) / LANES as f64;
    let stream = stream_gbps(smoke);
    Floor {
        stream_gbps: stream,
        scalar_ns_per_edge: scalar_ns,
        parallel_ns_per_edge: parallel_ns,
        block8_ns_per_edge_lane: block_ns,
        scalar_bytes_per_edge: scalar_bytes,
        block8_bytes_per_edge_lane: block_bytes,
        bandwidth_share: scalar_bytes / scalar_ns / stream,
    }
}
