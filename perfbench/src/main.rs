//! `perfbench` — the repository benchmark of the TPA serving stack.
//!
//! Drives `tpa-core`'s public API from outside (`ServiceBuilder`,
//! `RwrService::submit`, `apply_updates`, `patch_index`) on four
//! seeded workloads, checks the answers against exact RWR, and prints a
//! human summary followed by one JSON result line.
//!
//! ```text
//! perfbench gen   --workload W --seed N --out GRAPH
//! perfbench run   --workload W --seed N --seconds S --trace 0|1 --graph GRAPH
//!                 [--spans FILE]
//! perfbench smoke
//! ```
//!
//! `gen` and `run` are separate processes so that the run's peak RSS
//! excludes the graph generator. `perfbench/run.py` is the entry point
//! that builds the package and runs the two in turn.

mod probe;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Spec, NAMES};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench gen --workload W --seed N --out GRAPH\n       \
         perfbench run --workload W --seed N --seconds S --trace 0|1 --graph GRAPH [--spans FILE]\n       \
         perfbench smoke\nworkloads: {}",
        NAMES.join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs.
fn parse(args: &[String]) -> Option<HashMap<String, String>> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        out.insert(a.strip_prefix("--")?.to_string(), it.next()?.clone());
    }
    Some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { return usage() };
    if cmd == "smoke" {
        return smoke();
    }
    let Some(opts) = parse(rest) else { return usage() };
    let (Some(spec), Some(seed)) = (
        opts.get("workload").and_then(|w| Spec::named(w, false)),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
    ) else {
        return usage();
    };
    match cmd.as_str() {
        "gen" => {
            let Some(out) = opts.get("out") else { return usage() };
            let g = workload::generate(&spec, seed);
            match tpa_graph::io::write_snapshot_file(&g, out) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: cannot write {out}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let (Some(graph), Some(seconds), Some(trace)) = (
                opts.get("graph"),
                opts.get("seconds").and_then(|s| s.parse::<f64>().ok()),
                opts.get("trace").and_then(|t| t.parse::<u8>().ok()),
            ) else {
                return usage();
            };
            let g = match tpa_graph::io::read_snapshot_file(graph) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("perfbench: cannot read {graph}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let result = if trace == 1 {
                let spans = opts.get("spans").map(Path::new);
                trace::run_traced(&spec, g, seed, seconds, false, spans)
            } else {
                workload::run_measured(&spec, g, seed, seconds)
            };
            match result {
                Ok(out) => {
                    for note in &out.notes {
                        println!("{note}");
                    }
                    print!("{}", out.metrics.table());
                    for v in &out.violations {
                        println!("CHECK FAILED: {v}");
                    }
                    println!("{}", out.result_line());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", spec.name);
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// Every workload, measured and traced, with oracle verification, on
/// tiny graphs: a self-check of the benchmark that takes seconds.
fn smoke() -> ExitCode {
    let mut ok = true;
    for name in NAMES {
        let Some(spec) = Spec::named(name, true) else { return ExitCode::FAILURE };
        for trace in [false, true] {
            let t = Instant::now();
            let g = workload::generate(&spec, 7);
            let result = if trace {
                trace::run_traced(&spec, g, 7, 0.3, true, None)
            } else {
                workload::run_measured(&spec, g, 7, 0.3)
            };
            let (verdict, detail) = match result {
                Ok(out) if out.correct() && out.attempted > 0 => ("ok", String::new()),
                Ok(out) => ("FAILED", format!(" {}", out.result_line())),
                Err(e) => ("FAILED", format!(" {e}")),
            };
            ok &= verdict == "ok";
            println!(
                "smoke {name:<14} trace={} {verdict} ({:.2}s){detail}",
                u8::from(trace),
                t.elapsed().as_secs_f64()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
