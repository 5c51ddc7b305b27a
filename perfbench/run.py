#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the `perfbench` package from source, generates the workload's
graph from the seed in one process, runs one measured (`--trace 0`) or
traced (`--trace 1`) pass over it in another (so the run's peak RSS
excludes the generator), and prints the run's summary followed by one
JSON result line (always the last line of stdout).

    python3 perfbench/run.py --workload online_topk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke        # every workload on tiny graphs

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default: .bench_build in the repository root). The generated graph is
written under it and deleted after the run; the spans of the latest
traced run of each workload are kept there as JSON lines.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("online_topk", "batch_scoring", "exact_topk", "rw_mixed")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building perfbench failed")
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"no binary at {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload, measured and traced, on tiny graphs")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    exe = build(target)
    if args.smoke:
        sys.exit(subprocess.run([exe, "smoke"]).returncode)

    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    graph = os.path.join(work, tag + ".graph")
    spans = os.path.join(work, f"spans-{args.workload}.jsonl")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        gen = subprocess.run([exe, "gen", *common, "--out", graph], stdout=sys.stderr)
        if gen.returncode != 0:
            fail("graph generation failed")
        run = subprocess.run([exe, "run", *common, "--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--graph", graph, "--spans", spans],
                             stdout=subprocess.PIPE, text=True)
    finally:
        if os.path.exists(graph):
            os.remove(graph)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} run exited with code {run.returncode}")
    json.loads(lines[-1])  # the result line must parse
    print("\n".join(lines))


if __name__ == "__main__":
    main()
