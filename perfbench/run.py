#!/usr/bin/env python3
"""The repository benchmark. Builds the benchmark binary from the checkout,
runs one workload, checks its answers and prints its metrics.

    python3 perfbench/run.py --workload cov-4t|cart-1t|serve-mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. A human-readable report goes to
standard error; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (the traced run
also writes a Chrome trace). The exit code is 0 only when every answer was
correct. See perfbench/README.md."""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

BENCH_DIR = "perfbench"
# Budget for all of a run's processes (the build before them is not counted).
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=subprocess.DEVNULL, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("perfbench: run from the root of a checkout (src/ not found)")
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as err:
        log("perfbench: build failed: %s" % err)
        return 2

    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_path = os.path.join(out_dir, stem + ".trace.json")
    parts = 1 if args.trace else metrics.PARTS[args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    records = []
    for part in range(parts):
        raw_path = os.path.join(out_dir, "%s.part%d.raw.json" % (stem, part))
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / parts),
                   "--trace", str(args.trace), "--out", raw_path,
                   "--cross-check", "1" if part == 0 else "0"]
        if args.trace:
            command += ["--trace-out", trace_path]
        for path in (raw_path, trace_path):
            if os.path.exists(path):
                os.remove(path)
        try:
            subprocess.run(command, check=True, stdout=sys.stderr,
                           stderr=sys.stderr,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as err:
            log("perfbench: %s" % err)
            return 2
        with open(raw_path) as f:
            records.append(json.load(f))
    raw = metrics.merge_raw(records)
    scalars = raw["scalars"]
    attempted = int(scalars.get("attempted", 0))
    failed = int(scalars.get("failed", 0))
    mismatches = int(scalars.get("mismatches", 0))
    if len(set(raw["series"].get("tree_fingerprint", []))) > 1:
        log("perfbench: the run's processes trained different trees")
        mismatches += 1
    correct = attempted >= 1 and mismatches == 0
    if scalars.get("peak_rss_reset_failed"):
        log("perfbench: note: the peak-RSS reset was refused; peak_rss_mib "
            "includes data generation and the reference computations")

    if args.trace:
        spans = metrics.parse_trace(trace_path)
        problems = metrics.nesting_problems(spans)
        if problems:
            log("perfbench: the trace does not nest:\n  " +
                "\n  ".join(problems[:10]))
            return 2
        values = metrics.per_layer(args.workload, raw, spans)
        units = dict(metrics.per_layer_names())
        log("trace: %d spans in %s" % (len(spans), trace_path))
    else:
        values, notes = metrics.end_to_end(args.workload, raw)
        units = dict(metrics.END_TO_END)
        for note in notes:
            log(note)
    if args.workload == "serve-mixed" and not args.trace:
        late = scalars.get("serve.late_ms_max", 0.0)
        if late > 10.0:
            log("perfbench: WARNING: the generator fell behind by up to "
                "%.1f ms; latencies include its lateness" % late)
    out = {name: (values[name], units[name]) for name in sorted(values)}
    for name, (value, unit) in out.items():
        log("%-28s %14.6g %s" % (name, value, unit))
    if not correct:
        log("perfbench: WRONG ANSWERS: %d mismatches" % mismatches)
    print(metrics.result_line(correct, attempted, failed, out), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
