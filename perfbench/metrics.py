"""Metric bookkeeping for the benchmark: percentiles, the tail rule, error
rate, the end-to-end and per-layer metrics, trace analysis and the result
line. run.py feeds it the raw record and trace the binary writes;
test_metrics.py tests it on hand-made inputs."""

import json
import math
import statistics

# Tail percentile each workload reports. A run must have at least
# MIN_BEYOND samples above it; with fewer, the tail rule falls back to the
# highest percentile that still has them (and says so).
TAIL = {"cov-4t": 0.90, "cart-1t": 0.80, "serve-mixed": 0.95}
MIN_BEYOND = 10
WORKLOADS = tuple(TAIL)

# Processes an untraced run is split over. A process keeps its speed level
# for its whole life (memory placement), and levels differ by up to ~15%
# between processes, so pooling the samples of several processes steadies
# the medians. Traced runs use one process.
PARTS = {"cov-4t": 4, "cart-1t": 4, "serve-mixed": 3}

# Raw scalars that merge across processes by maximum; all others add up.
MAX_SCALARS = {"exec.bitdiff_queries", "serve.late_ms_max",
               "serve.queue_highwater", "peak_rss_reset_failed"}

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("train_s", "s"),
    ("refresh_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "fraction"),
]

# Layers in span-name order: a span's layer is its name up to the first dot.
LAYERS = ("query", "compile", "storage", "exec", "ml", "serve")

# Per-layer metrics read off spans: name -> (span, field, unit, reducer).
# Field "dur" is the span's duration in ms; anything else is a span arg.
SPAN_METRICS = {
    "compile.viewgen_ms": ("compile.viewgen", "dur", "ms", "median"),
    "compile.grouping_ms": ("compile.grouping", "dur", "ms", "median"),
    "compile.plan_ms": ("compile.plan", "dur", "ms", "median"),
    "compile.prepare_ms": ("compile.prepare", "dur", "ms", "median"),
    "compile.views": ("exec.execute", "views", "count", "median"),
    "compile.groups": ("exec.execute", "groups", "count", "median"),
    "compile.aggregates": ("exec.execute", "aggregates", "count", "median"),
    "query.parse_ms": ("query.parse", "dur", "ms", "median"),
    "storage.sort_ms": ("exec.context", "sort_ms", "ms", "median"),
    "storage.sort_rows": ("exec.context", "sort_rows", "count", "median"),
    "storage.peak_view_mib": ("exec.execute", "peak_view_mib", "MiB", "median"),
    "storage.peak_live_views": ("exec.execute", "peak_live_views", "count",
                                "median"),
    "storage.frozen_views": ("exec.execute", "frozen_views", "count",
                             "median"),
    "exec.execute_ms": ("exec.execute", "dur", "ms", "median"),
    "exec.group_cpu_ms": ("exec.execute", "group_cpu_ms", "ms", "median"),
    "exec.group_ms_max": ("exec.execute", "group_ms_max", "ms", "median"),
    "exec.top_group_share": ("exec.execute", "top_group_share", "fraction",
                             "median"),
    "exec.parallel_efficiency": ("exec.execute", "parallel_efficiency",
                                 "fraction", "median"),
    "exec.shards": ("exec.execute", "shards", "count", "median"),
    "exec.output_entries": ("exec.execute", "output_entries", "count",
                            "median"),
    "exec.groups_interp": ("exec.execute", "groups_interp", "count", "median"),
    "exec.groups_simd": ("exec.execute", "groups_simd", "count", "median"),
    "exec.groups_jit": ("exec.execute", "groups_jit", "count", "median"),
    "exec.limit_trips": ("exec.execute", "limit_trips", "count", "max"),
    "exec.degraded_groups": ("exec.execute", "degraded_groups", "count",
                             "max"),
    "exec.delta_ms": ("exec.delta", "dur", "ms", "median"),
    "exec.delta_passes": ("exec.delta", "passes", "count", "median"),
    "exec.delta_rows": ("exec.delta", "rows", "count", "median"),
    "exec.delta_dirty_groups": ("exec.delta", "dirty_groups", "count",
                                "median"),
    "ml.sigma_ms": ("ml.sigma", "dur", "ms", "median"),
    "ml.bgd_ms": ("ml.bgd", "dur", "ms", "median"),
    "ml.bgd_iterations": ("ml.bgd", "iterations", "count", "median"),
    "ml.cart_provider_ms": ("ml.cart_provider", "dur", "ms", "median"),
    "ml.cart_split_ms": ("ml.cart_tree", "split_ms", "ms", "median"),
    "ml.cart_nodes": ("ml.cart_tree", "nodes", "count", "median"),
    "ml.cart_node_aggregates": ("ml.cart_provider", "aggregates", "count",
                                "median"),
}

# Per-layer metrics read off the raw record's scalars: name -> unit.
SCALAR_METRICS = {
    "exec.bitdiff_queries": "count",
    "storage.appended_rows": "count",
    "serve.shed": "count",
    "serve.retries": "count",
    "serve.degraded": "count",
    "serve.queue_highwater": "count",
    "serve.late_ms_max": "ms",
}

# The remaining per-layer metrics, computed below.
OTHER_METRICS = {
    "compile.plan_cache_hit_ratio": "fraction",
    "storage.append_ms_p50": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.queue_ms_tail": "ms",
    "serve.exec_ms_p50": "ms",
    "trace.op_ms_p50_traced": "ms",
    "trace.op_ms_p50_untraced": "ms",
    "trace.overhead_ratio": "ratio",
}
OTHER_METRICS.update({layer + ".self_share": "fraction" for layer in LAYERS})


def per_layer_names():
    """Every per-layer metric name with its unit, in output order."""
    names = [(n, spec[2]) for n, spec in SPAN_METRICS.items()]
    names += list(SCALAR_METRICS.items()) + list(OTHER_METRICS.items())
    return sorted(names)


def merge_raw(records):
    """Pools the raw records of the processes of one run."""
    merged = {"series": {}, "scalars": {}}
    for raw in records:
        for name, values in raw["series"].items():
            merged["series"].setdefault(name, []).extend(values)
        for name, value in raw["scalars"].items():
            old = merged["scalars"].get(name)
            if old is None:
                merged["scalars"][name] = value
            elif name in MAX_SCALARS:
                merged["scalars"][name] = max(old, value)
            else:
                merged["scalars"][name] = old + value
    return merged


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least a share
    `p` of the samples at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p * n - 1e-9))


def tail_percentile(n, wanted):
    """The percentile to report for n samples: `wanted` when at least
    MIN_BEYOND samples lie beyond it, else the highest whole percentile
    that has them (None when no percentile does)."""
    if beyond(n, wanted) >= MIN_BEYOND:
        return wanted
    for whole in range(int(round(wanted * 100)) - 1, 0, -1):
        if beyond(n, whole / 100.0) >= MIN_BEYOND:
            return whole / 100.0
    return None


def error_rate(attempted, failed):
    """Operations that failed, were refused or answered wrongly, over the
    operations attempted."""
    return failed / attempted if attempted > 0 else 1.0


def end_to_end(workload, raw):
    """The end-to-end metrics of one untraced run, as name -> value, plus
    notes for the human report."""
    series, scalars = raw["series"], raw["scalars"]
    ops = series.get("op_ms", [])
    notes = []
    tail = tail_percentile(len(ops), TAIL[workload])
    if tail is None:
        raise ValueError("%d operations are too few for any tail" % len(ops))
    if tail != TAIL[workload]:
        notes.append("tail fell back from p%g to p%g (%d samples)" %
                     (TAIL[workload] * 100, tail * 100, len(ops)))
    attempted = scalars.get("attempted", 0)
    failed = scalars.get("failed", 0)
    values = {
        "setup_s": median(series.get("setup_s", [])),
        "op_ms_p50": median(ops),
        "op_ms_tail": percentile(ops, tail),
        "ops_per_s": scalars.get("ok_ops", 0) / scalars["measured_seconds"],
        "train_s": median(series.get("train_s", [])),
        "refresh_ms_p50": median(series.get("refresh_ms", [])),
        "peak_rss_mib": max(series.get("peak_rss_mib", [0.0])),
        "success_rate": 1.0 - error_rate(attempted, failed),
    }
    notes.append("op_ms_tail is p%g of %d operations" % (tail * 100, len(ops)))
    notes.append("error_rate %.6g (%d of %d attempted)" %
                 (error_rate(attempted, failed), failed, attempted))
    return values, notes


def parse_trace(path):
    """Reads a Chrome trace written by the binary into span dicts with
    start/end in ms."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for event in doc["traceEvents"]:
        if event.get("ph") != "X":
            raise ValueError("unexpected trace event %r" % event)
        args = dict(event["args"])
        spans.append({
            "name": event["name"],
            "start": event["ts"] / 1e3,
            "end": (event["ts"] + event["dur"]) / 1e3,
            "id": int(args.pop("id")),
            "parent": int(args.pop("parent")),
            "op": int(args.pop("op")),
            "args": args,
        })
    return spans


def nesting_problems(spans, slack_ms=1e-3):
    """Spans whose parent is missing or does not contain them."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append("span %d ends before it starts" % s["id"])
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append("span %d has no parent %d" % (s["id"], s["parent"]))
        elif (s["start"] < parent["start"] - slack_ms or
              s["end"] > parent["end"] + slack_ms):
            problems.append("span %d (%s) escapes parent %d (%s)" %
                            (s["id"], s["name"], parent["id"], parent["name"]))
    return problems


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time per layer (ms) over the spans of measured operations: a
    span's duration minus what its children cover. Also returns the total
    time of the operations' root spans."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    root_ms = 0.0
    for s in spans:
        if s["op"] < 0:
            continue
        if s["parent"] == 0:
            root_ms += s["end"] - s["start"]
        covered = sum(
            min(c["end"], s["end"]) - max(c["start"], s["start"])
            for c in children.get(s["id"], []))
        own = max(0.0, (s["end"] - s["start"]) - covered)
        layer = layer_of(s["name"])
        totals[layer] = totals.get(layer, 0.0) + own
    return totals, root_ms


def span_values(spans, name, field):
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        if field == "dur":
            out.append(s["end"] - s["start"])
        elif field in s["args"]:
            out.append(s["args"][field])
    return out


def per_layer(workload, raw, spans):
    """The per-layer metrics of one traced run, as name -> value."""
    series, scalars = raw["series"], raw["scalars"]
    values = {}
    for name, (span, field, _, reducer) in SPAN_METRICS.items():
        found = span_values(spans, span, field)
        if not found:
            raise ValueError("trace has no %s spans with %s (for %s)" %
                             (span, field, name))
        values[name] = max(found) if reducer == "max" else median(found)
    for name in SCALAR_METRICS:
        values[name] = scalars.get(name, 0.0)
    hits = scalars.get("compile.plan_cache_hits", 0)
    misses = scalars.get("compile.plan_cache_misses", 0)
    values["compile.plan_cache_hit_ratio"] = (hits / (hits + misses)
                                              if hits + misses else 0.0)
    values["storage.append_ms_p50"] = median(series.get("append_ms", []))
    queue = series.get("serve.queue_ms") or span_values(spans, "serve.request",
                                                        "queue_ms")
    execs = series.get("serve.exec_ms") or span_values(spans, "serve.request",
                                                       "exec_ms")
    values["serve.queue_ms_p50"] = median(queue)
    tail = tail_percentile(len(queue), TAIL[workload]) or 0.5
    values["serve.queue_ms_tail"] = percentile(queue, tail)
    values["serve.exec_ms_p50"] = median(execs)
    traced = median(series.get("op_ms_traced", []))
    untraced = median(series.get("op_ms", []))
    values["trace.op_ms_p50_traced"] = traced
    values["trace.op_ms_p50_untraced"] = untraced
    values["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    totals, root_ms = self_times(spans)
    for layer in LAYERS:
        values[layer + ".self_share"] = (totals.get(layer, 0.0) / root_ms
                                         if root_ms else 0.0)
    return values


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line: one JSON object."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
