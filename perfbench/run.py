"""HIR toolchain benchmark: four user workloads, one closed-loop client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-simulate --seed 1 --seconds 25 --trace 0

``--seed`` picks the request order and every stimulus seed.  One client
sends requests in a closed loop (the next starts when the previous one has
returned) for about ``--seconds``, in whole blocks; each block holds every
request kind of the workload a fixed number of times, and the number of
blocks follows from ``--seconds`` alone, so every run of a workload sends the
same requests whatever the host's speed.  Every output is checked: the
simulated memories against the kernel's numpy reference, and the exact counts
(cycles, Verilog bytes, resources) against ``expected.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced blocks and prints the per-layer metrics: self seconds per
request of each layer (spans recorded by ``spans.py`` around the layers'
public functions), their counts, the share of request time the spans cover
and the tracing overhead.  A Chrome trace of the traced requests is written
to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``README.md`` in this
directory lists the workloads, why each was chosen, and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
CALIB_REPEATS = 5
#: The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

#: Per-layer metric -> span name its self time comes from.
LAYER_SECONDS = {
    "python.s": ("python.startup", "python.exit"),
    "import.s": ("import",),
    "cli.s": ("cli",),
    "flow.s": ("flow",),
    "kernels.build_s": ("kernels.build",),
    "graph.compose_s": ("graph.compose",),
    "passes.s": ("passes",),
    "ir.s": ("ir",),
    "verilog.codegen_s": ("verilog",),
    "verilog.unroll_s": ("verilog.unroll",),
    "verilog.lower_s": ("verilog.lower",),
    "verilog.emit_s": ("verilog.emit",),
    "resources.s": ("resources",),
    "sim.steady_state_s": ("sim.steady_state",),
    "sim.elaborate_s": ("sim.elaborate",),
    "sim.codegen_s": ("sim.codegen",),
    "sim.compile_scalar_s": ("sim.compile_scalar",),
    "sim.compile_fused_s": ("sim.compile_fused",),
    "sim.compile_lanes_s": ("sim.compile_lanes",),
    "sim.run_s": ("sim.run",),
    "sim.batch_run_s": ("sim.batch_run",),
    "store.get_s": ("store.get",),
    "store.put_s": ("store.put",),
    "hls.s": ("hls",),
    "unattributed.s": ("unattributed",),
}
#: Catch-all spans: their self time is code below them that no layer span
#: names, so ``trace.coverage`` counts it as uncovered.
CATCH_ALL = ("cli", "flow", "unattributed")
#: Per-layer counts, averaged per traced request.
LAYER_COUNTS = ("passes.ir_ops", "verilog.unrolled_ops", "sim.source_lines",
                "sim.fallbacks", "store.bytes_written", "hls.dse.scheduled",
                "hls.dse.pruned", "hls.dse.memo_hits")


def _unit(name):
    if name.endswith(("_s", ".s", "overhead")):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def host_calibration():
    """Median time of a fixed pure-Python loop: recorded beside every run so
    a slow host can be told from a slow commit; never used to rescale."""
    times = []
    for _ in range(CALIB_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total = (total + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(times):
    """``(value, percentile, samples beyond)``: the highest percentile of
    ``times`` with at least ``TAIL_BEYOND`` samples above it (nearest rank),
    or the maximum when the run has too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    return (ordered[n - TAIL_BEYOND - 1],
            math.floor(100 * (n - TAIL_BEYOND) / n), TAIL_BEYOND)


def run_loop(workload, rng, seconds, trace):
    """Closed loop over the workload's fixed number of blocks for
    ``seconds``; with ``trace`` at least two, and the odd ones are traced.
    Returns ``[(kind, traced, outcome)]``."""
    from workloads import Outcome
    results = []
    for block in range(max(workload.blocks(seconds), 1 + bool(trace))):
        traced = bool(trace) and block % 2 == 1
        for kind in workload.block(rng):
            workload.recorder.request = len(results)
            began = time.perf_counter()
            try:
                outcome = workload.request(kind, rng, traced)
            except Exception as error:  # counted, never retried or dropped
                outcome = Outcome(seconds=time.perf_counter() - began,
                                  ok=False,
                                  error=f"{type(error).__name__}: {error}")
            results.append((kind, traced, outcome))
    return results


def check_exact(results, expected):
    """Fail each request whose exact counts differ from the pinned ones."""
    for kind, _, outcome in results:
        pinned = expected.get(kind, {})
        for key, value in outcome.exact.items():
            if pinned.get(key) != value:
                outcome.ok = False
                outcome.error = (f"{kind}: {key} = {value}, expected "
                                 f"{pinned.get(key)} (expected.json)")


def end_to_end(workload, results, setups):
    outcomes = [outcome for _, traced, outcome in results if not traced]
    times = [outcome.seconds for outcome in outcomes]
    tail_value, tail_pct, beyond = tail(times)
    from workloads import peak_rss_mb
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "request_s.p50": (statistics.median(times), "s"),
        "request_s.tail": (tail_value, "s"),
        "request_s.mean": (statistics.fmean(times), "s"),
        "peak_rss_mb": (peak_rss_mb(outcomes, workload), "MB"),
    }
    notes = {"request_s.tail": f"p{tail_pct}, {beyond} of {len(times)} "
                               "samples beyond",
             "setup_s": f"median of {len(setups)}: "
                        + ", ".join(f"{s:.3f}" for s in setups)}
    return metrics, notes


def workload_counts(results):
    """Exact per-design counts of the run (each design counted once) and
    simulator throughput."""
    per_design = {}
    for kind, _, outcome in results:
        if outcome.ok:
            per_design.setdefault(kind, outcome.exact)
    totals = {}
    for exact in per_design.values():
        for key, value in exact.items():
            name = "design_cycles" if key == "cycles" else key
            totals[name] = totals.get(name, 0) + value
    simulated = [outcome for _, traced, outcome in results
                 if not traced and outcome.sim_cycles]
    if simulated:
        totals["sim_cycles_per_s"] = (
            sum(outcome.sim_cycles for outcome in simulated)
            / sum(outcome.seconds for outcome in simulated))
    return per_design, totals


def per_layer(workload, results, calib):
    import spans
    recorder = workload.recorder
    traced_ids = [index for index, (_, traced, _) in enumerate(results)
                  if traced]
    self_time = spans.self_times(recorder.spans)
    walls = {}
    for name, start, stop, parent, request in recorder.spans:
        if name == "request" and parent is None:
            walls[request] = stop - start
    count = max(1, len(traced_ids))

    def mean_seconds(names, ids):
        return sum(self_time[i].get(name, 0.0) for i in ids
                   for name in names) / max(1, len(ids))

    def total_count(name, ids):
        return sum(recorder.counts[i].get(name, 0.0) for i in ids)

    metrics = {name: mean_seconds(names, traced_ids)
               for name, names in LAYER_SECONDS.items()}
    for name in LAYER_COUNTS:
        metrics[name] = total_count(name, traced_ids) / count
    lookups = total_count("sim.cache.lookups", traced_ids)
    metrics["sim.cache.hit_ratio"] = (
        (lookups - total_count("sim.cache.misses", traced_ids)) / lookups
        if lookups else 0.0)
    gets = total_count("store.gets", traced_ids)
    metrics["store.hit_ratio"] = (total_count("store.hits", traced_ids)
                                  / gets if gets else 0.0)
    wall = sum(walls.get(i, 0.0) for i in traced_ids)
    uncovered = sum(self_time[i].get(name, 0.0)
                    for i in traced_ids for name in CATCH_ALL)
    metrics["trace.coverage"] = 1.0 - uncovered / wall if wall else 0.0
    traced_times = [results[i][2].seconds for i in traced_ids]
    plain_times = [outcome.seconds for _, traced, outcome in results
                   if not traced]
    metrics["trace.overhead"] = (statistics.median(traced_times)
                                 - statistics.median(plain_times))
    metrics["host.calib_s"] = calib

    # Per request kind, for the human-readable table.
    kinds = {}
    for i in traced_ids:
        kinds.setdefault(results[i][0], []).append(i)
    breakdown = {kind: {name: mean_seconds(names, ids)
                        for name, names in LAYER_SECONDS.items()}
                 | {"wall_s": sum(walls.get(i, 0.0) for i in ids) / len(ids)}
                 for kind, ids in kinds.items()}
    return metrics, breakdown


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # The benchmark fixes every toolchain setting; none leaks in from the
    # caller's environment (children inherit the scrubbed environment).
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    recorder = spans.Recorder()
    workload = workloads.WORKLOADS[args.workload](work, recorder)
    rng = random.Random(args.seed)
    try:
        calib = host_calibration()
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        if args.trace and workload.in_process:
            spans.install(recorder)
        workloads.reset_peak_rss()
        begun = time.perf_counter()
        results = run_loop(workload, rng, args.seconds, args.trace)
        measured = time.perf_counter() - begun
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_exact(results, expected)
    failed = [(kind, outcome) for kind, _, outcome in results
              if not outcome.ok]
    attempted = len(results)
    metrics, notes = end_to_end(workload, results, setups)
    per_design, totals = workload_counts(results)

    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"{attempted} requests in {measured:.1f} s  (closed loop, "
          "1 client)")
    print(f"  host.calib_s        {calib:.6f} s  (fixed pure-Python loop; "
          "diagnostic only)")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<19} {_fmt(value)} {unit}{note}")
    print(f"  {'error_rate':<19} {len(failed) / attempted:.6g}  "
          f"({len(failed)} of {attempted})")
    units = {"sim_cycles_per_s": "cycles/s", "design_cycles": "cycles",
             "verilog_bytes": "bytes"}
    for name, value in totals.items():
        if name != "hls_latency":
            print(f"  {name:<19} {_fmt(value)} {units.get(name, 'count')}")
    for kind, exact in per_design.items():
        print(f"    {kind:<22} " + "  ".join(f"{key}={value}"
                                           for key, value in exact.items()))
    for kind, outcome in failed[:10]:
        print(f"  FAILED {kind}: {outcome.error}", file=sys.stderr)

    if args.trace:
        layer_metrics, breakdown = per_layer(workload, results, calib)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        labels = {index: kind for index, (kind, _, _) in enumerate(results)}
        spans.write_chrome_trace(recorder.spans, trace_path, labels)
        print(f"# per-layer self seconds per traced request "
              f"(Chrome trace: {trace_path.relative_to(ROOT)})")
        columns = ["wall_s"] + [name for name in LAYER_SECONDS
                                if any(row[name] for row in breakdown.values())]
        print(f"  {'kind':<20}" + "".join(f" {name:>{max(9, len(name))}}"
                                          for name in columns))
        for kind, row in breakdown.items():
            print(f"  {kind:<20}" + "".join(
                f" {row[name]:>{max(9, len(name))}.4f}" for name in columns))
        for name, value in layer_metrics.items():
            print(f"  {name:<24} {_fmt(value)} {_unit(name)}")
        reported = {name: {"value": value, "unit": _unit(name)}
                    for name, value in layer_metrics.items()}
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
