"""End-to-end wall-clock benchmark of the simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload train-dgl --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --seed 0 --out benchmarks/e2e/results/x.json

Each invocation of one workload measures in fresh child processes with
one BLAS/OpenMP thread, ``REPRO_*`` variables cleared and a fixed hash
seed. ``SETUP_SAMPLES - 1`` children only set up (imports, dataset
build, one warm-up run) so that ``setup_s`` is a median; the last child
also runs the closed timed loop for ``--seconds``. With ``--trace 1``
the loop alternates untraced and traced runs and reports the per-layer
attribution instead of the end-to-end metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run fails when it raises,
breaks an invariant (timeline reconciliation, request ledger), or returns
modeled outputs that differ from the invocation's first run or, on seed
0, from ``expected_seed0.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOAD_NAMES = ("cluster-fastgl", "train-dgl", "fleet-affinity",
                  "fleet-overload")
PINS = HERE / "expected_seed0.json"
#: Fresh processes whose set-up time is measured; ``setup_s`` is their
#: median.
SETUP_SAMPLES = 3
#: Minimum timed runs per invocation, whatever ``--seconds`` says.
MIN_RUNS = 4
#: Relative tolerance against the seed-0 pins (floating-point results
#: may differ in the last digits across CPUs; counts must match exactly).
PIN_REL_TOL = 1e-5
#: Hard wall-clock budget of one workload invocation, all children.
BUDGET_S = 170.0
DEFAULT_SECONDS = 15

END_TO_END = {
    "items_per_s": "items/s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    from e2e.trace import LAYERS, UNATTRIBUTED

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "share"
    units[f"{UNATTRIBUTED}.self_s"] = "s"
    units[f"{UNATTRIBUTED}.share"] = "share"
    units.update({
        "sampling.edges": "count",
        "sampling.input_nodes": "count",
        "transfer.rows_wanted": "count",
        "transfer.rows_loaded": "count",
        "transfer.resident_rate": "share",
        "cluster.halo.requested_rows": "count",
        "cluster.halo.hit_rate": "share",
        "cluster.halo.bytes_moved": "bytes",
        "core.match.calls_per_route": "calls/route",
        "core.match.calls_per_dispatch": "calls/dispatch",
        "serve.device_hit_rate": "share",
        "serve.cache_tier.hit_rate": "share",
        "serve.cache_tier.stale_rate": "share",
        "serve.rerouted": "count",
        "serve.crashes": "count",
        "serve.scale_events": "count",
        "trace.overhead": "share",
        "trace.coverage": "share",
    })
    return units


# -- child process: one workload, measured in-process -----------------------

def _one_run(workload, state, tracer=None) -> dict:
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    try:
        report = workload.run(state)
    except Exception:  # a failed run is counted, not fatal
        traceback.print_exc()
        return {"wall": time.perf_counter() - start,
                "traced": tracer is not None, "ok": False}
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    problems = workload.problems(report)
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    record = {"wall": wall, "traced": tracer is not None,
              "ok": not problems, "items": workload.num_items(report),
              "outputs": workload.outputs(report)}
    if tracer is not None:
        record["layers"] = tracer.attribution(wall)
        record["counters"] = _work_counters(tracer, workload, report)
    return record


def _work_counters(tracer, workload, report) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    work = tracer.work
    counters = {
        "sampling.edges": work["sampling.edges"],
        "sampling.input_nodes": work["sampling.input_nodes"],
        "transfer.rows_wanted": work["transfer.rows_wanted"],
        "transfer.rows_loaded": work["transfer.rows_loaded"],
        "transfer.resident_rate": ratio(work["transfer.rows_resident"],
                                        work["transfer.rows_wanted"]),
        "core.match.calls_per_route": ratio(
            tracer.target_calls["repro.serve.routing:match_degree"],
            tracer.calls["serve.routing"]),
        "core.match.calls_per_dispatch": ratio(
            tracer.target_calls["repro.serve.batcher:match_degree"],
            tracer.calls["serve.batcher"]),
        "cluster.halo.requested_rows": 0,
        "cluster.halo.hit_rate": 0.0,
        "cluster.halo.bytes_moved": 0,
        "serve.device_hit_rate": 0.0,
        "serve.cache_tier.hit_rate": 0.0,
        "serve.cache_tier.stale_rate": 0.0,
        "serve.rerouted": 0,
        "serve.crashes": 0,
        "serve.scale_events": 0,
    }
    counters.update(workload.counters(report))
    return counters


def _stop_resource_tracker() -> None:
    # The fleet cache tier's shared-memory arena starts multiprocessing's
    # resource tracker; stop it so that no process outlives this one.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def child_main(args) -> int:
    import numpy as np

    from e2e.trace import LayerTracer
    from e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, smoke=args.smoke)
    runs = [_one_run(workload, state)]  # warm-up
    ready = time.monotonic()
    if args.child == "measure":
        tracer = LayerTracer() if args.trace else None
        timed: list = []
        while True:
            traced = tracer is not None and len(timed) % 2 == 1
            timed.append(_one_run(workload, state,
                                  tracer if traced else None))
            elapsed = time.monotonic() - ready
            typical = statistics.median(r["wall"] for r in timed)
            if len(timed) >= MIN_RUNS and elapsed + typical > args.seconds:
                break
        runs.extend(timed)
    _stop_resource_tracker()
    print(json.dumps({
        "ready": ready,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": np.__version__,
    }))
    return 0


# -- parent process: spawn children, check outputs, compute metrics ---------

class BenchmarkError(RuntimeError):
    """A child process died or overran; there is no result to report."""


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(role: str, args, workload: str, trace: int,
          deadline: float) -> dict:
    """Run one child to completion; its setup time rides in ``setup_s``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"{workload}: {role} child exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: {role} child exited with code "
                             f"{proc.returncode}")
    payload = json.loads(lines[-1])
    payload["setup_s"] = payload["ready"] - spawned
    return payload


def outputs_match(got, want) -> bool:
    """Pinned-output comparison: exact for counts and strings, relative
    tolerance :data:`PIN_REL_TOL` for floats, ``*_sha`` keys skipped
    (bit-exact hashes hold within one machine, not across CPUs)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return False
        return all(outputs_match(got[key], want[key])
                   for key in want if not key.endswith("_sha"))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(outputs_match(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=PIN_REL_TOL, abs_tol=1e-12)
    return got == want


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "min": values[0], "q1": q1,
            "median": statistics.median(values), "q3": q3,
            "max": values[-1]}


def measure(args, workload: str, trace: int) -> dict:
    """One workload invocation: the result object plus diagnostics."""
    deadline = time.monotonic() + BUDGET_S
    children = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            children.append(spawn("setup", args, workload, trace, deadline))
    children.append(spawn("measure", args, workload, trace, deadline))
    final = children[-1]

    runs = [run for child in children for run in child["runs"]]
    first = next((run["outputs"] for run in runs if run["ok"]), None)
    pin = (load_pins().get(workload)
           if args.seed == 0 and not args.smoke else None)
    failed = 0
    for run in runs:
        if not run["ok"]:
            failed += 1
        elif run["outputs"] != first:
            print(f"{workload}: modeled outputs differ between runs",
                  file=sys.stderr)
            failed += 1
        elif pin is not None and not outputs_match(run["outputs"], pin):
            print(f"{workload}: modeled outputs differ from {PINS.name}",
                  file=sys.stderr)
            failed += 1

    loop = [run for run in final["runs"][1:] if run["ok"]]
    untraced = [run["wall"] for run in loop if not run["traced"]]
    traced = [run for run in loop if run["traced"]]
    diagnostics = {}
    metrics = {}
    if not untraced or (trace and not traced):
        failed = max(failed, 1)
    elif not trace:
        run_s = statistics.median(untraced)
        setup_s = statistics.median(c["setup_s"] for c in children)
        values = {"items_per_s": loop[0]["items"] / run_s,
                  "run_s": run_s,
                  "setup_s": setup_s,
                  "peak_rss_mb": final["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        diagnostics = {
            "run_s": quartiles(untraced),
            "setup_s": quartiles([c["setup_s"] for c in children]),
            "items_per_run": loop[0]["items"],
        }
    else:
        values = {}
        for layer in traced[0]["layers"]:
            for key in ("calls", "self_s", "share"):
                values[f"{layer}.{key}"] = statistics.median(
                    r["layers"][layer][key] for r in traced)
        for name in traced[0]["counters"]:
            values[name] = statistics.median(
                r["counters"][name] for r in traced)
        # Fastest against fastest: the machine's slow spells only ever add
        # time, and a handful of runs of each kind is too few for their
        # medians to cancel them.
        values["trace.overhead"] = (min(r["wall"] for r in traced)
                                    / min(untraced) - 1.0)
        values["trace.coverage"] = statistics.median(
            1.0 - r["layers"]["unattributed"]["share"] for r in traced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        diagnostics = {"traced_wall_s": quartiles(
            [r["wall"] for r in traced])}
    return {
        "result": {"correct": failed == 0, "attempted": len(runs),
                   "failed": failed, "metrics": metrics},
        "diagnostics": diagnostics,
        "numpy": final["numpy"],
    }


def format_value(value) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def print_metrics(workload: str, outcome: dict) -> None:
    result = outcome["result"]
    for name, metric in result["metrics"].items():
        print(f"{workload:15s} {name:34s} "
              f"{format_value(metric['value']):>14s} {metric['unit']}")
    for name, stats in outcome["diagnostics"].items():
        if isinstance(stats, dict):
            print(f"{workload:15s} {name:34s} n={stats['n']} "
                  f"min={stats['min']:.4g} q1={stats['q1']:.4g} "
                  f"median={stats['median']:.4g} q3={stats['q3']:.4g} "
                  f"max={stats['max']:.4g}")
    print(f"{workload:15s} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(args) -> int:
    """Every workload, untraced then traced; optional JSON to ``--out``."""
    report = {"header": {"seed": args.seed, "seconds": args.seconds,
                         "smoke": args.smoke, "nproc": os.cpu_count(),
                         "python": platform.python_version(),
                         "git_revision": git_revision()},
              "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            outcome = measure(args, name, trace)
            print_metrics(name, outcome)
            report["header"]["numpy"] = outcome.pop("numpy")
            entry["traced" if trace else "untraced"] = outcome
            ok = ok and outcome["result"]["correct"]
        report["workloads"][name] = entry
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def record_pins(args) -> int:
    """Rewrite ``expected_seed0.json`` from one warm-up run per workload."""
    pins = {}
    for name in WORKLOAD_NAMES:
        child = spawn("setup", args, name, 0, time.monotonic() + BUDGET_S)
        pins[name] = child["runs"][0]["outputs"]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all four, untraced "
                             "and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed-loop length per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs (for the harness tests)")
    parser.add_argument("--out", help="write all-workload results here")
    parser.add_argument("--record-pins", action="store_true",
                        help=f"rewrite {PINS.name} at seed 0")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.record_pins:
            args.seed, args.smoke = 0, False
            return record_pins(args)
        if args.workload is None:
            return run_all(args)
        outcome = measure(args, args.workload, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_metrics(args.workload, outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    # Import the sibling modules as the ``e2e`` package, so that
    # ``e2e.trace`` never shadows the standard library's ``trace``.
    sys.path[0] = str(HERE.parent)
    sys.exit(main())
