"""Perf-regression checker over the observability metrics.

:func:`check` compares flat ``name -> value`` metrics against a
committed baseline document; every gate in :mod:`repro.gate` goes
through it. This module also holds the ``obs`` scenario's suite: one
epoch each of the DGL baseline, FastGL, and out-of-core FastGL on a
self-contained synthetic dataset. All tracked values are *modeled*
(counted work converted to seconds under the fixed cost model) or pure
counts, so the suite produces bit-identical numbers across runs and
platforms; any drift is a real behavioral change in sampling, caching,
transfer planning, or the cost model, not noise.

Usage::

    python -m repro.gate obs          # check benchmarks/results/baseline.json
    python -m repro.gate obs --write  # refresh it
"""

from __future__ import annotations

from repro.obs import flatten_snapshot, instrumented, to_snapshot

#: Relative drift allowed per metric unless the baseline overrides it.
DEFAULT_TOLERANCE = 0.05

#: Frameworks the suite exercises; together they touch every
#: instrumented subsystem (sampling, ID map, transfer, storage, sim).
SUITE_FRAMEWORKS = ("dgl", "fastgl", "fastgl-ooc")


def _suite_dataset():
    """A tiny self-contained dataset; never reads the named registry."""
    from repro.graph.datasets import Dataset, DatasetSpec, PaperScale

    spec = DatasetSpec(
        name="obs-regress",
        num_nodes=3000,
        avg_degree=12.0,
        feature_dim=32,
        num_classes=8,
        train_fraction=0.2,
        # Paper-scale stand-in sized so the cache budget covers ~25% of
        # the feature table — enough for hits and misses to both occur.
        paper=PaperScale(30_000, 360_000, 1_000_000),
    )
    return Dataset(spec, seed=0)


def _suite_config():
    from repro.config import RunConfig

    return RunConfig(
        batch_size=128,
        fanouts=(5, 5),
        num_gpus=2,
        reorder_window=8,
        seed=0,
    )


def collect_benchmark_metrics():
    """Run the instrumented suite; returns the metrics snapshot (dict)."""
    from repro.frameworks import FRAMEWORKS

    dataset = _suite_dataset()
    config = _suite_config()
    with instrumented() as registry:
        for name in SUITE_FRAMEWORKS:
            FRAMEWORKS[name]().run_epoch(dataset, config, model_name="gcn")
        return to_snapshot(registry)


def build_baseline(metrics: dict,
                   default_tolerance: float = DEFAULT_TOLERANCE,
                   suite=()) -> dict:
    """Baseline document from flat metrics: values + tolerance + the
    suite label (what produced them)."""
    return {
        "suite": list(suite),
        "default_tolerance": default_tolerance,
        "metrics": {
            name: {"value": value} for name, value in sorted(metrics.items())
        },
    }


def check(metrics: dict, baseline: dict) -> list:
    """Compare flat ``metrics`` against ``baseline``; returns violations.

    Each violation is a dict with ``metric``, ``reason`` and the values
    involved. A baseline entry may hold a ``min`` floor, a ``max``
    ceiling and a ``value``; a metric violates when it is absent, falls
    below its floor, rises above its ceiling, or drifts from its value
    by more than its relative tolerance (``tolerance`` per metric, else
    the baseline's ``default_tolerance``). Metrics present only in
    ``metrics`` are new, not regressions, and are ignored.
    """
    default_tol = float(baseline.get("default_tolerance", DEFAULT_TOLERANCE))
    violations = []
    for name, entry in baseline.get("metrics", {}).items():
        if name not in metrics:
            violations.append({"metric": name, "reason": "missing",
                               "expected": entry.get("value")})
            continue
        actual = float(metrics[name])
        if "min" in entry and actual < float(entry["min"]):
            violations.append({"metric": name, "reason": "below-min",
                               "actual": actual, "min": float(entry["min"])})
        if "max" in entry and actual > float(entry["max"]):
            violations.append({"metric": name, "reason": "above-max",
                               "actual": actual, "max": float(entry["max"])})
        if "value" in entry:
            expected = float(entry["value"])
            tolerance = float(entry.get("tolerance", default_tol))
            drift = abs(actual - expected) / max(abs(expected), 1e-12)
            if drift > tolerance:
                violations.append({
                    "metric": name,
                    "reason": "drift",
                    "expected": expected,
                    "actual": actual,
                    "drift": drift,
                    "tolerance": tolerance,
                })
    return violations


def format_violation(violation: dict) -> str:
    reason = violation["reason"]
    if reason == "missing":
        if violation["expected"] is None:
            return f"MISSING {violation['metric']}"
        return (f"MISSING {violation['metric']} "
                f"(baseline {violation['expected']:g})")
    if reason == "below-min":
        return (f"BELOW   {violation['metric']}: {violation['actual']:g} "
                f"< min {violation['min']:g}")
    if reason == "above-max":
        return (f"ABOVE   {violation['metric']}: {violation['actual']:g} "
                f"> max {violation['max']:g}")
    return (f"DRIFT   {violation['metric']}: "
            f"{violation['expected']:g} -> {violation['actual']:g} "
            f"({violation['drift']:+.1%} vs tolerance "
            f"{violation['tolerance']:.1%})")
