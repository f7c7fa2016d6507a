"""Wall-clock benchmark CLI — the repo's perf trajectory file.

Usage::

    python -m repro.bench                      # all kernels, both sizes
    python -m repro.bench --quick              # small sizes (CI smoke)
    python -m repro.bench match_degree_matrix  # one kernel
    python -m repro.bench --legacy             # also time legacy impls
    python -m repro.bench --quick \\
        --check-baseline benchmarks/results/bench_baseline.json

Writes ``BENCH_repro.json``: per-kernel wall-clock times (best of N),
deterministic work counters, and speedups against the kept reference
implementations (the legacy ``np.intersect1d`` match loop, the exact
per-operation hash table and the multi-column ``np.add.at`` scatter).

The baseline gate is machine-independent by construction: it pins the
seeded *work counters* exactly (any drift is a behavioral change) and
puts conservative *floors* under the vectorized-vs-reference speedups
(a real de-vectorization regression collapses the speedup by an order
of magnitude; machine noise does not). Absolute seconds are recorded
for the trajectory but never gated.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro.bench.kernels import KERNELS, REFERENCE_SIZES, SIZES

#: Record keys holding a fast-path speedup over a kept reference.
SPEEDUP_KEYS = ("speedup_vs_legacy", "speedup_vs_exact", "speedup_vs_add_at")


def run_bench(kernels=None, quick: bool = False, medium: bool = False,
              repeats: int = 3, seed: int = 0, legacy: bool = False) -> dict:
    """Run the selected kernels; returns the BENCH document.

    Size tiers nest: ``--quick`` runs ``small`` only, ``--medium`` adds
    the ``medium`` sizes (the acceptance sizes of the blocked-reorder
    and IPC-bytes gates — 256 batches x 4k nodes — kept cheap enough for
    CI), the default runs everything a kernel defines. Kernels without a
    given tier are simply skipped at it.
    """
    names = list(kernels) if kernels else list(KERNELS)
    if quick:
        sizes = ("small",)
    elif medium:
        sizes = ("small", "medium")
    else:
        sizes = ("small", "medium", "large")
    records = []
    for name in names:
        fn = KERNELS[name]
        for size in sizes:
            if size not in SIZES[name]:
                continue
            records.append(fn(size, repeats, seed))
    if legacy:
        from repro.core.reorder import match_degree_matrix_legacy
        from repro.bench.kernels import _node_sets, _record, _time
        if "match_degree_matrix" in names:
            for size in sizes:
                if size not in REFERENCE_SIZES["match_degree_matrix"]:
                    continue
                params = SIZES["match_degree_matrix"][size]
                node_sets = _node_sets(params, seed)
                times = _time(
                    lambda: match_degree_matrix_legacy(node_sets),
                    min(repeats, 2),
                )
                records.append(_record("match_degree_matrix_legacy", size,
                                       params, times, {}))
    return {
        "version": 1,
        "quick": bool(quick),
        "medium": bool(medium),
        "seed": int(seed),
        "repeats": int(repeats),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": records,
    }


def flatten_bench(doc: dict) -> dict:
    """``kernel/size:field`` -> number, for gating and diffing."""
    flat = {}
    for record in doc.get("kernels", []):
        prefix = f"{record['kernel']}/{record['size']}"
        flat[f"{prefix}:best_s"] = float(record["best_s"])
        flat[f"{prefix}:mean_s"] = float(record["mean_s"])
        for key in SPEEDUP_KEYS + ("legacy_s", "exact_s", "add_at_s"):
            if key in record:
                flat[f"{prefix}:{key}"] = float(record[key])
        for key, value in record.get("work", {}).items():
            flat[f"{prefix}:work.{key}"] = float(value)
    return flat


def check_bench(doc: dict, baseline: dict) -> list:
    """Violations of ``baseline`` in the bench document.

    Baseline entries support ``{"min": x}`` / ``{"max": x}`` floors and
    ceilings (used for speedups) and exact-or-tolerance values
    (``{"value": v, "tolerance": t}``, tolerance defaulting to the
    document's ``default_tolerance``, itself defaulting to 0 — work
    counters are bit-deterministic).
    """
    flat = flatten_bench(doc)
    default_tol = float(baseline.get("default_tolerance", 0.0))
    violations = []
    for name, entry in baseline.get("metrics", {}).items():
        if name not in flat:
            violations.append({"metric": name, "reason": "missing"})
            continue
        actual = flat[name]
        if "min" in entry and actual < float(entry["min"]):
            violations.append({
                "metric": name, "reason": "below-min",
                "actual": actual, "min": float(entry["min"]),
            })
        if "max" in entry and actual > float(entry["max"]):
            violations.append({
                "metric": name, "reason": "above-max",
                "actual": actual, "max": float(entry["max"]),
            })
        if "value" in entry:
            expected = float(entry["value"])
            tolerance = float(entry.get("tolerance", default_tol))
            drift = abs(actual - expected) / max(abs(expected), 1e-12)
            if drift > tolerance:
                violations.append({
                    "metric": name, "reason": "drift",
                    "expected": expected, "actual": actual,
                    "drift": drift, "tolerance": tolerance,
                })
    return violations


def format_violation(violation: dict) -> str:
    reason = violation["reason"]
    if reason == "missing":
        return f"MISSING {violation['metric']}"
    if reason == "below-min":
        return (f"BELOW   {violation['metric']}: {violation['actual']:g} "
                f"< min {violation['min']:g}")
    if reason == "above-max":
        return (f"ABOVE   {violation['metric']}: {violation['actual']:g} "
                f"> max {violation['max']:g}")
    return (f"DRIFT   {violation['metric']}: {violation['expected']:g} -> "
            f"{violation['actual']:g} ({violation['drift']:+.1%} vs "
            f"tolerance {violation['tolerance']:.1%})")


def build_bench_baseline(doc: dict, speedup_floor_fraction: float = 0.4,
                         ) -> dict:
    """A gate baseline from a bench run: exact work counters + speedup
    floors at ``speedup_floor_fraction`` of the measured speedup (slack
    for slower CI machines; a de-vectorization still trips it)."""
    flat = flatten_bench(doc)
    metrics = {}
    for name, value in sorted(flat.items()):
        if name.endswith("work.ipc_reduction"):
            # The zero-copy transport gate: byte arithmetic, not wall
            # clock, so the measured reduction is machine-independent —
            # but pickle framing can shift a little across Python
            # versions, so it gets a floor (never below the accepted
            # 10x) instead of an exact pin.
            metrics[name] = {
                "min": round(max(10.0, value * speedup_floor_fraction), 2)
            }
        elif ":work." in name and name.endswith("_bytes"):
            # Raw transport byte counts drift with pickle framing
            # details; the gated quantity is the reduction above.
            continue
        elif ":work." in name:
            metrics[name] = {"value": value}
        elif ":speedup_vs_" in name:
            metrics[name] = {
                "min": round(max(1.5, value * speedup_floor_fraction), 2)
            }
    return {"default_tolerance": 0.0, "metrics": metrics}


def _print_table(doc: dict) -> None:
    header = (f"{'kernel':24s} {'size':6s} {'best_s':>10s} "
              f"{'mean_s':>10s} {'speedup':>9s}")
    print(header)
    print("-" * len(header))
    for record in doc["kernels"]:
        speedup = next((record[key] for key in SPEEDUP_KEYS
                        if key in record), None)
        speedup_text = f"{speedup:8.1f}x" if speedup else f"{'-':>9s}"
        print(f"{record['kernel']:24s} {record['size']:6s} "
              f"{record['best_s']:10.4f} {record['mean_s']:10.4f} "
              f"{speedup_text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time the hot kernels and write BENCH_repro.json.",
    )
    parser.add_argument("kernels", nargs="*",
                        help=f"kernel names (default: all of "
                             f"{sorted(KERNELS)})")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes only (CI smoke)")
    parser.add_argument("--medium", action="store_true",
                        help="small + medium sizes (CI perf gate: "
                             "includes the 256x4k reorder and the "
                             "jobs=4 IPC-bytes acceptance workloads)")
    parser.add_argument("--legacy", action="store_true",
                        help="also record the legacy reference "
                             "implementations as standalone entries")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per kernel (default 3; "
                             "best is reported)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--out", default="BENCH_repro.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--list", action="store_true",
                        help="list kernels and exit")
    parser.add_argument("--check-baseline", metavar="PATH", default=None,
                        help="gate work counters and speedup floors "
                             "against a baseline JSON")
    parser.add_argument("--write-baseline", metavar="PATH", default=None,
                        help="write a fresh gate baseline from this run")
    args = parser.parse_args(argv)

    if args.list:
        for name in KERNELS:
            print(f"{name:24s} sizes: {sorted(SIZES[name])}")
        return 0

    unknown = [k for k in args.kernels if k not in KERNELS]
    if unknown:
        parser.error(f"unknown kernel(s): {unknown}; "
                     f"available: {sorted(KERNELS)}")

    doc = run_bench(kernels=args.kernels, quick=args.quick,
                    medium=args.medium, repeats=args.repeats,
                    seed=args.seed, legacy=args.legacy)
    _print_table(doc)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {args.out} ({len(doc['kernels'])} kernel timings)")

    if args.write_baseline:
        baseline = build_bench_baseline(doc)
        with open(args.write_baseline, "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote baseline: {args.write_baseline} "
              f"({len(baseline['metrics'])} gated metrics)")

    if args.check_baseline:
        try:
            with open(args.check_baseline) as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            print(f"no baseline at {args.check_baseline}; create one with "
                  f"--write-baseline", file=sys.stderr)
            return 2
        violations = check_bench(doc, baseline)
        checked = len(baseline.get("metrics", {}))
        if violations:
            print(f"{len(violations)} of {checked} gated metrics regressed:")
            for violation in violations:
                print("  " + format_violation(violation))
            return 1
        print(f"ok: {checked} gated metrics within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
