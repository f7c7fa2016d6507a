"""Wall-clock benchmark CLI — the repo's perf trajectory file.

Usage::

    python -m repro.bench                      # all kernels, both sizes
    python -m repro.bench --quick              # small sizes (smoke)
    python -m repro.bench match_degree_matrix  # one kernel
    python -m repro.bench --legacy             # also time legacy impls

Writes ``BENCH_repro.json``: per-kernel wall-clock times (best of N),
deterministic work counters, and speedups against the kept reference
implementations (the legacy ``np.intersect1d`` match loop, the exact
per-operation hash table and the multi-column ``np.add.at`` scatter).

``python -m repro.gate bench`` gates the small + medium tiers against
``benchmarks/results/bench_baseline.json``. The gate is
machine-independent by construction: it pins the seeded *work counters*
exactly (any drift is a behavioral change) and puts conservative
*floors* under the vectorized-vs-reference speedups (a real
de-vectorization regression collapses the speedup by an order of
magnitude; machine noise does not). Absolute seconds are recorded for
the trajectory but never gated.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.kernels import KERNELS, SIZES, SPEEDUP_KEYS, run_bench


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
                        help="small sizes only (smoke)")
    parser.add_argument("--medium", action="store_true",
                        help="small + medium sizes (what the bench gate "
                             "runs: includes the 256x4k reorder and the "
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
