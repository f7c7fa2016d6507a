"""Command-line observability dumps.

``dump`` runs one instrumented epoch and writes the Prometheus text
exposition, the JSON metrics snapshot, and the Chrome/Perfetto trace for
it; ``compare`` diffs two JSON snapshots metric by metric::

    python -m repro.obs dump --framework fastgl --dataset reddit --out obs/
    python -m repro.obs compare before.json after.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs import flatten_snapshot, instrumented, to_prometheus, to_snapshot


def _cmd_dump(args) -> int:
    from repro.config import RunConfig
    from repro.frameworks import FRAMEWORKS
    from repro.graph.datasets import get_dataset
    from repro.obs.trace import write_chrome_trace

    if args.framework not in FRAMEWORKS:
        print(f"unknown framework {args.framework!r}; "
              f"available: {sorted(FRAMEWORKS)}", file=sys.stderr)
        return 2
    config = RunConfig(num_gpus=args.num_gpus, seed=args.seed)
    dataset = get_dataset(args.dataset, seed=config.seed)
    with instrumented() as registry:
        report = FRAMEWORKS[args.framework]().run_epoch(
            dataset, config, model_name=args.model,
        )
        snapshot = to_snapshot(registry)
        prometheus = to_prometheus(registry)

    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.framework}_{args.dataset}"
    prom_path = os.path.join(args.out, f"{stem}.prom")
    json_path = os.path.join(args.out, f"{stem}.json")
    trace_path = os.path.join(args.out, f"{stem}.trace.json")
    with open(prom_path, "w") as handle:
        handle.write(prometheus)
    with open(json_path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    events = write_chrome_trace(trace_path, report)
    print(f"modeled epoch: {report.epoch_time:.6f}s "
          f"({args.framework} on {args.dataset})")
    print(f"wrote {prom_path}")
    print(f"wrote {json_path}")
    print(f"wrote {trace_path} ({events} events)")
    return 0


def _cmd_compare(args) -> int:
    with open(args.before) as handle:
        before = flatten_snapshot(json.load(handle))
    with open(args.after) as handle:
        after = flatten_snapshot(json.load(handle))

    names = sorted(set(before) | set(after))
    changed = 0
    for name in names:
        if name not in before:
            print(f"+ {name} = {after[name]:g}")
            changed += 1
        elif name not in after:
            print(f"- {name} (was {before[name]:g})")
            changed += 1
        elif before[name] != after[name]:
            old, new = before[name], after[name]
            rel = (new - old) / abs(old) if old else float("inf")
            print(f"~ {name}: {old:g} -> {new:g} ({rel:+.1%})")
            changed += 1
    same = len(names) - changed
    print(f"{changed} metrics differ, {same} identical")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Dump or compare observability snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dump = sub.add_parser(
        "dump", help="run one instrumented epoch and write all exports")
    dump.add_argument("--framework", default="fastgl")
    dump.add_argument("--dataset", default="reddit")
    dump.add_argument("--model", default="gcn")
    dump.add_argument("--num-gpus", type=int, default=2)
    dump.add_argument("--seed", type=int, default=0)
    dump.add_argument("--out", default="obs-dump",
                      help="output directory (default: %(default)s)")
    dump.set_defaults(func=_cmd_dump)

    compare = sub.add_parser(
        "compare", help="diff two JSON metric snapshots")
    compare.add_argument("before")
    compare.add_argument("after")
    compare.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
