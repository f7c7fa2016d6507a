"""Serve a synthetic inference workload from the command line.

Usage::

    python -m repro.serve --framework fastgl --framework dgl --rate 800
    python -m repro.serve --dataset smoke --rate 50000 --requests 400
    python -m repro.serve --fleet --dataset fleet-smoke --replicas 4

Each selected framework serves the *same* deterministic request
schedule; the report compares p50/p95/p99 latency, throughput, shed and
deadline-drop counts, and GPU occupancy. Every run verifies that the
exported serving timeline reconciles with the event-loop makespan.
Both modes write ``--json`` and ``--trace`` with one entry per framework
(``serve_<name>.json`` traces) or per router (``fleet_<policy>.json``).
``python -m repro.gate serve fleet`` gates the deterministic serving and
fleet workloads against their committed baselines.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.config import RunConfig
from repro.gate import RECONCILE_TOL, serve_smoke_dataset
from repro.serve.autoscale import AutoscalerConfig
from repro.serve.cache_tier import CacheTierConfig
from repro.serve.fleet import (
    FleetReport,
    FleetSpec,
    fleet_demo_dataset,
    simulate_fleet,
)
from repro.serve.request import ARRIVAL_PROCESSES
from repro.serve.routing import ROUTER_POLICIES
from repro.serve.server import ServeConfig, ServeReport, simulate
from repro.utils.format import ascii_table


def _get_dataset(name: str, seed: int):
    if name == "smoke":
        return serve_smoke_dataset()
    if name == "fleet-smoke":
        return fleet_demo_dataset()
    from repro.graph.datasets import get_dataset

    return get_dataset(name, seed=seed)


def _report_row(report: ServeReport) -> list:
    return [
        report.framework,
        round(report.p50 * 1e3, 3),
        round(report.p95 * 1e3, 3),
        round(report.p99 * 1e3, 3),
        round(report.throughput, 1),
        report.num_completed,
        report.num_shed,
        report.num_dropped,
        round(report.mean_batch_size, 1),
        f"{report.occupancy:.0%}",
    ]


def _fleet_row(policy: str, report: FleetReport) -> list:
    return [
        policy,
        len(report.replicas),
        round(report.p50 * 1e3, 3),
        round(report.p99 * 1e3, 3),
        round(report.throughput, 1),
        f"{report.availability:.1%}",
        f"{report.device_hit_rate:.1%}",
        f"{report.tier_hit_rate:.1%}",
        report.rerouted,
        report.outage_shed,
    ]


def _reconciles(label: str, report) -> bool:
    """Print whether ``report``'s timeline ends at its makespan."""
    if report.reconciles(RECONCILE_TOL):
        delta = abs(report.timeline_extent - report.makespan)
        print(f"{label}: timeline reconciles with makespan "
              f"({report.makespan:.6f}s, |delta| = {delta:.2e})")
        return True
    print(f"{label}: TIMELINE MISMATCH: extent {report.timeline_extent!r} "
          f"vs makespan {report.makespan!r}", file=sys.stderr)
    return False


def _write_outputs(args, reports: dict, prefix: str, extra) -> None:
    """Write ``--trace`` and ``--json`` for either mode: one trace file
    and one JSON entry per framework or router. Each entry holds the
    ledger's numbers plus ``extra(report)``, the mode's own fields."""
    if args.trace:
        args.trace.mkdir(parents=True, exist_ok=True)
        for name, report in reports.items():
            path = args.trace / f"{prefix}_{name}.json"
            count = report.write_chrome_trace(path)
            print(f"wrote {path} ({count} events)")

    if args.json:
        payload = {
            name: {
                "p50_s": report.p50, "p95_s": report.p95,
                "p99_s": report.p99, "throughput_rps": report.throughput,
                "completed": report.num_completed,
                "shed": report.num_shed, "dropped": report.num_dropped,
                "makespan_s": report.makespan,
                **extra(report),
            }
            for name, report in reports.items()
        }
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n")
        print(f"wrote {args.json}")


def _fleet_extra(report: FleetReport) -> dict:
    return {"replicas": len(report.replicas),
            "availability": report.availability,
            "device_hit_rate": report.device_hit_rate,
            "tier_hit_rate": report.tier_hit_rate,
            "rerouted": report.rerouted,
            "outage_shed": report.outage_shed}


def run_fleet(args, parser) -> int:
    """The ``--fleet`` mode: one framework, every requested router."""
    framework = (args.framework or ["fastgl"])[0]
    policies = args.router or list(ROUTER_POLICIES)
    unknown = [p for p in policies if p not in ROUTER_POLICIES]
    if unknown:
        parser.error(f"unknown router(s): {unknown}; "
                     f"registered: {sorted(ROUTER_POLICIES)}")
    fanouts = tuple(int(f) for f in args.fanouts.split(",") if f)
    run_config = RunConfig(num_gpus=1, fanouts=fanouts, seed=args.seed)
    serve_config = ServeConfig(
        rate=args.rate,
        num_requests=args.requests,
        arrival=args.arrival,
        seeds_per_request=args.seeds_per_request,
        max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
        queue_capacity=args.queue_cap,
        slo_s=args.slo_ms / 1e3,
        seed=args.seed,
        num_users=args.users,
    )
    dataset = _get_dataset(args.dataset, args.seed)

    reports: dict = {}
    for policy in policies:
        fleet = FleetSpec(
            num_replicas=args.replicas,
            router=policy,
            autoscaler=AutoscalerConfig(enabled=args.autoscale),
            cache=CacheTierConfig(enabled=args.cache_tier),
        )
        reports[policy] = simulate_fleet(framework, dataset,
                                         run_config=run_config,
                                         serve_config=serve_config,
                                         fleet=fleet)

    print(ascii_table(
        ["router", "replicas", "p50_ms", "p99_ms", "req/s", "avail",
         "dev_hit", "tier_hit", "rerouted", "outage"],
        [_fleet_row(policy, reports[policy]) for policy in policies],
    ))

    failures = [policy for policy, report in reports.items()
                if not _reconciles(policy, report)]

    if "round-robin" in reports and "match-affinity" in reports:
        rr, ma = reports["round-robin"], reports["match-affinity"]
        if ma.p99 and rr.p99:
            print(f"match-affinity over round-robin: "
                  f"p99 {rr.p99 / ma.p99:.2f}x, device hit "
                  f"{rr.device_hit_rate:.1%} -> {ma.device_hit_rate:.1%}")

    _write_outputs(args, reports, "fleet", _fleet_extra)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Simulate online sampled-GNN inference serving.",
    )
    parser.add_argument("--framework", action="append", default=None,
                        metavar="NAME",
                        help="framework to serve with (repeatable; "
                             "default: dgl and fastgl)")
    parser.add_argument("--dataset", default="smoke",
                        help='dataset name, or "smoke" for the tiny '
                             "self-contained graph (default: %(default)s)")
    parser.add_argument("--rate", type=float, default=50_000.0,
                        help="mean arrival rate, req/s (default: %(default)s)")
    parser.add_argument("--requests", type=int, default=400,
                        help="number of requests (default: %(default)s)")
    parser.add_argument("--arrival", default="poisson",
                        choices=sorted(ARRIVAL_PROCESSES),
                        help="arrival process (default: %(default)s)")
    parser.add_argument("--seeds-per-request", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--window-ms", type=float, default=2.0,
                        help="micro-batch window in milliseconds "
                             "(default: %(default)s)")
    parser.add_argument("--queue-cap", type=int, default=128)
    parser.add_argument("--slo-ms", type=float, default=500.0,
                        help="latency SLO in ms; 0 disables deadlines")
    parser.add_argument("--fanouts", default="5,10,15",
                        help="comma-separated sampling fanouts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="write per-framework Chrome traces here")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        metavar="PATH", help="write the summary as JSON")
    parser.add_argument("--fleet", action="store_true",
                        help="fleet mode: run one framework behind each "
                             "requested --router and compare policies")
    parser.add_argument("--replicas", type=int, default=4,
                        help="fleet replicas at t=0 (default: %(default)s)")
    parser.add_argument("--router", action="append", default=None,
                        metavar="POLICY",
                        help="routing policy (repeatable; default: all "
                             "registered policies)")
    parser.add_argument("--users", type=int, default=32,
                        help="simulated user-population clusters for the "
                             "fleet workload (default: %(default)s)")
    parser.add_argument("--autoscale", action="store_true",
                        help="enable the fleet autoscaler")
    parser.add_argument("--cache-tier", action="store_true",
                        help="enable the shared embedding cache tier")
    args = parser.parse_args(argv)

    if args.fleet:
        return run_fleet(args, parser)

    frameworks = args.framework or ["dgl", "fastgl"]
    from repro.frameworks import available_frameworks

    unknown = [n for n in frameworks if n not in available_frameworks()]
    if unknown:
        parser.error(f"unknown framework(s): {unknown}; "
                     f"available: {list(available_frameworks())}")
    fanouts = tuple(int(f) for f in args.fanouts.split(",") if f)
    run_config = RunConfig(num_gpus=1, fanouts=fanouts, seed=args.seed)
    serve_config = ServeConfig(
        rate=args.rate,
        num_requests=args.requests,
        arrival=args.arrival,
        seeds_per_request=args.seeds_per_request,
        max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
        queue_capacity=args.queue_cap,
        slo_s=args.slo_ms / 1e3,
        seed=args.seed,
    )
    dataset = _get_dataset(args.dataset, args.seed)

    reports = {
        name: simulate(name, dataset, run_config=run_config,
                       serve_config=serve_config)
        for name in frameworks
    }

    rows = [_report_row(reports[name]) for name in frameworks]
    print(ascii_table(
        ["framework", "p50_ms", "p95_ms", "p99_ms", "req/s", "done",
         "shed", "dropped", "batch", "occupancy"],
        rows,
    ))

    failures = [name for name, report in reports.items()
                if not _reconciles(name, report)]

    if "dgl" in reports and "fastgl" in reports:
        dgl, fast = reports["dgl"], reports["fastgl"]
        if fast.p50 and dgl.p50:
            print(f"fastgl serving speedup over dgl: "
                  f"p50 {dgl.p50 / fast.p50:.2f}x, "
                  f"p99 {dgl.p99 / fast.p99:.2f}x, "
                  f"throughput {fast.throughput / dgl.throughput:.2f}x")

    _write_outputs(args, reports, "serve",
                   lambda report: {"occupancy": report.occupancy})
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
