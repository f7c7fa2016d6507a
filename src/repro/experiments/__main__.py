"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.experiments                 # run everything
    python -m repro.experiments fig09 tab08     # selected experiments
    python -m repro.experiments --all --jobs 4  # shard across 4 cores
    python -m repro.experiments --list
    python -m repro.experiments --out results/  # also write .txt files

Heavy experiments (fig09, fig14, fig16) take a few minutes each at the
default reproduction scale; ``--jobs N`` shards the selected experiments
across ``N`` worker processes (results and rendered text are identical
to a serial run — see :mod:`repro.parallel`). When exactly one
experiment is selected, ``--jobs`` is instead forwarded to the
experiment itself, which must support internal sharding (the serving
sweeps); for any other single experiment ``--jobs`` is an error.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys
import time

from repro.parallel import parallel_map, resolve_jobs

#: Experiment ID -> (module, callable) in the paper's presentation order.
EXPERIMENTS = {
    "fig01": ("repro.experiments.fig01_breakdown", "run"),
    "fig03": ("repro.experiments.fig03_stepwise", "run"),
    "tab01": ("repro.experiments.tab01_left_memory", "run"),
    "tab02": ("repro.experiments.tab02_cache_hits", "run"),
    "tab03": ("repro.experiments.tab03_gpu_spec", "run"),
    "tab04": ("repro.experiments.tab04_match_degree", "run"),
    "fig09": ("repro.experiments.fig09_overall", "run"),
    "fig10a": ("repro.experiments.fig10_memory_io", "run_sweep"),
    "fig10b": ("repro.experiments.fig10_memory_io", "run_reorder"),
    "tab07": ("repro.experiments.tab07_random_walk", "run"),
    "fig11": ("repro.experiments.fig11_compute", "run"),
    "fig12": ("repro.experiments.fig12_roofline", "run"),
    "fig13": ("repro.experiments.fig13_sample_time", "run"),
    "tab08": ("repro.experiments.tab08_idmap", "run"),
    "fig14a": ("repro.experiments.fig14_scalability", "run_gpus"),
    "fig14b": ("repro.experiments.fig14_scalability", "run_batch_size"),
    "fig14c": ("repro.experiments.fig14_scalability", "run_feature_dim"),
    "fig14d": ("repro.experiments.fig14_scalability", "run_fanouts"),
    "fig15": ("repro.experiments.fig15_ablation", "run"),
    "tab09": ("repro.experiments.tab09_memory", "run"),
    "fig16": ("repro.experiments.fig16_convergence", "run"),
    "ext_gh": ("repro.experiments.ext_future", "run_grace_hopper"),
    "ext_mm": ("repro.experiments.ext_future", "run_multimachine"),
    "ext_cache": ("repro.experiments.ext_future", "run_cache_policies"),
    "ext_gpu": ("repro.experiments.ext_future", "run_gpu_sensitivity"),
    "ext_samplers": ("repro.experiments.ext_future",
                     "run_sampler_generality"),
    "ext_ooc_path": ("repro.experiments.ext_out_of_core",
                     "run_access_paths"),
    "ext_ooc_cache": ("repro.experiments.ext_out_of_core",
                      "run_cache_policies"),
    "ext_ooc_page": ("repro.experiments.ext_out_of_core",
                     "run_page_sizes"),
    "ext_ooc_match": ("repro.experiments.ext_out_of_core",
                      "run_match_ssd"),
    "ext_ooc_e2e": ("repro.experiments.ext_out_of_core",
                    "run_end_to_end"),
    "ext_serve": ("repro.experiments.ext_serving", "run_rate_sweep"),
    "ext_serve_window": ("repro.experiments.ext_serving",
                         "run_window_sweep"),
    "ext_cluster_strong": ("repro.experiments.ext_cluster",
                           "run_strong_scaling"),
    "ext_cluster_weak": ("repro.experiments.ext_cluster",
                         "run_weak_scaling"),
    "ext_cluster_part": ("repro.experiments.ext_cluster",
                         "run_partitioners"),
    "ext_pipe_overlap": ("repro.experiments.ext_pipeline",
                         "run_overlap"),
    "ext_pipe_depth": ("repro.experiments.ext_pipeline",
                       "run_queue_depths"),
    "ext_pipe_stale": ("repro.experiments.ext_pipeline",
                       "run_staleness"),
    "ext_fleet_routing": ("repro.experiments.ext_fleet", "run_routing"),
    "ext_fleet_scale": ("repro.experiments.ext_fleet", "run_scaling"),
    "ext_fleet_chaos": ("repro.experiments.ext_fleet", "run_chaos"),
}


def _experiment(exp_id: str):
    module_name, fn_name = EXPERIMENTS[exp_id]
    return getattr(importlib.import_module(module_name), fn_name)


def shards_internally(exp_id: str) -> bool:
    """Whether the experiment takes a ``jobs`` argument of its own."""
    return "jobs" in inspect.signature(_experiment(exp_id)).parameters


def run_one(exp_id: str, jobs: int = 1):
    fn = _experiment(exp_id)
    if jobs != 1 and shards_internally(exp_id):
        return fn(jobs=jobs)
    return fn()


def run_suite(experiment_ids, jobs: int = 1) -> list:
    """Run experiments (sharded across ``jobs`` processes when more than
    one is selected); returns ``(exp_id, result, seconds)`` tuples in
    selection order. Results are identical at any job count — each
    experiment is a deterministic function of its seed."""
    experiment_ids = list(experiment_ids)
    jobs = resolve_jobs(jobs)
    if len(experiment_ids) <= 1 or jobs <= 1:
        # Single selection: forward jobs to the experiment itself.
        inner = jobs if len(experiment_ids) == 1 else 1
        out = []
        for exp_id in experiment_ids:
            start = time.perf_counter()
            result = run_one(exp_id, jobs=inner)
            out.append((exp_id, result, time.perf_counter() - start))
        return out

    def task(exp_id):
        start = time.perf_counter()
        result = run_one(exp_id)
        return exp_id, result, time.perf_counter() - start

    return parallel_map(task, experiment_ids, jobs=jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the FastGL paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment IDs (default: all)")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment (the default when none "
                             "are named; explicit for use with --jobs)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes to shard experiments across "
                             "(0 = all cores; default 1 = serial)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiment IDs and exit")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to also write rendered .txt files")
    args = parser.parse_args(argv)

    if args.list:
        for exp_id, (module, fn) in EXPERIMENTS.items():
            print(f"{exp_id:14s} {module}.{fn}")
        return 0

    if args.all or not args.experiments:
        selected = list(EXPERIMENTS)
    else:
        selected = args.experiments
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; "
                     f"available: {sorted(EXPERIMENTS)}")
    if (len(selected) == 1 and args.jobs != 1
            and not shards_internally(selected[0])):
        accepting = [e for e in EXPERIMENTS if shards_internally(e)]
        parser.error(f"--jobs needs several experiments to shard, or one "
                     f"that shards itself: {accepting}")

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    for exp_id, result, seconds in run_suite(selected, jobs=args.jobs):
        text = result.render()
        print(text)
        print(f"[{exp_id} took {seconds:.1f}s]\n")
        if args.out:
            (args.out / f"{exp_id}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
