"""Quickstart: train one epoch with FastGL and compare against DGL.

Runs both frameworks on the scaled Products dataset, prints the modeled
phase breakdown (the paper's Fig. 1 view) and the headline speedup.

Usage::

    python examples/quickstart.py [dataset]
"""

import sys

from repro import RunConfig, create, get_dataset
from repro.utils import format_bytes, format_seconds


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "products"
    print(f"building dataset {dataset_name!r} (scaled synthetic analogue)")
    dataset = get_dataset(dataset_name)
    print(f"  {dataset}")
    print(f"  feature table: {format_bytes(dataset.feature_table_bytes())}, "
          f"cache budget: {format_bytes(dataset.cache_budget_bytes())}")

    config = RunConfig(num_gpus=2)
    reports = {}
    for name in ("dgl", "fastgl"):
        framework = create(name)
        report = framework.run_epoch(dataset, config)
        reports[name] = report
        fractions = report.phases.fractions()
        print(f"\n{name}: modeled epoch {format_seconds(report.epoch_time)}")
        print(f"  sample    {fractions['sample']:6.1%} "
              f"({format_seconds(report.phases.sample)})")
        print(f"  memory IO {fractions['memory_io']:6.1%} "
              f"({format_seconds(report.phases.memory_io)}) — "
              f"{report.transfer.num_loaded} rows loaded, "
              f"{report.transfer.num_reused} reused, "
              f"{report.transfer.num_cache_hits} cache hits")
        print(f"  compute   {fractions['compute']:6.1%} "
              f"({format_seconds(report.phases.compute)})")

    speedup = reports["dgl"].epoch_time / reports["fastgl"].epoch_time
    print(f"\nFastGL speedup over DGL: {speedup:.2f}x "
          "(paper band on 2 GPUs: 1.7-5.1x)")


if __name__ == "__main__":
    main()
