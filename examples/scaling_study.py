"""Multi-GPU scaling study (the paper's Fig. 14a, as a script).

Sweeps GPU counts for DGL, GNNLab and FastGL on one dataset and prints
each framework's self-speedup and the cross-framework gap, illustrating
why IO-heavy baselines stop scaling: all GPUs pull features through the
same host memory.

Usage::

    python examples/scaling_study.py [dataset]
"""

import sys
from dataclasses import replace

from repro import RunConfig, create, get_dataset
from repro.gpu import PCIeLink
from repro.utils import format_seconds, format_si


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "products"
    dataset = get_dataset(dataset_name)
    base = RunConfig()
    print(f"scaling study on {dataset.name}")
    print("per-GPU host-link bandwidth under contention:")
    link = PCIeLink()
    for gpus in (1, 2, 4, 8):
        bw = link.effective_bandwidth(gpus)
        print(f"  {gpus} GPUs: {format_si(bw, 'B/s')}")

    print(f"\n{'gpus':>4} {'dgl':>10} {'gnnlab':>10} {'fastgl':>10} "
          f"{'fastgl/dgl':>11}")
    baselines = {}
    for gpus in (1, 2, 4, 8):
        config = replace(base, num_gpus=gpus)
        times = {}
        for name in ("dgl", "gnnlab", "fastgl"):
            if name == "gnnlab" and gpus < 2:
                times[name] = float("nan")
                continue
            report = create(name).run_epoch(dataset, config)
            times[name] = report.epoch_time
        if gpus == 1:
            baselines = dict(times)
        print(f"{gpus:>4} {format_seconds(times['dgl']):>10} "
              f"{format_seconds(times['gnnlab']):>10} "
              f"{format_seconds(times['fastgl']):>10} "
              f"{times['dgl'] / times['fastgl']:>10.2f}x")

    print("\nself-speedup at 8 GPUs vs 1 GPU "
          "(paper: DGL 3.36x, FastGL 5.93x):")
    config = replace(base, num_gpus=8)
    for name in ("dgl", "fastgl"):
        time8 = create(name).run_epoch(dataset, config).epoch_time
        print(f"  {name}: {baselines[name] / time8:.2f}x")


if __name__ == "__main__":
    main()
