"""Wall-clock benchmarks of the hot kernels (``python -m repro.bench``).

:mod:`repro.bench.kernels` defines the named kernels and the runner;
:mod:`repro.bench.__main__` is the CLI that times them and writes
``BENCH_repro.json``. ``python -m repro.gate bench`` gates them against
``benchmarks/results/bench_baseline.json``.
"""

from repro.bench.kernels import KERNELS, SIZES

__all__ = ["KERNELS", "SIZES"]
