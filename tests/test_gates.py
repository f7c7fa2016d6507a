"""The modeled scenarios of ``python -m repro.gate`` against their
committed baselines in ``benchmarks/results/``.

``bench`` is left to CI's perf job: its speedup floors time real
kernels, which takes ~12 s and depends on the machine.
"""

import json

import pytest

from repro import gate
from repro.obs import regress

MODELED = ("obs", "cluster", "pipeline", "serve", "fleet")


@pytest.mark.parametrize("name", MODELED)
def test_committed_baseline(name):
    scenario = gate.SCENARIOS[name]
    metrics, failures = scenario.run()
    assert failures == []
    baseline = json.loads(scenario.baseline.read_text())
    violations = regress.check(metrics, baseline)
    assert violations == [], "\n".join(
        regress.format_violation(v) for v in violations)
    # A refresh keeps the committed label and tolerance.
    assert baseline["suite"] == list(scenario.suite)
    assert baseline["default_tolerance"] == scenario.tolerance
