"""pytest-benchmark suite over four named hot kernels.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf --benchmark-only

Unlike ``python -m repro.bench`` (which writes ``BENCH_repro.json`` and
gates the baseline), this suite gives statistically robust per-kernel
distributions — min/median/stddev over many rounds — for local perf work
and A/B comparison via ``--benchmark-compare``. Each benchmark reuses
the exact workloads from :mod:`repro.bench.kernels` at the ``small``
size, so numbers line up with the ``--quick`` CLI run;
``match_degree_matrix`` also asserts equivalence with its kept reference
implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.kernels import SIZES, _bench_dataset, _node_sets
from repro.bench.oracles import match_degree_matrix_legacy
from repro.core.reorder import greedy_reorder, match_degree_matrix
from repro.graph.features import MaterializedFeatureStore
from repro.sampling import FusedIdMap, NeighborSampler

SEED = 0


@pytest.fixture(scope="module")
def match_sets():
    return _node_sets(SIZES["match_degree_matrix"]["small"], SEED)


def test_match_degree_matrix(benchmark, match_sets):
    matrix = benchmark(match_degree_matrix, match_sets)
    assert np.array_equal(matrix, match_degree_matrix_legacy(match_sets))


def test_match_degree_matrix_legacy_reference(benchmark, match_sets):
    benchmark(match_degree_matrix_legacy, match_sets)


def test_greedy_reorder(benchmark):
    node_sets = _node_sets(SIZES["greedy_reorder"]["small"], SEED)
    order = benchmark(greedy_reorder, node_sets)
    assert sorted(order) == list(range(len(node_sets)))


def test_neighbor_sampling(benchmark):
    params = SIZES["neighbor_sampling"]["small"]
    dataset = _bench_dataset(params["num_nodes"], SEED)
    batch_rng = np.random.default_rng(SEED + 1)
    batches = [
        batch_rng.choice(dataset.train_ids, size=params["batch_size"],
                         replace=False)
        for _ in range(params["batches"])
    ]

    def run():
        sampler = NeighborSampler(
            dataset.graph, params["fanouts"], idmap=FusedIdMap(),
            rng=np.random.default_rng(SEED + 2),
        )
        return [sampler.sample(batch) for batch in batches]

    subgraphs = benchmark(run)
    assert len(subgraphs) == params["batches"]


def test_feature_gather(benchmark):
    params = SIZES["feature_gather"]["small"]
    rng = np.random.default_rng(SEED)
    store = MaterializedFeatureStore(
        rng.standard_normal(
            (params["num_nodes"], params["dim"])
        ).astype(np.float32)
    )
    requests = [
        rng.choice(params["num_nodes"], size=params["rows"], replace=False)
        for _ in range(params["gathers"])
    ]

    def run():
        return sum(len(store.gather(request)) for request in requests)

    total = benchmark(run)
    assert total == params["gathers"] * params["rows"]
