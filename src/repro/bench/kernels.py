"""The named hot-kernel benchmarks behind ``python -m repro.bench``.

Each kernel is a function ``bench_<name>(params, repeats, rng_seed)``
returning a JSON-able record: wall-clock times (best-of-``repeats``),
deterministic work counters, and — where a reference implementation
exists — the reference time and speedup. Wall-clock numbers vary by
machine; the work counters are seeded and bit-stable, which is what the
``bench`` gate pins (:func:`build_bench_baseline`, checked by
``python -m repro.gate bench``).

The nine kernels cover the per-batch hot path end to end:

* ``match_degree_matrix`` — the Reorder strategy's pairwise overlap
  product (vs the legacy O(n^2) ``np.intersect1d`` loop);
* ``greedy_reorder`` — Algorithm 1 chaining from raw node sets;
* ``reorder_blocked`` — the blocked top-k reorder pipeline (pair-counted
  matrix + candidate-block chain) vs the kept legacy path
  (``match_degree_matrix_legacy`` + full argmax sweep), orders asserted
  identical;
* ``ipc_bytes`` — the executor's transport: bytes over the worker pipes
  with the shared-memory arena on vs off, results asserted identical;
* ``fused_map_insert`` — the batch-vectorized Algorithm 2 hash-table
  insert (vs the exact per-operation oracle);
* ``neighbor_sampling`` — k-hop uniform sampling with the fused ID map;
* ``feature_gather`` — the memory-IO phase's host-side feature copy;
* ``halo_gather`` — the cluster tier's owner-grouping of a sampled
  frontier plus the per-peer feature-row gather (:mod:`repro.cluster`);
* ``a3_aggregate`` — the A3 aggregation's forward scatter and its
  ``dL/dx`` backward scatter over a sampled block (vs the multi-column
  ``np.add.at`` formula), output bits asserted identical.
"""

from __future__ import annotations

import hashlib
import platform
import time

import numpy as np

from repro.core.reorder import (
    greedy_reorder,
    greedy_reorder_legacy,
    match_degree_matrix,
    match_degree_matrix_legacy,
)
from repro.graph.datasets import Dataset, DatasetSpec, PaperScale
from repro.graph.features import MaterializedFeatureStore
from repro.nn import Tensor, a3_aggregate
from repro.sampling import FusedIdMap, NeighborSampler
from repro.sampling.idmap.hash_table import (
    ExactOpenAddressTable,
    VectorOpenAddressTable,
    table_capacity,
)

#: Per-kernel parameters at the two benchmark scales. ``large`` for
#: ``match_degree_matrix`` is the acceptance size: 256 batches of 4k
#: nodes (the ISSUE's >=10x speedup target is measured there).
SIZES = {
    "match_degree_matrix": {
        "small": {"batches": 48, "nodes": 1024, "id_space": 50_000},
        "large": {"batches": 256, "nodes": 4096, "id_space": 200_000},
    },
    "greedy_reorder": {
        "small": {"batches": 48, "nodes": 1024, "id_space": 50_000},
        "large": {"batches": 256, "nodes": 4096, "id_space": 200_000},
    },
    # The acceptance size for the blocked top-k reorder is the *medium*
    # tier (256 batches x 4k nodes), so the O(batches^2) regression
    # surface is exercised by the CI --medium run, not only --full.
    "reorder_blocked": {
        "small": {"batches": 48, "nodes": 1024, "id_space": 50_000},
        "medium": {"batches": 256, "nodes": 4096, "id_space": 200_000},
    },
    "ipc_bytes": {
        "small": {"jobs": 2, "chunks": 4, "rows": 512, "dim": 64},
        "medium": {"jobs": 4, "chunks": 8, "rows": 2048, "dim": 128},
    },
    "fused_map_insert": {
        "small": {"num_ids": 20_000, "id_space": 60_000},
        "large": {"num_ids": 1_000_000, "id_space": 3_000_000},
    },
    "neighbor_sampling": {
        "small": {"num_nodes": 20_000, "batch_size": 512, "batches": 4,
                  "fanouts": (10, 10)},
        "large": {"num_nodes": 100_000, "batch_size": 1024, "batches": 8,
                  "fanouts": (15, 10)},
    },
    "feature_gather": {
        "small": {"num_nodes": 50_000, "dim": 128, "rows": 20_000,
                  "gathers": 8},
        "large": {"num_nodes": 500_000, "dim": 256, "rows": 100_000,
                  "gathers": 8},
    },
    "halo_gather": {
        "small": {"num_nodes": 50_000, "dim": 64, "parts": 4,
                  "rows": 20_000, "batches": 8},
        "large": {"num_nodes": 400_000, "dim": 128, "parts": 16,
                  "rows": 100_000, "batches": 8},
    },
    # A sampled block at two row widths: one GAT head (8), on a block
    # large enough to time stably, and the products feature width (200),
    # which train-dgl's first GCN layer aggregates.
    "a3_aggregate": {
        "small": {"num_nodes": 50_000, "batch_size": 4096,
                  "fanouts": (10, 15), "width": 8},
        "medium": {"num_nodes": 50_000, "batch_size": 1024,
                   "fanouts": (10, 15), "width": 200},
    },
}

#: Sizes at which the slow reference implementations are also timed
#: (the exact hash table is a Python loop; keep its workload bounded).
REFERENCE_SIZES = {
    "match_degree_matrix": ("small", "large"),
    "fused_map_insert": ("small",),
    "reorder_blocked": ("small", "medium"),
}


def _time(fn, repeats: int) -> list:
    """Wall-clock seconds per repeat (list, first may include warmup)."""
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _record(name, size, params, times, work, reference=None):
    record = {
        "kernel": name,
        "size": size,
        "params": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in params.items()},
        "repeats": len(times),
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "times_s": times,
        "work": work,
    }
    if reference is not None:
        record.update(reference)
    return record


def _node_sets(params, seed):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, params["id_space"], size=params["nodes"],
                     dtype=np.int64)
        for _ in range(params["batches"])
    ]


def bench_match_degree_matrix(size: str, repeats: int, seed: int,
                              with_reference: bool = True) -> dict:
    params = SIZES["match_degree_matrix"][size]
    node_sets = _node_sets(params, seed)
    times = _time(lambda: match_degree_matrix(node_sets), repeats)
    matrix = match_degree_matrix(node_sets)
    work = {
        "batches": params["batches"],
        "total_ids": params["batches"] * params["nodes"],
        "matrix_sum": round(float(matrix.sum()), 6),
    }
    reference = None
    if with_reference and size in REFERENCE_SIZES["match_degree_matrix"]:
        legacy_times = _time(
            lambda: match_degree_matrix_legacy(node_sets),
            min(repeats, 2),
        )
        reference = {
            "legacy_s": min(legacy_times),
            "speedup_vs_legacy": min(legacy_times) / min(times),
        }
    return _record("match_degree_matrix", size, params, times, work,
                   reference)


def bench_greedy_reorder(size: str, repeats: int, seed: int) -> dict:
    params = SIZES["greedy_reorder"][size]
    node_sets = _node_sets(params, seed)
    times = _time(
        lambda: greedy_reorder(node_sets, assume_unique=False), repeats
    )
    order = greedy_reorder(node_sets)
    work = {
        "batches": params["batches"],
        "order_checksum": int(np.dot(np.arange(len(order)), order)),
    }
    return _record("greedy_reorder", size, params, times, work)


def bench_reorder_blocked(size: str, repeats: int, seed: int,
                          with_reference: bool = True) -> dict:
    """The full blocked top-k reorder pipeline from raw node sets
    (pair-counted match matrix + candidate-block chain) against the kept
    legacy path (``match_degree_matrix_legacy`` + full argmax sweep).
    Orders must be identical — including ties — or the record refuses to
    report a speedup at all."""
    params = SIZES["reorder_blocked"][size]
    node_sets = _node_sets(params, seed)
    times = _time(
        lambda: greedy_reorder(node_sets, assume_unique=False), repeats
    )
    order = greedy_reorder(node_sets)
    work = {
        "batches": params["batches"],
        "order_checksum": int(np.dot(np.arange(len(order)), order)),
    }
    reference = None
    if with_reference and size in REFERENCE_SIZES["reorder_blocked"]:
        legacy_times = _time(
            lambda: greedy_reorder_legacy(node_sets), min(repeats, 2)
        )
        legacy_order = greedy_reorder_legacy(node_sets)
        if legacy_order != order:  # pragma: no cover - pinned by tests
            raise AssertionError(
                "blocked reorder diverged from the legacy sweep")
        work["orders_match"] = 1
        reference = {
            "legacy_s": min(legacy_times),
            "speedup_vs_legacy": min(legacy_times) / min(times),
        }
    return _record("reorder_blocked", size, params, times, work, reference)


def bench_ipc_bytes(size: str, repeats: int, seed: int) -> dict:
    """Executor transport bytes: the same ndarray-heavy result payloads
    shipped through pickled pipes vs the shared-memory arena.

    The byte counts are arithmetic over deterministic payloads, not
    timings, so ``ipc_reduction`` (pipe bytes without the arena / pipe
    bytes with it) is machine-independent; the baseline keeps a >= 10x
    floor under it. Identical results across transports are asserted
    here and conformance-pinned in the test suite. Timings record the
    arena run (best); the pipe run's wall clock is reported as
    ``pipes_s`` but never gated (transport wall-clock is noise-bound at
    these payload sizes — the bytes are the deliverable)."""
    from repro.parallel import ParallelExecutor, fork_available

    params = SIZES["ipc_bytes"][size]
    rows, dim = params["rows"], params["dim"]

    def task(index):
        rng = np.random.default_rng(seed * 1000 + index)
        return {
            "features": rng.standard_normal((rows, dim)).astype(np.float32),
            "ids": rng.integers(0, 1 << 40, rows),
            "loss": float(rng.random()),
        }

    def checksum(results):
        total = 0.0
        for record in results:
            total += float(record["features"].sum())
            total += float(record["ids"].sum() % (1 << 31))
            total += record["loss"]
        return round(total, 3)

    def run(use_arena):
        executor = ParallelExecutor(jobs=params["jobs"],
                                    use_arena=use_arena)
        last: list = []

        def once():
            last[:] = [executor.map(task, range(params["chunks"]))]

        durations = _time(once, repeats)
        return durations, last[0], executor.last_transport

    serial = ParallelExecutor(jobs=1).map(task, range(params["chunks"]))
    work = {
        "chunks": params["chunks"],
        "payload_checksum": checksum(serial),
    }
    reference = None
    if fork_available():
        pipe_times, pipe_results, pipe_stats = run(use_arena=False)
        arena_times, arena_results, arena_stats = run(use_arena=True)
        for got in (pipe_results, arena_results):
            if checksum(got) != work["payload_checksum"]:
                raise AssertionError("transport changed task results")
        work["pipe_ipc_bytes"] = pipe_stats.ipc_bytes
        work["arena_ipc_bytes"] = arena_stats.ipc_bytes
        work["arena_shm_bytes"] = arena_stats.shm_bytes
        work["ipc_reduction"] = round(
            pipe_stats.ipc_bytes / max(arena_stats.ipc_bytes, 1), 2)
        times = arena_times
        reference = {"pipes_s": min(pipe_times)}
    else:  # pragma: no cover - non-fork platforms time the serial path
        times = _time(lambda: ParallelExecutor(jobs=1).map(
            task, range(params["chunks"])), repeats)
    return _record("ipc_bytes", size, params, times, work, reference)


def bench_fused_map_insert(size: str, repeats: int, seed: int,
                           with_reference: bool = True) -> dict:
    params = SIZES["fused_map_insert"][size]
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, params["id_space"], size=params["num_ids"],
                       dtype=np.int64)
    capacity = table_capacity(len(np.unique(ids)))

    def run():
        table = VectorOpenAddressTable(capacity)
        table.fused_map_insert_batch(ids)
        return table

    times = _time(run, repeats)
    table = run()
    work = {
        "capacity": capacity,
        "inserts": table.stats.inserts,
        "duplicate_hits": table.stats.duplicate_hits,
        "local_id": table.local_id,
    }
    reference = None
    if with_reference and size in REFERENCE_SIZES["fused_map_insert"]:
        def run_exact():
            exact = ExactOpenAddressTable(capacity)
            for gid in ids:
                exact.fused_map_insert(int(gid))

        exact_times = _time(run_exact, 1)
        reference = {
            "exact_s": min(exact_times),
            "speedup_vs_exact": min(exact_times) / min(times),
        }
    return _record("fused_map_insert", size, params, times, work, reference)


def _bench_dataset(num_nodes: int, seed: int) -> Dataset:
    spec = DatasetSpec(
        name=f"bench-{num_nodes}",
        num_nodes=num_nodes,
        avg_degree=15.0,
        feature_dim=64,
        num_classes=8,
        train_fraction=0.3,
        paper=PaperScale(num_nodes * 10, num_nodes * 150, 1_000_000),
    )
    return Dataset(spec, seed=seed)


def bench_neighbor_sampling(size: str, repeats: int, seed: int) -> dict:
    params = SIZES["neighbor_sampling"][size]
    dataset = _bench_dataset(params["num_nodes"], seed)
    batch_rng = np.random.default_rng(seed + 1)
    batches = [
        batch_rng.choice(dataset.train_ids, size=params["batch_size"],
                         replace=False)
        for _ in range(params["batches"])
    ]

    def run():
        sampler = NeighborSampler(
            dataset.graph, params["fanouts"], idmap=FusedIdMap(),
            rng=np.random.default_rng(seed + 2),
        )
        return [sampler.sample(batch) for batch in batches]

    times = _time(run, repeats)
    subgraphs = run()
    work = {
        "batches": len(batches),
        "sampled_edges": int(sum(sg.num_sampled_edges for sg in subgraphs)),
        "input_nodes": int(sum(sg.num_nodes for sg in subgraphs)),
    }
    return _record("neighbor_sampling", size, params, times, work)


def bench_feature_gather(size: str, repeats: int, seed: int) -> dict:
    params = SIZES["feature_gather"][size]
    rng = np.random.default_rng(seed)
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
        total = 0
        for request in requests:
            total += len(store.gather(request))
        return total

    times = _time(run, repeats)
    work = {
        "gathers": params["gathers"],
        "rows": params["gathers"] * params["rows"],
        "bytes": params["gathers"] * params["rows"] * store.bytes_per_node,
    }
    return _record("feature_gather", size, params, times, work)


def bench_halo_gather(size: str, repeats: int, seed: int) -> dict:
    """Owner-grouping plus per-peer feature gather of a halo exchange:
    the per-batch hot path of :class:`repro.cluster.halo.HaloExchange`."""
    from repro.cluster.halo import group_by_owner

    params = SIZES["halo_gather"][size]
    rng = np.random.default_rng(seed)
    owners = rng.integers(0, params["parts"], size=params["num_nodes"],
                          dtype=np.int64)
    features = rng.standard_normal(
        (params["num_nodes"], params["dim"])
    ).astype(np.float32)
    requests = [
        rng.choice(params["num_nodes"], size=params["rows"], replace=False)
        for _ in range(params["batches"])
    ]

    def run():
        moved = 0
        for request in requests:
            grouped, counts = group_by_owner(request, owners,
                                             params["parts"])
            offset = 0
            for count in counts:
                peer_rows = features[grouped[offset:offset + count]]
                moved += peer_rows.nbytes
                offset += count
        return moved

    times = _time(run, repeats)
    grouped, counts = group_by_owner(requests[0], owners, params["parts"])
    work = {
        "batches": params["batches"],
        "rows": params["batches"] * params["rows"],
        "bytes": run(),
        "counts_checksum": int(np.dot(np.arange(len(counts)), counts)),
    }
    return _record("halo_gather", size, params, times, work)


def bench_a3_aggregate(size: str, repeats: int, seed: int) -> dict:
    """Forward scatter plus ``dL/dx`` backward scatter of
    :func:`repro.nn.a3_aggregate` on the deepest block of a sampled
    subgraph, against the multi-column ``np.add.at`` formula it replaced.
    Output and gradient bits must be identical, or the record refuses to
    report a speedup at all."""
    params = SIZES["a3_aggregate"][size]
    dataset = _bench_dataset(params["num_nodes"], seed)
    batch = np.random.default_rng(seed + 1).choice(
        dataset.train_ids, size=params["batch_size"], replace=False)
    block = NeighborSampler(
        dataset.graph, params["fanouts"],
        rng=np.random.default_rng(seed + 2),
    ).sample(batch).layers[-1]
    src, dst = block.edge_src, block.edge_dst
    rng = np.random.default_rng(seed + 3)
    x = rng.standard_normal(
        (block.num_src, params["width"])).astype(np.float32)
    grad = rng.standard_normal(
        (block.num_dst, params["width"])).astype(np.float32)
    weight = rng.random(len(src)).astype(np.float32)

    def run():
        x_t = Tensor(x, requires_grad=True)
        out = a3_aggregate(x_t, src, dst, Tensor(weight), block.num_dst)
        out.backward(grad)
        return out.data, x_t.grad

    def run_add_at():
        out = np.zeros((block.num_dst, params["width"]), dtype=np.float32)
        np.add.at(out, dst, x[src] * weight[:, None])
        gx = np.zeros_like(x)
        np.add.at(gx, src, grad[dst] * weight[:, None])
        return out, gx

    got, want = run(), run_add_at()
    if any(a.tobytes() != b.tobytes()
           for a, b in zip(got, want)):  # pragma: no cover - pinned by tests
        raise AssertionError("flat scatter diverged from np.add.at")
    # Interleaved, so a slow spell of the machine hits both sides.
    times, add_at_times = [], []
    for _ in range(max(1, repeats)):
        times += _time(run, 1)
        add_at_times += _time(run_add_at, 1)
    digest = hashlib.sha256(got[0].tobytes() + got[1].tobytes())
    work = {
        "edges": len(src),
        "rows": block.num_dst,
        # 48 bits, so the float the baseline gate compares stays exact.
        "bits_checksum": int(digest.hexdigest()[:12], 16),
    }
    reference = {
        "add_at_s": min(add_at_times),
        "speedup_vs_add_at": min(add_at_times) / min(times),
    }
    return _record("a3_aggregate", size, params, times, work, reference)


#: Kernel name -> callable(size, repeats, seed) in report order.
KERNELS = {
    "match_degree_matrix": bench_match_degree_matrix,
    "greedy_reorder": bench_greedy_reorder,
    "reorder_blocked": bench_reorder_blocked,
    "ipc_bytes": bench_ipc_bytes,
    "fused_map_insert": bench_fused_map_insert,
    "neighbor_sampling": bench_neighbor_sampling,
    "feature_gather": bench_feature_gather,
    "halo_gather": bench_halo_gather,
    "a3_aggregate": bench_a3_aggregate,
}


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


def build_bench_baseline(flat: dict, speedup_floor_fraction: float = 0.4,
                         ) -> dict:
    """A gate baseline from :func:`flatten_bench` metrics: exact work
    counters + speedup floors at ``speedup_floor_fraction`` of the
    measured speedup (slack for slower CI machines; a de-vectorization
    still trips it)."""
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
