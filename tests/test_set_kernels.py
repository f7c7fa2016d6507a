"""The set kernels against the code they replaced.

``sorted_unique`` stands in for ``np.unique``; ``match_degree``,
``match_degrees`` (the one-pass backlog scan), ``match_split``, ``MatchState.invalidate``, ``StaticFeatureCache.partition``
and ``LayerWiseSampler._edges_into`` share one searchsorted membership
test (``in_sorted``) instead of ``np.intersect1d``/``np.setdiff1d`` and
their own copies; and ``CacheTier.lookup`` reads a dense stamp array
instead of looping over a dict. Each old formulation is kept here as the
reference, and every test asserts exact equality: values, dtypes,
counters and the routing, dispatch, partition, paging and sampling
results built on top.
"""

from __future__ import annotations

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import in_sorted_legacy
from repro.core.match import (
    MatchState,
    match_degree,
    match_degrees,
    match_split,
)
from repro.errors import SamplingError
from repro.graph.features import HashFeatureStore
from repro.graph.generators import chung_lu_graph
from repro.graph.partition import partition_stats
from repro.sampling import NeighborSampler, RandomWalkSampler
from repro.sampling.idmap.base import in_sorted, sorted_unique
from repro.sampling.layerwise import LayerWiseSampler
from repro.serve import (
    CacheTier,
    CacheTierConfig,
    CacheTierStats,
    InferenceRequest,
    MatchAffinityRouter,
)
from repro.serve.batcher import MicroBatch, select_next_batch
from repro.storage import IOScheduler, LRUPageCache, PageStore
from repro.transfer.cache import StaticFeatureCache


# -- references: the replaced code, verbatim in behavior ----------------------
def match_degree_reference(nodes_a, nodes_b) -> float:
    """``np.unique`` both sides, then ``np.intersect1d``."""
    a = np.unique(np.asarray(nodes_a, dtype=np.int64))
    b = np.unique(np.asarray(nodes_b, dtype=np.int64))
    if len(a) == 0 or len(b) == 0:
        return 0.0
    overlap = len(np.intersect1d(a, b, assume_unique=True))
    return overlap / min(len(a), len(b))


def match_split_reference(resident, wanted) -> tuple:
    """Clipped searchsorted with the empty-resident special case."""
    wanted = np.asarray(wanted, dtype=np.int64)
    resident = np.asarray(resident, dtype=np.int64)
    if len(resident) == 0:
        return np.empty(0, dtype=np.int64), wanted.copy()
    pos = np.minimum(np.searchsorted(resident, wanted), len(resident) - 1)
    is_resident = resident[pos] == wanted
    return wanted[is_resident], wanted[~is_resident]


def invalidate_reference(resident, ids) -> np.ndarray:
    """The resident set left after ``MatchState.invalidate(ids)``."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    return np.setdiff1d(resident, ids, assume_unique=True)


class CacheTierReference:
    """The per-row ``OrderedDict`` tier (payload writes omitted: they
    decide nothing the tier reports)."""

    def __init__(self, config: CacheTierConfig) -> None:
        self.config = config
        self.stats = CacheTierStats()
        self._index: OrderedDict = OrderedDict()
        self._free_slots = list(range(config.capacity_rows - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._index)

    def _fresh(self, inserted_at: float, now: float) -> bool:
        ttl = self.config.ttl_s
        return ttl <= 0 or (now - inserted_at) <= ttl

    def lookup(self, nodes, now: float):
        nodes = np.asarray(nodes, dtype=np.int64)
        hits, stale, misses = [], [], []
        for node in nodes.tolist():
            entry = self._index.get(node)
            if entry is None:
                misses.append(node)
            elif self._fresh(entry[1], now):
                hits.append(node)
            else:
                stale.append(node)
        self.stats.lookups += len(nodes)
        self.stats.hits += len(hits)
        self.stats.stale += len(stale)
        self.stats.misses += len(misses)
        return (np.asarray(hits, dtype=np.int64),
                np.asarray(stale, dtype=np.int64),
                np.asarray(misses, dtype=np.int64))

    def insert(self, nodes, now: float) -> int:
        nodes = np.asarray(nodes, dtype=np.int64)
        evicted = 0
        for node in nodes.tolist():
            entry = self._index.pop(node, None)
            if entry is not None:
                slot = entry[0]
            else:
                if not self._free_slots:
                    _, (slot, _) = self._index.popitem(last=False)
                    evicted += 1
                else:
                    slot = self._free_slots.pop()
            self._index[node] = (slot, now)
            self.stats.inserts += 1
        self.stats.evictions += evicted
        return evicted


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


# -- sorted_unique vs np.unique -----------------------------------------------
@st.composite
def id_layouts(draw):
    """Integer IDs in the layouts the serving path produces and more:
    int32/int64, small or 2**40-scale values, and input that is empty,
    one element, all duplicates, sorted, reverse-sorted or 2-D."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    offset = 0 if dtype == np.int32 else draw(st.sampled_from([0, 2**40]))
    layout = draw(st.sampled_from(["random", "empty", "one", "duplicates",
                                   "sorted", "sorted-unique", "reversed",
                                   "2-d"]))
    values = draw(st.lists(st.integers(0, 300), min_size=1, max_size=80))
    ids = np.array(values, dtype=np.int64) + offset
    if layout == "empty":
        ids = ids[:0]
    elif layout == "one":
        ids = ids[:1]
    elif layout == "duplicates":
        ids = np.full(len(ids), ids[0])
    elif layout == "sorted":
        ids = np.sort(ids)
    elif layout == "sorted-unique":
        ids = np.unique(ids)
    elif layout == "reversed":
        ids = np.unique(ids)[::-1]
    elif layout == "2-d":
        ids = ids[:len(ids) // 2 * 2].reshape(2, -1)
    return ids.astype(dtype)


class TestSortedUniqueIdentity:
    @settings(max_examples=300, deadline=None)
    @given(id_layouts())
    def test_matches_np_unique(self, ids):
        assert_same_array(sorted_unique(ids), np.unique(ids))

    @pytest.mark.parametrize("ids", [
        [],
        [7],
        [3, 1, 3, 2],
        np.int64(5),
        np.array([2**40 + 9, 2**40, 2**40 + 9]),
        np.arange(10, dtype=np.int32)[::-1],
    ], ids=["empty-list", "one-list", "list", "0-d", "2**40", "int32-rev"])
    def test_edge_cases(self, ids):
        assert_same_array(sorted_unique(ids), np.unique(ids))

    def test_strictly_increasing_input_is_not_copied(self):
        ids = np.array([1, 4, 9], dtype=np.int64)
        assert np.shares_memory(sorted_unique(ids), ids)


# -- in_sorted: the bitmap and searchsorted paths vs the replaced formula -----
@st.composite
def membership_cases(draw):
    """A sorted unique set and values to test against it: negatives,
    values above the set's maximum, empties, int32, and sets offset by
    2**40 (the sparse searchsorted path)."""
    members = draw(st.lists(st.integers(0, 300), max_size=40, unique=True))
    values = draw(st.lists(st.integers(-5, 320), max_size=60))
    offset = draw(st.sampled_from([0, 0, 2**40]))
    sorted_set = np.array(sorted(members), dtype=np.int64) + offset
    values = np.array(values, dtype=np.int64) + offset
    if offset == 0 and draw(st.booleans()):
        values = values.astype(np.int32)
    if draw(st.booleans()) and values.size >= 2:
        values = values[:values.size // 2 * 2].reshape(2, -1)
    return values, sorted_set


class TestInSortedIdentity:
    @settings(max_examples=400, deadline=None)
    @given(membership_cases())
    def test_matches_searchsorted(self, case):
        values, sorted_set = case
        assert_same_array(in_sorted(values, sorted_set),
                          in_sorted_legacy(values, sorted_set))

    @pytest.mark.parametrize("values,members", [
        ([], []),
        ([], [3, 9]),
        ([1, 2], []),
        ([-1, -2**40, 0, 8, 9, 10, 2**40], [0, 9]),
        ([9, 10, 11], [9]),
        ([0], [0]),
        (np.array([5, -1, 6], dtype=np.int32), [5, 6]),
        ([2**40 + 3, 3, 2**40 + 4], [2**40 + 3]),
    ], ids=["both-empty", "no-values", "empty-set", "out-of-range",
            "above-max", "zero", "int32", "2**40"])
    def test_edge_cases(self, values, members):
        values = np.asarray(values, dtype=getattr(values, "dtype", np.int64))
        sorted_set = np.asarray(members, dtype=np.int64)
        assert_same_array(in_sorted(values, sorted_set),
                          in_sorted_legacy(values, sorted_set))


# -- match_degree vs np.unique + np.intersect1d -------------------------------
@st.composite
def node_arrays(draw, pool: int = 60):
    """Node IDs as callers pass them: any order, duplicates, possibly
    empty, as int64, int32 or float64 that the kernel casts."""
    values = draw(st.lists(st.integers(0, pool), max_size=40))
    ids = np.array(values, dtype=np.int64)
    layout = draw(st.sampled_from(["as-drawn", "sorted-unique", "reversed"]))
    if layout == "sorted-unique":
        ids = np.unique(ids)
    elif layout == "reversed":
        ids = np.unique(ids)[::-1]
    kind = draw(st.sampled_from(["int64", "int32", "float64"]))
    if kind == "int32":
        return ids.astype(np.int32)
    if kind == "float64":
        # A fractional part the int64 cast truncates away.
        return ids.astype(np.float64) + draw(st.sampled_from([0.0, 0.75]))
    return ids


class TestMatchDegreeIdentity:
    @settings(max_examples=400, deadline=None)
    @given(a=node_arrays(), b=node_arrays(), disjoint=st.booleans())
    def test_matches_reference(self, a, b, disjoint):
        if disjoint:
            b = b + 1000
        got = match_degree(a, b)
        assert type(got) is float
        assert got == match_degree_reference(a, b)
        assert match_degree(b, a) == match_degree_reference(b, a)

    @pytest.mark.parametrize("a,b", [
        ([], []),
        ([], [1, 2]),
        ([3, 3], []),
        ([5], [5]),
        ([5], [6]),
        ([1, 2, 3], [3, 2, 1, 1]),
        ([2**40, 2**40 + 1], [2**40 + 1]),
    ])
    def test_edge_cases(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert match_degree(a, b) == match_degree_reference(a, b)


# -- match_split and MatchState.invalidate vs the replaced formulas -----------
class TestMatchSplitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(resident=st.lists(st.integers(0, 80), max_size=40),
           wanted=st.lists(st.integers(0, 100), max_size=40, unique=True))
    def test_matches_reference(self, resident, wanted):
        resident = np.unique(np.array(resident, dtype=np.int64))
        wanted = np.array(wanted, dtype=np.int64)
        result = match_split(resident, wanted)
        overlap, load = match_split_reference(resident, wanted)
        assert_same_array(result.overlap_ids, overlap)
        assert_same_array(result.load_ids, load)


class TestInvalidateIdentity:
    @settings(max_examples=300, deadline=None)
    @given(wanted=st.lists(st.integers(0, 80), max_size=40, unique=True),
           ids=node_arrays(pool=100))
    def test_matches_setdiff1d(self, wanted, ids):
        state = MatchState()
        state.step(np.array(wanted, dtype=np.int64))
        before = state.resident.copy()
        state.invalidate(ids)
        assert_same_array(state.resident, invalidate_reference(before, ids))
        assert state.last_load_ids.size == 0

    @settings(max_examples=100, deadline=None)
    @given(first=st.lists(st.integers(0, 60), max_size=30, unique=True),
           second=st.lists(st.integers(0, 60), max_size=30, unique=True))
    def test_invalidate_pending_matches_setdiff1d(self, first, second):
        state = MatchState()
        state.step(np.array(first, dtype=np.int64))
        state.step(np.array(second, dtype=np.int64))
        before, pending = state.resident.copy(), state.last_load_ids.copy()
        state.invalidate_pending()
        assert_same_array(state.resident,
                          invalidate_reference(before, pending))


# -- CacheTier vs the per-row dict loop ---------------------------------------
@st.composite
def tier_scenarios(draw):
    """A tier config and a sequence of ``(op, nodes, dt)`` calls: lookups,
    inserts, and the serving path's lookup-then-refill of stale and
    missed rows. Node IDs repeat within a call, and some lookups ask for
    IDs above anything ever inserted."""
    config = CacheTierConfig(
        enabled=True,
        capacity_rows=draw(st.integers(1, 32)),
        ttl_s=draw(st.sampled_from([-1.0, 0.0, 0.025, 0.05, 0.1])),
    )
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["lookup", "insert", "serve"]),
            st.lists(st.integers(0, 48), max_size=24),
            st.sampled_from([0.0, 0.01, 0.025, 0.05, 0.1]),
        ),
        min_size=1, max_size=25,
    ))
    beyond = draw(st.lists(st.integers(49, 2**20), max_size=4))
    return config, ops, beyond


class TestCacheTierIdentity:
    @settings(max_examples=150, deadline=None)
    @given(tier_scenarios())
    def test_matches_per_row_reference(self, scenario):
        config, ops, beyond = scenario
        reference = CacheTierReference(config)
        now = 0.0
        tier = CacheTier(config)
        for op, nodes, dt in ops:
            now += dt
            nodes = np.array(nodes, dtype=np.int64)
            if op in ("lookup", "serve"):
                got = tier.lookup(nodes, now)
                want = reference.lookup(nodes, now)
                for g, w in zip(got, want):
                    assert_same_array(g, w)
            if op == "insert":
                assert (tier.insert(nodes, now)
                        == reference.insert(nodes, now))
            elif op == "serve":
                refill = np.concatenate(got[1:])
                assert (tier.insert(refill, now)
                        == reference.insert(refill, now))
            assert len(tier) == len(reference)
            assert tier.stats == reference.stats
        probe = np.concatenate([np.arange(50), beyond]).astype(np.int64)
        for g, w in zip(tier.lookup(probe, now),
                        reference.lookup(probe, now)):
            assert_same_array(g, w)
        assert tier.stats == reference.stats

    def test_stale_reinsert_refreshes_in_place(self):
        config = CacheTierConfig(enabled=True, capacity_rows=2, ttl_s=0.05)
        reference = CacheTierReference(config)
        tier = CacheTier(config)
        for cache in (tier, reference):
            cache.insert(np.array([1, 2]), now=0.0)
            _, stale, _ = cache.lookup(np.array([1, 2, 1]), now=0.1)
            assert stale.tolist() == [1, 2, 1]
            assert cache.insert(stale, now=0.1) == 0
            # Re-insert moves rows to the FIFO tail in call order
            # (2, then 1), so 3 evicts 2.
            assert cache.insert(np.array([3]), now=0.1) == 1
            hits, _, missed = cache.lookup(np.array([1, 2, 3]), 0.1)
            assert hits.tolist() == [1, 3] and missed.tolist() == [2]
        assert tier.stats == reference.stats


# -- routing and dispatch decisions with the reference patched in -------------
class _Replica:
    def __init__(self, index, load, resident):
        self.replica_id = index
        self.load = load
        self.resident_nodes = resident


def _request(seeds) -> InferenceRequest:
    return InferenceRequest(req_id=0, arrival=0.0,
                            seeds=np.asarray(seeds, dtype=np.int64))


#: Residency as ``MatchState`` holds it: sorted unique, possibly empty.
#: A small pool makes equal scores (ties) common.
_resident = st.lists(st.integers(0, 24), max_size=20).map(
    lambda ids: np.unique(np.array(ids, dtype=np.int64)))
_seeds = st.lists(st.integers(0, 24), min_size=1, max_size=16)


class TestDecisionsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(residents=st.lists(st.tuples(st.integers(0, 6), _resident),
                              min_size=1, max_size=5),
           seeds=_seeds,
           threshold=st.sampled_from([0.0, 0.125, 0.5, 1.0]),
           load_slack=st.sampled_from([0, 2, 4]))
    def test_router_picks_same_replica(self, residents, seeds, threshold,
                                       load_slack):
        replicas = [_Replica(i, load, resident)
                    for i, (load, resident) in enumerate(residents)]
        router = MatchAffinityRouter(threshold=threshold,
                                     load_slack=load_slack)
        got = router.choose(replicas, _request(seeds))
        with mock.patch("repro.serve.routing.match_degree",
                        match_degree_reference):
            want = router.choose(replicas, _request(seeds))
        assert got is want

    @settings(max_examples=300, deadline=None)
    @given(backlog=st.lists(st.lists(_seeds, min_size=1, max_size=4),
                            min_size=1, max_size=6),
           resident=_resident)
    def test_select_next_batch_picks_same_index(self, backlog, resident):
        pending = _pending(backlog)
        got = select_next_batch(pending, resident)
        assert got == select_next_batch_reference(pending, resident,
                                                  match_degree_reference)


# -- the batched backlog scan against the per-candidate loop ------------------
def select_next_batch_reference(pending, resident,
                                score=match_degree) -> int:
    """The per-candidate scan ``select_next_batch`` replaced: one
    ``match_degree`` call per pending batch, the first score beating the
    best by more than 1e-12 winning, index 0 at cold start."""
    if len(pending) == 1 or len(resident) == 0:
        return 0
    best, best_score = 0, -1.0
    for i, batch in enumerate(pending):
        value = score(resident, batch.seeds)
        if value > best_score + 1e-12:
            best, best_score = i, value
    return best


def _pending(backlog) -> list:
    return [MicroBatch(batch_id=i, requests=[_request(s) for s in seeds],
                       opened_at=0.0, closed_at=0.0)
            for i, seeds in enumerate(backlog)]


#: Seeds that may be empty or lie above every resident ID (resident IDs
#: are drawn from 0..24).
_any_seeds = st.lists(st.integers(0, 40), max_size=12)


@st.composite
def _backlogs(draw):
    """Pending batches (a batch may hold no request or only empty seed
    sets), with some batches repeated so that scores tie exactly."""
    backlog = draw(st.lists(st.lists(_any_seeds, max_size=3),
                            min_size=1, max_size=8))
    repeats = draw(st.lists(st.integers(0, len(backlog) - 1), max_size=4))
    for index in repeats:
        backlog.insert(draw(st.integers(0, len(backlog))), backlog[index])
    return backlog


class TestBatchedBacklogScan:
    @settings(max_examples=400, deadline=None)
    @given(nodes=st.lists(st.integers(-3, 30), max_size=24),
           candidates=st.lists(st.lists(st.integers(-3, 40), max_size=12,
                                        unique=True),
                               max_size=8))
    def test_match_degrees_equals_scalar_calls(self, nodes, candidates):
        # Residency may repeat IDs; each candidate is duplicate-free, in
        # any order.
        nodes = np.array(nodes, dtype=np.int64)
        arrays = [np.array(c, dtype=np.int64) for c in candidates]
        got = match_degrees(nodes, arrays)
        assert got.dtype == np.float64 and got.shape == (len(arrays),)
        want = [match_degree(nodes, c) for c in arrays]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]

    @settings(max_examples=400, deadline=None)
    @given(backlog=_backlogs(), resident=_resident)
    def test_select_next_batch_matches_per_candidate_loop(self, backlog,
                                                          resident):
        pending = _pending(backlog)
        assert (select_next_batch(pending, resident)
                == select_next_batch_reference(pending, resident))

    def test_exact_tie_keeps_the_first_batch(self):
        """1/3 and 2/6 are the same double: the earlier batch wins."""
        resident = np.arange(10, dtype=np.int64)
        pending = _pending([[[0, 50, 51]], [[1, 2, 60, 61, 62, 63]],
                            [[3, 70, 71]]])
        assert select_next_batch_reference(pending, resident) == 0
        assert select_next_batch(pending, resident) == 0
        pending = _pending([[[80]], [[1, 2, 60, 61, 62, 63]],
                            [[0, 50, 51]]])
        assert select_next_batch(pending, resident) == 1


# -- the np.unique audit and the shared membership test -----------------------
def partition_reference(cached_ids, wanted) -> tuple:
    """``StaticFeatureCache.partition``'s own clipped searchsorted."""
    wanted = np.asarray(wanted, dtype=np.int64)
    if len(cached_ids) == 0:
        return np.empty(0, dtype=np.int64), wanted.copy()
    pos = np.minimum(np.searchsorted(cached_ids, wanted), len(cached_ids) - 1)
    hit = cached_ids[pos] == wanted
    return wanted[hit], wanted[~hit]


def edges_into_reference(self, frontier, candidates):
    """``LayerWiseSampler._edges_into`` with ``np.sort(np.unique(...))``
    and its own clipped searchsorted."""
    candidate_set = np.sort(np.unique(candidates))
    edge_dst, edge_src = [], []
    for position, node in enumerate(frontier):
        neighbors = self.graph.neighbors(int(node))
        if len(neighbors) == 0:
            continue
        found = np.searchsorted(candidate_set, neighbors)
        found = np.minimum(found, len(candidate_set) - 1)
        kept = neighbors[candidate_set[found] == neighbors]
        if len(kept):
            edge_dst.append(np.full(len(kept), position, dtype=np.int64))
            edge_src.append(kept.astype(np.int64))
    if edge_dst:
        return np.concatenate(edge_dst), np.concatenate(edge_src)
    return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


class TestAuditedSitesIdentity:
    """Each read-only ``np.unique`` site that moved to ``sorted_unique``
    gives the same result with ``np.unique`` patched back in."""

    @settings(max_examples=100, deadline=None)
    @given(cached=st.lists(st.integers(0, 60), max_size=30),
           wanted=st.lists(st.integers(0, 80), max_size=40))
    def test_static_cache_partition(self, cached, wanted):
        cache = StaticFeatureCache(np.array(cached, dtype=np.int64), 4)
        got = cache.partition(np.array(wanted, dtype=np.int64))
        want = partition_reference(cache.cached_ids, wanted)
        for g, w in zip(got, want):
            assert_same_array(g, w)
        assert (cache.hits, cache.misses) == (len(want[0]), len(want[1]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), parts=st.integers(1, 6))
    def test_partition_stats(self, seed, parts):
        graph = chung_lu_graph(300, 6.0, rng=seed)
        assignment = np.random.default_rng(seed).integers(0, parts, 300)
        got = partition_stats(graph, assignment, num_parts=parts)
        with mock.patch("repro.graph.partition.sorted_unique", np.unique):
            assert got == partition_stats(graph, assignment, num_parts=parts)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), page_bytes=st.sampled_from([16, 64]),
           requests=st.lists(st.lists(st.integers(0, 199), max_size=60),
                             min_size=1, max_size=5))
    def test_io_scheduler_pages(self, seed, page_bytes, requests):
        def run():
            scheduler = IOScheduler(
                PageStore(HashFeatureStore(200, 4, seed=seed),
                          page_bytes=page_bytes), LRUPageCache(6))
            return [scheduler.submit(np.array(r, dtype=np.int64))
                    for r in requests]

        got = run()
        with mock.patch("repro.storage.scheduler.sorted_unique", np.unique):
            assert got == run()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16),
           sizes=st.lists(st.integers(1, 120), min_size=1, max_size=3))
    def test_layerwise_sampler(self, seed, sizes):
        graph = chung_lu_graph(300, 6.0, rng=seed)
        seeds = np.random.default_rng(seed).choice(300, 16, replace=False)

        def sample():
            sampler = LayerWiseSampler(graph, sizes, rng=seed)
            return sampler.sample(seeds)

        got = sample()
        with mock.patch.object(LayerWiseSampler, "_edges_into",
                               edges_into_reference), \
                mock.patch("repro.sampling.layerwise.sorted_unique",
                           np.unique):
            want = sample()
        assert got.num_sampled_edges == want.num_sampled_edges
        for g, w in zip(got.layers, want.layers):
            for field in ("dst_global", "src_global", "edge_src",
                          "edge_dst"):
                assert_same_array(getattr(g, field), getattr(w, field))

    @pytest.mark.parametrize("sampler", ["neighbor", "layerwise",
                                         "random_walk"])
    def test_duplicate_seeds_rejected(self, sampler):
        graph = chung_lu_graph(50, 4.0, rng=0)
        make = {
            "neighbor": lambda: NeighborSampler(graph, (2,), rng=0),
            "layerwise": lambda: LayerWiseSampler(graph, (8,), rng=0),
            "random_walk": lambda: RandomWalkSampler(graph, 2, 2, rng=0),
        }[sampler]
        with pytest.raises(SamplingError, match="unique"):
            make().sample(np.array([3, 1, 3]))
        make().sample(np.array([3, 1, 2]))
