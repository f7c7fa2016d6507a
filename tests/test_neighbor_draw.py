"""The uniform neighbor draw against the code it replaced, a pin of its
picks on a fixed input, and the presample's visit count against the
subgraphs it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import (draw_without_replacement_legacy,
                                 sample_hop_legacy)
from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.obs import flatten_snapshot, instrumented, to_snapshot
from repro.sampling import (BaselineIdMap, CpuIdMap, FusedIdMap,
                            NeighborSampler, RandomWalkSampler)
from repro.sampling import neighbor
from repro.sampling.idmap.base import sorted_unique
from repro.sampling.layerwise import LayerWiseSampler
from repro.sampling.neighbor import _draw_without_replacement
from repro.transfer.cache import PresampleCachePolicy
from repro.utils.rng import ensure_rng


def _graph() -> CSRGraph:
    """300 nodes whose degrees run from 0 to well above the largest
    fanout drawn below, so every frontier mixes small and large rows."""
    rng = np.random.default_rng(7)
    weights = np.linspace(0.05, 6.0, 300) ** 2
    src = rng.integers(0, 300, size=6000)
    dst = rng.choice(300, size=6000, p=weights / weights.sum())
    return CSRGraph.from_edges(src, dst, 300, symmetrize=True)


GRAPH = _graph()


@st.composite
def frontiers(draw):
    fanout = draw(st.integers(1, 40))
    degrees = GRAPH.degrees
    kind = draw(st.sampled_from(["mixed", "empty", "all-small",
                                 "all-large"]))
    if kind == "empty":
        pool = np.empty(0, dtype=np.int64)
    elif kind == "all-small":
        pool = np.flatnonzero(degrees <= fanout)
    elif kind == "all-large":
        pool = np.flatnonzero(degrees > fanout)
    else:
        pool = np.arange(GRAPH.num_nodes)
    if pool.size == 0:
        return np.empty(0, dtype=np.int64), fanout
    picked = draw(st.lists(st.integers(0, pool.size - 1), unique=True,
                           max_size=min(pool.size, 120)))
    return pool[np.array(picked, dtype=np.int64)].astype(np.int64), fanout


class TestSampleHopIdentity:
    @settings(max_examples=200, deadline=None)
    @given(case=frontiers(), seed=st.integers(0, 2**32 - 1))
    def test_matches_legacy_hop(self, case, seed):
        frontier, fanout = case
        sampler = NeighborSampler(GRAPH, (fanout,),
                                  rng=np.random.default_rng(seed))
        reference_rng = np.random.default_rng(seed)
        got = sampler._sample_hop(frontier, fanout)
        want = sample_hop_legacy(GRAPH, frontier, fanout, reference_rng)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)
        assert (sampler.rng.bit_generator.state
                == reference_rng.bit_generator.state)


#: Degrees at each network width and one past it.
EDGE_DEGREES = (16, 17, 32, 33, 64, 65, 128, 129, 256, 257)
#: Row counts on both sides of the small-chunk guard (128 rows) and of the
#: 8192-row chunk boundary.
ROW_COUNTS = (1, 127, 128, 129, 1000, 8191, 8192, 8193, 8192 + 128)


@st.composite
def draw_inputs(draw):
    """``(deg, fanout, seed)``: uniform degrees above the fanout up to a
    drawn widest row (some chunks above 256 wide), a quarter of the rows
    moved onto the network edges that range holds."""
    fanout = draw(st.integers(1, 40))
    rows = draw(st.sampled_from(ROW_COUNTS))
    widest = max(fanout + 1, draw(st.sampled_from((17, 33, 65, 129, 256,
                                                   257, 270))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    deg = rng.integers(fanout + 1, widest + 1, size=rows)
    edges = [d for d in EDGE_DEGREES if fanout < d <= widest]
    if edges:
        deg[:rows // 4] = rng.choice(edges, size=rows // 4)
    return deg, fanout, seed


def _network_chunks(deg) -> int:
    """How many of the draw's chunks of ``deg`` the packed ranking takes."""
    if not neighbor._SORTED_ARGPARTITION:
        return 0
    sorted_deg = np.sort(deg)
    starts = range(0, len(deg), neighbor._CHUNK_ROWS)
    return sum(
        1 for start in starts
        if sorted_deg[start:start + neighbor._CHUNK_ROWS][-1]
        <= neighbor._NETWORK_WIDTHS[-1]
        and min(len(deg) - start, neighbor._CHUNK_ROWS)
        >= neighbor._MIN_NETWORK_ROWS)


class TestDrawIdentity:
    @settings(max_examples=80, deadline=None)
    @given(case=draw_inputs())
    def test_matches_reference_draw(self, case):
        deg, fanout, seed = case
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            paths = _count_paths(monkeypatch)
            got = _draw_without_replacement(deg, fanout, rng)
        want = draw_without_replacement_legacy(deg, fanout, reference_rng)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert (rng.bit_generator.state
                == reference_rng.bit_generator.state)
        # Every chunk the guard admits went through the packed ranking, and
        # none fell back (random keys do not tie).
        chunks = -(-len(deg) // neighbor._CHUNK_ROWS)
        assert paths == {"network": _network_chunks(deg),
                         "padded": chunks - _network_chunks(deg)}

    @pytest.mark.parametrize("keys", [
        dict(grid=32),  # ties in most rows
        dict(tie=0),  # one row's two smallest keys tie
        dict(tie=9),  # one row's 10th and 11th smallest keys tie
        dict(tie=0, near=True),  # ... differ only in their low 8 bits
        dict(tie=9, near=True),
    ], ids=["grid", "smallest-two", "last-pick", "smallest-two-near",
            "last-pick-near"])
    def test_ties_fall_back_to_the_padded_chunk(self, monkeypatch, keys):
        paths = _count_paths(monkeypatch)
        deg = np.random.default_rng(3).integers(11, 200, size=1000)
        got = _draw_without_replacement(deg, 10, TiedKeys(5, **keys))
        want = draw_without_replacement_legacy(deg, 10, TiedKeys(5, **keys))
        np.testing.assert_array_equal(got, want)
        if neighbor._SORTED_ARGPARTITION:
            # The packed ranking found a tie and re-selected the chunk.
            assert paths == {"network": 1, "padded": 1}

    def test_prefix_resort_follows_the_probe(self, monkeypatch):
        """A range wider than the widest row ``ndarray.partition`` sorts
        (64 on AVX2, 256 on AVX-512) has its prefix re-sorted; no other
        range does."""
        resorted = []
        sort_prefix = neighbor._sort_prefix

        def count_resort(top):
            resorted.append(len(top))
            sort_prefix(top)

        monkeypatch.setattr(neighbor, "_sort_prefix", count_resort)
        deg = np.random.default_rng(4).integers(11, 200, size=1000)
        rng, reference_rng = (np.random.default_rng(0) for _ in range(2))
        got = _draw_without_replacement(deg, 10, rng)
        want = draw_without_replacement_legacy(deg, 10, reference_rng)
        np.testing.assert_array_equal(got, want)
        if not neighbor._SORTED_ARGPARTITION:
            assert resorted == []
            return
        # The ranges end at 16, 32, 64, 128 and 199 columns; each one wider
        # than the probe's width is re-sorted, in range order.
        sorted_deg = np.sort(deg)
        ends = np.searchsorted(sorted_deg, neighbor._NETWORK_WIDTHS,
                               side="right").tolist()
        wide = [hi - lo for lo, hi in zip([0] + ends, ends)
                if hi > lo
                and sorted_deg[hi - 1] > neighbor._SORTED_PARTITION_WIDTH]
        assert resorted == wide
        if neighbor._SORTED_PARTITION_WIDTH == 64:  # AVX2
            assert len(resorted) == 2
        elif neighbor._SORTED_PARTITION_WIDTH == 256:  # AVX-512
            assert resorted == []

    def test_draw_path_follows_the_probe(self, monkeypatch):
        paths = _count_paths(monkeypatch)
        deg = np.random.default_rng(4).integers(11, 200, size=1000)
        _draw_without_replacement(deg, 10, np.random.default_rng(0))
        if neighbor._SORTED_ARGPARTITION:
            assert paths == {"network": 1, "padded": 0}
        else:
            assert paths == {"network": 0, "padded": 1}


class TiedKeys:
    """A stand-in generator for a fanout-10 draw. With ``grid``, every key
    is rounded down to a multiple of ``1 / grid``. With ``tie``, the first
    row's columns 0–10 get its 11 smallest keys (non-negative, as the
    real generator's are), distinct except ranks ``tie`` and ``tie + 1``,
    which are equal, or with ``near`` differ only in their last bit: a
    tie of the packed keys that is not one of the floats."""

    def __init__(self, seed, grid=None, tie=None, near=False):
        self._rng = np.random.default_rng(seed)
        self.grid = grid
        self.tie = tie
        self.near = near

    def random(self, size):
        keys = self._rng.random(size)
        if self.grid:
            keys = np.floor(keys * self.grid) / self.grid
        if self.tie is not None:
            smallest = (1.0 + np.arange(11)) * 2.0 ** -40
            smallest[self.tie + 1] = smallest[self.tie]
            if self.near:
                smallest[self.tie + 1] = np.nextafter(smallest[self.tie], 1.0)
            keys[0, :11] = smallest
        return keys


def _count_paths(monkeypatch) -> dict:
    """Count the chunks :func:`neighbor._select_by_network` ranks and the
    padded chunks :func:`neighbor._select` selects."""
    paths = {"network": 0, "padded": 0}
    network, padded = neighbor._select_by_network, neighbor._select

    def count_network(*args):
        paths["network"] += 1
        return network(*args)

    def count_padded(*args):
        paths["padded"] += 1
        return padded(*args)

    monkeypatch.setattr(neighbor, "_select_by_network", count_network)
    monkeypatch.setattr(neighbor, "_select", count_padded)
    return paths


#: ``_draw_without_replacement``'s picks for the degrees below at seed 0:
#: fanout 5 over every row, fanout 15 over the rows above 15.
PIN_DEGREES = [6, 9, 16, 17, 31, 64, 100, 150, 199, 200]
PIN_FANOUT_5 = [
    [3, 2, 1, 0, 4], [7, 1, 3, 0, 8], [3, 2, 8, 0, 6], [0, 8, 6, 12, 9],
    [13, 5, 27, 26, 10], [0, 60, 40, 11, 8], [71, 73, 55, 49, 91],
    [126, 46, 102, 41, 60], [176, 7, 78, 106, 76], [8, 39, 166, 145, 15],
]
PIN_FANOUT_15 = [
    [11, 3, 13, 2, 15, 1, 8, 6, 0, 7, 14, 4, 10, 12, 5],
    [12, 7, 14, 10, 1, 3, 0, 11, 15, 8, 4, 5, 2, 13, 9],
    [3, 2, 28, 23, 8, 0, 21, 6, 4, 19, 30, 20, 25, 13, 24],
    [0, 8, 57, 32, 61, 56, 6, 40, 12, 22, 18, 25, 53, 9, 33],
    [55, 50, 36, 13, 73, 33, 44, 5, 91, 27, 26, 96, 34, 10, 63],
    [148, 0, 135, 94, 60, 140, 40, 11, 8, 109, 106, 10, 22, 14, 115],
    [71, 108, 127, 73, 55, 144, 49, 91, 151, 14, 128, 168, 172, 179, 46],
    [126, 46, 155, 102, 41, 60, 162, 104, 31, 143, 100, 34, 103, 53, 83],
]

SIMD_NOTE = (
    "np.argpartition's output order differs from the committed picks. "
    "On x86 with AVX2 or AVX-512, numpy 2.x partitions through "
    "x86-simd-sort, which sorts every row of at most 256 keys, so the "
    "picks are each row's smallest keys in ascending order; baseline "
    "x86-64 (or another CPU) uses introselect, which orders them "
    "differently, and the draw keeps one argpartition per chunk there. "
    "The draw's edge order, and so every sampled subgraph, seed-0 pin "
    "and gate baseline, holds only where this test passes "
    "(docs/performance.md, 'The draw depends on the CPU')."
)


@pytest.mark.parametrize("fanout,want", [(5, PIN_FANOUT_5),
                                         (15, PIN_FANOUT_15)])
def test_draw_picks_are_pinned(fanout, want):
    degrees = np.array(PIN_DEGREES, dtype=np.int64)
    degrees = degrees[degrees > fanout]
    picks = _draw_without_replacement(degrees, fanout,
                                      np.random.default_rng(0))
    assert picks.tolist() == want, SIMD_NOTE


def _idmap_counters(registry) -> dict:
    return {name: value
            for name, value in flatten_snapshot(to_snapshot(registry)).items()
            if name.startswith("repro_idmap_")}


class TestReach:
    """``NeighborSampler.reach`` against a twin sampler's subgraphs."""

    @pytest.mark.parametrize("idmap", [FusedIdMap, BaselineIdMap, CpuIdMap])
    @pytest.mark.parametrize("fanouts", [(4,), (5, 10), (5, 10, 15),
                                         (25, 2, 3)])
    def test_matches_sample(self, idmap, fanouts):
        seeds = np.random.default_rng(1).choice(GRAPH.num_nodes, 120,
                                                replace=False)
        sampler, twin = (NeighborSampler(GRAPH, fanouts, idmap=idmap(),
                                         rng=np.random.default_rng(9))
                         for _ in range(2))
        with instrumented() as registry:
            reached = sampler.reach(seeds)
        with instrumented() as twin_registry:
            subgraph = twin.sample(seeds)
        assert reached.dtype == np.int64
        np.testing.assert_array_equal(reached,
                                      sorted_unique(subgraph.input_nodes))
        assert (sampler.rng.bit_generator.state
                == twin.rng.bit_generator.state)
        counters = _idmap_counters(registry)
        assert counters and counters == _idmap_counters(twin_registry)
        # With the registry disabled (no accounting), the next draws agree
        # too.
        np.testing.assert_array_equal(sampler.reach(seeds),
                                      twin.sample(seeds).unique_input_nodes())
        assert (sampler.rng.bit_generator.state
                == twin.rng.bit_generator.state)

    def test_seed_checks(self):
        sampler = NeighborSampler(GRAPH, (3,))
        with pytest.raises(SamplingError, match="non-empty"):
            sampler.reach(np.empty(0, dtype=np.int64))
        with pytest.raises(SamplingError, match="unique"):
            sampler.reach(np.array([1, 1]))

    @pytest.mark.parametrize("seed", [-1, GRAPH.num_nodes])
    def test_seeds_outside_the_graph(self, seed):
        """A one-hop ``reach`` marked seed -1 as the graph's last node,
        while ``sample`` drew from that node's row and then failed in the
        ID map with a bare ``ValueError`` (``IndexError`` above the
        graph)."""
        sampler = NeighborSampler(GRAPH, (3,))
        for draw in (sampler.reach, sampler.sample):
            with pytest.raises(SamplingError, match="node IDs"):
                draw(np.array([0, seed]))

    @pytest.mark.parametrize("make", [
        lambda rng: LayerWiseSampler(GRAPH, (40, 60), rng=rng),
        lambda rng: RandomWalkSampler(GRAPH, rng=rng),
    ], ids=["layerwise", "random-walk"])
    def test_other_samplers_reach_through_sample(self, make):
        seeds = np.arange(0, GRAPH.num_nodes, 7)
        sampler, twin = make(np.random.default_rng(2)), make(
            np.random.default_rng(2))
        np.testing.assert_array_equal(
            sampler.reach(seeds), sorted_unique(twin.sample(seeds).input_nodes))


def presample_reference(sampler, train_ids, store, capacity_bytes,
                        batch_size, num_batches=6, rng=None):
    """The presample's cached IDs as it computed them before ``reach``:
    each draw's subgraph built, its input nodes counted, the counts
    tie-broken by degree and the ``slots`` largest kept (stable order,
    reversed), returned sorted."""
    slots = min(capacity_bytes // store.bytes_per_node, store.num_nodes)
    rng = ensure_rng(rng)
    counts = np.zeros(store.num_nodes, dtype=np.float64)
    for _ in range(num_batches):
        seeds = rng.choice(train_ids, size=min(batch_size, len(train_ids)),
                           replace=False)
        counts[sampler.sample(seeds).input_nodes] += 1
    deg = sampler.graph.degrees.astype(np.float64)
    counts += deg / (deg.max() + 1.0)
    return np.sort(np.argsort(counts, kind="stable")[::-1][:slots])


@pytest.mark.parametrize("idmap", [FusedIdMap, BaselineIdMap])
@pytest.mark.parametrize("slots", [1, 37, 500, 2000])
def test_presample_caches_what_the_subgraphs_visit(tiny_dataset, idmap,
                                                   slots):
    store = tiny_dataset.features
    capacity = slots * store.bytes_per_node
    sampler, twin = (NeighborSampler(tiny_dataset.graph, (5, 10, 15),
                                     idmap=idmap(),
                                     rng=np.random.default_rng(3))
                     for _ in range(2))
    cache = PresampleCachePolicy.build(sampler, tiny_dataset.train_ids, store,
                                       capacity, batch_size=64,
                                       rng=np.random.default_rng(4))
    want = presample_reference(twin, tiny_dataset.train_ids, store, capacity,
                               batch_size=64, rng=np.random.default_rng(4))
    np.testing.assert_array_equal(cache.cached_ids, want)
    assert sampler.rng.bit_generator.state == twin.rng.bit_generator.state
