"""The uniform neighbor draw against the code it replaced, and a pin of its
picks on a fixed input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import sample_hop_legacy
from repro.graph.csr import CSRGraph
from repro.sampling import NeighborSampler
from repro.sampling.neighbor import _draw_without_replacement


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
    "x86-simd-sort; baseline x86-64 (or another CPU) uses introselect, "
    "which orders the picks differently. The draw's edge order, and so "
    "every sampled subgraph, seed-0 pin and gate baseline, holds only "
    "where this test passes (docs/performance.md, 'The draw depends on "
    "the CPU')."
)


@pytest.mark.parametrize("fanout,want", [(5, PIN_FANOUT_5),
                                         (15, PIN_FANOUT_15)])
def test_draw_picks_are_pinned(fanout, want):
    degrees = np.array(PIN_DEGREES, dtype=np.int64)
    degrees = degrees[degrees > fanout]
    picks = _draw_without_replacement(degrees, fanout,
                                      np.random.default_rng(0))
    assert picks.tolist() == want, SIMD_NOTE
