"""Tests for the CSR graph structure."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import from_edges_legacy
from repro.errors import GraphError
from repro.graph.csr import CSRGraph


def small_graph() -> CSRGraph:
    # 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
    return CSRGraph(
        indptr=np.array([0, 2, 3, 3, 4]),
        indices=np.array([1, 2, 2, 0]),
    )


class TestConstruction:
    def test_basic_properties(self):
        g = small_graph()
        assert g.num_nodes == 4
        assert g.num_edges == 4
        assert g.avg_degree == 1.0
        np.testing.assert_array_equal(g.degrees, [2, 1, 0, 1])

    def test_neighbors(self):
        g = small_graph()
        np.testing.assert_array_equal(g.neighbors(0), [1, 2])
        np.testing.assert_array_equal(g.neighbors(2), [])

    def test_neighbors_out_of_range(self):
        with pytest.raises(GraphError):
            small_graph().neighbors(4)
        with pytest.raises(GraphError):
            small_graph().neighbors(-1)

    def test_arrays_are_read_only(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.indices[0] = 3

    def test_structure_bytes(self):
        g = small_graph()
        assert g.structure_bytes() == g.indptr.nbytes + g.indices.nbytes

    def test_empty_graph(self):
        g = CSRGraph(indptr=np.array([0]), indices=np.array([], dtype=int))
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.avg_degree == 0.0


class TestValidation:
    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))

    def test_indptr_monotone(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 1]))

    def test_indptr_tail_matches_indices(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 3]), indices=np.array([0]))

    def test_indices_in_range(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]))
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([-1]))


class TestFromEdges:
    def test_dedup_and_sort(self):
        g = CSRGraph.from_edges(
            src=np.array([0, 0, 0, 1]),
            dst=np.array([2, 1, 2, 0]),
            num_nodes=3,
        )
        np.testing.assert_array_equal(g.neighbors(0), [1, 2])
        np.testing.assert_array_equal(g.neighbors(1), [0])

    def test_symmetrize(self):
        g = CSRGraph.from_edges(
            src=np.array([0]), dst=np.array([1]), num_nodes=2,
            symmetrize=True,
        )
        np.testing.assert_array_equal(g.neighbors(0), [1])
        np.testing.assert_array_equal(g.neighbors(1), [0])

    def test_drop_self_loops(self):
        g = CSRGraph.from_edges(
            src=np.array([0, 0]), dst=np.array([0, 1]), num_nodes=2
        )
        np.testing.assert_array_equal(g.neighbors(0), [1])

    def test_keep_self_loops(self):
        g = CSRGraph.from_edges(
            src=np.array([0]), dst=np.array([0]), num_nodes=1,
            drop_self_loops=False,
        )
        np.testing.assert_array_equal(g.neighbors(0), [0])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(np.array([0]), np.array([9]), num_nodes=2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(np.array([0, 1]), np.array([1]), num_nodes=2)

    def test_to_edges_round_trip(self):
        g = small_graph()
        src, dst = g.to_edges()
        g2 = CSRGraph.from_edges(src, dst, g.num_nodes, dedup=False)
        np.testing.assert_array_equal(g2.indptr, g.indptr)
        np.testing.assert_array_equal(g2.indices, g.indices)


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=1, max_value=40),
    edges=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39)),
        max_size=150,
    ),
)
def test_from_edges_invariants(num_nodes, edges):
    """Property: from_edges always yields a structurally valid CSR whose
    edge set equals the (deduped, loop-free, clipped) input."""
    src = np.array([min(a, num_nodes - 1) for a, _ in edges], dtype=np.int64)
    dst = np.array([min(b, num_nodes - 1) for _, b in edges], dtype=np.int64)
    g = CSRGraph.from_edges(src, dst, num_nodes)
    # Invariants checked by the constructor; re-derive the edge set.
    expected = {(a, b) for a, b in zip(src, dst) if a != b}
    got_src, got_dst = g.to_edges()
    got = set(zip(got_src.tolist(), got_dst.tolist()))
    assert got == expected
    # Rows are sorted.
    for u in range(g.num_nodes):
        row = g.neighbors(u)
        assert np.all(np.diff(row) > 0)


# -- from_edges against the np.unique + lexsort + add.at build ---------------
@st.composite
def edge_lists(draw):
    """Edge lists in every shape ``from_edges`` accepts: empty, on 0 or 1
    nodes, with isolated nodes, duplicate edges and self-loops, as 1-D or
    equal-shape 2-D arrays."""
    num_nodes = draw(st.integers(0, 40))
    if num_nodes == 0:
        src = dst = np.empty(0, dtype=np.int64)
    else:
        # Endpoints from a prefix of the IDs leave the rest isolated.
        high = draw(st.integers(0, num_nodes - 1))
        pairs = draw(st.lists(st.tuples(st.integers(0, high),
                                        st.integers(0, high)),
                              max_size=120))
        src = np.array([a for a, _ in pairs], dtype=np.int64)
        dst = np.array([b for _, b in pairs], dtype=np.int64)
        if len(src) and draw(st.booleans()):
            repeat = draw(st.integers(0, len(src)))
            src = np.concatenate([src, src[:repeat]])
            dst = np.concatenate([dst, dst[:repeat]])
        if len(src) and draw(st.booleans()):
            loops = draw(st.lists(st.integers(0, len(src) - 1), max_size=8))
            dst[loops] = src[loops]
    if draw(st.booleans()):
        half = len(src) // 2
        src, dst = src[:2 * half].reshape(2, half), dst[:2 * half].reshape(
            2, half)
    return src, dst, num_nodes


def assert_same_graph(got: CSRGraph, want: CSRGraph) -> None:
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices)):
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


class TestFromEdgesIdentity:
    @settings(max_examples=300, deadline=None)
    @given(edges=edge_lists(), symmetrize=st.booleans(), dedup=st.booleans(),
           drop_self_loops=st.booleans())
    def test_matches_legacy(self, edges, symmetrize, dedup, drop_self_loops):
        src, dst, num_nodes = edges
        flags = dict(symmetrize=symmetrize, dedup=dedup,
                     drop_self_loops=drop_self_loops)
        # 2-D input is read as a flat edge list.
        assert_same_graph(CSRGraph.from_edges(src, dst, num_nodes, **flags),
                          from_edges_legacy(src.ravel(), dst.ravel(),
                                            num_nodes, **flags))

    @pytest.mark.parametrize("dedup,drop_self_loops",
                             [(True, True), (True, False), (False, True)])
    def test_2d_input_matches_legacy(self, dedup, drop_self_loops):
        """The legacy build flattened 2-D input through its self-loop mask
        or ``np.unique``; with neither it failed its own indptr check, and
        with no columns its range check raised a bare ``ValueError``."""
        src = np.array([[3, 0, 1], [1, 2, 2]], dtype=np.int64)
        dst = np.array([[0, 0, 2], [3, 1, 2]], dtype=np.int64)
        for symmetrize in (False, True):
            flags = dict(symmetrize=symmetrize, dedup=dedup,
                         drop_self_loops=drop_self_loops)
            assert_same_graph(CSRGraph.from_edges(src, dst, 4, **flags),
                              from_edges_legacy(src, dst, 4, **flags))

    @pytest.mark.parametrize("src,dst,num_nodes", [
        ([], [], 0),
        ([], [], 1),
        ([0], [0], 1),
        ([0, 0, 0], [0, 0, 0], 1),
        ([3, 3, 1], [1, 1, 3], 5),
    ], ids=["no-nodes", "one-node", "one-loop", "repeated-loop", "isolated"])
    def test_edge_cases(self, src, dst, num_nodes):
        src = np.array(src, dtype=np.int64)
        dst = np.array(dst, dtype=np.int64)
        for symmetrize, dedup, drop in itertools.product([False, True],
                                                         repeat=3):
            flags = dict(symmetrize=symmetrize, dedup=dedup,
                         drop_self_loops=drop)
            assert_same_graph(
                CSRGraph.from_edges(src, dst, num_nodes, **flags),
                from_edges_legacy(src, dst, num_nodes, **flags))

    def test_empty_2d_input_is_an_empty_graph(self):
        empty = np.empty((2, 0), dtype=np.int64)
        for dedup, drop in itertools.product([False, True], repeat=2):
            g = CSRGraph.from_edges(empty, empty, 3, dedup=dedup,
                                    drop_self_loops=drop)
            assert g.num_nodes == 3 and g.num_edges == 0

    def test_rejects_num_nodes_that_overflow_the_key(self):
        with pytest.raises(GraphError, match="overflow"):
            CSRGraph.from_edges(np.array([0]), np.array([1]),
                                num_nodes=2**32)
