"""Property tests: the vectorized match-degree kernel against its oracle.

The vectorized ``match_degree_matrix`` must be element-wise identical to
the legacy ``np.intersect1d`` loop. Hypothesis drives it over
adversarial inputs: empty sets, duplicate-heavy sets, negative IDs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import match_degree_matrix_legacy
from repro.core.reorder import match_degree_matrix


@st.composite
def node_sets(draw):
    """Mini-batch node sets: possibly empty, duplicate-heavy, offset."""
    num_sets = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    id_low = draw(st.integers(-50, 0))
    id_high = draw(st.integers(5, 400))
    sets = []
    for _ in range(num_sets):
        size = draw(st.integers(0, 60))
        values = rng.integers(id_low, id_high, size=size)
        if size and draw(st.booleans()):
            # duplicate-heavy: repeat a random prefix
            values = np.concatenate(
                [values, values[: draw(st.integers(0, size))]]
            )
        sets.append(values)
    return sets


@settings(max_examples=80, deadline=None)
@given(sets=node_sets())
def test_match_degree_matrix_matches_legacy(sets):
    fast = match_degree_matrix(sets)
    legacy = match_degree_matrix_legacy(sets)
    np.testing.assert_array_equal(fast, legacy)
    assert fast.dtype == np.float64


@settings(max_examples=50, deadline=None)
@given(sets=node_sets())
def test_match_degree_matrix_assume_unique(sets):
    """With pre-deduplicated inputs, ``assume_unique`` is a pure
    optimisation: same matrix, bit for bit."""
    unique_sets = [np.unique(s) for s in sets]
    fast = match_degree_matrix(unique_sets, assume_unique=True)
    np.testing.assert_array_equal(
        fast, match_degree_matrix_legacy(unique_sets)
    )


def test_match_degree_matrix_empty_and_degenerate():
    assert match_degree_matrix([]).shape == (0, 0)
    np.testing.assert_array_equal(
        match_degree_matrix([np.array([], dtype=np.int64)]),
        np.zeros((1, 1)),
    )
    # one empty set among populated ones: its row/column stays zero
    sets = [np.array([1, 2, 3]), np.array([], dtype=np.int64),
            np.array([2, 3, 4])]
    matrix = match_degree_matrix(sets)
    assert matrix[1].sum() == 0 and matrix[:, 1].sum() == 0
    np.testing.assert_array_equal(matrix, match_degree_matrix_legacy(sets))
