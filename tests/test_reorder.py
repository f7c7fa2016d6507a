"""Tests for the Greedy Reorder strategy (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import (
    greedy_reorder_legacy,
    match_degree_matrix_legacy,
)
from repro.core.reorder import (
    chain_match_score,
    greedy_reorder,
    match_degree_matrix,
    optimal_reorder,
)


def random_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.random((n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


class TestMatchDegreeMatrix:
    def test_symmetric_zero_diagonal(self):
        sets = [np.array([1, 2, 3]), np.array([2, 3, 4]), np.array([9])]
        m = match_degree_matrix(sets)
        np.testing.assert_allclose(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 0.0)

    def test_values(self):
        sets = [np.array([1, 2, 3]), np.array([2, 3, 4, 5])]
        m = match_degree_matrix(sets)
        assert m[0, 1] == pytest.approx(2 / 3)

    def test_empty_set_entry(self):
        sets = [np.array([], dtype=np.int64), np.array([1])]
        m = match_degree_matrix(sets)
        assert m[0, 1] == 0.0


class TestGreedyReorder:
    def test_is_permutation_anchored_at_zero(self):
        m = random_matrix(7, seed=0)
        order = greedy_reorder(m)
        assert sorted(order) == list(range(7))
        assert order[0] == 0

    def test_greedy_invariant(self):
        """Each placed batch has the max match degree to its predecessor
        among the then-remaining batches (Algorithm 1, line 7)."""
        m = random_matrix(8, seed=1)
        order = greedy_reorder(m)
        remaining = set(range(1, 8))
        z = 0
        for nxt in order[1:]:
            best = max(remaining, key=lambda k: m[z, k])
            assert m[z, nxt] == pytest.approx(m[z, best])
            remaining.remove(nxt)
            z = nxt

    def test_known_example(self):
        """The paper's Fig. 6 situation: m13 > m12 -> SubG3 runs second."""
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 0.4   # m12
        m[0, 2] = m[2, 0] = 0.8   # m13
        m[1, 2] = m[2, 1] = 0.5
        assert greedy_reorder(m) == [0, 2, 1]

    def test_trivial_sizes(self):
        assert greedy_reorder(np.zeros((0, 0))) == []
        assert greedy_reorder(np.zeros((1, 1))) == [0]
        assert greedy_reorder(np.zeros((2, 2))) == [0, 1]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            greedy_reorder(np.zeros((2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 7), seed=st.integers(0, 100))
    def test_greedy_at_most_optimal(self, n, seed):
        """Property: greedy's chain score never exceeds the exhaustive
        optimum, and both are valid permutations anchored at 0."""
        m = random_matrix(n, seed)
        greedy = greedy_reorder(m)
        best = optimal_reorder(m)
        assert chain_match_score(m, greedy) <= (
            chain_match_score(m, best) + 1e-12
        )
        assert sorted(best) == list(range(n)) and best[0] == 0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 100))
    def test_greedy_first_hop_is_best(self, n, seed):
        m = random_matrix(n, seed)
        order = greedy_reorder(m)
        assert m[0, order[1]] == pytest.approx(m[0].max())


def _random_node_sets(count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 500, size=rng.integers(0, 40))
            for _ in range(count)]


class TestTieBreaking:
    """The documented tie rule: the lowest batch index wins every tie.

    This is ``np.argmax`` semantics (first occurrence of the maximum)
    and both the blocked top-k walk and the kept legacy sweep must
    reproduce it exactly — it is what makes reorders reproducible
    across machines and transports.
    """

    def test_constructed_tie_lowest_index_wins(self):
        # Batches 1, 2 and 3 all tie for the first hop from batch 0;
        # index 1 must be chosen, then 2, then 3.
        m = np.zeros((4, 4))
        for i in (1, 2, 3):
            m[0, i] = m[i, 0] = 0.5
        assert greedy_reorder(m) == [0, 1, 2, 3]
        assert greedy_reorder_legacy(m) == [0, 1, 2, 3]

    def test_all_equal_matrix_is_identity_order(self):
        m = np.full((6, 6), 0.25)
        np.fill_diagonal(m, 0.0)
        expected = list(range(6))
        assert greedy_reorder(m) == expected
        assert greedy_reorder_legacy(m) == expected

    def test_tie_consistent_with_optimal_oracle(self):
        """On a tie-heavy matrix the greedy chain must score exactly
        what the exhaustive oracle scores for the greedy's own order —
        i.e. the pinned tie-break picks a well-defined chain, and the
        same one as the legacy sweep."""
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            m = rng.integers(0, 3, size=(n, n)).astype(float)
            m = (m + m.T) / 2
            np.fill_diagonal(m, 0.0)
            blocked = greedy_reorder(m)
            legacy = greedy_reorder_legacy(m)
            assert blocked == legacy
            best = optimal_reorder(m)
            assert chain_match_score(m, blocked) <= (
                chain_match_score(m, best) + 1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 24), seed=st.integers(0, 500),
           levels=st.sampled_from([2, 3, 1000]))
    def test_blocked_equals_legacy_random_matrices(self, n, seed, levels):
        """Property: the blocked top-k walk is bit-identical to the kept
        O(n^2) sweep — ties included (small ``levels`` forces many)."""
        rng = np.random.default_rng(seed)
        m = rng.integers(0, levels, size=(n, n)).astype(float) / levels
        m = (m + m.T) / 2
        if n:
            np.fill_diagonal(m, 0.0)
        assert greedy_reorder(m) == greedy_reorder_legacy(m)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 200),
           block=st.sampled_from([1, 2, 3, 8, 64]))
    def test_block_size_never_changes_the_order(self, n, seed, block):
        m = random_matrix(n, seed)
        assert greedy_reorder(m, block=block) == greedy_reorder_legacy(m)


class TestLegacyOracles:
    def test_legacy_node_set_path_matches_blocked(self):
        sets = _random_node_sets(12, seed=3)
        assert greedy_reorder_legacy(sets) == greedy_reorder(sets)

    def test_matrix_kernels_bit_identical(self):
        sets = _random_node_sets(20, seed=5)
        np.testing.assert_array_equal(match_degree_matrix(sets),
                                      match_degree_matrix_legacy(sets))

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(0, 15), seed=st.integers(0, 300))
    def test_matrix_kernels_bit_identical_property(self, count, seed):
        sets = _random_node_sets(count, seed)
        np.testing.assert_array_equal(match_degree_matrix(sets),
                                      match_degree_matrix_legacy(sets))


class TestChainScoreAndOptimal:
    def test_chain_score(self):
        m = random_matrix(4, seed=3)
        order = [0, 2, 1, 3]
        expected = m[0, 2] + m[2, 1] + m[1, 3]
        assert chain_match_score(m, order) == pytest.approx(expected)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 12), seed=st.integers(0, 100))
    def test_chain_score_matches_python_loop(self, n, seed):
        """The vectorized fancy-index sum equals the definitional
        Python loop over consecutive pairs."""
        m = random_matrix(max(n, 0), seed)
        order = list(np.random.default_rng(seed).permutation(n))
        expected = sum(
            m[order[i], order[i + 1]] for i in range(len(order) - 1)
        ) if len(order) >= 2 else 0.0
        assert chain_match_score(m, order) == pytest.approx(float(expected))

    def test_chain_score_short_chains_are_zero(self):
        m = random_matrix(3, seed=0)
        assert chain_match_score(m, []) == 0.0
        assert chain_match_score(m, [1]) == 0.0

    def test_optimal_beats_identity(self):
        m = random_matrix(6, seed=4)
        assert chain_match_score(m, optimal_reorder(m)) >= (
            chain_match_score(m, list(range(6)))
        )

    def test_optimal_unanchored_at_least_anchored(self):
        m = random_matrix(5, seed=5)
        anchored = chain_match_score(m, optimal_reorder(m, fix_first=True))
        free = chain_match_score(m, optimal_reorder(m, fix_first=False))
        assert free >= anchored - 1e-12

    def test_optimal_size_guard(self):
        with pytest.raises(ValueError):
            optimal_reorder(np.zeros((11, 11)))

    def test_optimal_empty(self):
        assert optimal_reorder(np.zeros((0, 0))) == []
