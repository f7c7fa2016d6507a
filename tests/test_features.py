"""Tests for the feature stores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import hash_gather_legacy
from repro.graph.features import (
    HashFeatureStore,
    MaterializedFeatureStore,
    PlantedFeatureStore,
)


class TestHashFeatureStore:
    def test_deterministic(self):
        store = HashFeatureStore(100, 8, seed=3)
        a = store.gather(np.array([5, 9]))
        b = store.gather(np.array([5, 9]))
        np.testing.assert_array_equal(a, b)

    def test_rows_differ(self):
        store = HashFeatureStore(100, 8, seed=3)
        rows = store.gather(np.arange(50))
        assert len(np.unique(rows.round(6), axis=0)) == 50

    def test_bounded_and_centered(self):
        store = HashFeatureStore(1000, 32, seed=1)
        rows = store.gather(np.arange(1000))
        assert rows.min() >= -0.5 and rows.max() <= 0.5
        assert abs(rows.mean()) < 0.02

    def test_bytes_accounting(self):
        store = HashFeatureStore(10, 16)
        assert store.bytes_per_node == 64
        assert store.total_bytes == 640

    def test_out_of_range(self):
        store = HashFeatureStore(10, 4)
        with pytest.raises(IndexError):
            store.gather(np.array([10]))
        with pytest.raises(IndexError):
            store.gather(np.array([-1]))

    def test_seed_changes_features(self):
        a = HashFeatureStore(10, 4, seed=0).gather(np.arange(10))
        b = HashFeatureStore(10, 4, seed=1).gather(np.arange(10))
        assert not np.allclose(a, b)


class TestMaterializedFeatureStore:
    def test_gather_is_table_rows(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        store = MaterializedFeatureStore(table)
        np.testing.assert_array_equal(store.gather(np.array([2, 0])),
                                      table[[2, 0]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            MaterializedFeatureStore(np.zeros(5))

    def test_preserves_float16(self):
        table = np.arange(12, dtype=np.float16).reshape(4, 3)
        store = MaterializedFeatureStore(table)
        assert store.dtype == np.float16
        assert store.bytes_per_node == 3 * 2
        assert store.gather(np.array([1])).dtype == np.float16

    def test_promotes_non_float(self):
        store = MaterializedFeatureStore(np.arange(12).reshape(4, 3))
        assert store.dtype == np.float32


class TestMaterializeDtype:
    def test_float16_round_trip(self):
        """materialize() must honor the store's dtype, not force float32."""
        store = HashFeatureStore(64, 8, seed=7, dtype=np.float16)
        assert store.dtype == np.float16
        mat = store.materialize(chunk=10)
        assert mat.dtype == np.float16
        assert mat.table.dtype == np.float16
        ids = np.array([0, 63, 5, 5, 31])
        np.testing.assert_array_equal(mat.gather(ids), store.gather(ids))
        # Halved row bytes flow into the byte accounting.
        assert mat.bytes_per_node == store.bytes_per_node == 8 * 2

    def test_float32_default_unchanged(self):
        store = HashFeatureStore(16, 4, seed=1)
        assert store.materialize().dtype == np.float32


class TestPlantedFeatureStore:
    def test_label_correlation(self):
        """Same-class rows are closer to their centroid than other
        centroids on average — the learnable signal."""
        labels = np.repeat(np.arange(4), 50)
        store = PlantedFeatureStore(labels, dim=16, noise=0.5, seed=0)
        rows = store.gather(np.arange(200))
        dists = np.linalg.norm(
            rows[:, None, :] - store.centroids[None, :, :], axis=2
        )
        own = dists[np.arange(200), labels]
        other = (dists.sum(axis=1) - own) / 3
        assert (own < other).mean() > 0.8

    def test_deterministic(self):
        labels = np.zeros(10, dtype=np.int64)
        a = PlantedFeatureStore(labels, 8, seed=2).gather(np.arange(10))
        b = PlantedFeatureStore(labels, 8, seed=2).gather(np.arange(10))
        np.testing.assert_array_equal(a, b)

    def test_materialize_equals_gather(self):
        labels = np.array([0, 1, 1, 2])
        store = PlantedFeatureStore(labels, 6, seed=5)
        mat = store.materialize(chunk=3)
        np.testing.assert_allclose(mat.gather(np.arange(4)),
                                   store.gather(np.arange(4)))

    def test_noise_scales_spread(self):
        labels = np.zeros(100, dtype=np.int64)
        quiet = PlantedFeatureStore(labels, 8, noise=0.1, seed=1)
        loud = PlantedFeatureStore(labels, 8, noise=2.0, seed=1)
        sq = quiet.gather(np.arange(100)).std()
        sl = loud.gather(np.arange(100)).std()
        assert sl > 3 * sq


# -- the in-place hash and materialize against the replaced code -------------
def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def planted_gather_legacy(store: PlantedFeatureStore, ids) -> np.ndarray:
    """``PlantedFeatureStore.gather`` before it scaled and added in place."""
    ids = store._check_ids(ids)
    noise = hash_gather_legacy(store._noise_store, ids) * (store.noise * 3.46)
    return store.centroids[store.labels[ids]] + noise


#: Row IDs as callers pass them: possibly empty, unsorted, repeated.
_ids = st.lists(st.integers(0, 63), max_size=12).map(
    lambda ids: np.array(ids, dtype=np.int64))


class TestHashGatherIdentity:
    """The float32 scaling is exact, and other dtypes round that exact
    value once, so every dtype keeps the float64 formula's bits. Rounding
    ``k * 2**-24`` to float16 before subtracting 0.5 would round twice
    and change most float16 rows; these tests catch that."""

    @settings(max_examples=200, deadline=None)
    @given(dtype=st.sampled_from([np.float16, np.float32, np.float64]),
           dim=st.sampled_from([1, 7, 200, 4096]),
           seed=st.integers(0, 2**40), ids=_ids, repeat=st.booleans())
    def test_matches_legacy(self, dtype, dim, seed, ids, repeat):
        store = HashFeatureStore(64, dim, seed=seed, dtype=dtype)
        if repeat:
            ids = np.concatenate([ids, ids[::-1]])
        assert_same_bits(store.gather(ids), hash_gather_legacy(store, ids))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_every_row_of_a_table(self, dtype):
        store = HashFeatureStore(2000, 33, seed=11, dtype=dtype)
        ids = np.arange(2000)
        assert_same_bits(store.gather(ids), hash_gather_legacy(store, ids))


class TestPlantedGatherIdentity:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([1, 7, 200]), seed=st.integers(0, 2**31),
           noise=st.sampled_from([0.0, 0.3, 1.0, 2.5]), ids=_ids)
    def test_matches_legacy(self, dim, seed, noise, ids):
        labels = np.arange(64) % 5
        store = PlantedFeatureStore(labels, dim, noise=noise, seed=seed)
        assert_same_bits(store.gather(ids), planted_gather_legacy(store, ids))


class TestMaterializeChunks:
    @pytest.mark.parametrize("chunk", [1, 3, 4096, 10_000])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_hash_table_equals_gather(self, chunk, dtype):
        store = HashFeatureStore(45, 7, seed=3, dtype=dtype)
        want = store.gather(np.arange(45))
        assert_same_bits(store.materialize(chunk=chunk).table, want)
        assert_same_bits(want, hash_gather_legacy(store, np.arange(45)))

    @pytest.mark.parametrize("chunk", [1, 3, 4096, 10_000])
    def test_planted_table_equals_gather(self, chunk):
        store = PlantedFeatureStore(np.arange(45) % 4, 9, seed=8)
        assert_same_bits(store.materialize(chunk=chunk).table,
                         store.gather(np.arange(45)))

    def test_default_chunk_spans_blocks(self):
        store = HashFeatureStore(9000, 2, seed=5)
        assert_same_bits(store.materialize().table,
                         store.gather(np.arange(9000)))

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_rejects_non_positive_chunk(self, chunk):
        """``chunk=-1`` used to return the uninitialized table and
        ``chunk=0`` to fail inside ``range``."""
        with pytest.raises(ValueError, match="chunk"):
            HashFeatureStore(10, 4).materialize(chunk=chunk)
