"""Tests for the graph-aware autograd ops (Eq. 1 / Eq. 5 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import assert_grad_close, numerical_gradient
from repro.bench.kernels import SIZES
from repro.core.memory_aware import A3
from repro.nn import Adam, build_model
from repro.nn import functional
from repro.nn.functional import (
    a3_aggregate,
    cross_entropy,
    dropout,
    edge_softmax,
    elu,
    gather_rows,
    leaky_relu,
    log_softmax,
    relu,
    segment_sum,
)
from repro.nn.tensor import Tensor
from repro.sampling import NeighborSampler


class TestGatherSegment:
    def test_gather_rows_forward(self, rng):
        x = Tensor(rng.random((5, 3), dtype=np.float32))
        idx = np.array([4, 0, 0])
        out = gather_rows(x, idx)
        np.testing.assert_allclose(out.data, x.data[idx])

    def test_gather_rows_backward_scatter_adds(self):
        x = Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
        gather_rows(x, np.array([1, 1, 2])).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0], [2, 2], [1, 1]])

    def test_segment_sum_forward(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]], dtype=np.float32))
        out = segment_sum(x, np.array([0, 0, 1]), num_segments=3)
        np.testing.assert_allclose(out.data, [[3.0], [3.0], [0.0]])

    def test_segment_sum_backward(self):
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        out = segment_sum(x, np.array([0, 1, 1]), num_segments=2)
        (out * Tensor(np.array([[1.0, 1.0], [5.0, 5.0]]))).sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1], [5, 5], [5, 5]])


class TestA3Aggregate:
    def test_eq1_forward(self):
        """h_u = sum_{v in N(u)} w_uv x_v, exactly."""
        x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]],
                            dtype=np.float32))
        w = Tensor(np.array([0.5, 2.0, 1.0], dtype=np.float32))
        out = a3_aggregate(x, np.array([0, 1, 2]), np.array([0, 0, 1]), w, 2)
        np.testing.assert_allclose(out.data, [[0.5, 2.0], [2.0, 2.0]])

    def test_gradcheck_features_and_weights(self, rng):
        num_src, num_dst, num_edges, dim = 6, 3, 10, 4
        edge_src = rng.integers(0, num_src, num_edges)
        edge_dst = rng.integers(0, num_dst, num_edges)
        x0 = rng.random((num_src, dim), dtype=np.float32)
        w0 = rng.random(num_edges, dtype=np.float32)

        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        (a3_aggregate(x, edge_src, edge_dst, w, num_dst) ** 2.0)\
            .sum().backward()

        def fx(arr):
            return float(
                (a3_aggregate(Tensor(arr), edge_src, edge_dst,
                              Tensor(w0), num_dst) ** 2.0).sum().data
            )

        def fw(arr):
            return float(
                (a3_aggregate(Tensor(x0), edge_src, edge_dst,
                              Tensor(arr), num_dst) ** 2.0).sum().data
            )

        assert_grad_close(x.grad, numerical_gradient(fx, x0))
        assert_grad_close(w.grad, numerical_gradient(fw, w0))

    def test_length_mismatch(self):
        x = Tensor(np.zeros((2, 2)))
        w = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            a3_aggregate(x, np.array([0]), np.array([0]), w, 1)

    def test_isolated_target_zero(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        w = Tensor(np.ones(1, dtype=np.float32))
        out = a3_aggregate(x, np.array([0]), np.array([0]), w, num_dst=3)
        np.testing.assert_allclose(out.data[1:], 0.0)

    @pytest.mark.parametrize("edge_src,edge_dst", [
        ([-1], [0]),   # numpy would read x[-1], the last source
        ([0], [-1]),   # numpy would write the last target
        ([2], [0]),    # one past num_src
        ([0], [2]),    # one past num_dst
    ])
    def test_out_of_range_endpoint_rejected(self, edge_src, edge_dst):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        w = Tensor(np.ones(1, dtype=np.float32))
        with pytest.raises(ValueError, match="must lie in"):
            a3_aggregate(x, np.array(edge_src), np.array(edge_dst), w, 2)
        with pytest.raises(ValueError, match="must lie in"):
            A3().forward(x, np.array(edge_src), np.array(edge_dst), w, 2)


def _oracle_scatter(num_rows, index, rows, gather=None, scale=None):
    """The multi-column ``np.add.at`` formula the flat scatter replaces."""
    out = np.zeros((num_rows,) + rows.shape[1:], dtype=np.float32)
    values = rows if gather is None else rows[gather]
    if scale is not None:
        values = values * scale[:, None]
    np.add.at(out, index, values)
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))


#: Memory layouts of a grad-requiring input: C-ordered, Fortran-ordered,
#: and the transpose of a C-ordered leaf (Fortran-ordered data too).
LAYOUTS = st.sampled_from(["C", "F", "T"])


def as_layout(x, layout):
    """``x`` as a grad-requiring tensor whose data has ``layout``, plus a
    callable that returns the leaf's gradient in ``x``'s orientation."""
    if layout == "T":
        leaf = Tensor(np.ascontiguousarray(x.T), requires_grad=True)
        return leaf.transpose(), lambda: leaf.grad.T
    leaf = Tensor(np.asarray(x, order=layout), requires_grad=True)
    return leaf, lambda: leaf.grad


#: Rows at least this wide take the round path, narrower ones the flat one.
ROUNDS = functional._ROUNDS_MIN_WIDTH


@st.composite
def scatter_cases(draw):
    """Random edge lists for the scatter ops.

    Widths straddle ``ROUNDS``, so both scatter paths run. Edge counts
    straddle the chunk boundary at every width, and include empty lists.
    ``pairs`` cases draw edges from ``distinct`` base pairs, so
    ``(src, dst)`` pairs repeat, and only from the first ``used_dst``
    targets, so the remaining targets get no edges. ``hub`` cases then
    send at least 100 of them from one source to one target, which gives
    many rounds of size 1. ``spread`` cases give every source and every
    target an edge, over more of them than one block holds, so the round
    path writes back two or three blocks each way. Feature magnitudes
    span six decades, so a different summation order changes the bits.
    """
    width = draw(st.sampled_from([1, 8, ROUNDS - 1, ROUNDS, 64, 200]))
    step = max(1, functional._SCATTER_CHUNK // width)
    shape = draw(st.sampled_from(["pairs", "hub", "spread"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "spread":
        num_src = num_dst = draw(st.sampled_from([step + 1, 2 * step + 7]))
        extra = rng.integers(0, num_dst, draw(st.integers(0, num_dst)))
        edge_dst = rng.permutation(np.concatenate([np.arange(num_dst),
                                                   extra]))
        edge_src = rng.permutation(len(edge_dst)) % num_src
    else:
        num_edges = draw(st.one_of(
            st.integers(0, 40),
            st.sampled_from([step - 1, step, step + 1, 2 * step + 7]),
        ) if shape == "pairs" else st.integers(100, 400))
        num_src = draw(st.integers(1, 40))
        num_dst = draw(st.integers(1, 40))
        used_dst = draw(st.integers(1, num_dst))
        distinct = draw(st.integers(1, 64))
        base_src = rng.integers(0, num_src, distinct)
        base_dst = rng.integers(0, used_dst, distinct)
        pick = rng.integers(0, distinct, num_edges)
        edge_src, edge_dst = base_src[pick], base_dst[pick]
        if shape == "hub":
            hub = rng.choice(num_edges, draw(st.integers(100, num_edges)),
                             replace=False)
            edge_src[hub] = rng.integers(0, num_src)
            edge_dst[hub] = rng.integers(0, used_dst)
    num_edges = len(edge_dst)
    scale = 10.0 ** rng.integers(-3, 4, size=(num_src, 1))
    x = (rng.standard_normal((num_src, width)) * scale).astype(np.float32)
    return {
        "x": x,
        "edge_src": edge_src,
        "edge_dst": edge_dst,
        "weight": rng.random(num_edges).astype(np.float32),
        "grad_dst": rng.standard_normal((num_dst, width)).astype(np.float32),
        "grad_edges": rng.standard_normal(
            (num_edges, width)).astype(np.float32),
        "num_dst": num_dst,
    }


def wrap_some(index, num_rows, rng):
    """``index`` with a random subset written as its negative alias."""
    index = index.copy()
    flip = rng.random(len(index)) < 0.5
    index[flip] -= num_rows
    return index


class TestScatterBitExact:
    """Both scatter paths, flat 1-D and occurrence rounds, reproduce
    multi-column ``np.add.at`` bit for bit: same float32 additions, same
    edge order, per output element."""

    @settings(max_examples=60, deadline=None)
    @given(scatter_cases(), LAYOUTS)
    def test_a3_aggregate_output_and_grads(self, case, layout):
        x, w = case["x"], case["weight"]
        src, dst = case["edge_src"], case["edge_dst"]
        grad = case["grad_dst"]
        x_t, x_grad = as_layout(x, layout)
        w_t = Tensor(w, requires_grad=True)
        out = a3_aggregate(x_t, src, dst, w_t, case["num_dst"])
        out.backward(grad)

        want_out = np.zeros_like(out.data)
        np.add.at(want_out, dst, x[src] * w[:, None])
        want_gx = np.zeros_like(x)
        np.add.at(want_gx, src, grad[dst] * w[:, None])
        want_gw = (grad[dst] * x[src]).sum(axis=1)
        assert_same_bits(out.data, want_out)
        assert_same_bits(x_grad(), want_gx)
        assert_same_bits(w_t.grad, want_gw)

    @settings(max_examples=40, deadline=None)
    @given(scatter_cases(), st.booleans(), st.booleans())
    def test_segment_sum(self, case, flat, negative):
        rows = case["grad_edges"]
        if flat and rows.shape[1] == 1:
            rows = rows[:, 0]
        ids = case["edge_dst"]
        if negative:
            ids = wrap_some(ids, case["num_dst"], np.random.default_rng(0))
        out = segment_sum(Tensor(rows), ids, case["num_dst"])
        want = np.zeros((case["num_dst"],) + rows.shape[1:],
                        dtype=np.float32)
        np.add.at(want, ids, rows)
        assert_same_bits(out.data, want)

    @settings(max_examples=40, deadline=None)
    @given(scatter_cases(), st.booleans(), LAYOUTS, st.booleans())
    def test_gather_rows_backward(self, case, flat, layout, negative):
        x, grad = case["x"], case["grad_edges"]
        if flat and x.shape[1] == 1:
            x, grad = x[:, 0], grad[:, 0]
        index = case["edge_src"]
        if negative:
            index = wrap_some(index, len(x), np.random.default_rng(0))
        x_t, x_grad = as_layout(x, layout)
        gather_rows(x_t, index).backward(grad)
        want = np.zeros_like(x)
        np.add.at(want, index, grad)
        assert_same_bits(x_grad(), want)

    @pytest.mark.parametrize("width", [ROUNDS - 1, ROUNDS])
    @pytest.mark.parametrize("bad", [5, 6, -6])
    def test_index_out_of_range_raises(self, width, bad):
        """An index at or beyond ``num_rows``, or below ``-num_rows``,
        raises on both paths, as ``np.add.at`` does."""
        rows = Tensor(np.ones((3, width), dtype=np.float32))
        with pytest.raises(IndexError):
            segment_sum(rows, np.array([0, bad, 1]), 5)

    def test_bench_times_both_paths(self):
        """``python -m repro.gate bench`` runs the ``a3_aggregate`` kernel's
        small and medium blocks, one on each scatter path."""
        sizes = SIZES["a3_aggregate"]
        assert sizes["small"]["width"] < ROUNDS <= sizes["medium"]["width"]

    @pytest.mark.parametrize("layout", ["F", "T"])
    @pytest.mark.parametrize("op", ["gather_rows", "a3_aggregate", "A3"])
    def test_fortran_ordered_input_gets_gradient(self, op, layout):
        """Flattening a Fortran-ordered array copies it, so a scatter into
        a buffer shaped like such an input must not lose its writes."""
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        index = np.array([3, 0, 3])
        x_t, x_grad = as_layout(x, layout)
        if op == "gather_rows":
            out = gather_rows(x_t, index)
        else:
            aggregate = A3().forward if op == "A3" else a3_aggregate
            out = aggregate(x_t, index, np.array([0, 1, 1]),
                            Tensor(np.ones(3, dtype=np.float32)), 2)
        out.sum().backward()
        want = np.zeros((4, 3), dtype=np.float32)
        want[[0, 3]] = [[1, 1, 1], [2, 2, 2]]
        assert_same_bits(x_grad(), want)

    @pytest.mark.parametrize("model", ["gcn", "gin", "gat"])
    def test_training_params_match_oracle(self, model, tiny_dataset,
                                          monkeypatch):
        sampler = NeighborSampler(tiny_dataset.graph, (3, 4, 5), rng=0)
        seeds = tiny_dataset.train_ids[:64]
        subgraph = sampler.sample(seeds)
        features = tiny_dataset.features.gather(subgraph.input_nodes)
        labels = tiny_dataset.labels[seeds]

        def train():
            net = build_model(model, tiny_dataset.feature_dim,
                              tiny_dataset.num_classes, hidden_dim=16,
                              seed=1)
            opt = Adam(net.parameters(), lr=5e-3)
            for _ in range(2):
                loss = cross_entropy(net(subgraph, Tensor(features)),
                                     labels)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return [p.data.copy() for p in net.parameters()]

        fast = train()
        monkeypatch.setattr(functional, "_scatter_add_rows", _oracle_scatter)
        oracle = train()
        assert len(fast) == len(oracle)
        for got, want in zip(fast, oracle):
            assert_same_bits(got, want)


class TestEdgeSoftmax:
    def test_sums_to_one_per_target(self, rng):
        scores = Tensor(rng.normal(size=12).astype(np.float32))
        edge_dst = rng.integers(0, 4, 12)
        alpha = edge_softmax(scores, edge_dst, 4)
        sums = np.zeros(4)
        np.add.at(sums, edge_dst, alpha.data)
        present = np.unique(edge_dst)
        np.testing.assert_allclose(sums[present], 1.0, rtol=1e-5)

    def test_single_edge_is_one(self):
        alpha = edge_softmax(Tensor(np.array([3.7], dtype=np.float32)),
                             np.array([0]), 1)
        np.testing.assert_allclose(alpha.data, [1.0])

    def test_stability_with_large_scores(self):
        scores = Tensor(np.array([1000.0, 1001.0], dtype=np.float32))
        alpha = edge_softmax(scores, np.array([0, 0]), 1)
        assert np.isfinite(alpha.data).all()
        np.testing.assert_allclose(alpha.data.sum(), 1.0, rtol=1e-5)

    def test_gradcheck(self, rng):
        s0 = rng.normal(size=8).astype(np.float32)
        edge_dst = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        coeff = rng.random(8).astype(np.float32)

        s = Tensor(s0, requires_grad=True)
        (edge_softmax(s, edge_dst, 3) * Tensor(coeff)).sum().backward()

        def f(arr):
            return float(
                (edge_softmax(Tensor(arr), edge_dst, 3)
                 * Tensor(coeff)).sum().data
            )

        assert_grad_close(s.grad, numerical_gradient(f, s0, eps=1e-3),
                          atol=1e-2)


class TestActivations:
    def test_relu(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32),
                   requires_grad=True)
        out = relu(x)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    def test_leaky_relu(self):
        x = Tensor(np.array([-2.0, 3.0], dtype=np.float32),
                   requires_grad=True)
        out = leaky_relu(x, 0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0], rtol=1e-6)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_elu_continuous_and_grad(self, rng):
        x0 = rng.normal(size=6).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        elu(x).sum().backward()

        def f(arr):
            return float(elu(Tensor(arr)).sum().data)

        assert_grad_close(x.grad, numerical_gradient(f, x0, eps=1e-3),
                          atol=1e-2)


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones(100, dtype=np.float32))
        out = dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_p_identity(self):
        x = Tensor(np.ones(10, dtype=np.float32))
        assert dropout(x, 0.0) is x

    def test_inverted_scaling(self):
        x = Tensor(np.ones(10_000, dtype=np.float32))
        out = dropout(x, 0.3, rng=0)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-5)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(2)), 1.0)


class TestLosses:
    def test_log_softmax_rows_normalize(self, rng):
        x = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        logp = log_softmax(x)
        np.testing.assert_allclose(np.exp(logp.data).sum(axis=1), 1.0,
                                   rtol=1e-5)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert float(loss.data) == pytest.approx(np.log(4), rel=1e-5)

    def test_cross_entropy_gradcheck(self, rng):
        x0 = rng.normal(size=(3, 5)).astype(np.float32)
        labels = np.array([1, 4, 0])
        x = Tensor(x0, requires_grad=True)
        cross_entropy(x, labels).backward()

        def f(arr):
            return float(cross_entropy(Tensor(arr), labels).data)

        assert_grad_close(x.grad, numerical_gradient(f, x0, eps=1e-3),
                          atol=1e-2)

    def test_cross_entropy_grad_is_softmax_minus_onehot(self, rng):
        x0 = rng.normal(size=(2, 3)).astype(np.float32)
        labels = np.array([2, 0])
        x = Tensor(x0, requires_grad=True)
        cross_entropy(x, labels).backward()
        softmax = np.exp(x0 - x0.max(1, keepdims=True))
        softmax /= softmax.sum(1, keepdims=True)
        onehot = np.zeros((2, 3), dtype=np.float32)
        onehot[np.arange(2), labels] = 1.0
        np.testing.assert_allclose(x.grad, (softmax - onehot) / 2,
                                   rtol=1e-4, atol=1e-6)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))
