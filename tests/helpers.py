"""Shared non-fixture test helpers (importable from any test module)."""

from __future__ import annotations

import numpy as np

from repro.graph.datasets import DatasetSpec, PaperScale


def make_spec(
    name: str = "tiny",
    num_nodes: int = 2000,
    avg_degree: float = 8.0,
    feature_dim: int = 16,
    num_classes: int = 5,
    train_fraction: float = 0.3,
    left_memory_bytes: int = 1 << 30,
) -> DatasetSpec:
    """A small DatasetSpec with plausible paper-scale metadata."""
    return DatasetSpec(
        name=name,
        num_nodes=num_nodes,
        avg_degree=avg_degree,
        feature_dim=feature_dim,
        num_classes=num_classes,
        train_fraction=train_fraction,
        paper=PaperScale(
            num_nodes=num_nodes * 100,
            num_edges=int(num_nodes * avg_degree * 50),
            left_memory_bytes=left_memory_bytes,
        ),
    )


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-2) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` at ``x``."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn(x.astype(np.float32))
        x[idx] = orig - eps
        lo = fn(x.astype(np.float32))
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray,
                      rtol: float = 5e-2, atol: float = 5e-3) -> None:
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def array_payload(index: int) -> dict:
    """A parallel task seeded by its item whose result carries arrays:
    float32 features, int64 IDs at or above 2**40 and a float loss."""
    rng = np.random.default_rng(index)
    return {
        "features": rng.standard_normal((64, 32)).astype(np.float32),
        "ids": rng.integers(1 << 40, 1 << 41, 64),
        "loss": float(rng.random()),
    }


def assert_payloads_equal(left: list, right: list) -> None:
    """Two lists of :func:`array_payload` results agree bit for bit."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.keys() == b.keys()
        for key in ("features", "ids"):
            assert a[key].dtype == b[key].dtype
            np.testing.assert_array_equal(a[key], b[key])
        assert a["loss"] == b["loss"]
