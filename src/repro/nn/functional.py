"""Graph-aware autograd operations.

The centrepiece is :func:`a3_aggregate` — the aggregation the paper wraps
as ``A3.forward()`` / ``A3.backward()``:

* forward (Eq. 1):  ``h_u = sum_{v in N(u)} w_uv * x_v``
* backward (Eq. 5): ``dL/dx_v = sum_{u: v in N(u)} w_uv * dL/dh_u`` and
  ``dL/dw_uv = <x_v, dL/dh_u>``.

Edge-wise softmax (GAT attention), segment sums, activations and the loss
round out what the three evaluation models need.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.rng import ensure_rng

#: Elements (rows x row width) one chunk of :func:`_scatter_add_rows`
#: scatters. It bounds the per-chunk index and product buffers to a few MiB.
#: Chunks of 2**14 to 2**20 elements time within about 10% of each other;
#: larger ones are slower once the buffers outgrow the CPU cache.
_SCATTER_CHUNK = 1 << 18


def _scatter_add_rows(num_rows, index, rows, gather=None, scale=None):
    """A new ``num_rows``-row zero array with ``rows[gather[e]] * scale[e]``
    added into row ``index[e]`` for every ``e``, in order.

    Bit-identical to ``np.add.at(out, index, rows[gather] * scale[:, None])``
    on ``out = np.zeros((num_rows,) + rows.shape[1:], np.float32)``
    (``gather`` defaults to every row in order, ``scale`` to no scaling).
    A multi-column ``np.add.at`` has no fast path in numpy and costs
    several times more per element than the 1-D form, so the rows are
    scattered into the flattened output at ``index * width + col``: each
    output element then receives the same float32 additions in the same
    edge order. Edges go in bounded chunks whose products are formed
    inside the loop, so no ``(edges x width)`` array is ever built.
    The output is allocated here, C-ordered, because the scatter writes
    through its flat view, and flattening any other layout copies.
    """
    out = np.zeros((num_rows,) + rows.shape[1:], dtype=np.float32)
    flat_out = out.reshape(-1)
    width = math.prod(rows.shape[1:])
    rows = rows.reshape(len(rows), width)
    cols = np.arange(width, dtype=np.int64)
    step = max(1, _SCATTER_CHUNK // max(width, 1))
    for lo in range(0, len(index), step):
        hi = lo + step
        # np.take copies narrow rows several times faster than rows[idx].
        values = (rows[lo:hi] if gather is None
                  else np.take(rows, gather[lo:hi], axis=0))
        if scale is not None:
            values = values * scale[lo:hi, None]
        flat_index = (index[lo:hi, None] * width + cols).reshape(-1)
        np.add.at(flat_out, flat_index, values.reshape(-1))
    return out


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Row gather ``x[index]`` with scatter-add backward."""
    index = np.asarray(index, dtype=np.int64)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(_scatter_add_rows(len(x.data), index, grad))

    return Tensor._from_op(x.data[index], (x,), backward)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets by ``segment_ids``."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = _scatter_add_rows(num_segments, segment_ids, x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad[segment_ids])

    return Tensor._from_op(out, (x,), backward)


def a3_aggregate(
    x_src: Tensor,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    weight: Tensor,
    num_dst: int,
) -> Tensor:
    """The paper's A3 weighted aggregation (Eq. 1 forward, Eq. 5 backward).

    Parameters
    ----------
    x_src:
        ``(num_src, d)`` source-node features.
    edge_src / edge_dst:
        Local edge endpoints (indices into sources / targets).
    weight:
        ``(num_edges,)`` edge weights ``w_uv`` (may require grad — GAT's
        attention coefficients do).
    num_dst:
        Number of target nodes.

    Raises
    ------
    ValueError
        If the edge arrays and weights differ in length, or an endpoint
        lies outside ``[0, num_src)`` / ``[0, num_dst)`` (numpy would
        silently wrap a negative one).
    """
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    if len(edge_src) != len(edge_dst) or len(edge_src) != len(weight.data):
        raise ValueError("edge arrays and weights must share length")
    for name, ends, bound in (("edge_src", edge_src, len(x_src.data)),
                              ("edge_dst", edge_dst, num_dst)):
        if len(ends) and (ends.min() < 0 or ends.max() >= bound):
            raise ValueError(
                f"{name} must lie in [0, {bound}); got "
                f"[{ends.min()}, {ends.max()}]")
    out = _scatter_add_rows(num_dst, edge_dst, x_src.data, edge_src,
                            weight.data)

    def backward(grad):
        if x_src.requires_grad:
            x_src._accumulate(_scatter_add_rows(
                len(x_src.data), edge_src, grad, edge_dst, weight.data))
        if weight.requires_grad:
            gw = (grad[edge_dst] * x_src.data[edge_src]).sum(axis=1)
            weight._accumulate(gw)

    return Tensor._from_op(out, (x_src, weight), backward)


def edge_softmax(scores: Tensor, edge_dst: np.ndarray, num_dst: int) -> Tensor:
    """Softmax of edge ``scores`` over each target's incoming edges.

    Numerically stabilized with a per-target max shift. Used for GAT
    attention coefficients.
    """
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    maxima = np.full(num_dst, -np.inf, dtype=np.float32)
    np.maximum.at(maxima, edge_dst, scores.data)
    maxima[~np.isfinite(maxima)] = 0.0  # targets with no edges
    shifted = scores.data - maxima[edge_dst]
    exp = np.exp(shifted)
    denom = np.zeros(num_dst, dtype=np.float32)
    np.add.at(denom, edge_dst, exp)
    denom[denom == 0.0] = 1.0
    alpha = exp / denom[edge_dst]

    def backward(grad):
        if not scores.requires_grad:
            return
        # d softmax: alpha * (grad - sum_over_segment(grad * alpha))
        weighted = grad * alpha
        seg = np.zeros(num_dst, dtype=np.float32)
        np.add.at(seg, edge_dst, weighted)
        scores._accumulate(weighted - alpha * seg[edge_dst])

    return Tensor._from_op(alpha, (scores,), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._from_op(x.data * mask, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    factor = np.where(x.data > 0, 1.0, negative_slope).astype(np.float32)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * factor)

    return Tensor._from_op(x.data * factor, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = x.data <= 0
    out_data = np.where(neg, alpha * (np.exp(x.data) - 1.0), x.data)
    out_data = out_data.astype(np.float32)

    def backward(grad):
        if x.requires_grad:
            slope = np.where(neg, out_data + alpha, 1.0)
            x._accumulate(grad * slope)

    return Tensor._from_op(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool = True, rng=None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout p must be in [0, 1)")
    rng = ensure_rng(rng)
    mask = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._from_op(x.data * mask, (x,), backward)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax, numerically stable."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - logsumexp

    def backward(grad):
        if x.requires_grad:
            softmax = np.exp(out_data)
            x._accumulate(grad - softmax * grad.sum(axis=1, keepdims=True))

    return Tensor._from_op(out_data, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under ``logits``."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != logits.shape[0]:
        raise ValueError("labels/logits length mismatch")
    logp = log_softmax(logits)
    n = len(labels)
    picked_data = logp.data[np.arange(n), labels]

    def backward(grad):
        if logp.requires_grad:
            full = np.zeros_like(logp.data)
            full[np.arange(n), labels] = -grad / n
            logp._accumulate(full)

    loss = Tensor._from_op(
        np.float32(-picked_data.mean()), (logp,), backward
    )
    return loss
