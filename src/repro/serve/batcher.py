"""Dynamic micro-batching with a deadline window and Match-aware ordering.

Requests are coalesced into micro-batches under two triggers — whichever
fires first:

* **size**: the batch reaches ``max_batch`` requests;
* **window**: ``window_s`` seconds elapsed since the batch opened.

The window bounds the batching delay any admitted request can be charged
(:attr:`MicroBatch.batching_delay` never exceeds it — the invariant the
property tests pin down). When several closed batches are waiting for the
GPU (the backlog regime), FastGL-style profiles pick the next batch by
**match degree** against the feature rows still resident from the batch
just served — the serving analogue of the paper's Greedy Reorder
(Algorithm 1), turning backlog into PCIe traffic saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# benchmarks/e2e/trace.py wraps ``match_degree`` here by name: keep it.
from repro.core.match import match_degree, match_degrees  # noqa: F401
from repro.sampling.idmap.base import sorted_unique
from repro.serve.request import InferenceRequest


@dataclass
class MicroBatch:
    """A closed set of requests served by one GPU pass."""

    batch_id: int
    requests: list
    #: When the first request was taken from the admission queue.
    opened_at: float
    #: When membership froze (size or window trigger).
    closed_at: float
    #: "size" | "window" | "flush" — which trigger closed the batch.
    trigger: str = "window"
    #: Filled by the server: service interval on the GPU.
    service_start: float | None = None
    service_end: float | None = None
    #: ``(requests, seeds)`` as of the last :attr:`seeds` read.
    _seeds_memo: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def seeds(self) -> np.ndarray:
        """Union of the member requests' seed nodes (sorted unique,
        read-only).

        Computed once per ``requests`` list: the server replaces a
        batch's list when it drops requests, and never edits one in
        place, so a backlog scan reads each batch's union once."""
        memo = self._seeds_memo
        if memo is None or memo[0] is not self.requests:
            if self.requests:
                seeds = sorted_unique(
                    np.concatenate([r.seeds for r in self.requests]))
            else:
                seeds = np.empty(0, dtype=np.int64)
            seeds.flags.writeable = False
            self._seeds_memo = memo = (self.requests, seeds)
        return memo[1]

    @property
    def batching_delay(self) -> float:
        """Seconds the batch spent open — bounded by the window."""
        return self.closed_at - self.opened_at


class MicroBatcher:
    """Incremental batch former (one batch open at a time).

    Pure state machine — the server's event process feeds it requests and
    clock readings; it never touches the event loop, so its invariants
    (never oversize, never hold a batch open past the window) are
    testable without simulation plumbing.
    """

    def __init__(self, max_batch: int, window_s: float) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if window_s < 0:
            raise ValueError("window_s must be >= 0")
        self.max_batch = int(max_batch)
        self.window_s = float(window_s)
        self._open: list = []
        self._opened_at = 0.0
        self._next_id = 0

    @property
    def has_open_batch(self) -> bool:
        return bool(self._open)

    @property
    def close_deadline(self) -> float:
        """Absolute time the open batch must close by (window trigger)."""
        if not self._open:
            raise RuntimeError("no open batch")
        return self._opened_at + self.window_s

    def open(self, request: InferenceRequest, now: float) -> bool:
        """Start a new batch with its first request; True when the size
        trigger already fired (``max_batch == 1``)."""
        if self._open:
            raise RuntimeError("previous batch still open")
        self._open = [request]
        self._opened_at = now
        return len(self._open) >= self.max_batch

    def add(self, request: InferenceRequest, now: float) -> bool:
        """Join ``request`` to the open batch; True when the size trigger
        fired (the batch must close now)."""
        if not self._open:
            raise RuntimeError("no open batch; call open() first")
        if len(self._open) >= self.max_batch:
            raise RuntimeError("batch already full")
        if now > self.close_deadline + 1e-12:
            raise RuntimeError(
                f"add at t={now:.6f} violates the batching window "
                f"(closes at {self.close_deadline:.6f})"
            )
        self._open.append(request)
        return len(self._open) >= self.max_batch

    def close(self, now: float, trigger: str = "window") -> MicroBatch:
        """Freeze and return the open batch."""
        if not self._open:
            raise RuntimeError("no open batch")
        batch = MicroBatch(
            batch_id=self._next_id,
            requests=self._open,
            opened_at=self._opened_at,
            closed_at=min(now, self._opened_at + self.window_s)
            if trigger == "window" else now,
            trigger=trigger,
        )
        self._next_id += 1
        self._open = []
        return batch

    def drain_open(self) -> list:
        """Abandon the open batch, returning its requests (replica loss:
        the fleet re-routes them instead of letting them die with the
        batcher). No batch ID is consumed; a later window timer finding
        the batcher empty must not close anything."""
        requests, self._open = self._open, []
        return requests


def select_next_batch(pending: list, resident_nodes: np.ndarray) -> int:
    """Index of the pending batch with the highest match degree against
    the currently resident feature rows.

    One greedy step of Algorithm 1 applied online: the paper reorders a
    presampled window ahead of time, a server reorders whatever backlog
    exists at GPU-free time. Ties (including the no-residency cold start)
    fall back to FIFO — index 0. The whole backlog is scored in one pass
    (:func:`~repro.core.match.match_degrees`); a later batch wins only by
    beating the best score so far by more than 1e-12.
    """
    if not pending:
        raise ValueError("pending must be non-empty")
    if len(pending) == 1 or len(resident_nodes) == 0:
        return 0
    scores = match_degrees(resident_nodes, [b.seeds for b in pending])
    best, best_score = 0, -1.0
    for i, score in enumerate(scores.tolist()):
        if score > best_score + 1e-12:
            best, best_score = i, score
    return best
