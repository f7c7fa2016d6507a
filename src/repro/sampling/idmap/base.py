"""Shared ID-map interface and work accounting."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.config import COST_MODEL
from repro.obs import get_registry
from repro.sampling.idmap.hash_table import estimate_probe_stats, table_capacity


@dataclass(frozen=True)
class IdMapReport:
    """Counted device work of one (or several, when summed) ID maps."""

    num_input_ids: int = 0
    num_unique: int = 0
    #: atomicCAS executions (hash-table key insertions, incl. duplicates).
    cas_ops: int = 0
    #: Extra CAS retries from linear probing past occupied slots.
    probe_retries: int = 0
    #: atomicAdd executions (Fused-Map local-ID allocation).
    add_ops: int = 0
    #: Thread-synchronization events (baseline step-2; zero for Fused-Map).
    sync_events: int = 0
    #: Hash-table reads in the translate kernel.
    lookups: int = 0
    kernel_launches: int = 0
    #: "gpu" or "cpu"; decides which throughput constants apply.
    device: str = "gpu"

    def __add__(self, other: "IdMapReport") -> "IdMapReport":
        if self.device != other.device:
            raise ValueError("cannot sum reports from different devices")
        return IdMapReport(
            num_input_ids=self.num_input_ids + other.num_input_ids,
            num_unique=self.num_unique + other.num_unique,
            cas_ops=self.cas_ops + other.cas_ops,
            probe_retries=self.probe_retries + other.probe_retries,
            add_ops=self.add_ops + other.add_ops,
            sync_events=self.sync_events + other.sync_events,
            lookups=self.lookups + other.lookups,
            kernel_launches=self.kernel_launches + other.kernel_launches,
            device=self.device,
        )

    def modeled_time(self) -> float:
        """Seconds of ID-map work under the calibrated cost model."""
        if self.device == "cpu":
            return self.num_input_ids / COST_MODEL.cpu_idmap_ids_per_s
        atomic_ops = self.cas_ops + self.probe_retries + self.add_ops
        return (
            self.kernel_launches * COST_MODEL.kernel_launch_s
            + atomic_ops / COST_MODEL.atomic_ops_per_s
            + self.sync_events * COST_MODEL.sync_cost_per_unique_s
            + self.lookups / COST_MODEL.table_lookups_per_s
        )


def record_idmap_metrics(kind: str, report: "IdMapReport") -> None:
    """Report one ID-map invocation's counted work to the registry.

    ``kind`` labels the implementation ("baseline", "fused", "cpu").
    Probe length is the average linear-probe displacement per insertion —
    the open-addressing collision signal the paper's Fused-Map analysis
    (Table 8) is built on.
    """
    registry = get_registry()
    if not registry.enabled:
        return
    labels = {"idmap": kind}
    registry.counter(
        "repro_idmap_ids_total", "Input IDs mapped (with duplicates)",
    ).labels(**labels).inc(report.num_input_ids)
    registry.counter(
        "repro_idmap_unique_total", "Unique IDs assigned local slots",
    ).labels(**labels).inc(report.num_unique)
    registry.counter(
        "repro_idmap_cas_ops_total", "atomicCAS executions",
    ).labels(**labels).inc(report.cas_ops)
    registry.counter(
        "repro_idmap_probe_retries_total",
        "Hash-table collisions (linear-probe retries past occupied slots)",
    ).labels(**labels).inc(report.probe_retries)
    registry.counter(
        "repro_idmap_sync_events_total",
        "Thread-synchronization events (zero for Fused-Map)",
    ).labels(**labels).inc(report.sync_events)
    if report.cas_ops > 0:
        registry.histogram(
            "repro_idmap_probe_length",
            "Average probe displacement per hash-table insertion",
            buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8),
        ).labels(**labels).observe(report.probe_retries / report.cas_ops)


@dataclass
class MapResult:
    """Output of one ID map invocation.

    ``unique_globals[local]`` is the global ID of local node ``local``;
    ``locals_of_input[i]`` is the local ID assigned to ``input_ids[i]``.
    """

    unique_globals: np.ndarray
    locals_of_input: np.ndarray
    report: IdMapReport


#: :func:`first_occurrence_unique` addresses a scratch array by ID when the
#: largest ID is below this multiple of the number of input IDs, and sorts
#: otherwise. The bound caps the scratch at 16 int64 slots per input ID.
#: Far above it, a large scratch is mapped fresh on every call and mostly
#: left untouched, and the sort is faster (``docs/performance.md`` §6).
#: :func:`in_sorted` uses the same ratio for its bitmap.
DENSE_ID_RATIO = 16


def first_occurrence_unique(ids: np.ndarray) -> tuple:
    """``(unique, inverse)`` with unique ordered by first occurrence.

    This is the mapping a deterministic sequential ID map produces; all GPU
    variants here emit the same mapping (the concurrency harness in
    :mod:`repro.sampling.idmap.fused` demonstrates that *any* interleaving
    yields a valid bijection, merely a permuted one).

    Raises ``ValueError`` on a negative ID: ``-1`` is the hash table's
    EMPTY sentinel, and the device maps reject it the same way.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return _sorted_first_occurrence(ids)
    if ids.min() < 0:
        raise ValueError("global IDs must be non-negative (-1 is EMPTY)")
    high = int(ids.max())
    if high < DENSE_ID_RATIO * ids.size:
        return _dense_first_occurrence(ids, high)
    return _sorted_first_occurrence(ids)


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` for integer IDs: same values, same dtype.

    numpy 2.x routes ``np.unique`` of integers through a hash table and
    then sorts its output, which costs more than one ``np.sort`` plus an
    adjacent-difference mask; input that is already strictly increasing
    (the common case on the serving path) is returned after an O(n)
    check. The result may be ``ids`` itself or a view of it, so callers
    must not mutate it.
    """
    ids = np.asarray(ids).ravel()
    if ids.size < 2 or (ids[1:] > ids[:-1]).all():
        return ids
    ids = np.sort(ids)
    keep = np.empty(ids.size, dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def in_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``values`` occur in the ascending ``sorted_set``.

    For signed integer values, when the set is non-negative and its
    largest element is below :data:`DENSE_ID_RATIO` times the number of
    values and set elements, the set is scattered into a bitmap that the
    values index; otherwise one clipped ``np.searchsorted`` answers. An
    empty set gives an all-false mask.
    """
    if len(sorted_set) == 0:
        return np.zeros(np.shape(values), dtype=bool)
    values = np.asarray(values)
    high = int(sorted_set[-1])
    if (values.dtype.kind == "i" and sorted_set[0] >= 0
            and high < DENSE_ID_RATIO * (values.size + len(sorted_set))):
        # Slot high + 1 stays False: values above the set clip onto it,
        # and negative ones clip to -1, which is the same slot.
        bitmap = np.zeros(high + 2, dtype=bool)
        bitmap[sorted_set] = True
        return bitmap[np.clip(values, -1, high + 1)]
    pos = np.minimum(np.searchsorted(sorted_set, values), len(sorted_set) - 1)
    return sorted_set[pos] == values


def _dense_first_occurrence(ids: np.ndarray, high: int) -> tuple:
    """First occurrences through a scratch array indexed by ID: each
    present ID's slot ends at its first position, and sorting those
    positions orders the unique IDs by first occurrence."""
    scratch = np.full(high + 1, ids.size, dtype=np.int64)
    np.minimum.at(scratch, ids, np.arange(ids.size))
    firsts = scratch[scratch < ids.size]
    firsts.sort()
    unique = ids[firsts]
    # The first positions are consumed; reuse the scratch for local IDs.
    scratch[unique] = np.arange(unique.size)
    return unique, scratch[ids]


def _sorted_first_occurrence(ids: np.ndarray) -> tuple:
    """First occurrences through a stable sort; any ID range."""
    unique_sorted, first_idx, inverse_sorted = np.unique(
        ids, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    unique = unique_sorted[order]
    # rank[k] = local id of unique_sorted[k]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    inverse = rank[inverse_sorted]
    return unique, inverse


class IdMap(ABC):
    """An ID-map strategy; stateless apart from configuration.

    The class attributes describe the counted work of one map:
    :meth:`account` turns them into an :class:`IdMapReport`.
    """

    device = "gpu"
    #: The ``idmap`` label of this map's ``repro_idmap_*`` metrics.
    kind = ""
    #: Device kernels per map.
    kernel_launches = 0
    #: Whether each unique ID costs a thread synchronization (the DGL-style
    #: assign kernel) instead of one atomicAdd (Fused-Map).
    sync_per_unique = False
    #: Hash-table load factor, which sizes the table the probe model sees.
    load_factor = 0.5

    @abstractmethod
    def map(self, ids: np.ndarray) -> MapResult:
        """Map ``ids`` (with duplicates) to consecutive local IDs."""

    def account(self, num_ids: int, unique: np.ndarray) -> IdMapReport:
        """The counted work of mapping ``num_ids`` IDs whose distinct
        values are ``unique`` (in any order), reported to the metrics
        registry."""
        num_unique = len(unique)
        if self.device == "cpu":
            report = IdMapReport(num_input_ids=num_ids, num_unique=num_unique,
                                 device="cpu")
        else:
            probes = estimate_probe_stats(
                unique, num_duplicates=num_ids - num_unique,
                capacity=table_capacity(num_unique, self.load_factor),
            )
            report = IdMapReport(
                num_input_ids=num_ids,
                num_unique=num_unique,
                cas_ops=num_ids,
                probe_retries=probes.probe_retries,
                add_ops=0 if self.sync_per_unique else num_unique,
                sync_events=num_unique if self.sync_per_unique else 0,
                lookups=num_ids,
                kernel_launches=self.kernel_launches,
                device="gpu",
            )
        record_idmap_metrics(self.kind, report)
        return report
