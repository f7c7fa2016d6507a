"""Block/page view of a feature table resident on SSD.

The out-of-core tier never addresses single rows on the drive: the NVMe
namespace is an array of fixed-size pages, each holding a contiguous run
of feature rows. ``PageStore`` maps node IDs to pages of the backing
:class:`~repro.graph.features.FeatureStore` (the "truth" that would live
on the drive) and counts every page and byte read — the
read-amplification input of the cost model.
"""

from __future__ import annotations

import numpy as np

from repro.graph.features import FeatureStore


class PageStore:
    """Fixed-size-page wrapper over a backing feature store."""

    def __init__(self, backing: FeatureStore,
                 page_bytes: int = 4096) -> None:
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        self.backing = backing
        #: A page always holds at least one row; tiny nominal pages are
        #: rounded up (drives cannot split a row across a read smaller
        #: than the row itself).
        self.page_bytes = max(int(page_bytes), backing.bytes_per_node)
        self.rows_per_page = self.page_bytes // backing.bytes_per_node
        self.num_pages = -(-backing.num_nodes // self.rows_per_page)
        self.pages_read = 0
        self.bytes_read = 0

    @property
    def total_bytes(self) -> int:
        """Bytes of the table as laid out on the drive (incl. padding)."""
        return self.num_pages * self.page_bytes

    def reset_stats(self) -> None:
        self.pages_read = 0
        self.bytes_read = 0

    def page_of(self, ids: np.ndarray) -> np.ndarray:
        """Page ID holding each node's feature row."""
        return np.asarray(ids, dtype=np.int64) // self.rows_per_page

    def page_rows(self, page_id: int) -> tuple:
        """``(first_node, num_rows)`` stored in ``page_id``."""
        if not 0 <= page_id < self.num_pages:
            raise IndexError(f"page {page_id} out of range")
        start = page_id * self.rows_per_page
        count = min(self.rows_per_page, self.backing.num_nodes - start)
        return start, count

    def read_page(self, page_id: int) -> None:
        """Count one page read off the drive: the full page crosses the
        NVMe link even when the tail page is only partially filled."""
        self.page_rows(page_id)
        self.pages_read += 1
        self.bytes_read += self.page_bytes
