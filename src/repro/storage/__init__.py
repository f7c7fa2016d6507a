"""Out-of-core storage tier: an SSD-resident feature table.

At Papers100M/IGB scale the feature table exceeds host DRAM, so this
subsystem models the table living on an NVMe drive, accessed through a
page-granular store, a partition-aware page cache (BGL-style) and an IO
scheduler that coalesces requests; the out-of-core epoch layout overlaps
the reads with sampling and training on the pipeline engine
(:mod:`repro.pipeline.graph`). Two access paths are modeled: the classic
bounce buffer (SSD -> host DRAM -> GPU) and GPU-initiated direct access
(GIDS-style SSD -> GPU peer-to-peer).
"""

from repro.storage.cache import (
    LRUPageCache,
    PageCache,
    PartitionAwarePageCache,
    build_page_cache,
    partition_page_hotness,
)
from repro.storage.feature_store import StorageBackedFeatureStore
from repro.storage.nvme import NVMeLink, nvme_from_cost
from repro.storage.page_store import PageStore
from repro.storage.scheduler import IOPlan, IOScheduler

__all__ = [
    "LRUPageCache",
    "PageCache",
    "PartitionAwarePageCache",
    "build_page_cache",
    "partition_page_hotness",
    "StorageBackedFeatureStore",
    "NVMeLink",
    "nvme_from_cost",
    "PageStore",
    "IOPlan",
    "IOScheduler",
]
