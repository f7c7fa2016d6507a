"""Analysis helpers: roofline model and device-memory estimators."""

from repro.metrics.roofline import RooflinePoint, roofline_ceiling
from repro.metrics.memory import paper_scale_workspace_bytes

__all__ = [
    "RooflinePoint",
    "roofline_ceiling",
    "paper_scale_workspace_bytes",
]
