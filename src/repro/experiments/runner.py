"""Shared experiment machinery: result records and a memoized epoch runner.

Several figures reuse the same (framework, dataset, model, config) epoch;
``epoch_report`` memoizes them per process so regenerating the full set of
tables stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig
from repro.faults import get_fault_plan
from repro.frameworks import EpochReport, create
from repro.graph.datasets import SHORT_NAMES, get_dataset
from repro.obs import get_registry
from repro.pipeline import DEFAULT_EXECUTION, ExecutionSpec
from repro.utils.format import ascii_series, ascii_table

#: Dataset order used throughout the paper's tables.
ALL_DATASETS = ("reddit", "products", "mag", "igb", "papers100m")
#: The four datasets of the paper's Tables 7 and 8.
TABLE_DATASETS = ("reddit", "products", "mag", "papers100m")


def short_name(dataset: str) -> str:
    """Paper abbreviation (RD/PR/MAG/IGB/PA) for a dataset name."""
    return SHORT_NAMES.get(dataset, dataset)


@dataclass
class ExperimentResult:
    """Renderable result of one experiment (one paper table or figure)."""

    exp_id: str
    title: str
    headers: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    #: Figure-style data: (series name, xs, ys) triples.
    series: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def render(self) -> str:
        parts = [f"== {self.exp_id}: {self.title} =="]
        if self.rows:
            parts.append(ascii_table(self.headers, self.rows))
        for name, xs, ys in self.series:
            parts.append(ascii_series(name, xs, ys))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def row_dict(self, key_col: int = 0) -> dict:
        """Rows keyed by their ``key_col`` value (test convenience)."""
        return {row[key_col]: row for row in self.rows}


_REPORT_CACHE: dict = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def clear_report_cache() -> None:
    _REPORT_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def cache_info() -> dict:
    """``functools``-style statistics of the epoch-report memo, so a
    rerun's cost (which epochs were recomputed vs served) is explainable."""
    return {
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
        "currsize": len(_REPORT_CACHE),
    }


def _record_cache_access(hit: bool) -> None:
    _CACHE_STATS["hits" if hit else "misses"] += 1
    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "repro_experiment_report_cache_total",
            "Epoch-report memoization lookups by outcome",
        ).labels(outcome="hit" if hit else "miss").inc()


def epoch_report(
    framework,
    dataset_name: str,
    config: RunConfig,
    model: str = "gcn",
    dataset=None,
    sampler=None,
    execution: ExecutionSpec | None = None,
) -> EpochReport:
    """Run (and memoize) one epoch.

    ``framework`` is a registry name (see
    :func:`repro.frameworks.available_frameworks`), a framework class,
    or an instance. Memoization only applies to the name/class forms
    with default datasets and samplers (``execution``, a frozen
    :class:`~repro.pipeline.ExecutionSpec`, is part of the key) and
    only while no fault plan is active; hit/miss counts are visible
    through :func:`cache_info` and, when observability is on, the
    ``repro_experiment_report_cache_total`` counter.
    """
    if execution is None:
        execution = DEFAULT_EXECUTION
    # A fault plan is stateful (fired counts) and unhashable: a run under
    # one is neither served from the memo nor stored in it.
    cacheable = (dataset is None and sampler is None
                 and not get_fault_plan().enabled)
    if isinstance(framework, str):
        key_id = framework
        instance = create(framework)
    elif isinstance(framework, type):
        key_id = f"{framework.__name__}:{framework.name}"
        instance = framework()
    else:
        instance = framework
        key_id = None
        cacheable = False
    key = (key_id, dataset_name, model, config, execution)
    if cacheable and key in _REPORT_CACHE:
        _record_cache_access(hit=True)
        return _REPORT_CACHE[key]
    _record_cache_access(hit=False)
    if dataset is None:
        dataset = get_dataset(dataset_name, seed=config.seed)
    report = instance.run_epoch(dataset, config, model_name=model,
                                sampler=sampler, execution=execution)
    if cacheable:
        _REPORT_CACHE[key] = report
    return report


def speedup(baseline_time: float, other_time: float) -> float:
    """``baseline / other`` guarded against zero."""
    if other_time <= 0:
        return float("inf")
    return baseline_time / other_time
