"""Dataset/graph serialization.

Building one of the full-size synthetic datasets takes about a second
(0.5–1.3 s for the five recipes in ``DATASETS`` on a 2-vCPU x86 machine),
and realizing a wide feature table can take longer; saving both to a
single ``.npz`` lets benchmark reruns and external tools skip
regeneration. Features are stored materialized (lazy stores are realized
on save).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.datasets import Dataset, DatasetSpec, PaperScale
from repro.graph.features import MaterializedFeatureStore

_FORMAT_VERSION = 1


def save_graph(path, graph: CSRGraph) -> None:
    """Write one CSR graph to ``path`` (.npz)."""
    np.savez_compressed(path, indptr=graph.indptr, indices=graph.indices)


def load_graph(path) -> CSRGraph:
    """Read a CSR graph written by :func:`save_graph`."""
    with np.load(path) as data:
        return CSRGraph(indptr=data["indptr"], indices=data["indices"])


def save_dataset(path, dataset: Dataset) -> None:
    """Write a full dataset (graph, features, labels, splits, spec)."""
    spec = dataset.spec
    meta = {
        "version": _FORMAT_VERSION,
        "seed": dataset.seed,
        "spec": {
            "name": spec.name,
            "num_nodes": spec.num_nodes,
            "avg_degree": spec.avg_degree,
            "feature_dim": spec.feature_dim,
            "num_classes": spec.num_classes,
            "train_fraction": spec.train_fraction,
            "intra_fraction": spec.intra_fraction,
            "feature_noise": spec.feature_noise,
            "paper": {
                "num_nodes": spec.paper.num_nodes,
                "num_edges": spec.paper.num_edges,
                "left_memory_bytes": spec.paper.left_memory_bytes,
            },
        },
    }
    features = dataset.features
    if not isinstance(features, MaterializedFeatureStore):
        features = features.materialize()
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        indptr=dataset.graph.indptr,
        indices=dataset.graph.indices,
        labels=dataset.labels,
        train_ids=dataset.train_ids,
        val_ids=dataset.val_ids,
        test_ids=dataset.test_ids,
        features=features.table,
    )


def load_dataset(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset` (no regeneration)."""
    path = pathlib.Path(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset format version {meta.get('version')}"
            )
        spec_meta = meta["spec"]
        spec = DatasetSpec(
            name=spec_meta["name"],
            num_nodes=spec_meta["num_nodes"],
            avg_degree=spec_meta["avg_degree"],
            feature_dim=spec_meta["feature_dim"],
            num_classes=spec_meta["num_classes"],
            train_fraction=spec_meta["train_fraction"],
            intra_fraction=spec_meta["intra_fraction"],
            feature_noise=spec_meta["feature_noise"],
            paper=PaperScale(**spec_meta["paper"]),
        )
        dataset = object.__new__(Dataset)
        dataset.spec = spec
        dataset.seed = int(meta["seed"])
        dataset.graph = CSRGraph(indptr=data["indptr"],
                                 indices=data["indices"])
        dataset.labels = data["labels"].astype(np.int64)
        dataset.train_ids = data["train_ids"].astype(np.int64)
        dataset.val_ids = data["val_ids"].astype(np.int64)
        dataset.test_ids = data["test_ids"].astype(np.int64)
        dataset.features = MaterializedFeatureStore(data["features"])
        return dataset
