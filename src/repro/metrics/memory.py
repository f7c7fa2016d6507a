"""Paper-scale device-memory estimation (Tables 1 and 9).

The paper measures GPU memory while training 3-layer GCNs on the *original*
datasets (batch 8000, hidden 256). Those graphs cannot be materialized
here, so this module estimates the workspace analytically: expected
sampled-subgraph sizes come from the neighbor-explosion model in
:mod:`repro.graph.stats`, and the per-buffer accounting mirrors the
framework memory model (features, activations, retained inputs, per-edge
messages for naive kernels, multi-format graph structure, allocator slack,
runtime overhead).

Absolute numbers depend on framework internals the paper does not specify
(allocator behaviour, retained buffers), so EXPERIMENTS.md compares the
*shape*: which datasets leave the device nearly full — MAG/IGB/Papers100M
— and which leave plenty (Reddit, Products).
"""

from __future__ import annotations

from repro.config import COST_MODEL
from repro.graph.datasets import DatasetSpec
from repro.graph.stats import estimate_subgraph_size

#: DGL keeps the graph in up to three sparse formats (COO/CSR/CSC).
_STRUCTURE_FORMATS = 3


def paper_scale_workspace_bytes(
    spec: DatasetSpec,
    batch_size: int = 8000,
    fanouts=(5, 10, 15),
    hidden_dim: int = 256,
    materialize_edge_messages: bool = True,
    structure_formats: int = _STRUCTURE_FORMATS,
) -> dict:
    """Estimated device bytes while training a 3-layer GCN at paper scale.

    Returns a breakdown dict with a ``"total"`` key.
    """
    paper = spec.paper
    avg_degree = paper.num_edges * 2 / paper.num_nodes
    est = estimate_subgraph_size(
        paper.num_nodes, avg_degree, batch_size, fanouts
    )
    feat_bytes_per_node = spec.feature_dim * 4

    # frontiers[0] = seeds ... frontiers[-1] = input nodes.
    frontiers = est.frontiers
    input_nodes = frontiers[-1]
    features = input_nodes * feat_bytes_per_node

    dims = [spec.feature_dim] + [hidden_dim] * len(fanouts)
    activations = 0.0
    retained_inputs = 0.0
    edge_messages = 0.0
    # Layer k consumes frontier k+1 (sources) and produces frontier k.
    for k in range(len(fanouts)):
        num_dst = frontiers[len(fanouts) - 1 - k]
        num_src = frontiers[len(fanouts) - k]
        edges = est.edges_per_hop[len(fanouts) - 1 - k]
        d_in = dims[0] if k == 0 else hidden_dim
        d_out = hidden_dim
        activations += num_dst * d_out * 4 * 2  # output + gradient
        retained_inputs += num_src * d_in * 4  # kept for backward
        if materialize_edge_messages:
            edge_messages += edges * d_in * 4 * 2  # fwd message + grad

    structure = (est.num_edges * 16 + sum(frontiers) * 8) * structure_formats
    params = (spec.feature_dim * hidden_dim + hidden_dim * hidden_dim
              + hidden_dim * spec.num_classes) * 4 * 3  # + Adam moments

    # GPU-based sampling (DGL's and FastGL's mode) keeps the *full graph
    # topology* device-resident: neighbor indices + edge IDs (int64 each)
    # plus the offset array. This is the term that exhausts device memory
    # on the 100M-node graphs (Table 1's MAG/Papers100M rows).
    full_graph = paper.num_edges * 16 + paper.num_nodes * 8

    workspace = (features + activations + retained_inputs + edge_messages
                 + structure)
    total = (COST_MODEL.runtime_overhead_bytes + params + full_graph
             + workspace * COST_MODEL.allocator_slack)
    return {
        "total": int(total),
        "full_graph_topology": int(full_graph),
        "features": int(features),
        "activations": int(activations),
        "retained_inputs": int(retained_inputs),
        "edge_messages": int(edge_messages),
        "structure": int(structure),
        "params_opt": int(params),
        "runtime": COST_MODEL.runtime_overhead_bytes,
        "input_nodes": int(input_nodes),
        "sampled_edges": int(est.num_edges),
    }
