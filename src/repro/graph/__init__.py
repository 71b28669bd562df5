"""Property-graph substrate.

The paper operates on directed graphs ``G = (V, E, L)`` whose nodes and edges
both carry labels (Section 2.1).  :class:`repro.graph.Graph` implements that
model with the indexes the mining and matching algorithms need:

* a label index (``nodes_with_label``) used to seed candidate sets,
* per-label adjacency (``out_neighbors(v, label)``) used by the matchers,
* bounded BFS for ``Gd(vx)`` d-neighbourhood extraction (:mod:`neighborhood`),
* k-hop label-frequency sketches used by guided search (:mod:`sketch`),
* the fragment-resident :class:`FragmentIndex` bundling label buckets, the
  kernel arrays (CSR adjacency over interned label ids plus a profile
  matrix, vectorized when numpy is available), frozen adjacency views and a
  sketch cache for the matching hot path (:mod:`index`; its array helpers
  live in :mod:`columnar`).
"""

from repro.graph.graph import DELTA_LOG_SIZE, Edge, Graph, GraphBatch, GraphDelta
from repro.graph.builder import GraphBuilder
from repro.graph.columnar import LabelTable, numpy_active
from repro.graph.index import (
    CompiledRequirement,
    FragmentIndex,
    IndexStatistics,
    KernelStatistics,
    discard_index,
    graph_index,
    registered_index,
)
from repro.graph.neighborhood import (
    ball,
    bfs_distances,
    d_neighborhood,
    eccentricity,
)
from repro.graph.sketch import (
    KHopSketch,
    build_sketch,
    empty_sketch,
    sketch_dominates,
    sketch_score,
)
from repro.graph.views import induced_subgraph, subgraph_from_edges
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_graph_json,
    save_graph_json,
    load_edge_list,
    save_edge_list,
)
from repro.graph.statistics import GraphSummary, summarize

__all__ = [
    "DELTA_LOG_SIZE",
    "Edge",
    "Graph",
    "GraphBatch",
    "GraphDelta",
    "GraphBuilder",
    "ball",
    "bfs_distances",
    "d_neighborhood",
    "eccentricity",
    "KHopSketch",
    "build_sketch",
    "empty_sketch",
    "sketch_dominates",
    "sketch_score",
    "CompiledRequirement",
    "FragmentIndex",
    "IndexStatistics",
    "KernelStatistics",
    "graph_index",
    "discard_index",
    "registered_index",
    "LabelTable",
    "numpy_active",
    "induced_subgraph",
    "subgraph_from_edges",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph_json",
    "save_graph_json",
    "load_edge_list",
    "save_edge_list",
    "GraphSummary",
    "summarize",
]
