"""Data-locality matching inside ``Gd(vx)`` (paper Sections 4.2 and 5.1).

For any pattern of radius ``d`` at x, a node ``vx`` matches x in G iff it
matches x in the d-neighbourhood ``Gd(vx)``.  Restricting the search space to
the (typically small) ball is what makes per-candidate work independent of
``|G|`` and is the basis of the parallel-scalability argument.
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.graph import Graph
from repro.graph.neighborhood import d_neighborhood
from repro.matching.base import Matcher
from repro.pattern.pattern import Pattern
from repro.pattern.radius import pattern_radius

NodeId = Hashable


class LocalityMatcher(Matcher):
    """Wrap another matcher so anchored queries run inside ``Gd(vx)``.

    Parameters
    ----------
    inner:
        The matcher performing the actual search (VF2 or guided).
    radius:
        Ball radius ``d``; when ``None`` the radius of the pattern at x is
        used per query (the tight, always-correct choice).
    cache_balls:
        Cache extracted neighbourhoods per (graph, node, radius); useful when
        the same candidate is probed by many rules (EIP with a set Σ).

    Notes
    -----
    The resident :class:`repro.graph.index.FragmentIndex` machinery is
    *fragment*-resident: extracted d-balls are transient per-candidate
    subgraphs, and eagerly indexing each one costs more than the handful of
    probes it would serve.  The inner matcher's index use is therefore
    suspended while it searches inside a ball (the label pool of anchored
    ``match_set`` queries still comes from the data graph's resident index).
    """

    def __init__(self, inner: Matcher, radius: int | None = None, cache_balls: bool = True) -> None:
        super().__init__(use_index=getattr(inner, "use_index", True))
        self.inner = inner
        self.radius = radius
        self.cache_balls = cache_balls
        # The pool prefilter of match_set must mirror the inner matcher's
        # semantics (a disVF2 inner must pay the unfiltered search).
        self._profile_prefilter = getattr(inner, "_profile_prefilter", True)
        # Keyed by the graph object itself (identity hash) so cached balls
        # keep their source graph alive and ids are never reused; each entry
        # is pinned to the Graph.version it was extracted at, so a graph
        # mutated between probes (repro.stream update batches) re-extracts
        # instead of serving a stale neighbourhood.
        self._ball_cache: dict[tuple[Graph, NodeId, int], tuple[int, Graph]] = {}

    def _ball(self, graph: Graph, anchor_value: NodeId, radius: int) -> Graph:
        # The BFS half of the extraction runs on the resident index's
        # memoised frozen-neighbourhood view when the index is enabled
        # (Graph.neighbors allocates a fresh set per visited node).
        index = None if graph.in_batch else self._index(graph)
        if not self.cache_balls:
            return d_neighborhood(graph, anchor_value, radius, index=index)
        key = (graph, anchor_value, radius)
        entry = self._ball_cache.get(key)
        if entry is not None and entry[0] == graph.version and not graph.in_batch:
            return entry[1]
        ball = d_neighborhood(graph, anchor_value, radius, index=index)
        if not graph.in_batch:  # never pin a half-applied batch state
            self._ball_cache[key] = (graph.version, ball)
        return ball

    def clear_caches(self) -> None:
        """Drop cached neighbourhoods."""
        self._ball_cache.clear()

    def find_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> dict | None:
        if not graph.has_node(anchor_value):
            return None
        expanded = pattern.expanded()
        radius = self.radius if self.radius is not None else pattern_radius(expanded, expanded.x)
        ball = self._ball(graph, anchor_value, radius)
        inner_use_index = self.inner.use_index
        self.inner.use_index = False  # balls are transient; see the class docstring
        try:
            mapping = self.inner.find_match_at(ball, expanded, anchor_value)
        finally:
            self.inner.use_index = inner_use_index
        self.statistics.merge(self.inner.statistics)
        self.inner.reset_statistics()
        return mapping
