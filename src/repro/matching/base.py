"""Matcher interface and shared search machinery."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

from repro.exceptions import MatchingError
from repro.graph.graph import Graph
from repro.graph.index import FragmentIndex, graph_index
from repro.matching.candidates import label_candidates
from repro.obs.stats import StatisticsBase
from repro.pattern.pattern import Pattern, PatternEdge

NodeId = Hashable


@dataclass
class MatchStatistics(StatisticsBase):
    """Counters describing the work a matcher performed.

    The benchmark harness uses these to contrast e.g. ``Match`` (early
    termination) against ``disVF2`` (full enumeration) in a way that is
    independent of interpreter noise.  ``snapshot()``/``merge()`` come from
    :class:`repro.obs.stats.StatisticsBase`, as for every ``*Statistics``
    class; with collection enabled the counters feed the process-global
    registry as ``repro_match_*_total``.
    """

    _metric_kind = "match"

    candidates_considered: int = 0
    states_expanded: int = 0
    backtracks: int = 0
    matches_found: int = 0
    sketch_prunes: int = 0
    profile_prunes: int = 0
    prefix_pool_hits: int = 0


@dataclass
class _SearchPlan:
    """A connectivity-respecting elimination order for a pattern.

    ``order[0]`` is the anchor (designated node).  ``anchors[i]`` lists, for
    the i-th pattern node, the pattern edges connecting it to already-placed
    nodes, which is where candidate sets come from during the search.
    """

    order: list = field(default_factory=list)
    # For each position i >= 1: list of (edge, already_placed_is_source)
    connections: list = field(default_factory=list)


def build_search_plan(pattern: Pattern, anchor) -> _SearchPlan:
    """Compute a BFS-style matching order starting from *anchor*.

    Raises :class:`MatchingError` if the pattern is disconnected (every
    practical GPAR pattern is connected by definition).
    """
    if not pattern.has_node(anchor):
        raise MatchingError(f"anchor {anchor!r} is not a pattern node")
    order = [anchor]
    placed = {anchor}
    connections: list[list[tuple[PatternEdge, bool]]] = [[]]
    remaining = set(pattern.nodes()) - placed
    while remaining:
        best_node = None
        best_links: list[tuple[PatternEdge, bool]] = []
        for node in remaining:
            links: list[tuple[PatternEdge, bool]] = []
            for edge in pattern.out_edges(node):
                if edge.target in placed:
                    links.append((edge, False))
            for edge in pattern.in_edges(node):
                if edge.source in placed:
                    links.append((edge, True))
            if links and (best_node is None or len(links) > len(best_links)):
                best_node = node
                best_links = links
        if best_node is None:
            # Disconnected pattern (e.g. the antecedent of a GPAR whose y is
            # only tied in through the consequent edge).  Place an arbitrary
            # remaining node as a "free" node: it has no connections, so the
            # matchers fall back to the label index for its candidates.
            best_node = min(remaining, key=str)
            best_links = []
        order.append(best_node)
        connections.append(best_links)
        placed.add(best_node)
        remaining.discard(best_node)
    return _SearchPlan(order=order, connections=connections)


class Matcher(ABC):
    """Common interface of all subgraph-isomorphism matchers.

    Parameters
    ----------
    use_index:
        When ``True`` (default) anchored searches consult the resident
        :class:`repro.graph.index.FragmentIndex` of the data graph (label
        buckets, profile-matrix probes, frozen adjacency views, sketch
        cache), and ``match_set`` prefilters its candidate pool with the
        index's label + profile domination probe (vectorized with numpy).
        ``False`` re-derives everything from the raw graph per probe — the
        reference path the equivalence tests and benchmarks compare
        against.  The filter is a necessary condition for an isomorphism
        match, so both modes return identical matches.  Matchers whose
        baseline semantics forbid the profile filter (``disVF2``:
        ``use_degree_filter=False``) suspend it via ``_profile_prefilter``.
    """

    #: Whether match_set may profile-prefilter the pool (see use_index).
    _profile_prefilter = True

    def __init__(self, use_index: bool = True) -> None:
        self.statistics = MatchStatistics()
        self.use_index = use_index

    def reset_statistics(self) -> None:
        """Zero the work counters."""
        self.statistics = MatchStatistics()

    def _index(self, graph: Graph) -> FragmentIndex | None:
        """The data graph's resident index, or ``None`` when disabled."""
        if not self.use_index:
            return None
        return graph_index(graph)

    # -- anchored queries -------------------------------------------------
    @abstractmethod
    def find_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> dict | None:
        """Return one isomorphism mapping ``pattern.x -> anchor_value``, or None."""

    def exists_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> bool:
        """Whether some match maps the designated node x to *anchor_value*."""
        return self.find_match_at(graph, pattern, anchor_value) is not None

    # -- match sets -------------------------------------------------------
    def match_set(
        self,
        graph: Graph,
        pattern: Pattern,
        candidates: Iterable[NodeId] | None = None,
    ) -> set[NodeId]:
        """``Q(x, G)``: data nodes that can play the designated node x.

        *candidates* restricts the nodes to test (callers typically pass the
        label-index candidates or a previously computed superset).
        """
        expanded = pattern.expanded()
        index = self._index(graph)
        if candidates is None:
            # With a resident index this is the index's frozen bucket —
            # no per-probe copy; it is only iterated here, never mutated.
            pool: Iterable[NodeId] = label_candidates(graph, expanded, expanded.x, index)
        else:
            pool = candidates
        if index is not None and self._profile_prefilter:
            # Interned-id label + profile-domination mask over the whole
            # pool: a necessary condition, so dropped candidates could never
            # have matched — the match set is unchanged by construction.
            requirement = index.compile_requirement(expanded, expanded.x)
            before = len(pool) if hasattr(pool, "__len__") else None
            pool = index.filter_candidates(pool, requirement)
            if before is not None:
                self.statistics.profile_prunes += before - len(pool)
        matched: set[NodeId] = set()
        for candidate in pool:
            self.statistics.candidates_considered += 1
            if self.exists_match_at(graph, expanded, candidate):
                matched.add(candidate)
        return matched

    # -- full enumeration -------------------------------------------------
    def find_all(
        self,
        graph: Graph,
        pattern: Pattern,
        limit: int | None = None,
    ) -> list[dict]:
        """Enumerate isomorphism mappings (pattern node -> data node).

        Used by the disVF2 baseline and by tests; the core algorithms use the
        anchored early-terminating queries instead.
        """
        expanded = pattern.expanded()
        anchors = label_candidates(graph, expanded, expanded.x, self._index(graph))
        results: list[dict] = []
        for candidate in sorted(anchors, key=str):
            for mapping in self.iter_matches_at(graph, expanded, candidate):
                results.append(mapping)
                if limit is not None and len(results) >= limit:
                    return results
        return results

    def iter_matches_at(
        self, graph: Graph, pattern: Pattern, anchor_value: NodeId
    ) -> Iterator[dict]:
        """Iterate over all matches anchored at *anchor_value*.

        Default implementation yields at most one (the anchored search);
        matchers supporting full enumeration override it.
        """
        mapping = self.find_match_at(graph, pattern, anchor_value)
        if mapping is not None:
            yield mapping
