"""Graph-simulation matching semantics (the paper's future-work extension).

The conclusion of the paper names "allowing other matching semantics such as
graph simulation" as an extension of GPARs.  This module implements dual
(forward + backward) graph simulation between a pattern and a data graph:

* a relation ``S ⊆ Vp × V`` is a *simulation* if whenever ``(u, v) ∈ S``,
  the labels agree and every pattern edge ``u --l--> u'`` (resp. incoming
  ``u'' --l--> u``) is matched by some data edge ``v --l--> v'`` with
  ``(u', v') ∈ S`` (resp. ``v'' --l--> v`` with ``(u'', v'') ∈ S``);
* the *maximum* simulation is computed by iterative refinement and is unique.

Simulation is weaker than subgraph isomorphism (it is not injective and does
not preserve cycles exactly) but computable in polynomial time, so a
simulation-based GPAR can be evaluated on graphs where isomorphism is too
expensive.  ``SimulationMatcher`` plugs into the same ``match_set`` interface
as the exact matchers; every isomorphism match is also a simulation match,
so it over-approximates ``Q(x, G)``.
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.graph import Graph
from repro.graph.index import FragmentIndex, graph_index
from repro.pattern.pattern import Pattern

NodeId = Hashable


def maximum_dual_simulation(
    pattern: Pattern,
    graph: Graph,
    index: FragmentIndex | None = None,
) -> dict[Hashable, set[NodeId]]:
    """Compute the maximum dual simulation of *pattern* into *graph*.

    Returns a mapping ``pattern node -> set of data nodes`` that simulate it;
    all sets are empty when no total simulation exists (some pattern node has
    no simulating data node).  With an *index* the whole refinement runs over
    its CSR ranges in interned-id space (vectorized when numpy is available);
    the maximum simulation is unique, so the result is identical to the dict
    fixpoint.  A patched index declines (``dual_simulation`` returns
    ``None``) and the loop below runs on its label buckets and frozen
    adjacency views instead, until the index next rebuilds.
    """
    expanded = pattern.expanded()
    if index is not None:
        result = index.dual_simulation(expanded)
        if result is not None:
            return result
    # Initial candidates: label agreement.
    if index is not None:
        simulation: dict[Hashable, set[NodeId]] = {
            node: set(index.nodes_with_label(expanded.label(node))) for node in expanded.nodes()
        }
    else:
        simulation = {
            node: set(graph.nodes_with_label(expanded.label(node))) for node in expanded.nodes()
        }
    if any(not candidates for candidates in simulation.values()):
        return {node: set() for node in expanded.nodes()}

    changed = True
    while changed:
        changed = False
        for node in expanded.nodes():
            survivors: set[NodeId] = set()
            for candidate in simulation[node]:
                consistent = True
                for edge in expanded.out_edges(node):
                    successors = (
                        index.out_neighbors(candidate, edge.label)
                        if index is not None
                        else graph.out_neighbors(candidate, edge.label)
                    )
                    if not (successors & simulation[edge.target]):
                        consistent = False
                        break
                if consistent:
                    for edge in expanded.in_edges(node):
                        predecessors = (
                            index.in_neighbors(candidate, edge.label)
                            if index is not None
                            else graph.in_neighbors(candidate, edge.label)
                        )
                        if not (predecessors & simulation[edge.source]):
                            consistent = False
                            break
                if consistent:
                    survivors.add(candidate)
            if survivors != simulation[node]:
                simulation[node] = survivors
                changed = True
        if any(not candidates for candidates in simulation.values()):
            return {node: set() for node in expanded.nodes()}
    return simulation


class SimulationMatcher:
    """Match-set computation under dual graph simulation.

    Exposes the subset of the :class:`repro.matching.base.Matcher` interface
    the metrics need (``match_set`` and ``exists_match_at``); because
    simulation is a global fixpoint, anchored queries are answered from the
    maximum simulation rather than by per-candidate search.
    """

    def __init__(self, use_index: bool = True) -> None:
        self.use_index = use_index
        # Cache of maximum simulations keyed by (pattern, graph identity),
        # each entry pinned to the Graph.version it was computed at: a
        # mutated graph (e.g. under repro.stream update batches) recomputes
        # instead of serving a stale fixpoint.
        self._cache: dict[tuple[Pattern, int], tuple[int, dict]] = {}
        self._graphs: dict[int, Graph] = {}

    def _simulation(self, graph: Graph, pattern: Pattern) -> dict:
        key = (pattern, id(graph))
        entry = self._cache.get(key)
        if entry is not None and entry[0] == graph.version and not graph.in_batch:
            return entry[1]
        index = graph_index(graph) if self.use_index else None
        simulation = maximum_dual_simulation(pattern, graph, index)
        if not graph.in_batch:  # a half-applied batch state must not linger
            self._cache[key] = (graph.version, simulation)
            self._graphs[id(graph)] = graph  # keep the graph alive for id stability
        return simulation

    def clear_caches(self) -> None:
        """Drop cached simulations."""
        self._cache.clear()
        self._graphs.clear()

    def match_set(self, graph: Graph, pattern: Pattern, candidates=None) -> set[NodeId]:
        """Data nodes simulating the designated node x."""
        expanded = pattern.expanded()
        matches = set(self._simulation(graph, expanded).get(expanded.x, set()))
        if candidates is not None:
            matches &= set(candidates)
        return matches

    def exists_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> bool:
        """Whether *anchor_value* simulates the designated node x."""
        expanded = pattern.expanded()
        return anchor_value in self._simulation(graph, expanded).get(expanded.x, set())


def simulation_match_set(graph: Graph, pattern: Pattern) -> set[NodeId]:
    """Convenience wrapper: ``Q(x, G)`` under dual simulation semantics."""
    return SimulationMatcher().match_set(graph, pattern)
