"""Candidate generation and cheap necessary-condition filters.

Every helper accepts an optional :class:`repro.graph.index.FragmentIndex`;
when one is supplied the probe is answered from the resident index instead
of being re-derived from the raw graph (an O(degree) walk).  Profile checks
then run as the index's kernel probes — interned-id requirements against the
precomputed profile matrix (:meth:`FragmentIndex.compile_requirement` /
:meth:`~FragmentIndex.dominates`).  The results are identical by
construction: the index is a memoisation of exactly these quantities, and
every check is a necessary condition for an isomorphism match, so filtering
never changes a match set, only the work done to compute it.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable

from repro.graph.graph import Graph
from repro.graph.index import FragmentIndex
from repro.pattern.pattern import Pattern

NodeId = Hashable

# A profile maps (direction, edge label, neighbour label) -> count, where
# direction is "out" or "in".  It summarises the labelled adjacency of a node.
Profile = dict[tuple[str, str, str], int]


def label_candidates(
    graph: Graph,
    pattern: Pattern,
    pattern_node,
    index: FragmentIndex | None = None,
) -> frozenset | set[NodeId]:
    """Data nodes whose label satisfies the search condition of *pattern_node*.

    With an *index* this returns a frozen label bucket **directly** — no
    per-probe copy; callers that need to mutate the result must copy it
    themselves (``set(...)``).  Without one the graph already hands out a
    fresh mutable set.
    """
    label = pattern.label(pattern_node)
    if index is not None:
        return index.nodes_with_label(label)
    return graph.nodes_with_label(label)


def required_profile(pattern: Pattern, pattern_node) -> Profile:
    """Adjacency profile a data node must dominate to match *pattern_node*.

    Computed on the copy-expanded pattern by the caller when copy counts
    matter; here the pattern is used as given.
    """
    profile: Counter = Counter()
    for edge in pattern.out_edges(pattern_node):
        profile[("out", edge.label, pattern.label(edge.target))] += 1
    for edge in pattern.in_edges(pattern_node):
        profile[("in", edge.label, pattern.label(edge.source))] += 1
    return dict(profile)


def adjacency_profile(graph: Graph, node: NodeId, index: FragmentIndex | None = None) -> Profile:
    """Labelled adjacency profile of a data node.

    This is the quantity the reference (index-free) paths of
    :class:`repro.matching.MultiPatternMatcher` and ``Match`` compute once
    per candidate so that every rule in Σ reuses it.  With an *index* the
    profile is decoded from the index's profile matrix.
    """
    if index is not None:
        return index.profile(node)
    profile: Counter = Counter()
    for edge in graph.out_edges(node):
        profile[("out", edge.label, graph.node_label(edge.target))] += 1
    for edge in graph.in_edges(node):
        profile[("in", edge.label, graph.node_label(edge.source))] += 1
    return dict(profile)


def profile_satisfies(candidate_profile: Profile, needed: Profile) -> bool:
    """Whether a candidate's profile dominates the required profile."""
    for key, count in needed.items():
        if candidate_profile.get(key, 0) < count:
            return False
    return True


def degree_consistent(
    graph: Graph,
    data_node: NodeId,
    pattern: Pattern,
    pattern_node,
    index: FragmentIndex | None = None,
) -> bool:
    """Cheap label + degree necessary condition for ``data_node`` to match.

    The data node must carry the pattern node's label and, for every
    (direction, edge label, neighbour label) the pattern requires, have at
    least as many such neighbours.  With an *index* this is the kernel's
    memoised-requirement probe instead of a per-call profile comparison.
    """
    if index is not None:
        return index.dominates(data_node, index.compile_requirement(pattern, pattern_node))
    return graph.node_label(data_node) == pattern.label(pattern_node) and profile_satisfies(
        adjacency_profile(graph, data_node), required_profile(pattern, pattern_node)
    )
