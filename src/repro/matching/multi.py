"""Multi-pattern matching for a set Σ of GPARs.

When EIP is posed with many rules over the same predicate, much of the
per-candidate work is shared: the labelled adjacency profile of a candidate
``vx`` is computed once and checked against every rule's required profile
(a necessary condition), and only the surviving (rule, candidate) pairs run
the expensive anchored isomorphism search.  This mirrors the paper's use of
common sub-pattern extraction [32] in ``Match``.

The *prefix-trie* mode (``use_prefix_trie``) shares the matching work
itself, not just the filter: each pattern's edges are ordered into a
deterministic connectivity-respecting chain from ``x``, and the match set
of every chain prefix shared by two or more patterns is computed once and
reused as the candidate pool of everything below it in the trie.  Because a
full match restricted to a prefix's nodes is a prefix match, pool
restriction by prefix match sets is lossless — the per-pattern results are
identical to rule-at-a-time evaluation.  EIP rule sets share their
consequent (and, having been grown levelwise from common seeds, usually
long antecedent prefixes), which is exactly the shape the trie rewards.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Mapping, Sequence

from repro.graph.graph import Graph
from repro.graph.index import graph_index
from repro.matching.base import Matcher, MatchStatistics
from repro.matching.candidates import adjacency_profile, profile_satisfies, required_profile
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern, PatternEdge

NodeId = Hashable

# Process-wide memo of prefix chains; patterns are immutable and EIP
# workloads re-evaluate the same Σ once per fragment.  Bounded so a
# long-lived process (persistent pool worker, embedding service) cannot
# accumulate chains across unrelated rule sets forever — unlike MatchStore
# (round retention) and FragmentIndex (weakref registry) this cache has no
# natural lifetime, so it is simply cleared when full.
_CHAIN_CACHE: dict[Pattern, tuple] = {}
_CHAIN_CACHE_LIMIT = 4096


class MultiPatternMatcher:
    """Evaluate ``PR(x, G)`` for every rule of a workload while sharing work.

    Parameters
    ----------
    matcher:
        The anchored matcher used for the exact checks (typically a
        :class:`repro.matching.GuidedMatcher`, possibly wrapped in a
        :class:`repro.matching.LocalityMatcher`).
    use_profile_filter:
        Enable the shared adjacency-profile necessary condition.
    use_index:
        Serve candidate pools from the data graph's resident
        :class:`repro.graph.index.FragmentIndex` and run the shared profile
        filter as its kernel probe — one interned-id pool mask per rule
        instead of a python profile comparison per ``(candidate, rule)``
        pair.  The filter remains a necessary condition, so the match sets
        are identical.
    use_prefix_trie:
        Share antecedent-prefix match sets across the workload (see the
        module docstring); identical results either way.
    """

    def __init__(
        self,
        matcher: Matcher,
        use_profile_filter: bool = True,
        use_index: bool = True,
        use_prefix_trie: bool = False,
    ) -> None:
        self.matcher = matcher
        self.use_profile_filter = use_profile_filter
        self.use_index = use_index
        self.use_prefix_trie = use_prefix_trie
        self.statistics = MatchStatistics()

    # ------------------------------------------------------------------
    # prefix-trie mode
    # ------------------------------------------------------------------
    @staticmethod
    def _prefix_chain(pattern: Pattern) -> tuple[Pattern, ...]:
        """Cumulative connected-from-x sub-patterns of *pattern*, memoised.

        Edges are consumed smallest-``sort_key``-first among those incident
        to the already-covered node set, which makes the chain deterministic
        and maximises sharing between patterns grown from common prefixes.
        The chain stops at the connected-from-x frontier: components only
        reachable through uncovered nodes (a "free" y) are left to the final
        full-pattern match, where the matcher's label-index fallback already
        handles them.  Chains depend only on the (immutable) pattern, so
        they are memoised process-wide.
        """
        cached = _CHAIN_CACHE.get(pattern)
        if cached is not None:
            return cached
        expanded = pattern.expanded()
        covered = {expanded.x}
        remaining = set(expanded.edges())
        chosen: list[PatternEdge] = []
        chain: list[Pattern] = []
        while remaining:
            incident = [
                edge
                for edge in remaining
                if edge.source in covered or edge.target in covered
            ]
            if not incident:
                break
            edge = min(incident, key=PatternEdge.sort_key)
            remaining.remove(edge)
            chosen.append(edge)
            covered.add(edge.source)
            covered.add(edge.target)
            chain.append(
                Pattern(
                    nodes={node: expanded.label(node) for node in covered},
                    edges=list(chosen),
                    x=expanded.x,
                    y=expanded.y if expanded.y in covered else None,
                )
            )
        result = tuple(chain)
        if len(_CHAIN_CACHE) >= _CHAIN_CACHE_LIMIT:
            _CHAIN_CACHE.clear()
        _CHAIN_CACHE[pattern] = result
        return result

    def shared_match_sets(
        self,
        graph: Graph,
        patterns: Mapping[Hashable, Pattern],
        candidates: Iterable[NodeId] | None = None,
    ) -> dict[Hashable, set[NodeId]]:
        """``{key: Q(x, G)}`` for many patterns over one candidate pool.

        Every chain prefix occurring in at least two patterns' chains is
        matched once against the pool and its match set re-used as the pool
        of everything below it; unshared suffixes jump straight to the full
        pattern, guarded by the same adjacency-profile necessary condition
        the rule-at-a-time path applies.  Results equal per-pattern
        ``matcher.match_set`` calls.
        """
        chains = {key: self._prefix_chain(pattern) for key, pattern in patterns.items()}
        shared: Counter = Counter()
        for chain in chains.values():
            for prefix in chain[:-1]:
                shared[prefix] += 1
        pool_cache: dict[Pattern, frozenset] = {}
        index = graph_index(graph) if self.use_index else None
        base = None if candidates is None else list(candidates)
        results: dict[Hashable, set[NodeId]] = {}
        for key, pattern in patterns.items():
            pool: Iterable[NodeId] | None = base
            for prefix in chains[key][:-1]:
                if shared[prefix] < 2:
                    continue
                cached = pool_cache.get(prefix)
                if cached is None:
                    cached = frozenset(
                        self.matcher.match_set(graph, prefix, candidates=pool)
                    )
                    pool_cache[prefix] = cached
                pool = cached
                self.statistics.prefix_pool_hits += 1
            if self.use_profile_filter and pool is not None:
                expanded = pattern.expanded()
                if index is not None:
                    requirement = index.compile_requirement(expanded, expanded.x)
                    pool = index.filter_candidates(pool, requirement)
                else:
                    needed = required_profile(expanded, expanded.x)
                    pool = [
                        node
                        for node in pool
                        if graph.has_node(node)
                        and profile_satisfies(adjacency_profile(graph, node), needed)
                    ]
            results[key] = self.matcher.match_set(graph, pattern, candidates=pool)
        self.statistics.merge(self.matcher.statistics)
        self.matcher.reset_statistics()
        return results

    # ------------------------------------------------------------------
    def match_sets(
        self,
        graph: Graph,
        rules: Sequence[GPAR],
        candidates: Iterable[NodeId] | None = None,
    ) -> dict[GPAR, set[NodeId]]:
        """Return ``{rule: PR(x, G)}`` for every rule in *rules*.

        *candidates* restricts the data nodes probed (e.g. the candidate
        centre nodes of a fragment); by default all nodes carrying the rule's
        x-label are probed.
        """
        results: dict[GPAR, set[NodeId]] = {rule: set() for rule in rules}
        if not rules:
            return results
        if self.use_prefix_trie:
            return self.shared_match_sets(
                graph,
                {rule: rule.pr_pattern() for rule in rules},
                candidates=candidates,
            )

        # Group candidate pools by x-label so the label index is hit once.
        by_x_label: dict[str, list[GPAR]] = {}
        for rule in rules:
            by_x_label.setdefault(rule.x_label, []).append(rule)

        index = graph_index(graph) if self.use_index else None
        candidate_list = None if candidates is None else list(candidates)
        for x_label, label_rules in by_x_label.items():
            if candidate_list is None:
                if index is not None:
                    pool: Iterable[NodeId] = index.nodes_with_label(x_label)
                else:
                    pool = graph.nodes_with_label(x_label)
            else:
                pool = [
                    node
                    for node in candidate_list
                    if graph.has_node(node) and graph.node_label(node) == x_label
                ]
            if index is not None and self.use_profile_filter:
                # One interned-id mask per rule over the whole pool instead of
                # a python profile comparison per (candidate, rule) pair.  The
                # statistics keep the pairwise accounting of the dict path.
                pool = list(pool)
                for rule in label_rules:
                    expanded = rule.pr_pattern().expanded()
                    requirement = index.compile_requirement(expanded, expanded.x)
                    survivors = index.filter_candidates(pool, requirement)
                    self.statistics.candidates_considered += len(pool)
                    self.statistics.profile_prunes += len(pool) - len(survivors)
                    for candidate in survivors:
                        if self.matcher.exists_match_at(
                            graph, rule.pr_pattern(), candidate
                        ):
                            results[rule].add(candidate)
                continue
            # Required adjacency profile of x, computed once per rule.
            needed_profiles = {
                rule: required_profile(rule.pr_pattern().expanded(), rule.x)
                for rule in label_rules
            }
            for candidate in pool:
                profile = (
                    adjacency_profile(graph, candidate) if self.use_profile_filter else None
                )
                for rule in label_rules:
                    self.statistics.candidates_considered += 1
                    if profile is not None and not profile_satisfies(
                        profile, needed_profiles[rule]
                    ):
                        self.statistics.profile_prunes += 1
                        continue
                    if self.matcher.exists_match_at(graph, rule.pr_pattern(), candidate):
                        results[rule].add(candidate)
        self.statistics.merge(self.matcher.statistics)
        self.matcher.reset_statistics()
        return results

    def antecedent_match_sets(
        self,
        graph: Graph,
        rules: Sequence[GPAR],
        candidates: Iterable[NodeId] | None = None,
    ) -> dict[GPAR, set[NodeId]]:
        """Return ``{rule: Q(x, G)}`` (antecedent-only match sets)."""
        if self.use_prefix_trie:
            return self.shared_match_sets(
                graph,
                {rule: rule.antecedent for rule in rules},
                candidates=candidates,
            )
        results: dict[GPAR, set[NodeId]] = {}
        for rule in rules:
            pool = candidates
            results[rule] = self.matcher.match_set(graph, rule.antecedent, candidates=pool)
        self.statistics.merge(self.matcher.statistics)
        self.matcher.reset_statistics()
        return results
