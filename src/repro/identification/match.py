"""``Match``: Matchc plus the optimisations of Section 5.2.

Three optimisations over :class:`repro.identification.MatchC`:

* **early termination** — candidates are accepted on the first witnessing
  match (inherited from the anchored matcher interface, but here combined
  with the pruning below so far fewer search states are expanded);
* **guided search** — the sketch-guided matcher orders and prunes candidate
  assignments by k-hop neighbourhood sketches;
* **shared work across Σ** — the labelled adjacency profile of each
  candidate is computed once and checked against every rule's required
  profile (a necessary condition) before any isomorphism search runs, the
  common sub-pattern sharing of [Le et al. 2012] in spirit.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.graph.index import graph_index
from repro.matching.base import Matcher
from repro.matching.candidates import adjacency_profile, profile_satisfies, required_profile
from repro.matching.guided import GuidedMatcher
from repro.matching.multi import MultiPatternMatcher
from repro.metrics.lcwa import predicate_stats_over
from repro.identification.eip import EIPConfig
from repro.identification.matchc import MatchC, _FragmentReport
from repro.partition.fragment import Fragment
from repro.pattern.gpar import GPAR

NodeId = Hashable


class Match(MatchC):
    """Optimised parallel EIP solver (the paper's ``Match``)."""

    # The guided matcher runs directly on each fragment graph, so the
    # worker-initializer index build pays off here (unlike MatchC's
    # ball-restricted search).
    _consumes_resident_index = True

    def __init__(self, config: EIPConfig, sketch_hops: int = 2) -> None:
        super().__init__(config)
        self.sketch_hops = sketch_hops

    def _make_matcher(self, max_radius: int) -> Matcher:
        # The fragment itself is the locality unit (it is the union of the
        # owned candidates' d-balls); running the guided matcher directly on
        # it lets the k-hop sketch cache be shared across all candidates and
        # all rules of Σ instead of being rebuilt per extracted ball.
        return GuidedMatcher(
            sketch_hops=self.sketch_hops,
            use_index=self.config.use_index,
        )

    def _verify_fragment(
        self,
        fragment: Fragment,
        rules: Sequence[GPAR],
        matcher: Matcher,
        predicate,
    ) -> _FragmentReport:
        if self.config.use_incremental and rules:
            return self._verify_fragment_shared(fragment, rules, matcher, predicate)
        graph = fragment.graph
        index = graph_index(graph) if self.config.use_index else None
        stats = predicate_stats_over(graph, predicate, fragment.owned_centers)
        owned = set(stats.positives) | set(stats.negatives) | set(stats.unknown)
        report = _FragmentReport(fragment_index=fragment.index)
        local_positives = set(stats.positives)
        local_negatives = set(stats.negatives)
        report.positives = local_positives
        report.negatives = local_negatives
        report.supp_q = len(local_positives)
        report.supp_q_bar = len(local_negatives)

        rule_matches: dict[GPAR, set[NodeId]] = {rule: set() for rule in rules}
        antecedent_sets: dict[GPAR, set[NodeId]] = {rule: set() for rule in rules}
        qbar_counts = {rule: 0 for rule in rules}

        if index is not None:
            # The shared profile filter compiles to one interned-id
            # requirement per rule; domination is checked against the
            # precomputed profile matrix row of each candidate.  Same
            # necessary condition, so the witness sets are unchanged.
            report.candidates_examined = len(owned) * len(rules)
            for rule in rules:
                antecedent = rule.antecedent.expanded()
                ante_req = index.compile_requirement(antecedent, antecedent.x)
                pr = rule.pr_pattern().expanded()
                pr_req = index.compile_requirement(pr, pr.x)
                for candidate in index.filter_candidates(owned, ante_req):
                    if not matcher.exists_match_at(graph, rule.antecedent, candidate):
                        continue
                    antecedent_sets[rule].add(candidate)
                    if candidate in local_negatives:
                        qbar_counts[rule] += 1
                    if candidate not in local_positives:
                        continue
                    if not index.dominates(candidate, pr_req):
                        continue
                    if matcher.exists_match_at(graph, rule.pr_pattern(), candidate):
                        rule_matches[rule].add(candidate)
        else:
            # Required adjacency profiles of x, computed once per rule.
            antecedent_profiles = {
                rule: required_profile(rule.antecedent.expanded(), rule.x)
                for rule in rules
            }
            pr_profiles = {
                rule: required_profile(rule.pr_pattern().expanded(), rule.x)
                for rule in rules
            }
            for candidate in owned:
                # One adjacency profile per candidate, shared by all rules of Σ.
                profile = adjacency_profile(graph, candidate)
                for rule in rules:
                    report.candidates_examined += 1
                    if not profile_satisfies(profile, antecedent_profiles[rule]):
                        continue
                    if not matcher.exists_match_at(graph, rule.antecedent, candidate):
                        continue
                    antecedent_sets[rule].add(candidate)
                    if candidate in local_negatives:
                        qbar_counts[rule] += 1
                    if candidate not in local_positives:
                        continue
                    if not profile_satisfies(profile, pr_profiles[rule]):
                        continue
                    if matcher.exists_match_at(graph, rule.pr_pattern(), candidate):
                        rule_matches[rule].add(candidate)

        report.rule_matches = rule_matches
        report.antecedent_sets = antecedent_sets
        report.antecedent_counts = {
            rule: len(matches) for rule, matches in antecedent_sets.items()
        }
        report.qbar_counts = qbar_counts
        return report

    def _verify_fragment_shared(
        self,
        fragment: Fragment,
        rules: Sequence[GPAR],
        matcher: Matcher,
        predicate,
    ) -> _FragmentReport:
        """Prefix-trie evaluation of Σ: shared antecedent-prefix match sets.

        Produces the same counts and witness sets as the per-candidate loop
        of :meth:`_verify_fragment` — pool restriction by prefix match sets
        is lossless — while rules grown from common prefixes (the normal
        shape of a mined Σ with one consequent) scan the candidate pool once
        per shared prefix instead of once per rule.
        """
        graph = fragment.graph
        stats = predicate_stats_over(graph, predicate, fragment.owned_centers)
        owned = set(stats.positives) | set(stats.negatives) | set(stats.unknown)
        report = _FragmentReport(fragment_index=fragment.index)
        local_positives = set(stats.positives)
        local_negatives = set(stats.negatives)
        report.positives = local_positives
        report.negatives = local_negatives
        report.supp_q = len(local_positives)
        report.supp_q_bar = len(local_negatives)
        # Parity with the rule-at-a-time loop, which examines every
        # (candidate, rule) pair exactly once.
        report.candidates_examined = len(owned) * len(rules)

        multi = MultiPatternMatcher(
            matcher,
            use_index=self.config.use_index,
            use_prefix_trie=True,
        )
        antecedent_sets = multi.shared_match_sets(
            graph, {rule: rule.antecedent for rule in rules}, candidates=owned
        )
        # PR matches only count at positive owned centres; one shared base
        # pool keeps the trie's prefix cache valid across all of Σ.
        pr_sets = multi.shared_match_sets(
            graph,
            {rule: rule.pr_pattern() for rule in rules},
            candidates=owned & local_positives,
        )
        report.prefix_pool_hits = multi.statistics.prefix_pool_hits
        for rule in rules:
            antecedent_matches = antecedent_sets[rule]
            report.rule_matches[rule] = pr_sets[rule]
            report.antecedent_sets[rule] = antecedent_matches
            report.antecedent_counts[rule] = len(antecedent_matches)
            report.qbar_counts[rule] = len(antecedent_matches & local_negatives)
        return report
