"""``Matchc``: the parallel-scalable EIP algorithm of Theorem 6.

Steps (Section 5.1):

1. **Partitioning** — fragment G so that every candidate centre's d-ball is
   local to one fragment (d = the largest rule radius in Σ).
2. **Matching** — each worker verifies, for every owned candidate ``vx`` and
   every rule R, whether ``vx ∈ PR(x, Gd(vx))`` and ``vx ∈ Q(x, Gd(vx))``,
   and classifies vx against the predicate (positive / LCWA-negative).
3. **Assembling** — the coordinator sums the fragment-local counts into
   ``conf(R, G)`` per rule and outputs the matches of rules whose confidence
   reaches η.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.graph.graph import Graph
from repro.matching.base import Matcher
from repro.matching.locality import LocalityMatcher
from repro.matching.vf2 import VF2Matcher
from repro.metrics.confidence import bayes_factor_confidence
from repro.metrics.lcwa import predicate_stats_over
from repro.identification.census import (
    CensusMatcher,
    apply_census,
    max_verification_radius,
    plan_census,
)
from repro.identification.eip import EIPConfig, EIPResult, _shared_predicate
from repro.obs.tracing import span
from repro.parallel.executor import make_executor
from repro.parallel.runtime import BSPRuntime
from repro.parallel.worker import WorkerContext
from repro.partition.fragment import Fragment
from repro.partition.partitioner import partition_graph
from repro.pattern.gpar import GPAR

NodeId = Hashable


@dataclass(frozen=True)
class VerifyPayload:
    """Round payload of the matching step (coordinator → worker).

    Ships the solver *class* (picklable by reference) plus its config so a
    worker process can rebuild the solver — and through it the right matcher
    — deterministically; the fragment itself never travels with the round.
    ``census`` maps census-split patterns to their x-components (see
    :class:`repro.identification.census.CensusMatcher`): workers verify the
    ball-local x-component, the coordinator applies the global half at
    assembly time, so free-pattern verdicts never depend on the partitioning.
    """

    solver_cls: type
    config: EIPConfig
    rules: tuple[GPAR, ...]
    max_radius: int
    predicate: object
    census: tuple = ()  # ((pattern, x_part), ...)


def verify_worker(context: WorkerContext, payload: VerifyPayload) -> "_FragmentReport":
    """BSP worker function: verify one fragment's owned candidates."""
    solver = payload.solver_cls(payload.config)
    matcher = context.cached(
        ("eip-matcher", payload.solver_cls, payload.config, payload.max_radius),
        lambda: solver._make_matcher(payload.max_radius),
    )
    if payload.census:
        matcher = CensusMatcher(matcher, dict(payload.census))
    return solver._verify_fragment(
        context.fragment, payload.rules, matcher, payload.predicate
    )


@dataclass
class _FragmentReport:
    """Per-fragment counts and witness sets returned to the coordinator.

    Beyond the counts the assembling step sums, the report carries the
    per-centre *sets* behind them (``positives``/``negatives`` from the LCWA
    classification and ``antecedent_sets`` per rule): the streaming
    subsystem (:mod:`repro.stream`) merges partial re-verifications into a
    maintained report, which requires replacing individual centres'
    contributions rather than adjusting opaque sums.
    """

    fragment_index: int
    supp_q: int = 0
    supp_q_bar: int = 0
    candidates_examined: int = 0
    prefix_pool_hits: int = 0
    rule_matches: dict[GPAR, set] = field(default_factory=dict)
    antecedent_counts: dict[GPAR, int] = field(default_factory=dict)
    qbar_counts: dict[GPAR, int] = field(default_factory=dict)
    positives: set = field(default_factory=set)
    negatives: set = field(default_factory=set)
    antecedent_sets: dict[GPAR, set] = field(default_factory=dict)
    #: Trace records captured inside the worker (see
    #: :mod:`repro.obs.tracing`); shipped back so the coordinator can adopt
    #: them under its own span tree.  Empty unless the payload asked for
    #: tracing.
    spans: list = field(default_factory=list)


class MatchC:
    """Parallel EIP solver without the Section 5.2 optimisations."""

    #: Whether this solver's matcher probes the fragments' *resident* index.
    #: MatchC searches exclusively inside extracted d-balls, where
    #: :class:`LocalityMatcher` suspends index use, so building the
    #: per-fragment indexes would be pure overhead; Match and DisVF2 run
    #: directly on the fragment graphs and override this to ``True``.
    _consumes_resident_index = False

    def __init__(self, config: EIPConfig) -> None:
        self.config = config

    # -- hooks overridden by Match / DisVF2 --------------------------------
    def _make_matcher(self, max_radius: int) -> Matcher:
        """Anchored matcher used per fragment (plain VF2 inside the d-ball)."""
        return LocalityMatcher(
            VF2Matcher(use_index=self.config.use_index), radius=max_radius
        )

    def _verify_fragment(
        self,
        fragment: Fragment,
        rules: Sequence[GPAR],
        matcher: Matcher,
        predicate,
    ) -> _FragmentReport:
        """Verify every owned candidate of *fragment* against every rule."""
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

        for rule in rules:
            rule_matches: set[NodeId] = set()
            antecedent_matches: set[NodeId] = set()
            qbar_count = 0
            for candidate in owned:
                report.candidates_examined += 1
                in_antecedent = matcher.exists_match_at(graph, rule.antecedent, candidate)
                if not in_antecedent:
                    continue
                antecedent_matches.add(candidate)
                if candidate in local_negatives:
                    qbar_count += 1
                if candidate in local_positives and matcher.exists_match_at(
                    graph, rule.pr_pattern(), candidate
                ):
                    rule_matches.add(candidate)
            report.rule_matches[rule] = rule_matches
            report.antecedent_sets[rule] = antecedent_matches
            report.antecedent_counts[rule] = len(antecedent_matches)
            report.qbar_counts[rule] = qbar_count
        return report

    # ----------------------------------------------------------------------
    def identify(self, graph: Graph, rules: Sequence[GPAR]) -> EIPResult:
        """Compute ``Σ(x, G, η)`` on *graph*."""
        representative = _shared_predicate(rules)
        predicate = representative.q_pattern()
        # Disconnected rules split: workers verify the connected x-component
        # inside its ball, the coordinator resolves the free part globally
        # (apply_census below) so the answer matches whole-graph semantics
        # regardless of how G was fragmented.
        census_plan = plan_census(rules)
        # Fragments must preserve a ball large enough to verify both PR and
        # the antecedent Q at every owned candidate.
        max_radius = max_verification_radius(rules, census_plan)
        centers = graph.nodes_with_label(representative.x_label)

        with span(
            "eip.partition", workers=self.config.num_workers, centers=len(centers)
        ):
            fragments = partition_graph(
                graph,
                self.config.num_workers,
                centers=centers,
                d=max_radius,
                seed=self.config.seed,
            )
        executor = make_executor(
            self.config.backend,
            self.config.executor_workers,
            build_indexes=self.config.use_index and self._consumes_resident_index,
        )
        runtime = BSPRuntime(fragments, executor)
        runtime.start_run()

        payload = VerifyPayload(
            solver_cls=type(self),
            config=self.config,
            rules=tuple(rules),
            max_radius=max_radius,
            predicate=predicate,
            census=census_plan.substitutions,
        )
        try:
            with span("eip.verify", rules=len(rules), backend=self.config.backend):
                reports = runtime.run_round(
                    verify_worker, [payload] * len(fragments)
                )
            with span("eip.assemble"):
                reports = apply_census(graph, rules, reports, census_plan)
                # Assemble inside the timed window so wall_time keeps covering
                # the coordinator's assembling phase, as it always has.
                result = self._assemble(rules, reports)
        finally:
            timings = runtime.finish_run()
        result.timings = timings
        return result

    def _assemble(self, rules: Sequence[GPAR], reports: Sequence[_FragmentReport]) -> EIPResult:
        supp_q = sum(report.supp_q for report in reports)
        supp_q_bar = sum(report.supp_q_bar for report in reports)
        result = EIPResult()
        result.candidates_examined = sum(report.candidates_examined for report in reports)
        result.prefix_pool_hits = sum(report.prefix_pool_hits for report in reports)
        for rule in rules:
            supp_r = sum(len(report.rule_matches.get(rule, ())) for report in reports)
            supp_q_qbar = sum(report.qbar_counts.get(rule, 0) for report in reports)
            matches = frozenset().union(
                *(report.rule_matches.get(rule, set()) for report in reports)
            )
            confidence = bayes_factor_confidence(supp_r, supp_q_bar, supp_q_qbar, supp_q)
            result.rule_confidences[rule] = confidence
            result.rule_matches[rule] = matches
            if confidence >= self.config.eta and supp_r > 0:
                result.accepted_rules.append(rule)
                result.identified.update(matches)
        return result
