"""The DMine parallel miner (algorithm of Fig. 4) and its unoptimised twin.

Round structure (one BSP super-step per levelwise round):

1. **propose** — every worker extends the rules in the coordinator's message
   set M by one antecedent edge, guided by its local data;
2. **deduplicate** — the coordinator groups automorphic proposals (with the
   bisimulation prefilter of Lemma 4) and keeps one representative each;
3. **evaluate** — every worker evaluates the representatives on its fragment
   and reports ``<R, conf, flag>`` messages over its owned centres;
4. **assemble** — the coordinator sums local supports, unions match sets,
   computes the global Bayes-factor confidence, applies the support
   threshold σ, feeds survivors to ``incDiv`` and prunes Σ / ΔE with the
   reduction rules before building the next message set M.

The proposal and evaluation steps run as two half-rounds so that *every*
worker evaluates *every* candidate rule (a rule proposed only at one
fragment may still have matches elsewhere); this keeps global supports
exact and is noted as an implementation refinement in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.graph.graph import Graph
from repro.metrics.confidence import bayes_factor_confidence
from repro.metrics.diversification import DiversificationObjective
from repro.metrics.lcwa import predicate_stats
from repro.mining.config import DMineConfig
from repro.mining.diversify import greedy_diversify
from repro.mining.incdiv import IncrementalDiversifier, RuleInfo
from repro.mining.local_mine import evaluate_worker, propose_worker, seed_rule
from repro.mining.reduction import apply_reduction_rules
from repro.obs.tracing import span
from repro.parallel.executor import make_executor
from repro.parallel.messages import (
    EvaluatePayload,
    Proposal,
    ProposePayload,
    RuleFocus,
    RuleMessage,
)
from repro.parallel.runtime import BSPRuntime, RunTimings
from repro.partition.partitioner import partition_graph
from repro.pattern.automorphism import group_automorphic
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern

NodeId = Hashable


@dataclass(frozen=True)
class MinedRule:
    """One rule of the mining output with its global statistics."""

    rule: GPAR
    confidence: float
    support: int
    matches: frozenset

    def as_row(self) -> str:
        """One-line report used by examples and the case-study benchmark."""
        conf = "inf" if math.isinf(self.confidence) else f"{self.confidence:.3f}"
        return f"{self.rule.name}: supp={self.support} conf={conf} |PR|={self.rule.size}"


@dataclass
class DMineResult:
    """Output of a DMine run."""

    top_k: list[MinedRule]
    objective_value: float
    all_rules: dict[GPAR, RuleInfo] = field(default_factory=dict)
    timings: RunTimings = field(default_factory=RunTimings)
    rounds_executed: int = 0
    candidates_generated: int = 0
    candidates_pruned: int = 0

    @property
    def num_rules_discovered(self) -> int:
        """Size of Σ: rules that met the support threshold at any round."""
        return len(self.all_rules)


class DMine:
    """Parallel diversified top-k GPAR miner.

    Parameters
    ----------
    config:
        Mining parameters; ``config.without_optimizations()`` yields the
        DMineno behaviour benchmarked in Exp-1.
    """

    def __init__(self, config: DMineConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def mine(self, graph: Graph, predicate: Pattern) -> DMineResult:
        """Mine top-k diversified GPARs for *predicate* from *graph*."""
        config = self.config
        x_label = predicate.label(predicate.x)
        centers = graph.nodes_with_label(x_label)

        global_stats = predicate_stats(graph, predicate)
        objective = DiversificationObjective(
            lam=config.lam, k=config.k, normalizer=global_stats.normalizer
        )

        fragments = partition_graph(
            graph,
            config.num_workers,
            centers=centers,
            d=config.d,
            seed=config.seed,
        )
        executor = make_executor(
            config.backend,
            config.executor_workers,
            build_indexes=config.use_index,
        )
        runtime = BSPRuntime(fragments, executor)
        runtime.start_run()

        diversifier = IncrementalDiversifier(objective, config.k)
        sigma: dict[GPAR, RuleInfo] = {}
        seen_codes: set[str] = set()
        message_set: list[GPAR] = [seed_rule(predicate)]
        # Previous-round witness sets per (fragment index, rule): the
        # coordinator keeps them so the workers can stay stateless across
        # rounds (any pool process may serve any fragment).
        witness: dict[tuple[int, GPAR], RuleMessage] = {}
        candidates_generated = 0
        candidates_pruned = 0
        rounds_executed = 0

        try:
            for _round in range(config.rounds):
                if not message_set:
                    break
                rounds_executed += 1
                rules = tuple(message_set)
                with span("dmine.round", level=_round):

                    # Half-round 1: propose extensions at every worker; the
                    # coordinator deduplicates them in the synchronisation phase.
                    propose_payloads = [
                        ProposePayload(
                            rules=rules,
                            focus=tuple(
                                self._focus_for(witness.get((fragment.index, rule)))
                                for rule in rules
                            ),
                            predicate=predicate,
                            config=config,
                        )
                        for fragment in fragments
                    ]
                    proposals_per_worker: list[list[Proposal]] = []

                    def _dedup_phase(worker_results):
                        proposals_per_worker.extend(worker_results)
                        proposals = [
                            proposal.rule
                            for worker_proposals in worker_results
                            for proposal in worker_proposals
                        ]
                        return len(proposals), self._deduplicate(proposals, seen_codes)

                    with span("dmine.propose", rules=len(rules)):
                        proposed_count, representatives = runtime.run_round(
                            propose_worker, propose_payloads, _dedup_phase
                        )
                    candidates_generated += proposed_count
                    if not representatives:
                        break

                    # Half-round 2: evaluate the representatives at every worker;
                    # the coordinator assembles confidences, updates the top-k
                    # set and prunes Σ / ΔE — all accounted as coordinator time.
                    # Global parentage: the beam rule each representative was
                    # proposed from, at whichever fragment proposed it.  Beam
                    # rules were evaluated (and their matches materialized) at
                    # *every* fragment last round, so the incremental matcher can
                    # delta-extend even at fragments that proposed an automorphic
                    # sibling — or nothing — for this representative.
                    global_parents: dict[GPAR, GPAR] = {}
                    for worker_proposals in proposals_per_worker:
                        for proposal in worker_proposals:
                            global_parents.setdefault(
                                proposal.rule, rules[proposal.parent_index]
                            )
                    evaluate_payloads = []
                    for position, fragment in enumerate(fragments):
                        pools, parents = self._evaluation_inheritance(
                            representatives,
                            proposals_per_worker[position],
                            rules,
                            fragment.index,
                            witness,
                            global_parents,
                        )
                        evaluate_payloads.append(
                            EvaluatePayload(
                                rules=tuple(representatives),
                                pools=pools,
                                predicate=predicate,
                                config=config,
                                parents=parents if config.use_incremental else (),
                            )
                        )

                    def _coordinate(messages_per_worker):
                        nonlocal sigma, candidates_pruned
                        for worker_messages in messages_per_worker:
                            for message in worker_messages:
                                witness[(message.fragment_index, message.rule)] = message
                        delta = self._assemble(representatives, messages_per_worker, global_stats)
                        delta = {
                            rule: info
                            for rule, info in delta.items()
                            if info.support >= config.sigma and not math.isinf(info.confidence)
                        }
                        sigma.update(delta)

                        if config.use_incremental_diversification:
                            diversifier.update(delta, sigma)
                        else:
                            # The "discover then diversify" behaviour of DMineno:
                            # the top-k set is recomputed from scratch over the
                            # whole Σ at every round instead of being maintained
                            # incrementally.
                            greedy_diversify(sigma, config.k, objective)

                        if config.use_reduction_rules and config.use_incremental_diversification:
                            outcome = apply_reduction_rules(
                                sigma,
                                delta,
                                objective,
                                diversifier.min_pair_score,
                                protected=set(diversifier.top_k()),
                            )
                            sigma = outcome.sigma
                            extendable = outcome.extendable
                            candidates_pruned += outcome.pruned_sigma + outcome.pruned_delta
                        else:
                            extendable = {
                                rule: info for rule, info in delta.items() if info.extendable
                            }

                        # Beam: carry the most promising extendable rules into the
                        # next round (highest optimistic confidence, then support).
                        ranked = sorted(
                            extendable.items(),
                            key=lambda item: (-item[1].upper_confidence, -item[1].support),
                        )
                        return [rule for rule, _info in ranked[: config.max_rules_per_round]]

                    with span("dmine.evaluate", representatives=len(representatives)):
                        message_set = runtime.run_round(
                            evaluate_worker, evaluate_payloads, _coordinate
                        )
                # Only the beam's rules are expanded next round; drop the rest
                # of the witness state to bound coordinator memory.
                carried = set(message_set)
                witness = {
                    key: message for key, message in witness.items() if key[1] in carried
                }
        finally:
            timings = runtime.finish_run()

        if config.use_incremental_diversification:
            top_rules = diversifier.top_k()
            objective_value = diversifier.objective_value() if top_rules else 0.0
        else:
            top_rules = greedy_diversify(sigma, config.k, objective)
            objective_value = (
                objective.total_from_matches(
                    [sigma[rule].confidence for rule in top_rules],
                    [sigma[rule].matches for rule in top_rules],
                )
                if top_rules
                else 0.0
            )

        top_k = [
            MinedRule(
                rule=rule,
                confidence=sigma[rule].confidence,
                support=sigma[rule].support,
                matches=sigma[rule].matches,
            )
            for rule in top_rules
            if rule in sigma
        ]
        return DMineResult(
            top_k=top_k,
            objective_value=objective_value,
            all_rules=sigma,
            timings=timings,
            rounds_executed=rounds_executed,
            candidates_generated=candidates_generated,
            candidates_pruned=candidates_pruned,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _focus_for(message: RuleMessage | None) -> RuleFocus:
        """Focus entry for one rule at one fragment from last round's message."""
        if message is None:
            return RuleFocus()
        return RuleFocus(centers=frozenset(message.rule_matches))

    @staticmethod
    def _evaluation_inheritance(
        representatives: Sequence[GPAR],
        proposals: Sequence[Proposal],
        parent_rules: Sequence[GPAR],
        fragment_index: int,
        witness: dict[tuple[int, GPAR], RuleMessage],
        global_parents: dict[GPAR, GPAR] | None = None,
    ) -> tuple[tuple[frozenset | None, ...], tuple[GPAR | None, ...]]:
        """Per-representative (pool, parent) pairs for one fragment's evaluation.

        A representative inherits the antecedent match set of the parent it
        was proposed from *at this fragment* (anti-monotonicity makes the
        restriction lossless), and — for the incremental matcher — a parent
        rule, so the worker can delta-extend the parent's materialized
        embeddings.  Fragments that proposed a structurally different member
        of the representative's automorphism group — or none at all — get
        ``None`` pools (full candidate set, exactly as the per-worker caches
        used to behave) but still receive the *global* parent: every beam
        rule was evaluated at every fragment, so its materialized matches
        exist there regardless of which fragment proposed this child.
        """
        pool_by_rule: dict[GPAR, frozenset | None] = {}
        parent_by_rule: dict[GPAR, GPAR] = dict(global_parents or {})
        for proposal in proposals:
            parent = parent_rules[proposal.parent_index]
            message = witness.get((fragment_index, parent))
            pool_by_rule[proposal.rule] = (
                frozenset(message.antecedent_matches) if message is not None else None
            )
            parent_by_rule[proposal.rule] = parent
        pools = tuple(pool_by_rule.get(rule) for rule in representatives)
        parents = tuple(parent_by_rule.get(rule) for rule in representatives)
        return pools, parents

    def _deduplicate(self, proposals: Sequence[GPAR], seen_codes: set[str]) -> list[GPAR]:
        """Group automorphic proposals and drop rules evaluated before.

        *seen_codes* holds the canonical code of every representative ever
        evaluated — including trivial or low-support ones — so the same
        structure is never regenerated and re-verified in a later round.
        """
        if not proposals:
            return []
        fresh = [
            rule
            for rule in proposals
            if canonical_code(rule.pr_pattern()) not in seen_codes
        ]
        if not fresh:
            return []
        groups = group_automorphic(
            fresh, use_bisimulation_filter=self.config.use_bisimulation_filter
        )
        representatives: list[GPAR] = []
        for group in groups:
            representative = group[0]
            code = canonical_code(representative.pr_pattern())
            if code in seen_codes:
                continue
            seen_codes.add(code)
            renamed = GPAR(
                representative.antecedent,
                representative.consequent_label,
                name=f"R{len(seen_codes)}",
                validate=False,
            )
            representatives.append(renamed)
        return representatives

    def _assemble(
        self,
        rules: Sequence[GPAR],
        messages_per_worker: Sequence[Sequence[RuleMessage]],
        global_stats,
    ) -> dict[GPAR, RuleInfo]:
        """Assemble global supports/confidence from fragment-local messages."""
        by_rule: dict[GPAR, list[RuleMessage]] = {rule: [] for rule in rules}
        for worker_messages in messages_per_worker:
            for message in worker_messages:
                by_rule.setdefault(message.rule, []).append(message)

        assembled: dict[GPAR, RuleInfo] = {}
        supp_q = global_stats.supp_q
        supp_q_bar = global_stats.supp_q_bar
        for rule, messages in by_rule.items():
            supp_r = sum(message.supp_r for message in messages)
            supp_q_qbar = sum(message.supp_q_qbar for message in messages)
            matches = frozenset().union(*(message.rule_matches for message in messages)) if messages else frozenset()
            upper_support = sum(message.upper_support for message in messages)
            confidence = bayes_factor_confidence(supp_r, supp_q_bar, supp_q_qbar, supp_q)
            upper_confidence = (
                (upper_support * supp_q_bar) / supp_q if supp_q else math.inf
            )
            assembled[rule] = RuleInfo(
                confidence=confidence,
                support=supp_r,
                matches=matches,
                upper_confidence=upper_confidence,
                extendable=any(message.extendable for message in messages),
            )
        return assembled


def dmine(graph: Graph, predicate: Pattern, config: DMineConfig | None = None, **overrides) -> DMineResult:
    """Convenience wrapper: run the optimised DMine with *config* or keyword overrides."""
    if config is None:
        config = DMineConfig(**overrides)
    return DMine(config).mine(graph, predicate)


def dmine_baseline(graph: Graph, predicate: Pattern, config: DMineConfig | None = None, **overrides) -> DMineResult:
    """Run the unoptimised DMineno variant (Exp-1 baseline)."""
    if config is None:
        config = DMineConfig(**overrides)
    return DMine(config.without_optimizations()).mine(graph, predicate)


def dmine_for_predicates(
    graph: Graph,
    predicates: Sequence[Pattern],
    config: DMineConfig | None = None,
) -> dict[Pattern, DMineResult]:
    """Mine top-k GPARs for every predicate of a set (paper §4.2, Remarks).

    The paper notes that when a *set* of predicates is given, DMine groups
    them and mines each distinct ``q(x, y)`` in turn; this helper does
    exactly that and returns one :class:`DMineResult` per predicate.
    """
    config = config if config is not None else DMineConfig()
    miner = DMine(config)
    results: dict[Pattern, DMineResult] = {}
    for predicate in predicates:
        if predicate in results:
            continue
        results[predicate] = miner.mine(graph, predicate)
    return results


def dmine_auto(
    graph: Graph,
    config: DMineConfig | None = None,
    top_predicates: int = 5,
) -> dict[Pattern, DMineResult]:
    """Mine without a user-specified predicate (paper §4.2, Remarks case 2).

    Collects the *top_predicates* most frequent single-edge patterns of the
    graph as predicates of interest and mines GPARs for each of them.
    """
    from repro.datasets.workloads import most_frequent_predicates

    predicates = most_frequent_predicates(graph, top=top_predicates)
    return dmine_for_predicates(graph, predicates, config)
