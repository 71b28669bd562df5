"""Worker-side mining (procedure ``localMine`` of Fig. 4).

Each worker holds one fragment.  Per round it (a) proposes single-edge
extensions of the rules received from the coordinator, guided by the data
around its matched centre nodes, and (b) evaluates rules on its fragment,
producing the ``<R, conf, flag>`` messages the coordinator assembles.
All support counts are restricted to the fragment's *owned* centres, so the
coordinator can sum them without double counting.

The miner itself is **stateless across rounds**: everything it needs beyond
its fragment arrives in the round payload (previous-round witness sets are
tracked by the coordinator and shipped back as :class:`RuleFocus` entries).
That makes the propose/evaluate steps pure functions of
``(fragment, payload)``, which is what allows the process-pool backend to
run any fragment's task in any worker process and still produce results
identical to the sequential backend.  The module-level
:func:`propose_worker` / :func:`evaluate_worker` functions are the picklable
entry points handed to :class:`repro.parallel.runtime.BSPRuntime`.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.graph.index import graph_index
from repro.matching.base import Matcher
from repro.matching.guided import GuidedMatcher
from repro.matching.incremental import DeltaMatcher, MatchStore, single_edge_delta
from repro.matching.vf2 import VF2Matcher
from repro.metrics.lcwa import predicate_stats_over
from repro.mining.config import DMineConfig
from repro.mining.expansion import candidate_extensions
from repro.parallel.messages import (
    EvaluatePayload,
    Proposal,
    ProposePayload,
    RuleFocus,
    RuleMessage,
)
from repro.parallel.worker import WorkerContext
from repro.partition.fragment import Fragment
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern

NodeId = Hashable


def make_matcher(kind: str, use_index: bool = True) -> Matcher:
    """Instantiate the anchored matcher named by a config string."""
    if kind == "guided":
        return GuidedMatcher(use_index=use_index)
    return VF2Matcher(use_index=use_index)


def seed_rule(predicate: Pattern, name: str = "seed") -> GPAR:
    """The round-0 seed: the predicate with an *empty* antecedent.

    It is not a valid (nontrivial) GPAR — its antecedent has no edge — so it
    is built without validation and never reported; it exists only to be
    expanded in the first round.
    """
    antecedent = Pattern(
        nodes={predicate.x: predicate.label(predicate.x), predicate.y: predicate.label(predicate.y)},
        edges=[],
        x=predicate.x,
        y=predicate.y,
    )
    edge = predicate.edges()[0]
    return GPAR(antecedent, consequent_label=edge.label, name=name, validate=False)


class LocalMiner:
    """Per-fragment mining state and the propose/evaluate round steps.

    Construction is deterministic in ``(fragment, predicate, config)``, so a
    worker process can rebuild an equivalent miner from scratch; the
    instance carries no cross-round mutable state.
    """

    def __init__(self, fragment: Fragment, predicate: Pattern, config: DMineConfig) -> None:
        self.fragment = fragment
        self.predicate = predicate
        self.config = config
        self.matcher = make_matcher(config.matcher, use_index=config.use_index)
        # Pin the fragment's resident index so every probe this miner makes
        # (and every other consumer in the process) shares one build; on the
        # process backend the build already happened in the pool initializer.
        self.index = graph_index(fragment.graph) if config.use_index else None
        # Fragment-resident match materialization: parent levels' match sets
        # and embeddings live here between rounds so children are matched by
        # delta extension.  Like the index, the store never crosses a pickle
        # boundary — a cold worker process simply starts with an empty store
        # and the evaluation falls back to full matching (identical results).
        self.store = MatchStore(fragment.graph) if config.use_incremental else None
        self.delta = (
            DeltaMatcher(fragment.graph, self.matcher, self.store)
            if self.store is not None
            else None
        )

        stats = predicate_stats_over(fragment.graph, predicate, fragment.owned_centers)
        # Candidate centres C_i: owned nodes satisfying the search condition on x.
        self.candidates: set[NodeId] = (
            set(stats.positives) | set(stats.negatives) | set(stats.unknown)
        )
        self.local_positives: set[NodeId] = set(stats.positives)
        self.local_negatives: set[NodeId] = set(stats.negatives)

    # ------------------------------------------------------------------
    @property
    def supp_q_local(self) -> int:
        """Fragment-local ``supp(q, F_i)`` over owned centres."""
        return len(self.local_positives)

    @property
    def supp_q_bar_local(self) -> int:
        """Fragment-local ``supp(q̄, F_i)`` over owned centres."""
        return len(self.local_negatives)

    # ------------------------------------------------------------------
    def propose(
        self, rules: Sequence[GPAR], focus: Sequence[RuleFocus] | None = None
    ) -> list[Proposal]:
        """Propose single-edge extensions for every rule in *rules*.

        *focus* (parallel to *rules*) carries the previous round's witness
        sets at this fragment: expansion starts from the centres that
        matched the rule, and each proposal is tagged with its parent's index
        so the coordinator can hand the evaluation the parent's anti-monotone
        candidate pool.
        """
        proposals: list[Proposal] = []
        for index, rule in enumerate(rules):
            entry = focus[index] if focus is not None else RuleFocus()
            if rule.antecedent.num_edges == 0 or entry.centers is None:
                centers: set[NodeId] = set(self.local_positives)
            else:
                centers = set(entry.centers)
            if not centers:
                continue
            witnesses = None
            if self.store is not None and rule.antecedent.num_edges > 0:
                entry = self.store.get(rule.antecedent)
                # Only canonical entries are safe to reuse: their first
                # embedding per centre *is* the mapping find_match_at would
                # return, so the proposed extensions are identical whether
                # the witness comes from the store or from a fresh probe.
                if entry is not None and entry.canonical_witness:
                    witnesses = entry
            extensions = candidate_extensions(
                self.fragment.graph,
                rule,
                sorted(centers, key=str),
                self.matcher,
                max_radius=self.config.d,
                max_extensions=self.config.max_extensions_per_rule,
                witnesses=witnesses,
            )
            proposals.extend(Proposal(extension, index) for extension in extensions)
        return proposals

    def evaluate(
        self,
        rules: Sequence[GPAR],
        pools: Sequence[frozenset | None] | None = None,
        parents: Sequence[GPAR | None] | None = None,
    ) -> list[RuleMessage]:
        """Evaluate *rules* on the fragment, producing one message per rule.

        *pools* (parallel to *rules*) restricts each rule's evaluation to the
        inherited candidate pool — its parent's antecedent matches at this
        fragment; by anti-monotonicity the restriction never changes the
        result, only the work.  ``None`` entries fall back to the fragment's
        full candidate set.

        *parents* (parallel to *rules*, incremental mode only) names the
        rule each entry was proposed from at this fragment.  When the
        parent's matches are materialized in the fragment's
        :class:`~repro.matching.incremental.MatchStore`, the child's
        antecedent and PR match sets are produced by delta-extending the
        parent's embeddings through the one new edge instead of re-matching
        from scratch; every miss falls back to full matching, so the
        resulting messages are identical either way.
        """
        messages: list[RuleMessage] = []
        materialized: list[str] = []
        for index, rule in enumerate(rules):
            inherited = pools[index] if pools is not None else None
            pool = set(inherited) if inherited is not None else self.candidates
            parent = parents[index] if parents else None
            antecedent_matches, rule_matches = self._match_rule(
                rule, pool, parent, materialized
            )
            qbar_matches = antecedent_matches & self.local_negatives
            extendable = (
                bool(rule_matches)
                and rule.antecedent.num_edges < self.config.max_edges
            )
            messages.append(
                RuleMessage(
                    rule=rule,
                    fragment_index=self.fragment.index,
                    supp_r=len(rule_matches),
                    supp_antecedent=len(antecedent_matches),
                    supp_q_qbar=len(qbar_matches),
                    supp_q=self.supp_q_local,
                    supp_q_bar=self.supp_q_bar_local,
                    extendable=extendable,
                    rule_matches=frozenset(rule_matches),
                    antecedent_matches=frozenset(antecedent_matches),
                    qbar_matches=frozenset(qbar_matches),
                    # Anti-monotone upper bound on the support any extension
                    # of this rule can reach at this fragment.
                    upper_support=len(rule_matches),
                )
            )
        if self.store is not None:
            # The only parents the next level can need are this level's
            # children: evict everything else.  The store itself then holds
            # one level of entries; note that a child's lazy embedding
            # streams keep their ancestors' streams reachable (they pull
            # parent embeddings on demand), so resident embedding memory is
            # bounded by ancestry depth (<= max_edges) x matched centres x
            # the per-centre cap, not by the entry count alone.
            self.store.retain(materialized)
        return messages

    def _match_rule(
        self,
        rule: GPAR,
        pool: set[NodeId],
        parent: GPAR | None,
        materialized: list[str],
    ) -> tuple[set[NodeId], set[NodeId]]:
        """Antecedent and PR match sets of *rule* over *pool* (owned centres).

        The incremental path and the plain path return identical sets; the
        incremental one merely routes through the fragment's match store.
        """
        graph = self.fragment.graph
        if self.store is None:
            antecedent_matches = self.matcher.match_set(
                graph, rule.antecedent, candidates=pool
            )
            rule_pool = antecedent_matches & self.local_positives
            rule_matches = self.matcher.match_set(
                graph, rule.pr_pattern(), candidates=rule_pool
            )
            return antecedent_matches, rule_matches

        # Materialize embeddings only for rules whose children can still be
        # proposed: a rule at the edge budget is never extended, so storing
        # its embeddings would be pure overhead.
        want_entry = rule.antecedent.num_edges < min(
            self.config.max_edges, self.config.rounds
        )
        ant_delta = pr_delta = None
        ant_parent = pr_parent = None
        if parent is not None and parent.antecedent.num_edges > 0:
            ant_parent = self.store.get(parent.antecedent)
            pr_parent = self.store.get(parent.pr_pattern())
            if ant_parent is not None or pr_parent is not None:
                ant_delta = single_edge_delta(parent.antecedent, rule.antecedent)
                # PR(child) = PR(parent) + the same delta edge; recomputed
                # from the PR patterns so a surprise (copy counts, renamed
                # nodes) degrades to the exact fallback instead of a wrong
                # extension.
                pr_delta = single_edge_delta(parent.pr_pattern(), rule.pr_pattern())

        if ant_parent is not None and ant_delta is not None:
            antecedent_matches, ant_entry = self.delta.extend(
                ant_parent, rule.antecedent, ant_delta, pool, want_entry
            )
        else:
            antecedent_matches, ant_entry = self.delta.materialize(
                rule.antecedent, pool, want_entry
            )
        rule_pool = antecedent_matches & self.local_positives
        if pr_parent is not None and pr_delta is not None:
            rule_matches, pr_entry = self.delta.extend(
                pr_parent, rule.pr_pattern(), pr_delta, rule_pool, want_entry
            )
        else:
            rule_matches, pr_entry = self.delta.materialize(
                rule.pr_pattern(), rule_pool, want_entry
            )
        for entry in (ant_entry, pr_entry):
            if entry is not None:
                materialized.append(self.store.code_for(entry.pattern))
        return antecedent_matches, rule_matches


# ----------------------------------------------------------------------
# Module-level worker entry points (picklable by reference).
# ----------------------------------------------------------------------
def miner_for(context: WorkerContext, predicate: Pattern, config: DMineConfig) -> LocalMiner:
    """The context's cached :class:`LocalMiner` for (predicate, config)."""
    return context.cached(
        ("local-miner", predicate, config),
        lambda: LocalMiner(context.fragment, predicate, config),
    )


def propose_worker(context: WorkerContext, payload: ProposePayload) -> list[Proposal]:
    """BSP worker function for the propose half-round."""
    miner = miner_for(context, payload.predicate, payload.config)
    return miner.propose(payload.rules, payload.focus)


def evaluate_worker(context: WorkerContext, payload: EvaluatePayload) -> list[RuleMessage]:
    """BSP worker function for the evaluate half-round."""
    miner = miner_for(context, payload.predicate, payload.config)
    return miner.evaluate(payload.rules, payload.pools, payload.parents or None)
