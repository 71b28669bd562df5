"""Randomized equivalence: streaming repair == from-scratch recompute.

The acceptance gate of the streaming subsystem: across 50 seeded
(graph, update-batch) pairs,

* a delta-patched :class:`~repro.graph.index.FragmentIndex` is
  **byte-identical** to a freshly built one — layer contents and sketches —
  and VF2 / guided / dual-simulation matchers probing it produce the same
  match sets either way;
* :meth:`MatchStore.repair` leaves exactly the entries a fresh
  materialization on the mutated graph would produce;
* a :class:`~repro.stream.StreamingIdentifier` maintained across batches
  reports identifications and confidences byte-identical to
  ``identify_entities`` re-run from scratch on the mutated graph — across
  the sequential/threads/processes backends and both Match and Matchc;
* DMine runs against the repaired resident state mine byte-identical rules
  to runs on a pristine copy of the same mutated graph, on every backend.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.graph import FragmentIndex, graph_index
from repro.identification import identify_entities
from repro.identification.eip import EIPConfig
from repro.matching import (
    DeltaMatcher,
    GuidedMatcher,
    MatchStore,
    SimulationMatcher,
    VF2Matcher,
)
from repro.mining import DMineConfig, dmine
from repro.parallel.executor import BACKENDS
from repro.stream import MaintainedMatchView, StreamingIdentifier, random_update_batch

SEEDS = range(50)


def _workload_graph(seed: int):
    """One seeded random graph (updates are sampled lazily while applying,
    so each batch is valid against the state the previous ones left)."""
    return synthetic_graph(
        num_nodes=60 + (seed % 5) * 15,
        num_edges=180 + (seed % 7) * 40,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )


def _apply_batches(graph, seed: int, count: int, size: int = 7):
    applied = []
    for position in range(count):
        batch = random_update_batch(graph, size=size, seed=seed * 100 + position)
        batch.apply(graph)
        applied.append(batch)
    return applied


def _matcher(kind: str):
    if kind == "guided":
        return GuidedMatcher()
    if kind == "simulation":
        return SimulationMatcher()
    return VF2Matcher()


@pytest.mark.parametrize("seed", SEEDS)
def test_patched_index_is_byte_identical_to_fresh_build(seed):
    """Interleaved mutations + delta refresh == a from-scratch index.

    The graph is large relative to the batches so ``refresh()`` provably
    takes the ``apply_delta`` patch path (the touched region stays under the
    rebuild-fraction heuristic) — the small-graph rebuild fallback is
    covered separately in ``tests/test_stream.py``.
    """
    graph = synthetic_graph(
        num_nodes=200 + (seed % 5) * 20,
        num_edges=600 + (seed % 7) * 60,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )
    index = FragmentIndex(graph)
    nodes = sorted(graph.nodes(), key=str)
    for node in nodes[: len(nodes) // 3]:
        index.sketch(node)
        for label in sorted(graph.edge_labels()):
            index.out_neighbors(node, label)
            index.in_neighbors(node, label)
    # Interleave batch updates with plain single mutations.
    _apply_batches(graph, seed, count=2, size=5)
    graph.add_node(f"solo-{seed}", sorted(graph.node_labels())[0])
    index.refresh()
    assert index.statistics.builds == 1, "refresh must patch, not rebuild"
    fresh = FragmentIndex(graph)
    assert index._labels == fresh._labels
    assert index._nodes_by_label == fresh._nodes_by_label
    for node in sorted(graph.nodes(), key=str):
        assert index.profile(node) == fresh.profile(node)
        assert index.sketch(node) == fresh.sketch(node)
        for label in sorted(graph.edge_labels()):
            assert index.out_neighbors(node, label) == fresh.out_neighbors(node, label)
            assert index.in_neighbors(node, label) == fresh.in_neighbors(node, label)


@pytest.mark.parametrize("kind", ["vf2", "guided", "simulation"])
@pytest.mark.parametrize("seed", range(0, 50, 2))
def test_matchers_agree_on_patched_index(seed, kind):
    """Match sets probed through a patched index == through a fresh one."""
    graph = _workload_graph(seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=3, d=2, seed=seed)
    graph_index(graph)  # build + register the resident index
    matcher = _matcher(kind)
    for rule in rules:  # warm the resident index with real traffic
        matcher.match_set(graph, rule.pr_pattern())
    _apply_batches(graph, seed, count=2)
    oracle = _matcher(kind)
    pristine = graph.copy()  # fresh graph object => fresh resident index
    for rule in rules:
        for pattern in (rule.antecedent, rule.pr_pattern()):
            patched = matcher.match_set(graph, pattern)
            fresh = oracle.match_set(pristine, pattern)
            assert patched == fresh, (seed, kind, pattern)


@pytest.mark.parametrize("kind", ["vf2", "guided"])
@pytest.mark.parametrize("seed", SEEDS)
def test_repaired_store_equals_fresh_materialization(seed, kind):
    """Repaired entries == materializing from scratch on the mutated graph."""
    graph = _workload_graph(seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=3, d=2, seed=seed)
    matcher = _matcher(kind)
    store = MatchStore(graph)
    delta_matcher = DeltaMatcher(graph, matcher, store)
    patterns = [rule.pr_pattern() for rule in rules]
    for pattern in patterns:
        candidates = sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str)
        delta_matcher.materialize(pattern, candidates)
    _apply_batches(graph, seed, count=2)
    store.repair(matcher)
    oracle = _matcher(kind)
    for pattern in patterns:
        entry = store.get(pattern)
        if entry is None:
            continue  # dropped as unrepairable: the exact-fallback path
        candidates = sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str)
        expected = oracle.match_set(graph, pattern, candidates=candidates)
        assert entry.matches & set(candidates) == expected, (seed, kind)
        # Complete streams must hold exactly the fresh enumeration.
        for center in sorted(entry.matches, key=str)[:4]:
            stream = entry.streams.get(center)
            if stream is None:
                continue
            while stream.ensure(len(stream.pulled) + 1):
                pass
            if stream.complete:
                fresh = {
                    tuple(mapping[node] for node in entry.node_order)
                    for mapping in oracle.iter_matches_at(graph, pattern, center)
                }
                assert set(stream.pulled) == fresh, (seed, kind, center)


@pytest.mark.parametrize("kind", ["vf2", "guided"])
@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_maintained_view_equals_rematching(seed, kind):
    """MaintainedMatchView across batches == fresh match_set per batch."""
    graph = _workload_graph(seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=seed)
    patterns = [rule.pr_pattern() for rule in rules]  # PR is always connected
    view = MaintainedMatchView(graph, patterns, _matcher(kind))
    for position in range(3):
        batch = random_update_batch(graph, size=6, seed=seed * 31 + position)
        view.apply(batch)
        oracle = _matcher(kind)
        for pattern in patterns:
            assert view.match_set(pattern) == frozenset(
                oracle.match_set(graph, pattern)
            ), (seed, kind, position)


def _eip_fingerprint(result):
    return (
        tuple(sorted(map(str, result.identified))),
        tuple(
            sorted(
                (rule.name, round(confidence, 9))
                for rule, confidence in result.rule_confidences.items()
            )
        ),
        tuple(
            sorted(
                (rule.name, tuple(sorted(map(str, matches))))
                for rule, matches in result.rule_matches.items()
            )
        ),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_streaming_identifier_equals_recompute(seed):
    """Maintained EIP answer == from-scratch run, after every batch."""
    graph = _workload_graph(seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=seed)
    with StreamingIdentifier(
        graph, rules, config=EIPConfig(eta=0.5, num_workers=2 + seed % 3, seed=0)
    ) as identifier:
        assert _eip_fingerprint(identifier.result) == _eip_fingerprint(
            identifier.recompute()
        )
        for position in range(2):
            batch = random_update_batch(graph, size=7, seed=seed * 100 + position)
            identifier.apply(batch)
            assert _eip_fingerprint(identifier.result) == _eip_fingerprint(
                identifier.recompute()
            ), (seed, position)


@pytest.mark.parametrize("use_index", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ["match", "matchc"])
def test_streaming_identifier_across_backends(backend, algorithm, use_index):
    """Every backend and solver maintains the same answer over one sequence.

    ``use_index=False`` additionally exercises the matchers' private
    (non-resident) caches across mutations — the warm-matcher staleness
    path that worker contexts keep alive between batches.
    """
    base = synthetic_graph(120, 360, num_node_labels=5, num_edge_labels=3, seed=9)
    predicate = most_frequent_predicates(base, top=1)[0]
    rules = generate_gpars(base, predicate, count=4, max_pattern_edges=3, d=2, seed=9)
    graph = base.copy()
    with StreamingIdentifier(
        graph,
        rules,
        config=EIPConfig(
            eta=0.5,
            num_workers=3,
            seed=0,
            backend=backend,
            executor_workers=2,
            use_index=use_index,
        ),
        algorithm=algorithm,
    ) as identifier:
        for position in range(2):
            batch = random_update_batch(graph, size=7, seed=900 + position)
            identifier.apply(batch)
        maintained = _eip_fingerprint(identifier.result)
        # Compare against a sequential from-scratch run on an equal mutated
        # copy: one fingerprint across every backend x solver x mode.
        fresh = identify_entities(
            identifier.graph,
            list(rules),
            eta=0.5,
            num_workers=3,
            algorithm=algorithm,
        )
    assert maintained == _eip_fingerprint(fresh), (backend, algorithm)


def _dmine_fingerprint(result):
    return sorted(
        (
            rule.name,
            info.support,
            round(info.confidence, 9),
            tuple(sorted(map(str, info.matches))),
        )
        for rule, info in result.all_rules.items()
    )


# ----------------------------------------------------------------------
# free-y (census-maintained) rules: whole-graph matching semantics
# ----------------------------------------------------------------------
def _census_oracle_check(identifier, rules):
    """Maintained antecedent verdicts == whole-graph VF2 on the full pattern.

    The oracle matches each rule's *full* antecedent (free y included)
    against the whole graph — the semantics the census decomposition claims
    to reproduce, injectivity coupling and all.
    """
    from repro.stream.identifier import census_feasible

    graph = identifier.graph
    oracle = VF2Matcher(use_index=False)
    counts = graph.node_label_counts()
    for rule in rules:
        expected = {
            center
            for center in graph.nodes_with_label(rule.x_label)
            if oracle.exists_match_at(graph, rule.antecedent, center)
        }
        maintained = set().union(
            *(
                report.antecedent_sets.get(rule, set())
                for report in identifier._reports.values()
            )
        )
        requirements = identifier._census_requirements.get(rule)
        if requirements is not None and not census_feasible(requirements, counts):
            maintained = set()
        assert maintained == expected, rule.name


def _free_y_rules(graph, predicate, count=3):
    """Mine Σ with DMine and keep the free-y rules (the ROADMAP's shape)."""
    from repro.exceptions import PatternError
    from repro.pattern.radius import pattern_radius
    from repro.stream import split_free_pattern

    config = DMineConfig(
        k=6,
        d=2,
        sigma=1,
        num_workers=2,
        max_edges=2,
        max_extensions_per_rule=6,
        max_rules_per_round=10,
    )
    result = dmine(graph, predicate, config)
    free = []
    for rule in sorted(result.all_rules, key=lambda r: r.name):
        try:
            pattern_radius(rule.antecedent, rule.antecedent.x)
        except PatternError:
            if split_free_pattern(rule.antecedent) is not None:
                free.append(rule)
    return free[:count]


@pytest.mark.parametrize("seed", range(0, 50, 10))
def test_census_maintained_free_y_rules_equal_whole_graph_matching(seed):
    """Mined free-y Σ is maintained under updates with global semantics."""
    graph = _workload_graph(seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = _free_y_rules(graph, predicate)
    if not rules:
        pytest.skip("this seed mined no free-y rules")
    with StreamingIdentifier(
        graph, rules, config=EIPConfig(eta=0.5, num_workers=2 + seed % 3, seed=0)
    ) as identifier:
        assert identifier._census_parts, "mined free-y rules must census-split"
        _census_oracle_check(identifier, rules)
        for position in range(3):
            batch = random_update_batch(graph, size=7, seed=seed * 100 + position)
            identifier.apply(batch)
            _census_oracle_check(identifier, rules)


def test_census_injectivity_couples_free_and_anchored_labels():
    """A free node sharing the x label needs a *second* node of that label."""
    from repro.graph import Graph
    from repro.pattern.gpar import GPAR
    from repro.pattern.pattern import Pattern
    from repro.stream import UpdateBatch, UpdateOp

    graph = Graph(name="census-toy")
    graph.add_node("c1", "cust")
    graph.add_node("m1", "shop")
    graph.add_edge("c1", "m1", "visit")
    antecedent = Pattern(
        nodes={"x": "cust", "v1": "shop", "y": "cust"},
        edges=[("x", "v1", "visit")],
        x="x",
        y="y",
    )
    rule = GPAR(antecedent, consequent_label="buys", validate=False)
    oracle = VF2Matcher(use_index=False)
    with StreamingIdentifier(
        graph, [rule], config=EIPConfig(eta=0.5, num_workers=1)
    ) as identifier:
        # One cust total: the x-part matches at c1, but the isolated free y
        # (also cust-labelled) has no injective completion.
        assert not oracle.exists_match_at(graph, antecedent, "c1")
        assert identifier._infeasible_rules() == [rule]
        _census_oracle_check(identifier, [rule])
        identifier.apply(UpdateBatch.of(UpdateOp.add_node("c2", "cust")))
        assert oracle.exists_match_at(graph, antecedent, "c1")
        assert identifier._infeasible_rules() == []
        _census_oracle_check(identifier, [rule])
        # ...and dropping the second cust flips it back.
        identifier.apply(UpdateBatch.of(UpdateOp.remove_node("c2")))
        assert identifier._infeasible_rules() == [rule]
        _census_oracle_check(identifier, [rule])


def test_census_rule_with_extra_isolated_free_node():
    """Free nodes beyond y census-split too — PR included (disconnected PR)."""
    from repro.graph import Graph
    from repro.pattern.gpar import GPAR
    from repro.pattern.pattern import Pattern
    from repro.stream import UpdateBatch, UpdateOp

    graph = Graph(name="census-extra")
    graph.add_node("c1", "cust")
    graph.add_node("m1", "shop")
    graph.add_node("pz1", "prize")
    graph.add_node("p1", "promo")
    graph.add_edge("c1", "m1", "visit")
    graph.add_edge("c1", "pz1", "wins")
    antecedent = Pattern(
        nodes={"x": "cust", "v1": "shop", "y": "prize", "z": "promo"},
        edges=[("x", "v1", "visit")],
        x="x",
        y="y",  # y AND z are isolated: PR (with the wins edge) stays disconnected
    )
    rule = GPAR(antecedent, consequent_label="wins", validate=False)
    oracle = VF2Matcher(use_index=False)
    with StreamingIdentifier(
        graph, [rule], config=EIPConfig(eta=0.5, num_workers=1)
    ) as identifier:
        assert rule in identifier._census_pr_requirements
        assert oracle.exists_match_at(graph, antecedent, "c1")
        assert oracle.exists_match_at(graph, rule.pr_pattern(), "c1")
        _census_oracle_check(identifier, [rule])
        assert identifier.result.rule_matches[rule] == frozenset({"c1"})
        # Removing the only promo node starves both censuses: the rule
        # matches nowhere, exactly as whole-graph matching says.
        identifier.apply(UpdateBatch.of(UpdateOp.remove_node("p1")))
        assert not oracle.exists_match_at(graph, antecedent, "c1")
        assert not oracle.exists_match_at(graph, rule.pr_pattern(), "c1")
        assert identifier._infeasible_rules() == [rule]
        assert identifier._pr_infeasible_rules() == [rule]
        _census_oracle_check(identifier, [rule])
        assert identifier.result.rule_matches[rule] == frozenset()
        # ...and a new promo node restores it without any recheck nearby.
        identifier.apply(UpdateBatch.of(UpdateOp.add_node("p2", "promo")))
        assert identifier.result.rule_matches[rule] == frozenset({"c1"})
        _census_oracle_check(identifier, [rule])


@pytest.mark.parametrize("backend", BACKENDS)
def test_census_rules_agree_across_backends(backend):
    """Free-y maintenance is backend-independent (census lives coordinator-side)."""
    base = _workload_graph(40)  # seed 40 is known to mine splittable free-y rules
    predicate = most_frequent_predicates(base, top=1)[0]
    rules = _free_y_rules(base, predicate)
    assert rules, "seed 40 must mine free-y rules (workload drifted?)"
    graph = base.copy()
    with StreamingIdentifier(
        graph,
        rules,
        config=EIPConfig(
            eta=0.5, num_workers=3, seed=0, backend=backend, executor_workers=2
        ),
    ) as identifier:
        for position in range(2):
            identifier.apply(random_update_batch(graph, size=7, seed=600 + position))
        _census_oracle_check(identifier, rules)


def test_static_and_streaming_agree_on_free_pattern_rules():
    """``identify_entities`` and the streaming path agree on census-split Σ.

    The antecedents' free parts — an isolated prize node, and an
    edge-carrying promo→prize component — have their only witnesses outside
    the d-ball of the second customer, so any *per-fragment* resolution of
    the free part gets ``c2`` wrong.  Both paths must consult the same
    global census: before the shared ``plan_census``/``apply_census`` route
    the static solvers resolved free nodes inside each fragment graph
    (partition-dependent answers; ``c2`` silently dropped with two workers)
    and the streaming identifier rejected the edged component outright, so
    this test fails on that code.
    """
    from repro.graph import Graph
    from repro.pattern.gpar import GPAR
    from repro.pattern.pattern import Pattern

    graph = Graph(name="census-cross-path")
    for node, label in [
        ("c1", "cust"),
        ("c2", "cust"),
        ("m1", "shop"),
        ("m2", "shop"),
        ("pz1", "prize"),
        ("p1", "promo"),
    ]:
        graph.add_node(node, label)
    graph.add_edge("c1", "m1", "visit")
    graph.add_edge("c2", "m2", "visit")
    graph.add_edge("c1", "pz1", "wins")
    # LCWA-negative: c2 has a wins edge, but not to a prize node.
    graph.add_edge("c2", "m2", "wins")
    graph.add_edge("p1", "pz1", "sponsors")

    free_y = GPAR(
        Pattern(
            nodes={"x": "cust", "v1": "shop", "y": "prize"},
            edges=[("x", "v1", "visit")],
            x="x",
            y="y",
        ),
        consequent_label="wins",
        validate=False,
    )
    edged = GPAR(
        Pattern(
            nodes={"x": "cust", "v1": "shop", "y": "prize", "z": "promo"},
            edges=[("x", "v1", "visit"), ("z", "y", "sponsors")],
            x="x",
            y="y",
        ),
        consequent_label="wins",
        validate=False,
    )
    rules = [free_y, edged]
    oracle = VF2Matcher(use_index=False)
    # Whole-graph truth: both antecedents match at both customers (pz1 and
    # p1→pz1 are global witnesses), while only c1 carries the consequent.
    for rule in rules:
        assert oracle.match_set(graph, rule.antecedent) == {"c1", "c2"}
        assert oracle.match_set(graph, rule.pr_pattern()) == {"c1"}
    for algorithm in ("match", "matchc"):
        static = identify_entities(
            graph.copy(), rules, eta=0.5, num_workers=2, algorithm=algorithm
        )
        for rule in rules:
            # c2 contributes a global-census q̄-match, so supp(Qq̄) = 1 and
            # conf = 1·1/(1·1); per-fragment resolution missed it (conf=inf).
            assert static.rule_matches[rule] == frozenset({"c1"}), algorithm
            assert static.rule_confidences[rule] == 1.0, algorithm
        with StreamingIdentifier(
            graph.copy(),
            rules,
            config=EIPConfig(eta=0.5, num_workers=2),
            algorithm=algorithm,
        ) as identifier:
            assert _eip_fingerprint(static) == _eip_fingerprint(identifier.result)
            assert static.rule_confidences == identifier.result.rule_confidences


@pytest.mark.parametrize("algorithm", ["match", "matchc"])
def test_static_and_streaming_agree_on_mined_free_y_workload(algorithm):
    """Cross-path agreement on a *mined* Σ with splittable free-y rules."""
    base = _workload_graph(40)  # seed 40 is known to mine splittable free-y rules
    predicate = most_frequent_predicates(base, top=1)[0]
    rules = _free_y_rules(base, predicate)
    assert rules, "seed 40 must mine free-y rules (workload drifted?)"
    graph = base.copy()
    with StreamingIdentifier(
        graph, rules, config=EIPConfig(eta=0.5, num_workers=3), algorithm=algorithm
    ) as identifier:
        identifier.apply(random_update_batch(graph, size=7, seed=601))
        static = identify_entities(
            graph.copy(), rules, eta=0.5, num_workers=3, algorithm=algorithm
        )
        assert _eip_fingerprint(static) == _eip_fingerprint(identifier.result)
        assert static.rule_confidences == identifier.result.rule_confidences


@pytest.mark.parametrize("backend", BACKENDS)
def test_dmine_on_repaired_state_equals_pristine(backend):
    """Mining after streaming repairs == mining a pristine mutated copy.

    The mutated graph object carries a delta-patched resident index and a
    repaired match-store history; a fresh copy of the same graph carries
    neither.  DMine must mine byte-identical rules from both.
    """
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=4)
    predicate = most_frequent_predicates(graph, top=1)[0]
    graph_index(graph)  # resident index that the updates will delta-patch
    store = MatchStore(graph)
    delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
    rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=2, d=2, seed=4)
    for rule in rules:
        pattern = rule.pr_pattern()
        delta_matcher.materialize(
            pattern, sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str)
        )
    _apply_batches(graph, seed=5, count=2)
    graph_index(graph).refresh()  # delta path
    store.repair(VF2Matcher())
    config = DMineConfig(
        k=3,
        d=2,
        sigma=1,
        num_workers=2,
        max_edges=3,
        max_extensions_per_rule=6,
        max_rules_per_round=10,
        backend=backend,
        executor_workers=2,
    )
    repaired_run = dmine(graph, predicate, config)
    pristine_run = dmine(graph.copy(), predicate, config)
    assert _dmine_fingerprint(repaired_run) == _dmine_fingerprint(pristine_run)
