"""Randomized equivalence: the index kernel == the dict definitions, always.

The kernel of the resident :class:`repro.graph.index.FragmentIndex` is an
array re-encoding of the fragment (interned label ids, CSR adjacency, a
precomputed profile matrix), so every probe must agree with the dict-backed
definitions byte for byte.  Three layers of evidence:

* a hypothesis suite drives random graphs through build → random update
  batches → refresh (both the patch and the rebuild policy) and checks
  label buckets, candidate filtering and dual simulation against the
  dict-path oracles after every step, on both the numpy and the pure-array
  backend;
* ~50 seeded random graph/pattern pairs run VF2, dual simulation and guided
  search on the resident index *after* a random update batch has patched
  it, against the raw-graph reference path (tests/test_index_equivalence.py
  covers freshly built indexes);
* full DMine / EIP pipelines run across all three execution backends ×
  index {on, off} × numpy {available, disabled}, requiring one single
  result fingerprint everywhere (the cross-backend gate the bench smoke
  also enforces).
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.graph import FragmentIndex, Graph, graph_index
from repro.graph.columnar import numpy_or_none
from repro.identification import identify_entities
from repro.matching import GuidedMatcher, SimulationMatcher, VF2Matcher
from repro.matching.candidates import degree_consistent
from repro.matching.simulation import maximum_dual_simulation
from repro.mining import DMineConfig, dmine
from repro.parallel.executor import BACKENDS
from repro.pattern import Pattern, PatternEdge
from repro.stream import random_update_batch

SEEDS = range(50)

NODE_LABELS = ["person", "city", "shop", "item"]
EDGE_LABELS = ["knows", "lives", "buys", "sells"]


@contextmanager
def numpy_disabled(disabled: bool = True):
    """Force the pure-``array`` code path for index builds inside the block.

    The probe re-resolves per build, so flipping the environment variable
    is enough — no reimport needed.  (A plain context manager instead of
    monkeypatch: hypothesis forbids function-scoped fixtures under @given.)
    """
    if not disabled:
        yield
        return
    previous = os.environ.get("REPRO_NO_NUMPY")
    os.environ["REPRO_NO_NUMPY"] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_NO_NUMPY", None)
        else:
            os.environ["REPRO_NO_NUMPY"] = previous


#: numpy-mode legs worth running: the pure-array path always, the numpy
#: path whenever the interpreter has numpy importable.
NUMPY_MODES = [True, False] if numpy_or_none() is not None else [False]


# ----------------------------------------------------------------------
# hypothesis: build -> random deltas -> refresh -> dict equality
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw, max_nodes: int = 14, max_extra_edges: int = 25) -> Graph:
    """Small random labelled directed graphs (idiom of test_properties.py)."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = Graph(name=f"random{seed}")
    for index in range(num_nodes):
        graph.add_node(f"n{index}", rng.choice(NODE_LABELS))
    num_edges = draw(st.integers(min_value=1, max_value=max_extra_edges))
    for _ in range(num_edges):
        source = f"n{rng.randrange(num_nodes)}"
        target = f"n{rng.randrange(num_nodes)}"
        if source != target:
            graph.add_edge(source, target, rng.choice(EDGE_LABELS))
    return graph


def _pattern_from_graph(graph: Graph, rng: random.Random, max_edges: int = 3) -> Pattern | None:
    """Lift a small connected subgraph of *graph* into a pattern."""
    anchors = [node for node in graph.nodes() if graph.degree(node) > 0]
    if not anchors:
        return None
    anchor = rng.choice(sorted(anchors, key=str))
    node_map = {anchor: "x"}
    nodes = {"x": graph.node_label(anchor)}
    edges: list[PatternEdge] = []
    frontier = [anchor]
    for _ in range(rng.randint(1, max_edges)):
        base = rng.choice(frontier)
        incident = list(graph.out_edges(base)) + list(graph.in_edges(base))
        if not incident:
            continue
        edge = rng.choice(incident)
        other = edge.target if edge.source == base else edge.source
        if other not in node_map:
            node_map[other] = f"p{len(node_map)}"
            nodes[node_map[other]] = graph.node_label(other)
            frontier.append(other)
        edges.append(PatternEdge(node_map[edge.source], node_map[edge.target], edge.label))
    if not edges:
        return None
    return Pattern(nodes=nodes, edges=edges, x="x")


def _assert_view_matches_dicts(graph: Graph, view: FragmentIndex, rng: random.Random):
    """Every kernel probe must agree with its dict-path definition."""
    for label in graph.node_labels():
        assert view.nodes_with_label(label) == graph.nodes_with_label(label)
    pattern = _pattern_from_graph(graph, rng)
    if pattern is None:
        return
    expanded = pattern.expanded()
    pool = sorted(graph.nodes(), key=str)
    for pattern_node in expanded.nodes():
        requirement = view.compile_requirement(expanded, pattern_node)
        expected = [
            node
            for node in pool
            if graph.node_label(node) == expanded.label(pattern_node)
            and degree_consistent(graph, node, expanded, pattern_node)
        ]
        assert view.filter_candidates(pool, requirement) == expected
    vectorized = view.dual_simulation(expanded)
    if vectorized is not None:  # patched views decline; callers fall back
        assert vectorized == maximum_dual_simulation(pattern, graph)
    else:
        assert not view.pristine


@pytest.mark.parametrize("use_numpy", NUMPY_MODES)
@given(
    graph=random_graphs(),
    seed=st.integers(min_value=0, max_value=10_000),
    always_patch=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_columnar_tracks_random_deltas(use_numpy, graph, seed, always_patch):
    """build → batch_update → rebuild-or-patch → equality, repeatedly."""
    rng = random.Random(seed)
    with numpy_disabled(not use_numpy):
        # rebuild_fraction=1.0 forces the delta-patch path, 0.0 forces a
        # full rebuild at every refresh; both must stay exact.
        view = FragmentIndex(graph, rebuild_fraction=1.0 if always_patch else 0.0)
        _assert_view_matches_dicts(graph, view, rng)
        for _ in range(3):
            batch = random_update_batch(
                graph, size=rng.randint(1, 8), seed=rng.randrange(10_000)
            )
            batch.apply(graph)
            view.refresh()
            assert view.built_version == graph.version
            _assert_view_matches_dicts(graph, view, rng)


@pytest.mark.parametrize("use_numpy", NUMPY_MODES)
@given(graph=random_graphs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_batch_update_then_recompile_equals_fresh_compile(use_numpy, graph, seed):
    """A patched-then-rebuilt index is indistinguishable from a fresh one."""
    rng = random.Random(seed)
    with numpy_disabled(not use_numpy):
        view = FragmentIndex(graph, rebuild_fraction=1.0)
        batch = random_update_batch(
            graph, size=rng.randint(1, 8), seed=rng.randrange(10_000)
        )
        batch.apply(graph)  # applies as one batch_update internally
        view.refresh()
        # The next refresh whose touched share exceeds rebuild_fraction
        # rebuilds the arrays from the current graph.
        view.rebuild_fraction = 0.0
        graph.add_node("rebuild-probe", NODE_LABELS[0])
        view.refresh()
        fresh = FragmentIndex(graph)
        assert view.pristine and fresh.pristine
        for label in graph.node_labels():
            assert view.nodes_with_label(label) == fresh.nodes_with_label(label)
        for node in graph.nodes():
            assert view.profile(node) == fresh.profile(node)
        pattern = _pattern_from_graph(graph, rng)
        if pattern is not None:
            expanded = pattern.expanded()
            assert view.dual_simulation(expanded) == fresh.dual_simulation(expanded)


# ----------------------------------------------------------------------
# 50 seeds: every matcher, patched resident index == reference path
# ----------------------------------------------------------------------
def _workload(seed: int):
    """One seeded random (graph, patterns) pair, small enough to enumerate."""
    graph = synthetic_graph(
        num_nodes=40 + (seed % 5) * 10,
        num_edges=120 + (seed % 7) * 30,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(
        graph, predicate, count=2, max_pattern_edges=3, d=2, seed=seed
    )
    patterns = [rule.antecedent for rule in rules] + [rule.pr_pattern() for rule in rules]
    return graph, patterns


def _canonical_mappings(mappings: list[dict]) -> list[tuple]:
    return sorted(
        tuple(sorted((str(k), str(v)) for k, v in mapping.items()))
        for mapping in mappings
    )


def _patched(graph: Graph, seed: int) -> Graph:
    """Build the resident index, then mutate so the next probe patches it."""
    graph_index(graph, rebuild_fraction=1.0)
    random_update_batch(graph, size=6, seed=seed).apply(graph)
    return graph


@pytest.mark.parametrize("seed", SEEDS)
def test_vf2_columnar_equals_dict(seed):
    graph, patterns = _workload(seed)
    _patched(graph, seed)
    plain = VF2Matcher(use_index=False)
    resident = VF2Matcher(use_index=True)
    for pattern in patterns:
        assert resident.match_set(graph, pattern) == plain.match_set(graph, pattern)
        expected = plain.find_all(graph, pattern)
        actual = resident.find_all(graph, pattern)
        assert _canonical_mappings(actual) == _canonical_mappings(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_simulation_columnar_equals_dict(seed):
    graph, patterns = _workload(seed)
    _patched(graph, seed)
    plain = SimulationMatcher(use_index=False)
    resident = SimulationMatcher(use_index=True)
    for pattern in patterns:
        assert resident.match_set(graph, pattern) == plain.match_set(graph, pattern)


@pytest.mark.parametrize("seed", SEEDS)
def test_guided_columnar_equals_dict(seed):
    graph, patterns = _workload(seed)
    _patched(graph, seed)
    plain = GuidedMatcher(use_index=False)
    resident = GuidedMatcher(use_index=True)
    for pattern in patterns:
        assert resident.match_set(graph, pattern) == plain.match_set(graph, pattern)


# ----------------------------------------------------------------------
# full pipelines: backends × index modes × numpy modes, one fingerprint
# ----------------------------------------------------------------------
def _eip_fingerprint(result):
    return (
        sorted(map(str, result.identified)),
        sorted(
            (rule.name, round(confidence, 9))
            for rule, confidence in result.rule_confidences.items()
        ),
        sorted(
            (rule.name, tuple(sorted(map(str, matches))))
            for rule, matches in result.rule_matches.items()
        ),
    )


def test_eip_one_fingerprint_across_backends_columnar_and_numpy_modes():
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=0)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=0)

    fingerprints = set()
    for use_numpy in NUMPY_MODES:
        with numpy_disabled(not use_numpy):
            for backend in BACKENDS:
                for use_index in (False, True):
                    result = identify_entities(
                        graph,
                        rules,
                        eta=0.5,
                        num_workers=2,
                        algorithm="match",
                        backend=backend,
                        executor_workers=2,
                        use_index=use_index,
                    )
                    fingerprints.add(repr(_eip_fingerprint(result)))
    assert len(fingerprints) == 1


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_dmine_equivalent_across_index_and_numpy_modes(backend):
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=2)
    predicate = most_frequent_predicates(graph, top=1)[0]
    fingerprints = set()
    for use_numpy in NUMPY_MODES:
        with numpy_disabled(not use_numpy):
            for use_index in (False, True):
                config = DMineConfig(
                    k=3,
                    d=2,
                    sigma=1,
                    num_workers=2,
                    max_edges=2,
                    max_extensions_per_rule=6,
                    max_rules_per_round=10,
                    backend=backend,
                    executor_workers=2,
                    use_index=use_index,
                )
                fingerprints.add(repr(_dmine_fingerprint(dmine(graph, predicate, config))))
    assert len(fingerprints) == 1
