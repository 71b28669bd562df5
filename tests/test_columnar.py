"""Unit tests of the index kernel: the array layer of repro.graph.index.

Covers the LabelTable interning contract and numpy probe
(repro.graph.columnar), CSR construction on both the numpy and the
pure-``array`` backend, the compiled-requirement probes of
:class:`~repro.graph.index.FragmentIndex` against their dict-path
definitions, delta-driven patching (profile overlays answer probes exactly
like a fresh build; the vectorized paths stay suspended until the next
rebuild), the probe-time staleness guard, and the per-process registry.
Equivalence at scale lives in tests/test_columnar_equivalence.py.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager

import pytest

from repro.datasets import most_frequent_predicates, synthetic_graph
from repro.graph import FragmentIndex, Graph, discard_index, graph_index, registered_index
from repro.graph.columnar import LabelTable, numpy_active, numpy_or_none
from repro.matching.candidates import degree_consistent
from repro.matching.simulation import maximum_dual_simulation
from repro.pattern import Pattern, PatternEdge
from repro.stream import random_update_batch


@contextmanager
def numpy_disabled(disabled: bool = True):
    """Force the pure-``array`` code path for index builds inside the block."""
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


#: Both build backends when numpy is importable, else just the stdlib one.
BACKENDS = [True, False] if numpy_or_none() is not None else [False]


def _small_graph(seed: int = 3) -> Graph:
    return synthetic_graph(60, 180, num_node_labels=4, num_edge_labels=3, seed=seed)


def _pattern_for(graph: Graph) -> Pattern:
    predicate = most_frequent_predicates(graph, top=1)[0]
    return predicate


# ----------------------------------------------------------------------
# LabelTable
# ----------------------------------------------------------------------
class TestLabelTable:
    def test_ids_are_stable_and_dense(self):
        table = LabelTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert len(table) == 2
        assert table.label_of(1) == "b"

    def test_id_of_never_assigns(self):
        table = LabelTable()
        assert table.id_of("never-seen") is None
        assert len(table) == 0

    def test_pickle_roundtrip_preserves_ids(self):
        table = LabelTable()
        for label in ("x", "y", "z"):
            table.intern(label)
        revived = pickle.loads(pickle.dumps(table))
        assert [revived.id_of(label) for label in ("x", "y", "z")] == [0, 1, 2]
        assert revived.intern("w") == 3

    def test_graph_exposes_shared_table(self):
        graph = _small_graph()
        table = graph.label_table
        assert table is graph.label_table  # memoised
        for label in graph.node_labels():
            assert table.id_of(label) is not None
        for label in graph.edge_label_counts():
            assert table.id_of(label) is not None


# ----------------------------------------------------------------------
# numpy feature probe
# ----------------------------------------------------------------------
def test_probe_honours_disable_env():
    with numpy_disabled():
        assert numpy_or_none() is None
        assert not numpy_active()


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_compile_backend_follows_probe(use_numpy):
    graph = _small_graph()
    with numpy_disabled(not use_numpy):
        view = FragmentIndex(graph)
    assert ("numpy" in repr(view)) == use_numpy


# ----------------------------------------------------------------------
# probes against the dict-path definitions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_buckets_match_graph(use_numpy):
    graph = _small_graph()
    with numpy_disabled(not use_numpy):
        view = FragmentIndex(graph)
    for label in graph.node_labels():
        assert view.nodes_with_label(label) == graph.nodes_with_label(label)
    assert view.nodes_with_label("no-such-label") == frozenset()


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_filter_candidates_equals_dict_filter(use_numpy):
    graph = _small_graph()
    pattern = _pattern_for(graph).expanded()
    with numpy_disabled(not use_numpy):
        view = FragmentIndex(graph)
    pool = sorted(graph.nodes(), key=str)
    for pattern_node in pattern.nodes():
        requirement = view.compile_requirement(pattern, pattern_node)
        survivors = view.filter_candidates(pool, requirement)
        expected = [
            node
            for node in pool
            if graph.node_label(node) == pattern.label(pattern_node)
            and degree_consistent(graph, node, pattern, pattern_node)
        ]
        assert survivors == expected
        for node in pool:
            assert view.dominates(node, requirement) == (node in set(expected))


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_dual_simulation_equals_dict_fixpoint(use_numpy):
    graph = _small_graph()
    pattern = _pattern_for(graph)
    with numpy_disabled(not use_numpy):
        view = FragmentIndex(graph)
        result = view.dual_simulation(pattern.expanded())
    assert result == maximum_dual_simulation(pattern, graph)


def test_unknown_pattern_label_filters_everything():
    graph = _small_graph()
    view = FragmentIndex(graph)
    alien = Pattern(nodes={"x": "label-not-in-graph"}, edges=[], x="x")
    requirement = view.compile_requirement(alien, alien.x)
    assert requirement.label_id == -1
    assert view.filter_candidates(sorted(graph.nodes(), key=str), requirement) == []
    assert view.dual_simulation(alien) == {"x": set()}


# ----------------------------------------------------------------------
# invalidation: patches and rebuilds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_patched_view_answers_like_a_fresh_compile(use_numpy):
    graph = _small_graph(seed=5)
    pattern = _pattern_for(graph).expanded()
    with numpy_disabled(not use_numpy):
        view = FragmentIndex(graph, rebuild_fraction=1.0)  # always patch
        for position in range(3):
            batch = random_update_batch(graph, size=6, seed=40 + position)
            batch.apply(graph)
            view.refresh()
            assert view.built_version == graph.version
            assert view.statistics.delta_applies > 0
            assert not view.is_stale
            for label in graph.node_labels():
                assert view.nodes_with_label(label) == graph.nodes_with_label(label)
            pool = sorted(graph.nodes(), key=str)
            for pattern_node in pattern.nodes():
                requirement = view.compile_requirement(pattern, pattern_node)
                assert view.filter_candidates(pool, requirement) == [
                    node
                    for node in pool
                    if graph.node_label(node) == pattern.label(pattern_node)
                    and degree_consistent(graph, node, pattern, pattern_node)
                ]


def test_patched_view_suspends_vectorized_paths_until_recompile():
    graph = _small_graph(seed=6)
    pattern = _pattern_for(graph).expanded()
    view = FragmentIndex(graph, rebuild_fraction=1.0)
    assert view.pristine
    batch = random_update_batch(graph, size=6, seed=9)
    batch.apply(graph)
    view.refresh()
    if view.pristine:  # a net-empty batch patches nothing; force a patch
        graph.add_node("overlay-probe", sorted(graph.node_labels())[0])
        view.refresh()
    assert not view.pristine
    assert view.dual_simulation(pattern) is None  # caller falls back to dicts
    assert view.kernel_statistics.fallbacks > 0
    # Only a rebuild restores the fast path: a refresh whose touched share
    # exceeds rebuild_fraction.
    view.rebuild_fraction = 0.0
    graph.add_node("rebuild-probe", sorted(graph.node_labels())[0])
    view.refresh()
    assert view.pristine
    assert view.dual_simulation(pattern) == maximum_dual_simulation(pattern, graph)


def test_rebuild_fraction_zero_always_recompiles():
    graph = _small_graph(seed=7)
    view = FragmentIndex(graph, rebuild_fraction=0.0)
    builds_before = view.statistics.builds
    graph.add_node("fresh", sorted(graph.node_labels())[0])
    view.refresh()
    assert view.statistics.builds == builds_before + 1
    assert view.pristine and view.built_version == graph.version


def test_apply_delta_rejects_wrong_base_version():
    graph = _small_graph(seed=8)
    view = FragmentIndex(graph)
    graph.add_node("one", sorted(graph.node_labels())[0])
    graph.add_node("two", sorted(graph.node_labels())[0])
    deltas = graph.deltas_since(view.built_version)
    assert deltas is not None and len(deltas) == 2
    assert not view.apply_delta(deltas[1])  # skips a version: refused
    assert view.apply_delta(deltas[0]) and view.apply_delta(deltas[1])
    assert view.built_version == graph.version


def test_probe_guard_refreshes_stale_views():
    """The kernel probes share the index's per-probe version guard."""
    graph = _small_graph(seed=9)
    view = FragmentIndex(graph)
    label = sorted(graph.node_labels())[0]
    before = view.nodes_with_label(label)
    graph.add_node("guard-probe", label)
    assert view.nodes_with_label(label) == before | {"guard-probe"}


def test_rebuild_fraction_validation():
    graph = _small_graph(seed=10)
    with pytest.raises(ValueError):
        FragmentIndex(graph, rebuild_fraction=1.5)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_memoises_and_discards():
    graph = _small_graph(seed=11)
    assert registered_index(graph) is None
    view = graph_index(graph)
    assert graph_index(graph) is view
    assert registered_index(graph) is view
    assert discard_index(graph)
    assert not discard_index(graph)
    assert registered_index(graph) is None


def test_view_holds_graph_weakly():
    view = graph_index(_small_graph(seed=12))
    import gc

    gc.collect()
    from repro.exceptions import GraphError

    with pytest.raises(GraphError):
        _ = view.graph


# ----------------------------------------------------------------------
# CSR layout sanity on a hand-built graph
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_csr_matches_hand_built_adjacency(use_numpy):
    graph = Graph(name="csr-hand")
    for node, label in [("a", "L"), ("b", "L"), ("c", "M")]:
        graph.add_node(node, label)
    graph.add_edge("a", "b", "e")
    graph.add_edge("a", "c", "e")
    graph.add_edge("b", "c", "f")
    with numpy_disabled(not use_numpy):
        view = FragmentIndex(graph)
    edge_id = view.label_table.id_of("e")
    indptr, indices = view._out_csr[edge_id]
    position = view._pos["a"]
    row = {view._node_ids[indices[offset]] for offset in range(indptr[position], indptr[position + 1])}
    assert row == {"b", "c"}
    pattern = Pattern(
        nodes={"x": "L", "y": "M"}, edges=[PatternEdge("x", "y", "e")], x="x"
    )
    assert view.dual_simulation(pattern) == {"x": {"a"}, "y": {"c"}}
