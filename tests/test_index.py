"""Unit tests of the fragment-resident graph index (repro.graph.index)."""

from __future__ import annotations

import pytest

from repro.datasets import synthetic_graph
from repro.exceptions import NodeNotFoundError, StaleIndexError
from repro.graph import (
    FragmentIndex,
    Graph,
    build_sketch,
    discard_index,
    empty_sketch,
    graph_index,
    registered_index,
)
from repro.matching.candidates import adjacency_profile


def toy_graph() -> Graph:
    g = Graph(name="toy")
    g.add_node("alice", "cust")
    g.add_node("bob", "cust")
    g.add_node("cafe", "restaurant")
    g.add_node("loner", "cust")
    g.add_edge("alice", "cafe", "visit")
    g.add_edge("bob", "cafe", "visit")
    g.add_edge("alice", "bob", "friend")
    return g


class TestVersionCounter:
    def test_every_mutation_bumps_version(self):
        g = Graph()
        v = g.version
        g.add_node("a", "x")
        assert g.version > v
        v = g.version
        g.add_node("b", "x")
        g.add_edge("a", "b", "e")
        assert g.version > v
        v = g.version
        g.remove_edge("a", "b", "e")
        assert g.version > v
        v = g.version
        g.relabel_node("a", "y")
        assert g.version > v
        v = g.version
        g.remove_node("b")
        assert g.version > v

    def test_noop_mutations_do_not_bump(self):
        g = toy_graph()
        v = g.version
        g.add_node("alice", "cust")  # re-add, same label
        g.add_edge("alice", "cafe", "visit")  # duplicate edge
        g.relabel_node("alice", "cust")  # same label
        assert g.version == v

    def test_relabel_updates_label_buckets(self):
        g = toy_graph()
        g.relabel_node("loner", "vip")
        assert g.nodes_with_label("vip") == {"loner"}
        assert "loner" not in g.nodes_with_label("cust")

    def test_relabel_unknown_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            toy_graph().relabel_node("ghost", "x")


class TestIndexLayers:
    def test_label_layer_matches_graph(self):
        g = toy_graph()
        index = FragmentIndex(g)
        assert index.nodes_with_label("cust") == g.nodes_with_label("cust")
        assert index.count_nodes_with_label("restaurant") == 1
        assert index.nodes_with_label("missing") == frozenset()
        assert index.node_label("cafe") == "restaurant"
        with pytest.raises(NodeNotFoundError):
            index.node_label("ghost")

    def test_profiles_match_unindexed_computation(self):
        g = synthetic_graph(60, 180, num_node_labels=5, num_edge_labels=3, seed=11)
        index = FragmentIndex(g)
        for node in g.nodes():
            assert dict(index.profile(node)) == adjacency_profile(g, node)
        with pytest.raises(NodeNotFoundError):
            index.profile("ghost")

    def test_adjacency_views_match_graph(self):
        g = toy_graph()
        index = FragmentIndex(g)
        assert index.out_neighbors("alice", "visit") == g.out_neighbors("alice", "visit")
        assert index.in_neighbors("cafe", "visit") == {"alice", "bob"}
        assert index.out_neighbors("loner", "visit") == frozenset()
        with pytest.raises(NodeNotFoundError):
            index.out_neighbors("ghost", "visit")

    def test_sketches_match_direct_builds(self):
        g = synthetic_graph(40, 120, num_node_labels=4, num_edge_labels=2, seed=3)
        index = FragmentIndex(g)
        for node in list(g.nodes())[:10]:
            assert index.sketch(node, 2) == build_sketch(g, node, 2)
        # Memoised: the same object comes back.
        node = next(iter(g.nodes()))
        assert index.sketch(node, 2) is index.sketch(node, 2)

    def test_invalid_construction_arguments(self):
        with pytest.raises(ValueError):
            FragmentIndex(toy_graph(), mode="whenever")
        with pytest.raises(ValueError):
            FragmentIndex(toy_graph(), default_hops=0)


class TestSketchFastPath:
    def test_isolated_node_skips_bfs(self, monkeypatch):
        g = toy_graph()
        index = FragmentIndex(g)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("BFS ran for an isolated node")

        monkeypatch.setattr("repro.graph.index.build_sketch", boom)
        sketch = index.sketch("loner", 2)
        assert sketch == empty_sketch("loner", 2)
        assert sketch.total_count() == 0
        assert index.statistics.sketch_fast_paths == 1
        assert index.statistics.sketches_built == 0
        # Memoised as well: the second probe is a cache hit, not another
        # fast-path materialisation.
        assert index.sketch("loner", 2) is sketch
        assert index.statistics.sketch_fast_paths == 1

    def test_connected_node_takes_bfs_path(self):
        g = toy_graph()
        index = FragmentIndex(g)
        index.sketch("alice", 2)
        assert index.statistics.sketches_built == 1
        assert index.statistics.sketch_fast_paths == 0

    def test_empty_sketch_shape(self):
        sketch = empty_sketch("n", 3)
        assert sketch.hops == 3
        assert sketch.distribution_at(1) == {}
        assert sketch.distribution_at(3) == {}
        with pytest.raises(ValueError):
            empty_sketch("n", 0)


class TestInvalidation:
    """A stale-index read must be impossible: refresh or raise, per mode."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_node("new", "cust"),
            lambda g: g.add_edge("bob", "alice", "friend"),
            lambda g: g.remove_edge("alice", "cafe", "visit"),
            lambda g: g.relabel_node("bob", "vip"),
            lambda g: g.remove_node("loner"),
        ],
        ids=["add-node", "add-edge", "remove-edge", "relabel", "remove-node"],
    )
    def test_refresh_mode_rebuilds_on_any_mutation(self, mutate):
        g = toy_graph()
        index = FragmentIndex(g, mode="refresh")
        index.sketch("alice", 2)  # warm a lazy layer too
        mutate(g)
        assert index.is_stale
        # Any probe refreshes; the answer reflects the mutated graph.
        assert index.nodes_with_label("cust") == g.nodes_with_label("cust")
        assert not index.is_stale
        assert index.statistics.refreshes == 1
        for node in g.nodes():
            assert dict(index.profile(node)) == adjacency_profile(g, node)

    @pytest.mark.parametrize(
        "probe",
        [
            lambda index: index.nodes_with_label("cust"),
            lambda index: index.count_nodes_with_label("cust"),
            lambda index: index.node_label("alice"),
            lambda index: index.profile("alice"),
            lambda index: index.out_neighbors("alice", "visit"),
            lambda index: index.in_neighbors("cafe", "visit"),
            lambda index: index.sketch("alice", 2),
        ],
        ids=["labels", "count", "node-label", "profile", "out", "in", "sketch"],
    )
    def test_raise_mode_rejects_every_probe(self, probe):
        g = toy_graph()
        index = FragmentIndex(g, mode="raise")
        g.add_node("new", "cust")
        with pytest.raises(StaleIndexError) as excinfo:
            probe(index)
        assert excinfo.value.current_version > excinfo.value.built_version

    def test_raise_mode_recovers_after_explicit_refresh(self):
        g = toy_graph()
        index = FragmentIndex(g, mode="raise")
        g.add_edge("bob", "alice", "friend")
        with pytest.raises(StaleIndexError):
            index.profile("alice")
        index.refresh()
        assert dict(index.profile("alice")) == adjacency_profile(g, "alice")

    def test_refresh_drops_stale_sketches_and_views(self):
        g = toy_graph()
        index = FragmentIndex(g)
        before = index.sketch("loner", 2)
        assert before.total_count() == 0
        g.add_edge("loner", "cafe", "visit")
        after = index.sketch("loner", 2)
        assert after.total_count() > 0
        assert index.out_neighbors("loner", "visit") == {"cafe"}


class TestRegistry:
    def test_graph_index_is_memoised_per_graph(self):
        g = toy_graph()
        assert registered_index(g) is None
        index = graph_index(g)
        assert graph_index(g) is index
        assert registered_index(g) is index

    def test_discard_index_forgets_the_graph(self):
        g = toy_graph()
        index = graph_index(g)
        assert discard_index(g) is True
        assert discard_index(g) is False
        assert graph_index(g) is not index

    def test_independent_graphs_get_independent_indexes(self):
        g1, g2 = toy_graph(), toy_graph()
        assert graph_index(g1) is not graph_index(g2)

    def test_registry_does_not_keep_graphs_alive(self):
        """The index holds its graph weakly: dropping the graph frees both."""
        import gc
        import weakref

        g = toy_graph()
        index = graph_index(g)
        graph_ref = weakref.ref(g)
        del g
        gc.collect()
        assert graph_ref() is None
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            index.profile("alice")


class TestStreamingTick:
    def test_tick_refreshes_each_fragment_once_and_matches_a_fresh_build(self):
        """One ``index.refresh`` per changed fragment per tick, nothing else.

        The patched structure must answer the kernel probes exactly like a
        fresh build of the same fragment graph.
        """
        import re

        from repro.datasets import generate_gpars, most_frequent_predicates
        from repro.identification import EIPConfig
        from repro.obs import Tracer, install, uninstall
        from repro.stream import (
            StreamingIdentifier,
            UpdateBatch,
            UpdateOp,
            random_update_batch,
        )

        graph = synthetic_graph(300, 900, num_node_labels=5, num_edge_labels=3, seed=21)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=21)
        with StreamingIdentifier(
            graph, rules, config=EIPConfig(eta=0.5, num_workers=2)
        ) as identifier:
            fragment_graphs = [fragment.graph for fragment in identifier.fragments]
            before = [fragment_graph.version for fragment_graph in fragment_graphs]
            # Relabelling a hub changes its neighbours' profiles without
            # touching them, so the patch must recompute their rows too.
            x_label = rules[0].x_label
            hub = max(
                (node for node in graph.nodes() if graph.node_label(node) != x_label),
                key=lambda node: (graph.degree(node), str(node)),
            )
            new_label = sorted(
                set(graph.node_labels()) - {x_label, graph.node_label(hub)}
            )[0]
            batch = UpdateBatch.of(
                UpdateOp.relabel_node(hub, new_label),
                *random_update_batch(graph, size=6, seed=5),
            )
            tracer = install(Tracer())
            try:
                identifier.apply(batch)
            finally:
                uninstall()
            names = [record["name"] for record in tracer.records()]
            assert not [name for name in names if "columnar" in name]
            refreshes: dict[int, int] = {}
            for record in tracer.records():
                if record["name"] == "index.refresh":
                    worker = re.match(r"t\d+\.w(\d+)\.", record["span_id"])
                    assert worker is not None, record
                    fragment = int(worker.group(1))
                    refreshes[fragment] = refreshes.get(fragment, 0) + 1
            changed = {
                position
                for position, fragment_graph in enumerate(fragment_graphs)
                if fragment_graph.version != before[position]
            }
            assert changed
            assert refreshes == {position: 1 for position in changed}

            patterns = []
            for rule in rules:
                patterns += [rule.antecedent.expanded(), rule.pr_pattern().expanded()]
            patched_any = False
            for fragment_graph in fragment_graphs:
                index = registered_index(fragment_graph)
                fresh = FragmentIndex(fragment_graph)
                patched_any |= not index.pristine
                pool = sorted(fragment_graph.nodes(), key=str)
                for label in fragment_graph.node_labels():
                    assert index.nodes_with_label(label) == fresh.nodes_with_label(label)
                for node in pool:
                    assert index.profile(node) == fresh.profile(node)
                for pattern in patterns:
                    for pattern_node in pattern.nodes():
                        patched_req = index.compile_requirement(pattern, pattern_node)
                        fresh_req = fresh.compile_requirement(pattern, pattern_node)
                        assert index.filter_candidates(
                            pool, patched_req
                        ) == fresh.filter_candidates(pool, fresh_req)
                        for node in pool:
                            assert index.dominates(node, patched_req) == fresh.dominates(
                                node, fresh_req
                            )
            assert patched_any, "the tick must take the patch path somewhere"
