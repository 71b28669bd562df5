"""Warm-cache staleness audit (ROADMAP "warm-cache staleness audits").

Streaming keeps matchers alive across graph mutations (pool-lifetime
worker contexts), which turned three pre-existing unversioned caches into
bugs before they were ``Graph.version``-pinned.  This audit makes the
convention enforceable:

* a **registry** names every cache a matcher/solver keeps, split into
  graph-keyed caches (which MUST be version-pinned) and pattern-keyed
  caches (patterns are immutable — exempt);
* a **discovery sweep** fails when a class grows an unregistered
  dict-shaped cache attribute, or a cache-carrying class (anything with
  ``clear_caches``) is missing from the registry — adding a cache without
  auditing it breaks this file;
* a **behavioural sweep** warms every registered matcher, mutates the
  graph through update batches, and requires warm results byte-identical
  to a fresh instance's — served-stale answers fail loudly;
* a **pinning sweep** asserts every graph-keyed cache entry left behind
  after the warm re-probe carries the current ``Graph.version``.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.graph import graph_index, registered_index
from repro.matching import (
    GuidedMatcher,
    LocalityMatcher,
    MatchStore,
    SimulationMatcher,
    VF2Matcher,
)
from repro.stream import random_update_batch

# ----------------------------------------------------------------------
# the registry: every matcher/solver cache, by staleness discipline
# ----------------------------------------------------------------------
#: name -> (factory, graph-keyed pinned attrs, pattern-keyed exempt attrs)
AUDITED_CACHES = {
    "vf2": (lambda: VF2Matcher(), (), ()),
    "guided": (
        lambda: GuidedMatcher(),
        ("_data_sketches",),
        ("_pattern_sketches", "_pattern_graphs"),
    ),
    "simulation": (lambda: SimulationMatcher(), ("_cache",), ("_graphs",)),
    "locality": (lambda: LocalityMatcher(VF2Matcher()), ("_ball_cache",), ()),
}

#: Classes allowed to carry caches without appearing above (audited by
#: their own dedicated suites, noted here so discovery stays exhaustive).
AUDITED_ELSEWHERE = {
    "MatchStore",  # entry.version pinning: tests/test_stream.py, this file below
    "FragmentIndex",  # built_version pinning: tests/test_index.py, this file below
    "MultiPatternMatcher",  # pattern-keyed chain memo only (immutable keys)
}

_CACHE_HINTS = ("cache", "sketch", "memo", "graphs", "store")


def _cache_like_attributes(instance) -> set[str]:
    found = set()
    for name, value in vars(instance).items():
        if not isinstance(value, dict):
            continue
        if any(hint in name.lower() for hint in _CACHE_HINTS):
            found.add(name)
    return found


def test_registry_covers_every_cache_carrying_class():
    """Any matching-layer class with clear_caches() must be audited."""
    import inspect

    import repro.matching as matching

    registered_types = {
        type(factory()) for factory, _pinned, _exempt in AUDITED_CACHES.values()
    }
    for name in matching.__all__:
        obj = getattr(matching, name)
        if not inspect.isclass(obj) or not hasattr(obj, "clear_caches"):
            continue
        assert obj in registered_types or obj.__name__ in AUDITED_ELSEWHERE, (
            f"{obj.__name__} keeps caches (has clear_caches) but is not in "
            "the staleness-audit registry; register it in test_cache_audit.py"
        )


@pytest.mark.parametrize("name", sorted(AUDITED_CACHES))
def test_no_unregistered_cache_attributes(name):
    """A new dict-shaped cache attribute must be classified before landing."""
    factory, pinned, exempt = AUDITED_CACHES[name]
    instance = factory()
    discovered = _cache_like_attributes(instance)
    unregistered = discovered - set(pinned) - set(exempt)
    assert not unregistered, (
        f"{type(instance).__name__} grew unaudited cache attributes "
        f"{sorted(unregistered)}; classify them as graph-keyed (pinned) or "
        "pattern-keyed (exempt) in test_cache_audit.py"
    )


def _workload(seed: int):
    graph = synthetic_graph(80, 240, num_node_labels=4, num_edge_labels=3, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=3, d=2, seed=seed)
    patterns = []
    for rule in rules:
        patterns.append(rule.antecedent)
        patterns.append(rule.pr_pattern())
    return graph, patterns


@pytest.mark.parametrize("use_index", [True, False])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(AUDITED_CACHES))
def test_warm_matcher_survives_mutations(name, seed, use_index):
    """Warm caches across update batches == a fresh matcher every time.

    ``use_index=False`` forces each matcher's *private* caches to carry the
    staleness burden (the resident index otherwise absorbs most probes) —
    the configuration that exposed the original three bugs.
    """
    factory, pinned, _exempt = AUDITED_CACHES[name]
    graph, patterns = _workload(seed)
    warm = factory()
    if hasattr(warm, "use_index"):
        warm.use_index = use_index
    if hasattr(warm, "inner") and hasattr(warm.inner, "use_index"):
        warm.inner.use_index = use_index
    if use_index:
        graph_index(graph)
    for pattern in patterns:  # warm every cache with real traffic
        warm.match_set(graph, pattern)
    for position in range(3):
        batch = random_update_batch(graph, size=6, seed=seed * 50 + position)
        batch.apply(graph)
        fresh = factory()
        if hasattr(fresh, "use_index"):
            fresh.use_index = use_index
        if hasattr(fresh, "inner") and hasattr(fresh.inner, "use_index"):
            fresh.inner.use_index = use_index
        for pattern in patterns:
            assert warm.match_set(graph, pattern) == fresh.match_set(graph, pattern), (
                name,
                seed,
                position,
                pattern,
            )
        # Pinning sweep: graph-keyed entries must follow the
        # ``(version, payload)`` convention, which is what lets the read
        # path validate the pin before serving (stale entries may linger —
        # they are revalidated, never served; the behavioural sweep above
        # is the proof).
        for attribute in pinned:
            cache = getattr(warm, attribute)
            if not use_index:
                # With the resident index off, every private cache must have
                # seen traffic — an empty cache means the audit went blind.
                assert cache, f"{name}.{attribute} was never exercised by the audit"
            for value in cache.values():
                assert isinstance(value, tuple) and isinstance(value[0], int), (
                    f"{name}.{attribute} entries must be (version, payload) "
                    f"tuples, got {type(value)}"
                )


def test_match_store_entries_are_version_pinned():
    """MatchStore (solver-side cache) evicts on any version mismatch."""
    graph, patterns = _workload(seed=1)
    store = MatchStore(graph)
    from repro.matching import DeltaMatcher

    delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
    pattern = patterns[1]  # a PR pattern: connected, enumerable
    candidates = sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str)
    _matches, entry = delta_matcher.materialize(pattern, candidates)
    assert entry is not None and entry.version == graph.version
    graph.add_node("audit-probe", "somewhere")
    assert store.get(pattern) is None, "stale entry must be evicted, not served"
    assert store.statistics.stale_entries == 1


def test_resident_index_never_serves_stale_reads():
    """FragmentIndex's version guard runs on *every* probe (both modes)."""
    graph, _patterns = _workload(seed=2)
    index = graph_index(graph)
    label = sorted(graph.node_labels())[0]
    before = set(index.nodes_with_label(label))
    fresh_node = "audit-fresh"
    graph.add_node(fresh_node, label)
    assert fresh_node in index.nodes_with_label(label)
    assert set(index.nodes_with_label(label)) == before | {fresh_node}
    assert registered_index(graph) is index


def test_frozen_neighbors_view_never_serves_stale_reads():
    """FragmentIndex.neighbors memoises frozensets but tracks mutations.

    The memo is version-pinned like every other index probe: a touched
    node's entry is dropped by the delta patch, an untouched node's entry
    is reused, and both must equal the graph's live adjacency afterwards.
    """
    graph, _patterns = _workload(seed=3)
    index = graph_index(graph)
    nodes = sorted(graph.nodes(), key=str)[:10]
    for node in nodes:  # warm the memo
        assert index.neighbors(node) == frozenset(graph.neighbors(node))
    source, target = nodes[0], nodes[-1]
    graph.add_edge(source, target, "audit-edge")
    assert target in index.neighbors(source)
    assert source in index.neighbors(target)
    for node in nodes:
        assert index.neighbors(node) == frozenset(graph.neighbors(node))


def test_resident_index_kernel_never_serves_stale_reads():
    """The kernel probes run the same per-probe version guard as the buckets."""
    graph, patterns = _workload(seed=4)
    index = graph_index(graph)
    pattern = patterns[0].expanded()
    label = pattern.label(pattern.x)
    requirement = index.compile_requirement(pattern, pattern.x)
    before = index.filter_candidates(sorted(graph.nodes(), key=str), requirement)
    # A fresh node that satisfies the requirement: copy one survivor's
    # labelled neighbourhood onto it.
    model = before[0]
    fresh_node = "audit-kernel-fresh"
    with graph.batch_update():
        graph.add_node(fresh_node, label)
        for edge in graph.out_edges(model):
            graph.add_edge(fresh_node, edge.target, edge.label)
        for edge in list(graph.in_edges(model)):
            graph.add_edge(edge.source, fresh_node, edge.label)
    requirement = index.compile_requirement(pattern, pattern.x)
    after = index.filter_candidates(sorted(graph.nodes(), key=str), requirement)
    assert fresh_node in after and set(before) <= set(after)
    assert index.built_version == graph.version
    assert registered_index(graph) is index
