"""Benchmark workloads: graphs, predicates and rule sets.

The paper's graphs (Pokec, Google+, synthetic up to 100M edges) are replaced
by the laptop-scale substitutes documented in DESIGN.md.  Workloads are
cached per process so parameter sweeps re-use the same graph object.
"""

from __future__ import annotations

from functools import lru_cache

from repro.datasets import (
    generate_gpars,
    googleplus_like,
    most_frequent_predicates,
    pokec_like,
    synthetic_graph,
)
from repro.graph.graph import Graph
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern

# Default benchmark scales (kept modest so the whole suite runs in minutes).
POKEC_USERS = 220
GOOGLEPLUS_USERS = 220
SYNTHETIC_NODES = 1200
SYNTHETIC_EDGES = 3600


def _planted_predicate(graph: Graph, edge_label: str, y_label: str) -> Pattern:
    for predicate in most_frequent_predicates(graph, top=30):
        edge = predicate.edges()[0]
        if edge.label == edge_label and predicate.label(predicate.y) == y_label:
            return predicate
    raise RuntimeError(
        f"planted predicate {edge_label}->{y_label} not found in {graph.name}"
    )


@lru_cache(maxsize=None)
def mining_workload(dataset: str, scale: int | None = None) -> tuple[Graph, Pattern]:
    """Graph + predicate for the DMine benchmarks (Fig. 5(a)–(g))."""
    if dataset == "pokec":
        graph = pokec_like(num_users=scale or POKEC_USERS, num_communities=8, seed=7)
        predicate = _planted_predicate(graph, "like_book", "personal development")
    elif dataset == "googleplus":
        graph = googleplus_like(num_users=scale or GOOGLEPLUS_USERS, num_circles=8, seed=7)
        predicate = _planted_predicate(graph, "major", "Computer Science")
    elif dataset == "synthetic":
        nodes = scale or SYNTHETIC_NODES
        graph = synthetic_graph(
            nodes, nodes * 3, num_node_labels=20, num_edge_labels=8, seed=7
        )
        predicate = most_frequent_predicates(graph, top=1)[0]
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    return graph, predicate


@lru_cache(maxsize=None)
def dense_mining_workload(scale: int = 4000) -> tuple[Graph, Pattern]:
    """Label-skewed synthetic workload where matching dominates the run.

    Fewer node labels than :func:`mining_workload` means bigger label
    buckets, more embeddings per centre and deeper levelwise search — the
    regime the incremental matcher (docs/incremental.md) is built for, and
    the one its bench-smoke family measures.
    """
    graph = synthetic_graph(
        scale, scale * 3, num_node_labels=8, num_edge_labels=4, seed=7
    )
    predicate = most_frequent_predicates(graph, top=1)[0]
    return graph, predicate


@lru_cache(maxsize=None)
def dense_eip_workload(
    scale: int = 4000, num_rules: int = 16
) -> tuple[Graph, tuple[GPAR, ...]]:
    """Rule set Σ over the dense workload (the EIP and streaming smoke families).

    Σ is *mined* by DMine rather than sampled: a mined rule set shares
    antecedent prefixes by construction (levelwise growth from one seed) and
    actually identifies entities on its own graph, so the smoke's
    cross-mode fingerprint gate exercises the identification outcome too —
    randomly sampled rules match nothing at this label density.
    """
    from repro.mining import DMineConfig, dmine

    graph, predicate = dense_mining_workload(scale)
    config = DMineConfig(
        k=num_rules,
        d=2,
        sigma=2,
        num_workers=2,
        max_edges=3,
        max_extensions_per_rule=8,
        max_rules_per_round=30,
    )
    result = dmine(graph, predicate, config)
    ranked = sorted(
        result.all_rules.items(), key=lambda item: (-item[1].support, item[0].name)
    )
    rules = [rule for rule, _info in ranked[:num_rules]]
    return graph, tuple(rules + [_census_split_variant(rules[0], predicate)])


@lru_cache(maxsize=None)
def storm_workload(scale: int = 60, num_rules: int = 3) -> tuple[Graph, tuple[GPAR, ...]]:
    """Graph + census-mixed Σ for the adversarial ``storm`` smoke family.

    Σ is *num_rules* rules sampled around the planted predicate of a
    *scale*-user Pokec-like graph (they identify entities there, so every
    oracle check compares non-empty answers), plus a free-node variant and
    an edge-carrying component variant of the first rule — one rule set
    that exercises the ball-local, label-census and component-census
    maintenance paths under every storm at once.
    """
    graph, predicate = mining_workload("pokec", scale)
    rules = generate_gpars(
        graph, predicate, count=num_rules, max_pattern_edges=2, d=2, seed=3
    )
    base = rules[0]
    return graph, tuple(
        rules
        + [_census_split_variant(base, predicate), _edge_component_variant(base, predicate)]
    )


def _edge_component_variant(base: GPAR, predicate: Pattern) -> GPAR:
    """A twin of *base* whose antecedent gains a disconnected q-shaped
    component (two fresh nodes joined by the predicate's edge label) —
    maintained via the coordinator's component census."""
    expanded = base.antecedent.expanded()
    q_edge = predicate.edges()[0]
    antecedent = Pattern(
        nodes={
            **{node: expanded.label(node) for node in expanded.nodes()},
            "census_f1": predicate.label(predicate.x),
            "census_f2": predicate.label(predicate.y),
        },
        edges=list(expanded.edges()) + [("census_f1", "census_f2", q_edge.label)],
        x=expanded.x,
        y=expanded.y,
    )
    return GPAR(
        antecedent,
        consequent_label=base.consequent_label,
        name=f"{base.name}+component",
        validate=False,
    )


def _census_split_variant(base: GPAR, predicate: Pattern) -> GPAR:
    """A census-split twin of *base*: same antecedent plus an isolated node.

    The extra free node carries the predicate's y-label, so the antecedent
    splits into the (shared) connected-from-x part plus a global label
    census.  Its chain prefixes are exactly *base*'s, which keeps the
    prefix-trie sharing of ``MultiPatternMatcher`` live under census
    substitution — the ``incremental`` smoke gate asserts that via
    ``prefix_pool_hits``.
    """
    expanded = base.antecedent.expanded()
    free = "census_free"
    antecedent = Pattern(
        nodes={**{node: expanded.label(node) for node in expanded.nodes()},
               free: predicate.label(predicate.y)},
        edges=list(expanded.edges()),
        x=expanded.x,
        y=expanded.y,
    )
    return GPAR(
        antecedent,
        consequent_label=base.consequent_label,
        name=f"{base.name}+census",
        validate=False,
    )


@lru_cache(maxsize=None)
def stream_workload(
    scale: int = 4000, num_rules: int = 16
) -> tuple[Graph, tuple[GPAR, ...]]:
    """Graph + sampled Σ over the dense graph of :func:`dense_mining_workload`.

    The ``index`` family's matching traffic runs on it: Σ is *sampled from
    the graph's structure* (:func:`generate_gpars`), so its antecedents are
    connected and match plenty, but at this label density none of its PR
    patterns match, so it identifies no entities.  Callers
    must ``copy()`` the graph before mutating it: workloads are cached per
    process and shared across benchmark families.
    """
    graph, predicate = dense_mining_workload(scale)
    rules = generate_gpars(
        graph, predicate, count=num_rules, max_pattern_edges=3, d=2, seed=11
    )
    return graph, tuple(rules)


@lru_cache(maxsize=None)
def synthetic_mining_workload(num_nodes: int, num_edges: int) -> tuple[Graph, Pattern]:
    """Synthetic-size-sweep variant of :func:`mining_workload` (Fig. 5(f))."""
    graph = synthetic_graph(
        num_nodes, num_edges, num_node_labels=20, num_edge_labels=8, seed=7
    )
    predicate = most_frequent_predicates(graph, top=1)[0]
    return graph, predicate


@lru_cache(maxsize=None)
def eip_workload(
    dataset: str,
    num_rules: int = 8,
    max_pattern_edges: int = 4,
    d: int = 2,
    scale: int | None = None,
    seed: int = 5,
) -> tuple[Graph, tuple[GPAR, ...]]:
    """Graph + rule set Σ for the Match benchmarks (Fig. 5(h)–(o))."""
    graph, predicate = mining_workload(dataset, scale)
    rules = generate_gpars(
        graph,
        predicate,
        count=num_rules,
        max_pattern_edges=max_pattern_edges,
        d=d,
        seed=seed,
    )
    return graph, tuple(rules)


@lru_cache(maxsize=None)
def synthetic_eip_workload(
    num_nodes: int,
    num_edges: int,
    num_rules: int = 8,
    seed: int = 5,
) -> tuple[Graph, tuple[GPAR, ...]]:
    """Synthetic-size-sweep variant of :func:`eip_workload` (Fig. 5(o))."""
    graph, predicate = synthetic_mining_workload(num_nodes, num_edges)
    rules = generate_gpars(
        graph, predicate, count=num_rules, max_pattern_edges=4, d=2, seed=seed
    )
    return graph, tuple(rules)
