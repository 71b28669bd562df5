"""Seeded workload inputs: graph, rule set Σ and the whole update-batch list.

Everything here runs before timing starts.  Graph and Σ are fixed per
workload (``GRAPH_SEED``); ``--seed`` selects one of ``INPUT_SEEDS`` update
streams (``seed % INPUT_SEEDS``).  Every run's inputs are checked against
the fingerprint recorded in ``fingerprints.json``, so a change to
``repro.datasets`` or to DMine that would silently move the baseline fails
the run instead.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from dataclasses import dataclass, field
from pathlib import Path

from common import digest, rule_doc

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, pokec_like, synthetic_graph
from repro.graph.io import graph_to_dict, save_graph_json
from repro.identification.eip import EIPConfig
from repro.mining.config import DMineConfig
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream.updates import UpdateBatch, UpdateOp

INPUT_SEEDS = 16
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

POKEC_PREDICATE = "user:like_book:personal development"
WORKERS = 2
BACKEND = "processes"
ETA = 0.5
BATCH_OPS = 8


def eip_config(seed: int) -> EIPConfig:
    return EIPConfig(eta=ETA, num_workers=WORKERS, backend=BACKEND, seed=seed)


def mine_config(seed: int, **fields) -> DMineConfig:
    return DMineConfig(
        d=2,
        num_workers=WORKERS,
        backend=BACKEND,
        seed=seed,
        max_edges=3,
        max_extensions_per_rule=8,
        max_rules_per_round=30,
        **fields,
    )


@dataclass
class Inputs:
    """One workload's generated inputs, plus what the checks need to know."""

    workload: str
    seed: int
    graph_path: Path
    predicate: Pattern
    rules: tuple[GPAR, ...] = ()
    batches: tuple[UpdateBatch, ...] = ()
    #: Number of predicate centres (x-labelled nodes) after each batch.
    centres: tuple[int, ...] = ()
    extra: dict = field(default_factory=dict)
    fingerprint: str = ""


# ----------------------------------------------------------------------
# update batches
# ----------------------------------------------------------------------
def update_batches(graph, count: int, rng: random.Random, x_label: str):
    """*count* valid 8-op batches, each sampled against the state the previous
    ones leave; applied to *graph* (the benchmark's mirror copy) as they go.

    The mix follows ``repro.stream.random_update_batch``: three quarters
    edge churn (removal of an existing edge or insertion of a fresh one),
    one quarter node churn (add 40 %, relabel 40 %, remove 20 %).  Node
    churn keeps the number of entities (nodes carrying the predicate's
    x-label) steady, because a social tick's cost follows that number:

    - a relabel turns an entity into another label, or, half the time once
      there are any, turns such a former entity back;
    - a removal takes a node that the stream itself added.

    Shared attribute nodes such as a city are never relabelled or removed:
    one relabelled hub would change the cost of every later tick.  With
    relabels and removals that only took entities away, a social run lost a
    quarter of its entities and its ticks sped up by a third from first to
    last.  State is tracked incrementally, so sampling costs O(1) per op
    instead of a sort of the whole edge set.
    """
    node_labels = sorted(graph.node_labels())
    other_labels = [label for label in node_labels if label != x_label]
    edge_labels = sorted(graph.edge_labels())
    alive = IndexedSet(sorted(graph.nodes(), key=str))
    entities = IndexedSet(sorted(graph.nodes_with_label(x_label), key=str))
    former, added = IndexedSet(()), IndexedSet(())
    edges = IndexedSet(sorted(((e.source, e.target, e.label) for e in graph.edges()), key=str))
    incident: dict = {}
    for edge in edges.items:
        incident.setdefault(edge[0], set()).add(edge)
        incident.setdefault(edge[1], set()).add(edge)

    def drop_edge(edge) -> None:
        edges.discard(edge)
        incident[edge[0]].discard(edge)
        incident[edge[1]].discard(edge)

    batches, centres = [], []
    fresh = 0
    for tick in range(count):
        ops: list[UpdateOp] = []
        while len(ops) < BATCH_OPS:
            if rng.random() < 0.75:
                if edges.items and rng.random() < 0.5:
                    edge = edges.choice(rng)
                    drop_edge(edge)
                    ops.append(UpdateOp.remove_edge(*edge))
                    continue
                source, target = rng.sample(alive.items, 2)
                edge = (source, target, rng.choice(edge_labels))
                if edge in edges:
                    continue
                edges.add(edge)
                incident.setdefault(source, set()).add(edge)
                incident.setdefault(target, set()).add(edge)
                ops.append(UpdateOp.add_edge(*edge))
                continue
            roll = rng.random()
            if roll < 0.4:
                fresh += 1
                node, label = f"pb{tick}-{fresh}", rng.choice(node_labels)
                alive.add(node)
                added.add(node)
                if label == x_label:
                    entities.add(node)
                ops.append(UpdateOp.add_node(node, label))
            elif roll < 0.8:
                if former.items and (not entities.items or rng.random() < 0.5):
                    node = former.choice(rng)
                    former.discard(node)
                    entities.add(node)
                    ops.append(UpdateOp.relabel_node(node, x_label))
                elif entities.items:
                    node = entities.choice(rng)
                    entities.discard(node)
                    former.add(node)
                    ops.append(UpdateOp.relabel_node(node, rng.choice(other_labels)))
            elif added.items:
                node = added.choice(rng)
                for edge in sorted(incident.get(node, ()), key=str):
                    drop_edge(edge)
                incident.pop(node, None)
                for members in (alive, added, entities, former):
                    members.discard(node)
                ops.append(UpdateOp.remove_node(node))
        batch = UpdateBatch(ops=tuple(ops))
        batch.apply(graph)
        batches.append(batch)
        centres.append(len(graph.nodes_with_label(x_label)))
    return tuple(batches), tuple(centres)


class IndexedSet:
    """A set with O(1) add, discard and uniform random choice."""

    def __init__(self, items) -> None:
        self.items = list(items)
        self._position = {item: index for index, item in enumerate(self.items)}

    def __contains__(self, item) -> bool:
        return item in self._position

    def add(self, item) -> None:
        if item not in self._position:
            self._position[item] = len(self.items)
            self.items.append(item)

    def discard(self, item) -> None:
        position = self._position.pop(item, None)
        if position is None:
            return
        last = self.items.pop()
        if position < len(self.items):
            self.items[position] = last
            self._position[last] = position

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


def _batches_doc(batches) -> list:
    return [[op.as_dict() for op in batch.ops] for batch in batches]


# ----------------------------------------------------------------------
# rule sets
# ----------------------------------------------------------------------
def census_twin(base: GPAR, predicate: Pattern) -> GPAR:
    """*base* plus an isolated node carrying the predicate's y-label.

    Its antecedent splits into *base*'s connected part plus a global label
    census, so Σ exercises the census path next to prefix sharing.
    """
    expanded = base.antecedent.expanded()
    antecedent = Pattern(
        nodes={
            **{node: expanded.label(node) for node in expanded.nodes()},
            "census_free": predicate.label(predicate.y),
        },
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


def mined_rules(graph, predicate, seed: int, k: int, sigma: int) -> list[GPAR]:
    """The *k* best-supported rules DMine finds for *predicate*."""
    result = api.mine(graph, predicate, mine_config(seed, k=k, sigma=sigma))
    ranked = sorted(result.all_rules.items(), key=lambda item: (-item[1].support, item[0].name))
    return [rule for rule, _info in ranked[:k]]


# ----------------------------------------------------------------------
# per-workload generation
# ----------------------------------------------------------------------
def _finish(inputs: Inputs, graph_doc: dict) -> Inputs:
    inputs.fingerprint = digest(
        {
            "graph": graph_doc,
            "rules": [rule_doc(rule) for rule in inputs.rules],
            "batches": _batches_doc(inputs.batches),
            "extra": inputs.extra,
        }
    )
    return inputs


def _save(graph, directory: Path) -> tuple[Path, dict]:
    path = directory / "graph.json"
    save_graph_json(graph, path)
    return path, graph_to_dict(graph)


#: Seed of every workload's graph, Σ and partitioning.  Seeding those from
#: ``--seed`` made runs incomparable: across five graph seeds the median
#: social tick ranged from 1.0 to 10.2 s.  ``--seed`` drives the update
#: stream instead.
GRAPH_SEED = 0


def social_stream(seed: int, directory: Path) -> Inputs:
    graph = pokec_like(num_users=200, num_communities=8, seed=GRAPH_SEED)
    predicate = api.parse_predicate(POKEC_PREDICATE)
    rules = generate_gpars(graph, predicate, count=6, max_pattern_edges=4, d=2, seed=GRAPH_SEED)
    return _stream_inputs("social_stream", seed, directory, graph, predicate, rules, 150)


def sparse_stream(seed: int, directory: Path) -> Inputs:
    graph = synthetic_graph(4000, 12000, num_node_labels=8, num_edge_labels=4, seed=GRAPH_SEED)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = cached(
        directory.parent / "cache" / "sparse_rules",
        lambda: mined_rules(graph, predicate, GRAPH_SEED, k=16, sigma=2),
    )
    rules = rules + [census_twin(rules[0], predicate)]
    return _stream_inputs("sparse_stream", seed, directory, graph, predicate, rules, 400)


def _program_digest() -> str:
    """Hash of the program's source files."""
    import repro

    root = Path(repro.__file__).parent
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def cached(stem: Path, build):
    """*build()*'s value, reused by later runs on the same program source.

    Mining the sparse Σ takes about half as long as the stream it feeds is
    measured for; the cache keeps it out of every run but the first.  The key is the
    program's source, so a change to DMine mines afresh, and the pinned
    fingerprint still checks the result.
    """
    path = stem.with_name(f"{stem.name}-{_program_digest()}.pickle")
    if path.exists():
        return pickle.loads(path.read_bytes())
    value = build()
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    partial.write_bytes(pickle.dumps(value))
    partial.replace(path)
    return value


def _stream_inputs(name, seed, directory, graph, predicate, rules, count) -> Inputs:
    path, doc = _save(graph, directory)
    mirror = graph.copy()
    x_label = predicate.label(predicate.x)
    batches, centres = update_batches(mirror, count, random.Random(seed), x_label)
    inputs = Inputs(
        workload=name,
        seed=GRAPH_SEED,
        graph_path=path,
        predicate=predicate,
        rules=tuple(rules),
        batches=batches,
        centres=centres,
    )
    return _finish(inputs, doc)


def batch_mine_identify(seed: int, directory: Path) -> Inputs:
    """One pinned input set: the workload has no update stream to seed.

    The graph is small so that a run holds about eight jobs: on identical
    inputs one job's wall time varies by up to a fifth, with the process
    pool's routing of fragments to workers, and the median needs samples.
    """
    graph = pokec_like(num_users=100, num_communities=8, seed=GRAPH_SEED)
    predicate = api.parse_predicate(POKEC_PREDICATE)
    sampled = generate_gpars(graph, predicate, count=24, max_pattern_edges=4, d=2, seed=GRAPH_SEED)
    path, doc = _save(graph, directory)
    inputs = Inputs(
        workload="batch_mine_identify",
        seed=GRAPH_SEED,
        graph_path=path,
        predicate=predicate,
        rules=tuple(sampled),
        extra={"mine": {"k": 4, "sigma": 4}},
    )
    return _finish(inputs, doc)


#: Server-side tenant parameters: both tenants sample Σ from one seed, so
#: tenant B's 4 rules are the first 4 of tenant A's 6 and all of them share.
TENANTS = (("A", 6), ("B", 4))
SERVE_PERIOD_S = 3.0
SERVE_READ_RATE = 50.0


def serve_mixed(seed: int, directory: Path) -> Inputs:
    graph = pokec_like(num_users=100, num_communities=8, seed=GRAPH_SEED)
    predicate = api.parse_predicate(POKEC_PREDICATE)
    path, doc = _save(graph, directory)
    tenants = {
        name: generate_gpars(
            graph, predicate, count=count, max_pattern_edges=4, d=2, seed=GRAPH_SEED
        )
        for name, count in TENANTS
    }
    batches, centres = update_batches(
        graph.copy(), 20, random.Random(seed), predicate.label(predicate.x)
    )
    inputs = Inputs(
        workload="serve_mixed",
        seed=GRAPH_SEED,
        graph_path=path,
        predicate=predicate,
        rules=tuple(tenants["A"]),
        batches=batches,
        centres=centres,
        extra={"tenant_rules": {name: [rule_doc(r) for r in rules] for name, rules in tenants.items()}},
    )
    _finish(inputs, doc)
    inputs.extra["tenants"] = tenants
    return inputs


GENERATORS = {
    "social_stream": social_stream,
    "sparse_stream": sparse_stream,
    "batch_mine_identify": batch_mine_identify,
    "serve_mixed": serve_mixed,
}


def input_seed(workload: str, seed: int) -> int:
    """Which pinned input set *seed* selects for *workload*."""
    return 0 if workload == "batch_mine_identify" else seed % INPUT_SEEDS


def pinned() -> dict:
    if not FINGERPRINTS.exists():
        return {}
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
