"""Single-configuration runners used by the benchmark modules.

Each runner executes one (algorithm, workload, backend) configuration and
returns a measured row.  Rows carry both the *simulated* parallel time (the
deterministic max-worker-plus-coordinator model the paper's scaling figures
use) and the real wall-clock time; :func:`run_dmine_backends` /
:func:`run_eip_backends` run the same configuration on several execution
backends and annotate each row with its wall-clock speedup over the
sequential baseline, turning the fig5 scalability figures from simulations
into measurements.

Every row also records whether the run consumed the resident
:class:`repro.graph.index.FragmentIndex` (the ``index`` field of the JSON
output); :func:`run_matching_index_comparison` and
:func:`run_eip_index_comparison` run the same workload with the index on and
off and annotate the indexed rows with the measured ``index_speedup``, so
the index's effect is measured rather than asserted;
:func:`run_dmine_index_comparison` does the same for one DMine
configuration.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.bench.reporting import wall_speedups
from repro.graph.graph import Graph
from repro.graph.index import discard_index
from repro.identification import EIPConfig, identify_entities
from repro.matching import GuidedMatcher, SimulationMatcher, VF2Matcher
from repro.mining import DMine, DMineConfig
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern


def _digest(parts: Iterable[str]) -> str:
    """Short content hash of a result, for cross-backend equivalence gates."""
    return hashlib.sha1("\n".join(sorted(parts)).encode()).hexdigest()[:12]


def _eip_result_fingerprint(result) -> str:
    """One fingerprint for every EIP row family (identified + confidences).

    Shared by :func:`run_eip_config` and the streaming comparison so
    ``BENCH_*.json`` fingerprints stay comparable across families.
    """
    return _digest(
        [f"id:{entity}" for entity in map(str, result.identified)]
        + [
            f"{rule.name}|{round(confidence, 9)}"
            for rule, confidence in result.rule_confidences.items()
        ]
    )


@dataclass(frozen=True)
class DMineRow:
    """One measured point of a DMine series."""

    dataset: str
    algorithm: str
    parameter: str
    value: object
    simulated_parallel_time: float
    wall_time: float
    rules_discovered: int
    candidates_generated: int
    objective: float
    backend: str = "sequential"
    wall_speedup: float | None = None
    use_index: bool = True
    # Indexed wall-clock gain over the matching unindexed run (only set by
    # the index-comparison runners, on the indexed rows).
    index_speedup: float | None = None
    use_incremental: bool = True
    # Incremental wall-clock gain over the matching from-scratch run (only
    # set by the incremental-comparison runners, on the incremental rows).
    incremental_speedup: float | None = None
    # Content hash of the mined rule set (structure + support + confidence);
    # two rows with equal fingerprints mined *the same rules*, not merely
    # the same number of rules.
    fingerprint: str = ""

    def as_dict(self) -> dict:
        row = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            self.parameter: self.value,
            "backend": self.backend,
            "index": "on" if self.use_index else "off",
            "incremental": "on" if self.use_incremental else "off",
            "sim_parallel_s": round(self.simulated_parallel_time, 3),
            "wall_s": round(self.wall_time, 3),
            "rules": self.rules_discovered,
            "candidates": self.candidates_generated,
            "F(Lk)": round(self.objective, 3),
            "fingerprint": self.fingerprint,
        }
        if self.wall_speedup is not None:
            row["wall_speedup"] = round(self.wall_speedup, 2)
        if self.index_speedup is not None:
            row["index_speedup"] = round(self.index_speedup, 2)
        if self.incremental_speedup is not None:
            row["incremental_speedup"] = round(self.incremental_speedup, 2)
        return row


@dataclass(frozen=True)
class EIPRow:
    """One measured point of a Match/Matchc/disVF2 series."""

    dataset: str
    algorithm: str
    parameter: str
    value: object
    simulated_parallel_time: float
    wall_time: float
    identified: int
    candidates_examined: int
    backend: str = "sequential"
    wall_speedup: float | None = None
    use_index: bool = True
    index_speedup: float | None = None
    use_incremental: bool = True
    incremental_speedup: float | None = None
    # Prefix-trie pool applications summed over all fragments; the
    # incremental smoke gate requires > 0 on incremental-on rows (proof the
    # shared-prefix path ran, census-split rules included).
    prefix_pool_hits: int = 0
    # Content hash of the identified entities + per-rule confidences.
    fingerprint: str = ""

    def as_dict(self) -> dict:
        row = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            self.parameter: self.value,
            "backend": self.backend,
            "index": "on" if self.use_index else "off",
            "incremental": "on" if self.use_incremental else "off",
            "sim_parallel_s": round(self.simulated_parallel_time, 3),
            "wall_s": round(self.wall_time, 3),
            "identified": self.identified,
            "checks": self.candidates_examined,
            "prefix_hits": self.prefix_pool_hits,
            "fingerprint": self.fingerprint,
        }
        if self.wall_speedup is not None:
            row["wall_speedup"] = round(self.wall_speedup, 2)
        if self.index_speedup is not None:
            row["index_speedup"] = round(self.index_speedup, 2)
        if self.incremental_speedup is not None:
            row["incremental_speedup"] = round(self.incremental_speedup, 2)
        return row


# Benchmark-sized mining defaults: small enough that a full sweep finishes in
# minutes, large enough that the optimisation effects are visible.
MINING_DEFAULTS = dict(
    k=4,
    d=2,
    lam=0.5,
    max_edges=2,
    max_extensions_per_rule=8,
    max_rules_per_round=30,
)


def run_dmine_config(
    dataset: str,
    graph: Graph,
    predicate: Pattern,
    num_workers: int,
    sigma: int,
    optimized: bool = True,
    parameter: str = "n",
    value: object = None,
    backend: str = "sequential",
    executor_workers: int | None = None,
    use_index: bool = True,
    use_incremental: bool = True,
    **overrides,
) -> DMineRow:
    """Run one DMine / DMineno configuration and return its measured row."""
    settings = {**MINING_DEFAULTS, **overrides}
    config = DMineConfig(
        num_workers=num_workers,
        sigma=sigma,
        backend=backend,
        executor_workers=executor_workers,
        use_index=use_index,
        use_incremental=use_incremental,
        **settings,
    )
    if not optimized:
        config = config.without_optimizations()
    result = DMine(config).mine(graph, predicate)
    return DMineRow(
        dataset=dataset,
        algorithm="DMine" if optimized else "DMineno",
        parameter=parameter,
        value=value if value is not None else num_workers,
        simulated_parallel_time=result.timings.simulated_parallel_time,
        wall_time=result.timings.wall_time,
        rules_discovered=result.num_rules_discovered,
        candidates_generated=result.candidates_generated,
        objective=result.objective_value,
        backend=config.backend,
        use_index=use_index,
        use_incremental=use_incremental,
        fingerprint=_digest(
            f"{canonical_code(rule.pr_pattern())}|{info.support}|{round(info.confidence, 9)}"
            for rule, info in result.all_rules.items()
        ),
    )


def run_eip_config(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    algorithm: str,
    eta: float = 1.0,
    parameter: str = "n",
    value: object = None,
    backend: str = "sequential",
    executor_workers: int | None = None,
    use_index: bool = True,
    use_incremental: bool = True,
) -> EIPRow:
    """Run one Match / Matchc / disVF2 configuration and return its row."""
    result = identify_entities(
        graph,
        list(rules),
        eta=eta,
        num_workers=num_workers,
        algorithm=algorithm,
        backend=backend,
        executor_workers=executor_workers,
        use_index=use_index,
        use_incremental=use_incremental,
    )
    return EIPRow(
        dataset=dataset,
        algorithm=algorithm,
        parameter=parameter,
        value=value if value is not None else num_workers,
        simulated_parallel_time=result.timings.simulated_parallel_time,
        wall_time=result.timings.wall_time,
        identified=len(result.identified),
        candidates_examined=result.candidates_examined,
        backend=backend,
        use_index=use_index,
        use_incremental=use_incremental,
        prefix_pool_hits=result.prefix_pool_hits,
        fingerprint=_eip_result_fingerprint(result),
    )


def _annotate_speedups(rows: Sequence) -> list:
    """Fill ``wall_speedup`` on *rows* relative to their sequential row."""
    speedups = wall_speedups(rows)
    return [replace(row, wall_speedup=speedups.get(row.backend)) for row in rows]


def run_dmine_backends(
    dataset: str,
    graph: Graph,
    predicate: Pattern,
    num_workers: int,
    sigma: int,
    backends: Sequence[str] = ("sequential", "processes"),
    executor_workers: int | None = None,
    **overrides,
) -> list[DMineRow]:
    """Run one DMine configuration on several backends.

    Returns one row per backend, each annotated with the real wall-clock
    speedup over the sequential run (the sequential baseline is added
    automatically when missing).
    """
    names = list(backends)
    if "sequential" not in names:
        names.insert(0, "sequential")
    rows = [
        run_dmine_config(
            dataset,
            graph,
            predicate,
            num_workers,
            sigma,
            parameter="backend",
            value=name,
            backend=name,
            executor_workers=executor_workers,
            **overrides,
        )
        for name in names
    ]
    return _annotate_speedups(rows)


def run_eip_backends(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    algorithm: str,
    eta: float = 1.0,
    backends: Sequence[str] = ("sequential", "processes"),
    executor_workers: int | None = None,
) -> list[EIPRow]:
    """Run one EIP configuration on several backends (see :func:`run_dmine_backends`)."""
    names = list(backends)
    if "sequential" not in names:
        names.insert(0, "sequential")
    rows = [
        run_eip_config(
            dataset,
            graph,
            rules,
            num_workers,
            algorithm,
            eta=eta,
            parameter="backend",
            value=name,
            backend=name,
            executor_workers=executor_workers,
        )
        for name in names
    ]
    return _annotate_speedups(rows)


# ----------------------------------------------------------------------
# indexed-vs-unindexed comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MatchingRow:
    """One measured point of an indexed-vs-unindexed matching series.

    Measures the paper's matching hot path in isolation: *reps* batches of
    anchored ``match_set`` queries over one resident graph, each batch served
    by a freshly constructed matcher (exactly what one EIP/DMine call does).
    Unindexed batches (the reference path) re-derive label pools, adjacency
    profiles and k-hop sketches from the raw graph; indexed batches probe the
    resident :class:`~repro.graph.index.FragmentIndex` and its kernel.
    """

    dataset: str
    algorithm: str  # matcher kind: "vf2" | "guided"
    parameter: str
    value: object
    wall_time: float
    patterns_matched: int
    total_matches: int
    use_index: bool = True
    index_speedup: float | None = None
    backend: str = "in-process"
    fingerprint: str = ""

    def as_dict(self) -> dict:
        row = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            self.parameter: self.value,
            "backend": self.backend,
            "index": "on" if self.use_index else "off",
            "wall_s": round(self.wall_time, 3),
            "patterns": self.patterns_matched,
            "matches": self.total_matches,
            "fingerprint": self.fingerprint,
        }
        if self.index_speedup is not None:
            row["index_speedup"] = round(self.index_speedup, 2)
        return row


def _matcher_for(kind: str, use_index: bool):
    if kind == "guided":
        return GuidedMatcher(use_index=use_index)
    if kind == "vf2":
        return VF2Matcher(use_index=use_index)
    if kind == "simulation":
        return SimulationMatcher(use_index=use_index)
    raise ValueError(
        f"unknown matcher kind {kind!r}; expected 'vf2', 'guided' or 'simulation'"
    )


def run_matching_traffic(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    kind: str,
    use_index: bool,
    reps: int = 3,
    parameter: str = "index",
    value: object = None,
) -> MatchingRow:
    """Run *reps* fresh-matcher batches of match-set queries; return one row.

    Each batch computes ``Q(x, G)`` for every rule's antecedent and PR
    pattern with a newly constructed matcher, modelling *reps* successive
    algorithm calls against the same resident fragment.  The graph's
    registered index is dropped first so each indexed run pays its own
    build.
    """
    patterns: list[Pattern] = []
    for rule in rules:
        patterns.append(rule.antecedent)
        patterns.append(rule.pr_pattern())
    discard_index(graph)
    match_counts: list[str] = []
    total_matches = 0
    started = time.perf_counter()
    for _ in range(reps):
        matcher = _matcher_for(kind, use_index)
        for position, pattern in enumerate(patterns):
            matches = matcher.match_set(graph, pattern)
            total_matches += len(matches)
            match_counts.append(
                f"{position}|{len(matches)}|{'/'.join(sorted(map(str, matches)))}"
            )
    elapsed = time.perf_counter() - started
    if value is None:
        value = "on" if use_index else "off"
    return MatchingRow(
        dataset=dataset,
        algorithm=kind,
        parameter=parameter,
        value=value,
        wall_time=elapsed,
        patterns_matched=len(patterns) * reps,
        total_matches=total_matches,
        use_index=use_index,
        fingerprint=_digest(match_counts),
    )


def run_matching_index_comparison(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    kinds: Sequence[str] = ("vf2", "guided", "simulation"),
    reps: int = 3,
) -> list[MatchingRow]:
    """Indexed-vs-unindexed matching comparison for each matcher kind.

    Returns two rows per kind (reference path, then resident index); the
    indexed row carries ``index_speedup`` = unindexed wall time / indexed
    wall time.  Raises ``AssertionError`` if any kind's match sets differ
    between the modes.
    """
    rows: list[MatchingRow] = []
    for kind in kinds:
        unindexed = run_matching_traffic(
            dataset, graph, rules, kind, use_index=False, reps=reps
        )
        indexed = run_matching_traffic(
            dataset, graph, rules, kind, use_index=True, reps=reps
        )
        if indexed.fingerprint != unindexed.fingerprint:
            raise AssertionError(
                f"indexed {kind} matching diverged from unindexed: "
                f"{indexed.fingerprint} != {unindexed.fingerprint}"
            )
        speedup = unindexed.wall_time / indexed.wall_time if indexed.wall_time else float("inf")
        rows.append(unindexed)
        rows.append(replace(indexed, index_speedup=speedup))
    return rows


def _run_onoff_comparison(
    run_one, backends: Sequence[str], speedup_field: str, diverged_label: str
) -> list:
    """Shared off/on-per-backend comparison shape of the smoke gates.

    ``run_one(backend, enabled)`` produces one measured row; for every
    backend the off row is emitted first and the on row is annotated with
    *speedup_field* = off wall time / on wall time.  All ``2 × |backends|``
    rows must carry one identical result fingerprint.
    """
    rows: list = []
    for backend in backends:
        off_row = run_one(backend, False)
        on_row = run_one(backend, True)
        speedup = (
            off_row.wall_time / on_row.wall_time if on_row.wall_time else float("inf")
        )
        rows.append(off_row)
        rows.append(replace(on_row, **{speedup_field: speedup}))
    fingerprints = {row.fingerprint for row in rows}
    if len(fingerprints) > 1:
        raise AssertionError(
            f"{diverged_label} results diverged across backends/modes: "
            f"{sorted(fingerprints)}"
        )
    return rows


def run_eip_index_comparison(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    algorithm: str = "match",
    eta: float = 1.0,
    backends: Sequence[str] = ("sequential", "threads", "processes"),
    executor_workers: int | None = None,
) -> list[EIPRow]:
    """Run one EIP configuration with the index off and on, per backend.

    The cross-backend × cross-mode equivalence gate of the index smoke: all
    2 × len(backends) rows must carry the same result fingerprint.  Indexed
    rows are annotated with their backend's ``index_speedup``.
    """

    def run_one(backend: str, enabled: bool) -> EIPRow:
        return run_eip_config(
            dataset,
            graph,
            rules,
            num_workers,
            algorithm,
            eta=eta,
            parameter="backend",
            value=backend,
            backend=backend,
            executor_workers=executor_workers,
            use_index=enabled,
        )

    return _run_onoff_comparison(run_one, backends, "index_speedup", "EIP (index)")


def run_dmine_index_comparison(
    dataset: str,
    graph: Graph,
    predicate: Pattern,
    num_workers: int,
    sigma: int,
    backends: Sequence[str] = ("sequential", "threads", "processes"),
    executor_workers: int | None = None,
    **overrides,
) -> list[DMineRow]:
    """Run one DMine configuration with the index off and on, per backend.

    All ``2 × len(backends)`` rows must mine the same rule fingerprint;
    indexed rows carry ``index_speedup`` = reference-path wall time /
    indexed wall time on their backend.
    """

    def run_one(backend: str, enabled: bool) -> DMineRow:
        return run_dmine_config(
            dataset,
            graph,
            predicate,
            num_workers,
            sigma,
            parameter="backend",
            value=backend,
            backend=backend,
            executor_workers=executor_workers,
            use_index=enabled,
            **overrides,
        )

    return _run_onoff_comparison(run_one, backends, "index_speedup", "DMine (index)")


# ----------------------------------------------------------------------
# incremental-vs-from-scratch comparison
# ----------------------------------------------------------------------
def run_dmine_incremental_comparison(
    dataset: str,
    graph: Graph,
    predicate: Pattern,
    num_workers: int,
    sigma: int,
    backends: Sequence[str] = ("sequential", "threads", "processes"),
    executor_workers: int | None = None,
    **overrides,
) -> list[DMineRow]:
    """Run one DMine configuration incremental-off and -on, per backend.

    The cross-backend × cross-mode equivalence gate of the incremental
    smoke: all ``2 × len(backends)`` rows must mine the same rule
    fingerprint.  Incremental rows carry ``incremental_speedup`` =
    from-scratch wall time / incremental wall time on their backend.
    """

    def run_one(backend: str, enabled: bool) -> DMineRow:
        return run_dmine_config(
            dataset,
            graph,
            predicate,
            num_workers,
            sigma,
            parameter="backend",
            value=backend,
            backend=backend,
            executor_workers=executor_workers,
            use_incremental=enabled,
            **overrides,
        )

    return _run_onoff_comparison(
        run_one, backends, "incremental_speedup", "DMine (incremental)"
    )


def run_eip_incremental_comparison(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    algorithm: str = "match",
    eta: float = 1.0,
    backends: Sequence[str] = ("sequential", "threads", "processes"),
    executor_workers: int | None = None,
) -> list[EIPRow]:
    """Run one EIP configuration incremental-off and -on, per backend.

    Gates on one identical result fingerprint across every backend × mode;
    incremental (prefix-trie) rows carry their ``incremental_speedup``.
    """

    def run_one(backend: str, enabled: bool) -> EIPRow:
        return run_eip_config(
            dataset,
            graph,
            rules,
            num_workers,
            algorithm,
            eta=eta,
            parameter="backend",
            value=backend,
            backend=backend,
            executor_workers=executor_workers,
            use_incremental=enabled,
        )

    return _run_onoff_comparison(
        run_one, backends, "incremental_speedup", "EIP (incremental)"
    )


# ----------------------------------------------------------------------
# streaming repair-vs-recompute comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamRow:
    """One measured point of a streaming repair-vs-recompute series.

    ``mode`` is ``"recompute"`` (from-scratch run after every batch — what a
    static pipeline pays) or ``"repair"`` (a
    :class:`repro.stream.StreamingIdentifier` /
    :class:`repro.stream.MaintainedMatchView` maintained across the same
    batches).  ``wall_time`` sums over all batches; the repair rows carry
    ``repair_speedup`` = recompute wall / repair wall on their backend.
    ``fingerprint`` hashes the *final* result, so a repair row diverging
    from its recompute twin fails the smoke gate loudly.
    """

    dataset: str
    algorithm: str
    parameter: str
    value: object
    mode: str
    wall_time: float
    batches: int
    rechecked: int
    identified: int
    backend: str = "sequential"
    repair_speedup: float | None = None
    fingerprint: str = ""

    def as_dict(self) -> dict:
        row = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            self.parameter: self.value,
            "backend": self.backend,
            "mode": self.mode,
            "wall_s": round(self.wall_time, 3),
            "batches": self.batches,
            "rechecked": self.rechecked,
            "identified": self.identified,
            "fingerprint": self.fingerprint,
        }
        if self.repair_speedup is not None:
            row["repair_speedup"] = round(self.repair_speedup, 2)
        return row


def sample_update_batches(
    graph: Graph, count: int, size: int, seed: int = 0, deletion_bias: float = 0.0
) -> list:
    """*count* batches, each valid against the state the previous ones left.

    Sampled once against a scratch copy so every backend/mode of a
    comparison replays the **same** update sequence.  *deletion_bias*
    forwards to :func:`repro.stream.random_update_batch` (deletion-heavy
    churn workloads).
    """
    from repro.stream import random_update_batch

    scratch = graph.copy()
    batches = []
    for position in range(count):
        batch = random_update_batch(
            scratch,
            size=size,
            seed=seed * 1000 + position,
            deletion_bias=deletion_bias,
        )
        batch.apply(scratch)
        batches.append(batch)
    return batches


def run_eip_stream_comparison(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    algorithm: str = "match",
    eta: float = 1.0,
    backends: Sequence[str] = ("sequential", "threads", "processes"),
    executor_workers: int | None = None,
    num_batches: int = 4,
    batch_size: int = 8,
    seed: int = 0,
) -> list[StreamRow]:
    """Streaming EIP maintenance vs from-scratch recompute, per backend.

    Replays one sampled update sequence in both modes on every backend.
    After **each** batch the maintained result must carry the same
    fingerprint as a fresh ``identify_entities`` run on the mutated graph
    (raising ``AssertionError`` otherwise); the repair rows report the
    wall-clock of `StreamingIdentifier.apply` summed over the sequence
    against the recompute rows' per-batch full runs.
    """
    from repro.stream import StreamingIdentifier

    batches = sample_update_batches(graph, num_batches, batch_size, seed=seed)
    rows: list[StreamRow] = []
    for backend in backends:
        # Mode 1: recompute after every batch (the static pipeline's cost).
        recompute_graph = graph.copy()
        recompute_wall = 0.0
        recompute_result = None
        for batch in batches:
            batch.apply(recompute_graph)
            started = time.perf_counter()
            recompute_result = identify_entities(
                recompute_graph,
                list(rules),
                eta=eta,
                num_workers=num_workers,
                algorithm=algorithm,
                backend=backend,
                executor_workers=executor_workers,
            )
            recompute_wall += time.perf_counter() - started
        recompute_row = StreamRow(
            dataset=dataset,
            algorithm=algorithm,
            parameter="backend",
            value=backend,
            mode="recompute",
            wall_time=recompute_wall,
            batches=len(batches),
            rechecked=0,
            identified=len(recompute_result.identified),
            backend=backend,
            fingerprint=_eip_result_fingerprint(recompute_result),
        )

        # Mode 2: one StreamingIdentifier maintained across the sequence.
        stream_graph = graph.copy()
        repair_wall = 0.0
        rechecked = 0
        with StreamingIdentifier(
            stream_graph,
            rules,
            config=EIPConfig(
                eta=eta,
                num_workers=num_workers,
                backend=backend,
                executor_workers=executor_workers,
            ),
            algorithm=algorithm,
        ) as identifier:
            for batch in batches:
                update_report = identifier.apply(batch)
                repair_wall += update_report.wall_time
                rechecked += update_report.rechecked_centers
                maintained = _eip_result_fingerprint(identifier.result)
                fresh = _eip_result_fingerprint(identifier.recompute())
                if maintained != fresh:
                    raise AssertionError(
                        f"streaming repair diverged from recompute on "
                        f"{backend}: {maintained} != {fresh}"
                    )
            stream_result = identifier.result
        repair_row = StreamRow(
            dataset=dataset,
            algorithm=algorithm,
            parameter="backend",
            value=backend,
            mode="repair",
            wall_time=repair_wall,
            batches=len(batches),
            rechecked=rechecked,
            identified=len(stream_result.identified),
            backend=backend,
            repair_speedup=(
                recompute_wall / repair_wall if repair_wall else float("inf")
            ),
            fingerprint=_eip_result_fingerprint(stream_result),
        )
        if repair_row.fingerprint != recompute_row.fingerprint:
            raise AssertionError(
                f"streaming repair diverged from recompute on {backend}: "
                f"{repair_row.fingerprint} != {recompute_row.fingerprint}"
            )
        rows.append(recompute_row)
        rows.append(repair_row)
    return rows


# ----------------------------------------------------------------------
# deletion-heavy churn: resident-size trajectory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnRow:
    """One batch of a deletion-heavy streaming run (resident-size trajectory).

    The churn bench answers a different question than the repair-speedup
    rows: does resident fragment state (graphs + update logs) stay
    *bounded* when the workload keeps deleting?  Each row records the
    authoritative graph size, the coordinator's total resident node count
    and retained log operations, and the lifecycle actions of the batch.
    """

    dataset: str
    batch: int
    graph_nodes: int
    graph_edges: int
    resident_nodes: int
    log_ops: int
    rechecked: int
    shed: int
    migrated: int
    compacted: int
    wall_time: float
    backend: str = "sequential"
    fingerprint: str = ""

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "batch": self.batch,
            "backend": self.backend,
            "graph_nodes": self.graph_nodes,
            "graph_edges": self.graph_edges,
            "resident_nodes": self.resident_nodes,
            "log_ops": self.log_ops,
            "rechecked": self.rechecked,
            "shed": self.shed,
            "migrated": self.migrated,
            "compacted": self.compacted,
            "wall_s": round(self.wall_time, 3),
            "fingerprint": self.fingerprint,
        }


def run_stream_churn(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    num_batches: int = 50,
    batch_size: int = 16,
    deletion_bias: float = 0.7,
    eta: float = 1.0,
    algorithm: str = "match",
    seed: int = 0,
    stream_config=None,
) -> list[ChurnRow]:
    """Deletion-heavy maintenance run recording resident size per batch.

    A single :class:`~repro.stream.StreamingIdentifier` absorbs
    *num_batches* deletion-biased batches (each sampled against the live
    graph, so the sequence stays valid as the graph shrinks).  After the
    final batch the maintained answer is gate-checked byte-identical to a
    from-scratch recompute; the per-batch rows feed the resident-size
    bounded gate of the smoke runner (``BENCH_stream_churn.json``).
    """
    from repro.stream import StreamingIdentifier, random_update_batch

    live = graph.copy()
    rows: list[ChurnRow] = []
    with StreamingIdentifier(
        live,
        rules,
        config=EIPConfig(eta=eta, num_workers=num_workers),
        algorithm=algorithm,
        stream_config=stream_config,
    ) as identifier:
        for position in range(num_batches):
            batch = random_update_batch(
                live,
                size=batch_size,
                seed=seed * 1000 + position,
                deletion_bias=deletion_bias,
            )
            update_report = identifier.apply(batch)
            rows.append(
                ChurnRow(
                    dataset=dataset,
                    batch=position + 1,
                    graph_nodes=live.num_nodes,
                    graph_edges=live.num_edges,
                    resident_nodes=update_report.resident_nodes,
                    log_ops=update_report.log_ops,
                    rechecked=update_report.rechecked_centers,
                    shed=update_report.shed_nodes,
                    migrated=update_report.migrated_centers,
                    compacted=update_report.compacted_fragments,
                    wall_time=update_report.wall_time,
                    fingerprint=_eip_result_fingerprint(identifier.result),
                )
            )
        maintained = _eip_result_fingerprint(identifier.result)
        fresh = _eip_result_fingerprint(identifier.recompute())
        if maintained != fresh:
            raise AssertionError(
                f"churn run diverged from recompute after {num_batches} "
                f"batches: {maintained} != {fresh}"
            )
    return rows


# ----------------------------------------------------------------------
# lifecycle: checkpoint → restart → byte-identical answers
# ----------------------------------------------------------------------
def run_lifecycle_roundtrip(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    backends: Sequence[str] = ("sequential", "threads", "processes"),
    executor_workers: int | None = None,
    num_batches: int = 3,
    batch_size: int = 8,
    eta: float = 1.0,
    algorithm: str = "match",
    seed: int = 0,
) -> list[StreamRow]:
    """Checkpoint/restart round-trip gate, per backend.

    For every backend: maintain a :class:`~repro.stream.StreamingIdentifier`
    across the sampled sequence, ``save_state`` it, ``restore`` onto the
    same backend, and require (a) the restored answer byte-identical to the
    checkpointed one and (b) one further batch applied post-restart
    byte-identical to a from-scratch recompute.  A maintained
    :class:`~repro.stream.MaintainedMatchView` round-trips alongside (graph
    pickled, view re-materialised, match sets compared).  Raises
    ``AssertionError`` on any divergence.
    """
    import pickle
    import tempfile
    from pathlib import Path

    from repro.matching import VF2Matcher
    from repro.stream import MaintainedMatchView, StreamingIdentifier

    batches = sample_update_batches(graph, num_batches + 1, batch_size, seed=seed)
    rows: list[StreamRow] = []
    for backend in backends:
        stream_graph = graph.copy()
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            with StreamingIdentifier(
                stream_graph,
                rules,
                config=EIPConfig(
                    eta=eta,
                    num_workers=num_workers,
                    backend=backend,
                    executor_workers=executor_workers,
                ),
                algorithm=algorithm,
            ) as identifier:
                for batch in batches[:num_batches]:
                    identifier.apply(batch)
                checkpointed = _eip_result_fingerprint(identifier.result)
                identified = len(identifier.result.identified)
                state_path = identifier.save_state(Path(scratch) / "state.pkl")
            rows.append(
                StreamRow(
                    dataset=dataset,
                    algorithm=algorithm,
                    parameter="backend",
                    value=backend,
                    mode="checkpointed",
                    wall_time=time.perf_counter() - started,
                    batches=num_batches,
                    rechecked=0,
                    identified=identified,
                    backend=backend,
                    fingerprint=checkpointed,
                )
            )
            started = time.perf_counter()
            with StreamingIdentifier.restore(state_path, backend=backend) as restored:
                restored_fingerprint = _eip_result_fingerprint(restored.result)
                if restored_fingerprint != checkpointed:
                    raise AssertionError(
                        f"lifecycle restore diverged on {backend}: "
                        f"{restored_fingerprint} != {checkpointed}"
                    )
                restored.apply(batches[num_batches])
                continued = _eip_result_fingerprint(restored.result)
                fresh = _eip_result_fingerprint(restored.recompute())
                if continued != fresh:
                    raise AssertionError(
                        f"post-restart apply diverged on {backend}: "
                        f"{continued} != {fresh}"
                    )
                identified = len(restored.result.identified)
            rows.append(
                StreamRow(
                    dataset=dataset,
                    algorithm=algorithm,
                    parameter="backend",
                    value=backend,
                    mode="restored",
                    wall_time=time.perf_counter() - started,
                    batches=1,
                    rechecked=0,
                    identified=identified,
                    backend=backend,
                    fingerprint=restored_fingerprint,
                )
            )

    # Maintained match sets round-trip.  Embedding streams hold suspended
    # generators and cannot cross a pickle boundary, so a view restarts by
    # re-materialising from the serialized graph; the gate therefore
    # compares the *repair-maintained* view (its store patched across every
    # batch) against that post-restart rebuild — catching both graph
    # serialization drift and repaired-store divergence.
    view_graph = graph.copy()
    patterns = [rule.pr_pattern() for rule in rules]
    view = MaintainedMatchView(view_graph, patterns, VF2Matcher())
    for batch in batches[:num_batches]:
        view.apply(batch)  # repairs the store in place
    before = [sorted(map(str, view.match_set(pattern))) for pattern in patterns]
    assert view.store.statistics.repaired_entries > 0 or num_batches == 0
    revived_graph = pickle.loads(pickle.dumps(view_graph))
    if not revived_graph.structure_equal(view_graph):
        raise AssertionError("graph serialization drifted across the round-trip")
    revived = MaintainedMatchView(revived_graph, patterns, VF2Matcher())
    after = [sorted(map(str, revived.match_set(pattern))) for pattern in patterns]
    if before != after:
        raise AssertionError("maintained match view diverged across a round-trip")
    return rows


# ----------------------------------------------------------------------
# serving: concurrent readers under update pressure, over real HTTP
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeRow:
    """One measured serve-load run (the ``serve`` smoke family).

    *clients* reader threads paginate ``GET /answer`` in a loop while one
    writer POSTs the sampled update sequence; the run gates **in-line** on
    the serving contract — every pagination pass sees exactly one
    ``graph_version`` (``torn_reads`` must be 0), every update response's
    delta and the subscription replay are byte-identical to the
    set-difference of fresh recomputes on a mirror graph — and reports the
    read-latency distribution and tick throughput as the trajectory.
    """

    dataset: str
    parameter: str
    value: object
    clients: int
    batches: int
    reads: int
    read_p50_ms: float
    read_p99_ms: float
    ticks_per_sec: float
    torn_reads: int
    wall_time: float
    backend: str = "http"
    fingerprint: str = ""

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            self.parameter: self.value,
            "backend": self.backend,
            "clients": self.clients,
            "batches": self.batches,
            "reads": self.reads,
            "read_p50_ms": round(self.read_p50_ms, 2),
            "read_p99_ms": round(self.read_p99_ms, 2),
            "ticks_per_sec": round(self.ticks_per_sec, 2),
            "torn_reads": self.torn_reads,
            "wall_s": round(self.wall_time, 3),
            "fingerprint": self.fingerprint,
        }


def _http_json(method: str, url: str, body: dict | None = None, timeout: float = 120.0):
    """One JSON request on a throwaway connection (``Connection: close``).

    The load generators below hold a :class:`_KeepAliveClient` instead —
    this stays for one-shot pings where connection reuse buys nothing.
    """
    import json
    import urllib.request

    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class _KeepAliveClient:
    """One persistent HTTP/1.1 connection to the bench's loopback server.

    ``repro.serve`` keeps connections open between requests, so a reader
    thread paginating in a loop pays the TCP handshake once, not per page.
    Not thread-safe by design — every load thread owns its own client.  A
    request that finds the socket closed (the server's idle timeout, or a
    restart between calls) reconnects and retries once.
    """

    def __init__(self, base_url: str, timeout: float = 120.0) -> None:
        import http.client
        from urllib.parse import urlsplit

        split = urlsplit(base_url)
        self._connection = http.client.HTTPConnection(
            split.hostname or "127.0.0.1", split.port, timeout=timeout
        )

    def request(self, method: str, path: str, body: dict | None = None) -> dict:
        import http.client
        import json

        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        for attempt in (0, 1):
            try:
                self._connection.request(method, path, body=data, headers=headers)
                response = self._connection.getresponse()
                payload = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                self._connection.close()  # stale socket: reconnect and retry once
                if attempt:
                    raise
        if response.status >= 400:
            raise AssertionError(
                f"{method} {path} failed with {response.status}: {payload.decode('utf-8', 'replace')}"
            )
        return json.loads(payload.decode("utf-8"))

    def close(self) -> None:
        self._connection.close()


def run_serve_load(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    session_request: dict,
    clients: int = 8,
    num_batches: int = 3,
    batch_size: int = 8,
    seed: int = 0,
    page_limit: int = 50,
) -> list[ServeRow]:
    """Concurrent readers × update pressure against a real ``repro.serve``.

    Starts a loopback :class:`repro.serve.BackgroundServer`, creates one
    session from *session_request* (whose rule-generation parameters must
    reproduce *rules* — checked by name), then runs *clients* reader
    threads paginating the answer while a writer applies the sampled
    update sequence over HTTP.  Raises ``AssertionError`` if any pagination
    pass mixes graph versions (a torn read), if any update's delta differs
    from the set-difference of fresh recomputes on a mirror graph, or if
    the subscription replay of the whole run is not byte-identical to
    those recomputed deltas.
    """
    import json
    import threading

    from repro import api
    from repro.graph.io import graph_to_dict
    from repro.serve import BackgroundServer

    batches = sample_update_batches(graph, num_batches, batch_size, seed=seed)
    mirror_config = EIPConfig(
        eta=session_request.get("eta", 1.0),
        num_workers=session_request.get("workers", 4),
        seed=session_request.get("seed", 0),
    )

    latencies: list[float] = []
    torn_passes = [0]
    reads = [0]
    reader_errors: list[BaseException] = []
    record_lock = threading.Lock()
    stop = threading.Event()
    run_started = time.perf_counter()

    with BackgroundServer(executor_workers=clients + 4) as server:
        writer = _KeepAliveClient(server.base_url)
        created = writer.request(
            "POST",
            "/sessions",
            {**session_request, "graph": graph_to_dict(graph)},
        )
        if created["rules"] != [rule.name for rule in rules]:
            raise AssertionError(
                f"server regenerated a different rule set: {created['rules']} "
                f"!= {[rule.name for rule in rules]}"
            )
        session_path = f"/sessions/{created['session']}"

        def read_loop() -> None:
            # One iteration = one full pagination pass; the pass must see a
            # single graph_version even while update ticks land.  Each reader
            # holds one keep-alive connection for its whole lifetime.
            client = _KeepAliveClient(server.base_url)
            try:
                while not stop.is_set():
                    pinned_version = None
                    cursor = None
                    while True:
                        query = f"?limit={page_limit}"
                        if cursor is not None:
                            query += f"&cursor={cursor}"
                        started = time.perf_counter()
                        page = client.request("GET", f"{session_path}/answer{query}")
                        elapsed_ms = (time.perf_counter() - started) * 1000.0
                        with record_lock:
                            latencies.append(elapsed_ms)
                            reads[0] += 1
                        if pinned_version is None:
                            pinned_version = page["graph_version"]
                        elif page["graph_version"] != pinned_version:
                            with record_lock:
                                torn_passes[0] += 1
                        cursor = page.get("next_cursor")
                        if not cursor:
                            break
            except BaseException as exc:  # surfaced after join
                reader_errors.append(exc)
            finally:
                client.close()

        readers = [
            threading.Thread(target=read_loop, name=f"serve-reader-{index}", daemon=True)
            for index in range(clients)
        ]
        for thread in readers:
            thread.start()

        # Writer: apply the sequence over HTTP while mirroring each tick
        # with a fresh recompute; every delta must be the recomputes'
        # set-difference, byte for byte.
        mirror = graph.copy()
        fresh_before = api.identify(mirror, rules, mirror_config)
        baseline_version = writer.request("GET", f"{session_path}/subscribe")["resume_from"]
        expected_deltas: list[dict] = []
        tick_wall = 0.0
        try:
            for position, batch in enumerate(batches):
                started = time.perf_counter()
                response = writer.request(
                    "POST",
                    f"{session_path}/updates",
                    {"ops": [op.as_dict() for op in batch.ops]},
                )
                tick_wall += time.perf_counter() - started
                batch.apply(mirror)
                fresh_after = api.identify(mirror, rules, mirror_config)
                expected = api.diff_results(
                    fresh_before,
                    fresh_after,
                    response["base_version"],
                    response["graph_version"],
                ).as_dict()
                if json.dumps(response["delta"], sort_keys=True) != json.dumps(
                    expected, sort_keys=True
                ):
                    raise AssertionError(
                        f"batch {position + 1}: served delta diverged from the "
                        f"fresh-recompute set-difference:\n  served   "
                        f"{json.dumps(response['delta'], sort_keys=True)}\n  expected "
                        f"{json.dumps(expected, sort_keys=True)}"
                    )
                expected_deltas.append(expected)
                fresh_before = fresh_after

            replayed = writer.request(
                "GET", f"{session_path}/subscribe?since={baseline_version}&timeout=5"
            )
            if json.dumps(replayed["deltas"], sort_keys=True) != json.dumps(
                expected_deltas, sort_keys=True
            ):
                raise AssertionError(
                    "subscription replay diverged from the per-tick recompute deltas"
                )
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            writer.close()

    if reader_errors:
        raise AssertionError(f"concurrent reader failed: {reader_errors[0]!r}") from (
            reader_errors[0]
        )
    if torn_passes[0]:
        raise AssertionError(
            f"{torn_passes[0]} pagination passes observed a torn (mixed-version) answer"
        )
    if not latencies:
        raise AssertionError("readers recorded no requests — load never ran")
    ordered = sorted(latencies)
    row = ServeRow(
        dataset=dataset,
        parameter="clients",
        value=clients,
        clients=clients,
        batches=len(batches),
        reads=reads[0],
        read_p50_ms=ordered[int(0.50 * (len(ordered) - 1))],
        read_p99_ms=ordered[int(0.99 * (len(ordered) - 1))],
        ticks_per_sec=len(batches) / tick_wall if tick_wall else float("inf"),
        torn_reads=torn_passes[0],
        wall_time=time.perf_counter() - run_started,
        fingerprint=_eip_result_fingerprint(fresh_before),
    )
    return [row]


# ----------------------------------------------------------------------
# multi-tenant serving: cross-Σ match sharing over one resident graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantRow:
    """One measured step of the multi-tenant scaling run (``tenant`` family).

    ``admit`` rows measure the marginal cost of the k-th tenant joining the
    shared core (wall clock, novel vs shared rules, backfilled centres);
    the ``single`` row replays the same update sequence on a one-tenant
    core (the baseline the gates scale against); the ``steady`` row is the
    shared core maintaining every tenant at once; ``equivalence`` rows
    record the smaller cross-backend projection-vs-independent-run legs.
    """

    dataset: str
    mode: str
    tenants: int
    rules: int  #: the admitted tenant's |Σ| (admit) / Σ over tenants (steady)
    union_rules: int  #: distinct canonical representatives the core verifies
    shared_rules: int = 0
    novel_rules: int = 0
    shared_prefix_hits: int = 0
    backfill_centers: int = 0
    verified_centers: int = 0
    batches: int = 0
    wall_time: float = 0.0
    backend: str = "sequential"
    fingerprint: str = ""

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "backend": self.backend,
            "mode": self.mode,
            "tenants": self.tenants,
            "rules": self.rules,
            "union_rules": self.union_rules,
            "shared_rules": self.shared_rules,
            "novel_rules": self.novel_rules,
            "shared_prefix_hits": self.shared_prefix_hits,
            "backfill_centers": self.backfill_centers,
            "verified_centers": self.verified_centers,
            "batches": self.batches,
            "wall_s": round(self.wall_time, 3),
            "fingerprint": self.fingerprint,
        }


def tenant_rule_slices(
    pool: Sequence[GPAR], num_tenants: int, rules_per_tenant: int
) -> dict[str, tuple[GPAR, ...]]:
    """Stride-1 overlapping Σ slices: tenant k serves ``pool[k-1 : k-1+r]``.

    Adjacent tenants share all but one rule — the workload shape the
    marginal-cost gate is about (the k-th tenant's admission should pay for
    its one novel suffix, not its whole Σ).
    """
    needed = num_tenants - 1 + rules_per_tenant
    if len(pool) < needed:
        raise ValueError(
            f"rule pool of {len(pool)} cannot cut {num_tenants} stride-1 "
            f"slices of {rules_per_tenant} (need {needed})"
        )
    return {
        f"tenant-{index + 1}": tuple(pool[index : index + rules_per_tenant])
        for index in range(num_tenants)
    }


def run_tenant_scaling(
    dataset: str,
    graph: Graph,
    rule_pool: Sequence[GPAR],
    num_tenants: int = 8,
    rules_per_tenant: int = 6,
    num_workers: int = 2,
    algorithm: str = "match",
    eta: float = 0.5,
    backends: Sequence[str] = ("sequential",),
    executor_workers: int | None = None,
    num_batches: int = 2,
    batch_size: int = 8,
    seed: int = 0,
    equivalence_tenants: int = 3,
) -> list[TenantRow]:
    """N overlapping tenant Σ over one shared core vs independent runs.

    The primary leg runs on ``backends[0]``: admit *num_tenants* stride-1
    overlapping rule sets one by one into a
    :class:`~repro.stream.MultiTenantIdentifier` (one ``admit`` row each),
    then replay a sampled update sequence against both the shared core and
    a one-tenant baseline core (the ``steady`` / ``single`` rows).  After
    every admission and every batch, **every** tenant's projected answer
    must be fingerprint-identical to an independent ``identify_entities``
    run with that tenant's rules on the same graph — raising
    ``AssertionError`` otherwise.  Each remaining backend gets a smaller
    per-batch equivalence leg through
    :func:`repro.testing.multi_tenant_check` (one ``equivalence`` row).
    """
    from repro.stream import MultiTenantIdentifier
    from repro.testing import multi_tenant_check

    tenants = tenant_rule_slices(rule_pool, num_tenants, rules_per_tenant)
    batches = sample_update_batches(graph, num_batches, batch_size, seed=seed)
    primary, rest = backends[0], backends[1:]

    def config_for(backend: str) -> EIPConfig:
        return EIPConfig(
            eta=eta,
            num_workers=num_workers,
            seed=seed,
            backend=backend,
            executor_workers=executor_workers,
        )

    def assert_exact(multi: MultiTenantIdentifier, where: str) -> None:
        for tenant in multi.tenants:
            projected = _eip_result_fingerprint(multi.result_for(tenant))
            fresh = _eip_result_fingerprint(multi.recompute_for(tenant))
            if projected != fresh:
                raise AssertionError(
                    f"{where}: tenant {tenant} projection diverged from an "
                    f"independent run ({projected} != {fresh})"
                )

    rows: list[TenantRow] = []

    # -- single-tenant baseline: the cost the gates scale against --------
    single = MultiTenantIdentifier(graph.copy(), config=config_for(primary), algorithm=algorithm)
    try:
        admission = single.admit("tenant-1", tenants["tenant-1"])
        single_wall = 0.0
        single_verified = 0
        for batch in batches:
            started = time.perf_counter()
            report = single.apply(batch)
            single_wall += time.perf_counter() - started
            single_verified += report.rechecked_centers
        rows.append(
            TenantRow(
                dataset=dataset,
                mode="single",
                tenants=1,
                rules=len(tenants["tenant-1"]),
                union_rules=len(single.union_rules),
                backfill_centers=admission.backfill_centers,
                verified_centers=single_verified,
                batches=len(batches),
                wall_time=single_wall,
                backend=primary,
                fingerprint=_eip_result_fingerprint(single.result_for("tenant-1")),
            )
        )
    finally:
        single.close()

    # -- primary leg: admissions one by one, then shared steady state ----
    multi = MultiTenantIdentifier(graph.copy(), config=config_for(primary), algorithm=algorithm)
    try:
        for count, (tenant, tenant_rules) in enumerate(tenants.items(), start=1):
            admission = multi.admit(tenant, tenant_rules)
            rows.append(
                TenantRow(
                    dataset=dataset,
                    mode="admit",
                    tenants=count,
                    rules=len(tenant_rules),
                    union_rules=len(multi.union_rules),
                    shared_rules=admission.shared_rules,
                    novel_rules=admission.novel_rules,
                    shared_prefix_hits=admission.shared_prefix_hits,
                    backfill_centers=admission.backfill_centers,
                    wall_time=admission.wall_time,
                    backend=primary,
                    fingerprint=_eip_result_fingerprint(multi.result_for(tenant)),
                )
            )
        assert_exact(multi, "after admissions")
        steady_wall = 0.0
        steady_verified = 0
        for position, batch in enumerate(batches):
            started = time.perf_counter()
            report = multi.apply(batch)
            steady_wall += time.perf_counter() - started
            steady_verified += report.rechecked_centers
            assert_exact(multi, f"after batch {position + 1}")
        rows.append(
            TenantRow(
                dataset=dataset,
                mode="steady",
                tenants=num_tenants,
                rules=sum(len(tenant_rules) for tenant_rules in tenants.values()),
                union_rules=len(multi.union_rules),
                verified_centers=steady_verified,
                batches=len(batches),
                wall_time=steady_wall,
                backend=primary,
                fingerprint=_eip_result_fingerprint(multi.result_for("tenant-1")),
            )
        )
    finally:
        multi.close()

    # -- smaller cross-backend equivalence legs --------------------------
    small = dict(list(tenants.items())[:equivalence_tenants])
    for backend in rest:
        started = time.perf_counter()
        divergences = multi_tenant_check(
            graph,
            small,
            batches,
            eta=eta,
            num_workers=num_workers,
            algorithm=algorithm,
            seed=seed,
            backends=(backend,),
        )
        if divergences:
            raise AssertionError(
                f"multi-tenant equivalence failed: {divergences[0].describe()}"
            )
        rows.append(
            TenantRow(
                dataset=dataset,
                mode="equivalence",
                tenants=len(small),
                rules=sum(len(tenant_rules) for tenant_rules in small.values()),
                union_rules=0,
                batches=len(batches),
                wall_time=time.perf_counter() - started,
                backend=backend,
            )
        )
    return rows


def run_matchview_stream_comparison(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    kinds: Sequence[str] = ("vf2", "guided"),
    num_batches: int = 4,
    batch_size: int = 8,
    seed: int = 0,
) -> list[StreamRow]:
    """Maintained match sets vs from-scratch re-matching, per matcher kind.

    The matcher-level half of the ``stream`` smoke (mirroring how the
    ``index`` family isolates the resident index): every rule's PR pattern
    is kept current by :meth:`MatchStore.repair` across the update
    sequence, against a baseline that re-runs ``match_set`` for the whole
    pattern family after each batch.  Gates on identical match sets.
    """
    from repro.stream import MaintainedMatchView

    patterns = [rule.pr_pattern() for rule in rules]
    batches = sample_update_batches(graph, num_batches, batch_size, seed=seed)
    rows: list[StreamRow] = []
    for kind in kinds:
        baseline_graph = graph.copy()
        baseline_wall = 0.0
        baseline_sets: list[str] = []
        total_baseline = 0
        for batch in batches:
            batch.apply(baseline_graph)
            matcher = _matcher_for(kind, use_index=True)
            started = time.perf_counter()
            for position, pattern in enumerate(patterns):
                matches = matcher.match_set(baseline_graph, pattern)
                total_baseline += len(matches)
                baseline_sets.append(
                    f"{position}|{'/'.join(sorted(map(str, matches)))}"
                )
            baseline_wall += time.perf_counter() - started
        rows.append(
            StreamRow(
                dataset=dataset,
                algorithm=kind,
                parameter="mode",
                value="recompute",
                mode="recompute",
                wall_time=baseline_wall,
                batches=len(batches),
                rechecked=0,
                identified=total_baseline,
                backend="in-process",
                fingerprint=_digest(baseline_sets),
            )
        )

        view_graph = graph.copy()
        view = MaintainedMatchView(view_graph, patterns, _matcher_for(kind, use_index=True))
        view_wall = 0.0
        view_sets: list[str] = []
        total_view = 0
        for batch in batches:
            batch.apply(view_graph)
            started = time.perf_counter()
            view.refresh()
            for position, pattern in enumerate(patterns):
                matches = view.match_set(pattern)
                total_view += len(matches)
                view_sets.append(
                    f"{position}|{'/'.join(sorted(map(str, matches)))}"
                )
            view_wall += time.perf_counter() - started
        repair_row = StreamRow(
            dataset=dataset,
            algorithm=kind,
            parameter="mode",
            value="repair",
            mode="repair",
            wall_time=view_wall,
            batches=len(batches),
            rechecked=view.store.statistics.repair_rechecks,
            identified=total_view,
            backend="in-process",
            repair_speedup=baseline_wall / view_wall if view_wall else float("inf"),
            fingerprint=_digest(view_sets),
        )
        if repair_row.fingerprint != rows[-1].fingerprint:
            raise AssertionError(
                f"maintained {kind} match sets diverged from re-matching: "
                f"{repair_row.fingerprint} != {rows[-1].fingerprint}"
            )
        rows.append(repair_row)
    return rows


# ----------------------------------------------------------------------
# observability: instrumentation overhead + scrape/trace round-trips
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObsRow:
    """One half of the instrumented-vs-uninstrumented streaming comparison.

    The ``obs`` smoke family replays the same sampled update sequence
    through a :class:`~repro.stream.StreamingIdentifier` with observability
    fully off (the module-level no-op span path) and fully on (an installed
    :class:`~repro.obs.Tracer` plus ``REPRO_OBS`` statistics collection).
    The instrumented row carries ``overhead_pct`` — the best-of-reps wall
    regression the instrumentation itself costs — plus the two round-trip
    gates: ``trace_ok`` (dump_jsonl → load_trace survives byte-identical and
    renders a breakdown) and ``scrape_ok`` (a live ``GET /metrics`` parses
    under the strict Prometheus parser with the expected families present).
    """

    dataset: str
    mode: str
    batches: int
    reps: int
    wall_time: float
    spans: int = 0
    counter_series: int = 0
    overhead_pct: float | None = None
    scrape_ok: bool | None = None
    trace_ok: bool | None = None
    backend: str = "sequential"
    fingerprint: str = ""

    def as_dict(self) -> dict:
        row = {
            "dataset": self.dataset,
            "mode": self.mode,
            "backend": self.backend,
            "batches": self.batches,
            "reps": self.reps,
            "wall_s": round(self.wall_time, 3),
            "spans": self.spans,
            "counter_series": self.counter_series,
            "fingerprint": self.fingerprint,
        }
        if self.overhead_pct is not None:
            row["overhead_pct"] = round(self.overhead_pct, 2)
        if self.scrape_ok is not None:
            row["scrape_ok"] = self.scrape_ok
        if self.trace_ok is not None:
            row["trace_ok"] = self.trace_ok
        return row


def run_obs_overhead(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    num_batches: int = 6,
    batch_size: int = 8,
    eta: float = 1.0,
    algorithm: str = "match",
    seed: int = 0,
    reps: int = 3,
) -> list["ObsRow"]:
    """Instrumented vs uninstrumented streaming maintenance (``obs`` family).

    Interleaves *reps* uninstrumented/instrumented pairs of the same
    maintenance run and takes the best-of-reps sum of per-tick wall times
    for each mode, so ``overhead_pct`` measures the instrumentation rather
    than scheduler noise.  Counters aggregate through the registry's
    ``snapshot()``/``merge()`` protocol (:mod:`repro.obs.stats`) — not the
    deprecated field-by-field statistics accumulation — and both modes must
    produce identical result fingerprints: instrumentation may never change
    answers.  Raises ``AssertionError`` on a fingerprint divergence; the
    scrape/trace round-trip outcomes land on the instrumented row for the
    smoke gate.
    """
    import tempfile
    import urllib.request
    from pathlib import Path

    from repro.obs import (
        Tracer,
        install,
        load_trace,
        parse_prometheus,
        trace_breakdown,
        uninstall,
    )
    from repro.obs.registry import registry
    from repro.obs.stats import (
        disable_collection,
        enable_collection,
        reset_collection,
    )
    from repro.serve import BackgroundServer
    from repro.stream import StreamingIdentifier

    batches = sample_update_batches(graph, num_batches, batch_size, seed=seed)
    registry().reset()  # the scrape below should reflect this run alone

    def maintain(instrumented: bool):
        live = graph.copy()
        tracer = None
        if instrumented:
            tracer = Tracer()
            reset_collection()  # fresh watermarks: each rep ships full counts
            enable_collection()
            install(tracer)
        try:
            wall = 0.0
            with StreamingIdentifier(
                live,
                rules,
                config=EIPConfig(eta=eta, num_workers=num_workers),
                algorithm=algorithm,
            ) as identifier:
                for batch in batches:
                    wall += identifier.apply(batch).wall_time
                fingerprint = _eip_result_fingerprint(identifier.result)
        finally:
            if instrumented:
                uninstall()
                disable_collection()
        return wall, fingerprint, tracer

    off_walls: list[float] = []
    on_walls: list[float] = []
    off_fingerprint = on_fingerprint = ""
    tracer = None
    for _ in range(reps):
        wall, off_fingerprint, _ = maintain(False)
        off_walls.append(wall)
        wall, on_fingerprint, tracer = maintain(True)
        on_walls.append(wall)
    if off_fingerprint != on_fingerprint:
        raise AssertionError(
            f"instrumentation changed the maintained answer: "
            f"{on_fingerprint} != {off_fingerprint}"
        )
    best_off = min(off_walls)
    best_on = min(on_walls)
    overhead_pct = (
        (best_on - best_off) / best_off * 100.0 if best_off else 0.0
    )

    # Round-trip 1: the final instrumented trace through JSON-lines.
    records = tracer.records()
    with tempfile.TemporaryDirectory() as scratch:
        trace_path = Path(scratch) / "trace.jsonl"
        tracer.dump_jsonl(trace_path)
        revived = load_trace(trace_path)
    trace_ok = (
        bool(records)
        and revived == records
        and "stream.tick" in trace_breakdown(revived)
    )

    # Round-trip 2: a live scrape of the process-global registry.  The
    # /healthz request before the scrape seeds the request histogram, so
    # the exposition must carry the HTTP families alongside the streaming
    # counters the maintenance runs recorded.  parse_prometheus raises
    # ValueError on any malformed line — a loud failure, not a False flag.
    with BackgroundServer() as server:
        _http_json("GET", f"{server.base_url}/healthz")
        with urllib.request.urlopen(
            f"{server.base_url}/metrics", timeout=30
        ) as response:
            content_type = response.headers.get("Content-Type", "")
            text = response.read().decode("utf-8")
    samples = parse_prometheus(text)
    ticks = [
        value for _labels, value in samples.get("repro_stream_ticks_total", [])
    ]
    scrape_ok = (
        content_type.startswith("text/plain")
        and sum(ticks) >= len(batches)
        and "repro_stream_tick_seconds_bucket" in samples
        and "repro_http_requests_total" in samples
        and "repro_http_request_seconds_bucket" in samples
    )

    counter_series = len(registry().counters("repro_"))
    return [
        ObsRow(
            dataset=dataset,
            mode="uninstrumented",
            batches=len(batches),
            reps=reps,
            wall_time=best_off,
            fingerprint=off_fingerprint,
        ),
        ObsRow(
            dataset=dataset,
            mode="instrumented",
            batches=len(batches),
            reps=reps,
            wall_time=best_on,
            spans=len(records),
            counter_series=counter_series,
            overhead_pct=overhead_pct,
            scrape_ok=scrape_ok,
            trace_ok=trace_ok,
            fingerprint=on_fingerprint,
        ),
    ]


# ----------------------------------------------------------------------
# adversarial storm suite (differential oracle + distillation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StormRow:
    """One storm family replayed through the differential oracle.

    ``divergences`` counts first-divergences across the backend grid for
    this family (the smoke gate fails on any non-zero value);
    ``shrunk_ops`` is the total op count of the distilled counterexamples
    and ``deduped`` how many were dropped as MinHash near-duplicates of
    already-known regression cases.
    """

    dataset: str
    storm: str
    backend: str
    batches: int
    ops: int
    checks: int
    wall_time: float
    divergences: int = 0
    shrunk_ops: int = 0
    deduped: int = 0

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "storm": self.storm,
            "backend": self.backend,
            "batches": self.batches,
            "ops": self.ops,
            "checks": self.checks,
            "wall_s": round(self.wall_time, 3),
            "checks_per_s": (
                round(self.checks / self.wall_time, 1) if self.wall_time else 0.0
            ),
            "divergences": self.divergences,
            "shrunk_ops": self.shrunk_ops,
            "deduped": self.deduped,
        }


def run_storm_suite(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    num_workers: int,
    backends: Sequence[str] = ("sequential", "threads", "processes"),
    num_batches: int = 3,
    batch_size: int = 6,
    eta: float = 0.5,
    algorithm: str = "match",
    seed: int = 0,
    cases_dir: str | None = None,
) -> list["StormRow"]:
    """Every storm family × backend through the differential oracle.

    Each family samples its batch sequence once (against a scratch copy, so
    every backend replays identical ops), then a single-backend
    :class:`repro.testing.DifferentialOracle` checks the maintained
    streaming state against fresh recomputes after every batch.  Any
    divergence is distilled to a minimal counterexample and — unless MinHash
    flags it as a near-duplicate of a known case — written to *cases_dir*
    (default ``tests/regressions/``) for the pytest collector to replay
    forever.  The smoke gate downstream fails on any non-zero
    ``divergences`` column.
    """
    from repro.testing import (
        CASES_DIR,
        STORM_FAMILIES,
        DifferentialOracle,
        distill,
        from_distilled,
        is_duplicate,
        write_case,
    )
    from repro.testing.cases import known_signatures

    target_dir = CASES_DIR if cases_dir is None else cases_dir
    rows: list[StormRow] = []
    for storm in sorted(STORM_FAMILIES):
        sampler = STORM_FAMILIES[storm]
        scratch = graph.copy()
        batches = []
        for position in range(num_batches):
            batch = sampler(scratch, size=batch_size, seed=seed * 1000 + position)
            batch.apply(scratch)
            batches.append(batch)
        total_ops = sum(len(batch) for batch in batches)
        for backend in backends:
            oracle = DifferentialOracle(
                rules,
                algorithm=algorithm,
                eta=eta,
                num_workers=num_workers,
                seed=seed,
                backends=(backend,),
                index_modes=(True,),
            )
            report = oracle.run(graph, batches)
            shrunk_ops = 0
            deduped = 0
            known = known_signatures(target_dir)
            for position, divergence in enumerate(report.divergences):
                distilled = distill(graph, batches, oracle.checker_for(divergence))
                shrunk_ops += distilled.num_ops
                if is_duplicate(distilled.signature, known):
                    deduped += 1
                    continue
                known.append(distilled.signature)
                case = from_distilled(
                    f"storm-{dataset}-{storm}-{backend}-{position}",
                    f"storm harness: {storm} family diverged on {backend} "
                    f"({divergence.describe()})",
                    distilled,
                    rules,
                    config={
                        "algorithm": algorithm,
                        "eta": eta,
                        "num_workers": num_workers,
                        "seed": seed,
                        "backend": backend,
                        "use_index": True,
                    },
                )
                write_case(case, target_dir)
            rows.append(
                StormRow(
                    dataset=dataset,
                    storm=storm,
                    backend=backend,
                    batches=len(batches),
                    ops=total_ops,
                    checks=report.checks,
                    wall_time=report.wall_time,
                    divergences=len(report.divergences),
                    shrunk_ops=shrunk_ops,
                    deduped=deduped,
                )
            )
    return rows
