"""Runners behind the benchmark modules and the smoke families.

Each runner executes one (algorithm, workload, backend) configuration and
returns its measured rows.  A row is a plain dict keyed by the JSON column
names of the ``BENCH_*.json`` files, so the file schema *is* the row type;
:mod:`repro.bench.reporting` rounds floats when it prints or serialises.
DMine/EIP rows carry both the *simulated* parallel time (the deterministic
max-worker-plus-coordinator model the paper's scaling figures use) and the
real wall-clock time.

:func:`run_comparison` is the one baseline-vs-variant loop: the same
configuration across backends (``wall_speedup``), with the resident index
off and on (``index_speedup``) or with incremental matching off and on
(``incremental_speedup``), one result fingerprint allowed across all rows.
Every gate here compares *answers*, so every runner that gates on equality
first requires its reference answer to be non-empty
(:func:`require_answer`): equal empty answers prove nothing.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Iterable, Sequence

from repro.graph.graph import Graph
from repro.graph.index import discard_index
from repro.identification import EIPConfig, identify_entities
from repro.matching import GuidedMatcher, SimulationMatcher, VF2Matcher
from repro.mining import DMine, DMineConfig
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern

MATCHERS = {"vf2": VF2Matcher, "guided": GuidedMatcher, "simulation": SimulationMatcher}

# Deletion share of the churn workload's update batches.
CHURN_DELETION_BIAS = 0.7


def _digest(parts: Iterable[str]) -> str:
    """Short content hash of a result, for cross-backend equivalence gates."""
    return hashlib.sha1("\n".join(sorted(parts)).encode()).hexdigest()[:12]


def _eip_result_fingerprint(result) -> str:
    """One fingerprint for every EIP row family (identified + confidences).

    Shared by :func:`run_eip_config` and the streaming runners so
    ``BENCH_*.json`` fingerprints stay comparable across families.
    """
    return _digest(
        [f"id:{entity}" for entity in map(str, result.identified)]
        + [
            f"{rule.name}|{round(confidence, 9)}"
            for rule, confidence in result.rule_confidences.items()
        ]
    )


def require_answer(size: int, what: str) -> None:
    """Raise ``AssertionError`` when a reference answer is empty.

    Two empty answers are always equal, so an equality gate over them
    passes whatever the code under test does.
    """
    if size <= 0:
        raise AssertionError(
            f"{what}: the reference answer is empty, so its equality gates "
            "would check nothing"
        )


def _on_off(flag: bool) -> str:
    return "on" if flag else "off"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("inf")


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
) -> dict:
    """Run one DMine / DMineno configuration and return its measured row.

    ``fingerprint`` hashes the mined rule set (structure + support +
    confidence): equal fingerprints mean *the same rules*, not merely the
    same number of rules.
    """
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
    return {
        "dataset": dataset,
        "algorithm": "DMine" if optimized else "DMineno",
        parameter: value if value is not None else num_workers,
        "backend": config.backend,
        "index": _on_off(use_index),
        "incremental": _on_off(use_incremental),
        "sim_parallel_s": result.timings.simulated_parallel_time,
        "wall_s": result.timings.wall_time,
        "rules": result.num_rules_discovered,
        "candidates": result.candidates_generated,
        "F(Lk)": result.objective_value,
        "fingerprint": _digest(
            f"{canonical_code(rule.pr_pattern())}|{info.support}|{round(info.confidence, 9)}"
            for rule, info in result.all_rules.items()
        ),
    }


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
) -> dict:
    """Run one Match / Matchc / disVF2 configuration and return its row.

    ``prefix_hits`` sums prefix-trie pool applications over all fragments
    (proof the shared-prefix path ran); ``fingerprint`` hashes the
    identified entities + per-rule confidences.
    """
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
    return {
        "dataset": dataset,
        "algorithm": algorithm,
        parameter: value if value is not None else num_workers,
        "backend": backend,
        "index": _on_off(use_index),
        "incremental": _on_off(use_incremental),
        "sim_parallel_s": result.timings.simulated_parallel_time,
        "wall_s": result.timings.wall_time,
        "identified": len(result.identified),
        "checks": result.candidates_examined,
        "prefix_hits": result.prefix_pool_hits,
        "fingerprint": _eip_result_fingerprint(result),
    }


def toggle_groups(switch: str, backends: Sequence[str]) -> list[list[dict]]:
    """Off-then-on configurations of the boolean *switch*, one pair per backend."""
    return [
        [{"backend": backend, switch: False}, {"backend": backend, switch: True}]
        for backend in backends
    ]


def run_comparison(
    run_one: Callable[..., dict],
    groups: Sequence[Sequence[dict]],
    speedup_key: str,
    answer_key: str,
) -> list[dict]:
    """The baseline-vs-variant loop shared by every comparison.

    For each group of keyword configurations, ``run_one(**group[0])`` is
    the baseline and every later configuration a variant; each variant row
    gets *speedup_key* = baseline wall time / its wall time.  Raises
    ``AssertionError`` if a baseline's *answer_key* count is zero or if the
    rows do not all carry one result fingerprint.
    """
    rows: list[dict] = []
    for baseline_config, *variant_configs in groups:
        baseline = run_one(**baseline_config)
        require_answer(baseline[answer_key], f"{baseline['algorithm']} comparison")
        rows.append(baseline)
        for config in variant_configs:
            row = run_one(**config)
            row[speedup_key] = _ratio(baseline["wall_s"], row["wall_s"])
            rows.append(row)
    fingerprints = {row["fingerprint"] for row in rows}
    if len(fingerprints) > 1:
        raise AssertionError(
            f"{rows[0]['algorithm']} results diverged across the "
            f"{speedup_key} comparison: {sorted(fingerprints)}"
        )
    return rows


def run_matching_traffic(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    kind: str,
    use_index: bool,
    reps: int = 3,
    parameter: str = "index",
    value: object = None,
) -> dict:
    """Run *reps* fresh-matcher batches of match-set queries; return one row.

    Measures the paper's matching hot path in isolation: each batch computes
    ``Q(x, G)`` for every rule's antecedent and PR pattern with a newly
    constructed matcher of *kind*, modelling *reps* successive algorithm
    calls against the same resident fragment.  Unindexed batches (the
    reference path) re-derive label pools, adjacency profiles and k-hop
    sketches from the raw graph; indexed batches probe the resident
    :class:`~repro.graph.index.FragmentIndex`.  The graph's registered index
    is dropped first so each indexed run pays its own build.
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
        matcher = MATCHERS[kind](use_index=use_index)
        for position, pattern in enumerate(patterns):
            matches = matcher.match_set(graph, pattern)
            total_matches += len(matches)
            match_counts.append(
                f"{position}|{len(matches)}|{'/'.join(sorted(map(str, matches)))}"
            )
    elapsed = time.perf_counter() - started
    return {
        "dataset": dataset,
        "algorithm": kind,
        parameter: value if value is not None else _on_off(use_index),
        "backend": "in-process",
        "index": _on_off(use_index),
        "wall_s": elapsed,
        "patterns": len(patterns) * reps,
        "matches": total_matches,
        "fingerprint": _digest(match_counts),
    }


# ----------------------------------------------------------------------
# streaming repair-vs-recompute comparison
# ----------------------------------------------------------------------
def sample_update_batches(graph: Graph, count: int, size: int, seed: int = 0) -> list:
    """*count* batches, each valid against the state the previous ones left.

    Sampled once against a scratch copy so every backend/mode of a
    comparison replays the **same** update sequence.
    """
    from repro.stream import random_update_batch

    scratch = graph.copy()
    batches = []
    for position in range(count):
        batch = random_update_batch(scratch, size=size, seed=seed * 1000 + position)
        batch.apply(scratch)
        batches.append(batch)
    return batches


def _stream_row(
    dataset, algorithm, backend, mode, wall, batches, rechecked, identified, fingerprint
) -> dict:
    """One repair/recompute/checkpoint row (``wall_s`` summed over *batches*)."""
    return {
        "dataset": dataset,
        "algorithm": algorithm,
        "backend": backend,
        "mode": mode,
        "wall_s": wall,
        "batches": batches,
        "rechecked": rechecked,
        "identified": identified,
        "fingerprint": fingerprint,
    }


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
) -> list[dict]:
    """Streaming EIP maintenance vs from-scratch recompute, per backend.

    Replays one sampled update sequence in both modes on every backend.
    After **each** batch the maintained result must carry the same
    fingerprint as a fresh ``identify_entities`` run on the mutated graph
    (raising ``AssertionError`` otherwise); the repair rows report the
    wall-clock of `StreamingIdentifier.apply` summed over the sequence
    against the recompute rows' per-batch full runs, as ``repair_speedup``.
    """
    from repro.stream import StreamingIdentifier

    batches = sample_update_batches(graph, num_batches, batch_size, seed=seed)
    rows: list[dict] = []
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
        require_answer(len(recompute_result.identified), f"stream recompute on {backend}")
        recompute_row = _stream_row(
            dataset, algorithm, backend, "recompute", recompute_wall, len(batches), 0,
            len(recompute_result.identified), _eip_result_fingerprint(recompute_result),
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
        repair_row = _stream_row(
            dataset, algorithm, backend, "repair", repair_wall, len(batches), rechecked,
            len(stream_result.identified), _eip_result_fingerprint(stream_result),
        )
        repair_row["repair_speedup"] = _ratio(recompute_wall, repair_wall)
        if repair_row["fingerprint"] != recompute_row["fingerprint"]:
            raise AssertionError(
                f"streaming repair diverged from recompute on {backend}: "
                f"{repair_row['fingerprint']} != {recompute_row['fingerprint']}"
            )
        rows.append(recompute_row)
        rows.append(repair_row)
    return rows


# ----------------------------------------------------------------------
# deletion-heavy churn: resident-size trajectory
# ----------------------------------------------------------------------
def run_stream_churn(
    dataset: str,
    graph: Graph,
    rules: tuple[GPAR, ...],
    num_workers: int,
    num_batches: int = 50,
    batch_size: int = 16,
    eta: float = 1.0,
    algorithm: str = "match",
    seed: int = 0,
) -> list[dict]:
    """Deletion-heavy maintenance run recording resident size per batch.

    Answers a different question than the repair-speedup rows: does
    resident fragment state (graphs + update logs) stay *bounded* when the
    workload keeps deleting?  A single
    :class:`~repro.stream.StreamingIdentifier` absorbs *num_batches*
    batches sampled with :data:`CHURN_DELETION_BIAS` against the live graph
    (so the sequence stays valid as the graph shrinks); one row per batch
    records the graph size, the coordinator's resident node count and
    retained log operations, and the batch's lifecycle actions.  After the
    final batch the maintained answer is gate-checked byte-identical to a
    from-scratch recompute.
    """
    from repro.stream import StreamingIdentifier, random_update_batch

    live = graph.copy()
    rows: list[dict] = []
    with StreamingIdentifier(
        live,
        rules,
        config=EIPConfig(eta=eta, num_workers=num_workers),
        algorithm=algorithm,
    ) as identifier:
        require_answer(len(identifier.result.identified), "churn initial answer")
        for position in range(num_batches):
            batch = random_update_batch(
                live,
                size=batch_size,
                seed=seed * 1000 + position,
                deletion_bias=CHURN_DELETION_BIAS,
            )
            update_report = identifier.apply(batch)
            rows.append(
                {
                    "dataset": dataset,
                    "batch": position + 1,
                    "backend": "sequential",
                    "graph_nodes": live.num_nodes,
                    "graph_edges": live.num_edges,
                    "resident_nodes": update_report.resident_nodes,
                    "log_ops": update_report.log_ops,
                    "rechecked": update_report.rechecked_centers,
                    "shed": update_report.shed_nodes,
                    "migrated": update_report.migrated_centers,
                    "compacted": update_report.compacted_fragments,
                    "wall_s": update_report.wall_time,
                    "identified": len(identifier.result.identified),
                    "fingerprint": _eip_result_fingerprint(identifier.result),
                }
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
) -> list[dict]:
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

    from repro.stream import MaintainedMatchView, StreamingIdentifier

    batches = sample_update_batches(graph, num_batches + 1, batch_size, seed=seed)
    rows: list[dict] = []
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
                require_answer(identified, f"lifecycle checkpoint on {backend}")
                state_path = identifier.save_state(Path(scratch) / "state.pkl")
            rows.append(
                _stream_row(
                    dataset, algorithm, backend, "checkpointed",
                    time.perf_counter() - started, num_batches, 0, identified, checkpointed,
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
                _stream_row(
                    dataset, algorithm, backend, "restored",
                    time.perf_counter() - started, 1, 0, identified, restored_fingerprint,
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
    if num_batches and not view.store.statistics.repaired_entries:
        raise AssertionError("maintained match view repaired no entries across the batches")
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
) -> list[dict]:
    """Concurrent readers × update pressure against a real ``repro.serve``.

    Starts a loopback :class:`repro.serve.BackgroundServer`, creates one
    session from *session_request* (whose rule-generation parameters must
    reproduce *rules* — checked by name), then runs *clients* reader
    threads paginating the answer while a writer applies the sampled
    update sequence over HTTP.  Raises ``AssertionError`` if the initial
    answer is empty, if any pagination pass mixes graph versions (a torn
    read), if any update's delta differs from the set-difference of fresh
    recomputes on a mirror graph, or if the subscription replay of the
    whole run is not byte-identical to those recomputed deltas.  The one
    row reports the read-latency distribution and tick throughput.
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
        expected_deltas: list[dict] = []
        tick_wall = 0.0
        try:
            require_answer(len(fresh_before.identified), "serve initial answer")
            baseline_version = writer.request("GET", f"{session_path}/subscribe")["resume_from"]
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
    return [
        {
            "dataset": dataset,
            "clients": clients,
            "backend": "http",
            "batches": len(batches),
            "reads": reads[0],
            "read_p50_ms": ordered[int(0.50 * (len(ordered) - 1))],
            "read_p99_ms": ordered[int(0.99 * (len(ordered) - 1))],
            "ticks_per_sec": _ratio(len(batches), tick_wall),
            "torn_reads": torn_passes[0],
            "wall_s": time.perf_counter() - run_started,
            "identified": len(fresh_before.identified),
            "fingerprint": _eip_result_fingerprint(fresh_before),
        }
    ]


# ----------------------------------------------------------------------
# multi-tenant serving: cross-Σ match sharing over one resident graph
# ----------------------------------------------------------------------
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


def _tenant_row(dataset, backend, mode, tenants, rules, union_rules, **measured) -> dict:
    """One step of the multi-tenant run; unmeasured counters read 0.

    Only the legs that hold a tenant answer (``single``/``admit``/``steady``)
    carry its ``identified`` count and ``fingerprint``.
    """
    row = {
        "dataset": dataset,
        "backend": backend,
        "mode": mode,
        "tenants": tenants,
        "rules": rules,
        "union_rules": union_rules,
        "shared_rules": 0,
        "novel_rules": 0,
        "shared_prefix_hits": 0,
        "backfill_centers": 0,
        "verified_centers": 0,
        "batches": 0,
        "wall_s": 0.0,
        "fingerprint": "",
    }
    row.update(measured)
    return row


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
) -> list[dict]:
    """N overlapping tenant Σ over one shared core vs independent runs.

    The primary leg runs on ``backends[0]``: admit *num_tenants* stride-1
    overlapping rule sets one by one into a
    :class:`~repro.stream.MultiTenantIdentifier` (one ``admit`` row each,
    measuring the marginal cost of the k-th tenant: wall clock, novel vs
    shared rules, backfilled centres), then replay a sampled update
    sequence against both the shared core and a one-tenant baseline core
    (the ``steady`` / ``single`` rows).  After every admission and every
    batch, **every** tenant's projected answer must be fingerprint-identical
    to an independent ``identify_entities`` run with that tenant's rules on
    the same graph — raising ``AssertionError`` otherwise.  Each remaining
    backend gets a smaller per-batch equivalence leg through
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

    def answer(multi: MultiTenantIdentifier, tenant: str) -> dict:
        result = multi.result_for(tenant)
        return {
            "identified": len(result.identified),
            "fingerprint": _eip_result_fingerprint(result),
        }

    rows: list[dict] = []

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
            _tenant_row(
                dataset, primary, "single", 1, len(tenants["tenant-1"]),
                len(single.union_rules),
                backfill_centers=admission.backfill_centers,
                verified_centers=single_verified,
                batches=len(batches),
                wall_s=single_wall,
                **answer(single, "tenant-1"),
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
                _tenant_row(
                    dataset, primary, "admit", count, len(tenant_rules),
                    len(multi.union_rules),
                    shared_rules=admission.shared_rules,
                    novel_rules=admission.novel_rules,
                    shared_prefix_hits=admission.shared_prefix_hits,
                    backfill_centers=admission.backfill_centers,
                    wall_s=admission.wall_time,
                    **answer(multi, tenant),
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
            _tenant_row(
                dataset, primary, "steady", num_tenants,
                sum(len(tenant_rules) for tenant_rules in tenants.values()),
                len(multi.union_rules),
                verified_centers=steady_verified,
                batches=len(batches),
                wall_s=steady_wall,
                **answer(multi, "tenant-1"),
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
            _tenant_row(
                dataset, backend, "equivalence", len(small),
                sum(len(tenant_rules) for tenant_rules in small.values()), 0,
                batches=len(batches),
                wall_s=time.perf_counter() - started,
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
) -> list[dict]:
    """Maintained match sets vs from-scratch re-matching, per matcher kind.

    The matcher-level half of the ``stream`` smoke (mirroring how the
    ``index`` family isolates the resident index): every rule's PR pattern
    is kept current by :meth:`MatchStore.repair` across the update
    sequence, against a baseline that re-runs ``match_set`` for the whole
    pattern family after each batch.  Gates on identical, non-empty match
    sets; ``identified`` counts matches summed over patterns and batches.
    """
    from repro.stream import MaintainedMatchView

    patterns = [rule.pr_pattern() for rule in rules]
    batches = sample_update_batches(graph, num_batches, batch_size, seed=seed)
    rows: list[dict] = []
    for kind in kinds:
        baseline_graph = graph.copy()
        baseline_wall = 0.0
        baseline_sets: list[str] = []
        total_baseline = 0
        for batch in batches:
            batch.apply(baseline_graph)
            matcher = MATCHERS[kind](use_index=True)
            started = time.perf_counter()
            for position, pattern in enumerate(patterns):
                matches = matcher.match_set(baseline_graph, pattern)
                total_baseline += len(matches)
                baseline_sets.append(
                    f"{position}|{'/'.join(sorted(map(str, matches)))}"
                )
            baseline_wall += time.perf_counter() - started
        require_answer(total_baseline, f"{kind} re-matching")
        baseline_row = _stream_row(
            dataset, kind, "in-process", "recompute", baseline_wall, len(batches), 0,
            total_baseline, _digest(baseline_sets),
        )

        view_graph = graph.copy()
        view = MaintainedMatchView(view_graph, patterns, MATCHERS[kind](use_index=True))
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
        repair_row = _stream_row(
            dataset, kind, "in-process", "repair", view_wall, len(batches),
            view.store.statistics.repair_rechecks, total_view, _digest(view_sets),
        )
        repair_row["repair_speedup"] = _ratio(baseline_wall, view_wall)
        if repair_row["fingerprint"] != baseline_row["fingerprint"]:
            raise AssertionError(
                f"maintained {kind} match sets diverged from re-matching: "
                f"{repair_row['fingerprint']} != {baseline_row['fingerprint']}"
            )
        rows.append(baseline_row)
        rows.append(repair_row)
    return rows


# ----------------------------------------------------------------------
# observability: instrumentation overhead + scrape/trace round-trips
# ----------------------------------------------------------------------
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
) -> list[dict]:
    """Instrumented vs uninstrumented streaming maintenance (``obs`` family).

    Replays the same sampled update sequence through a
    :class:`~repro.stream.StreamingIdentifier` with observability fully off
    (the module-level no-op span path) and fully on (an installed
    :class:`~repro.obs.Tracer` plus ``REPRO_OBS`` statistics collection),
    interleaving *reps* pairs and taking the best-of-reps sum of per-tick
    wall times for each mode, so ``overhead_pct`` measures the
    instrumentation rather than scheduler noise.  Counters aggregate
    through the registry's ``snapshot()``/``merge()`` protocol
    (:mod:`repro.obs.stats`), and both modes must produce identical,
    non-empty answers: instrumentation may never change them.  Raises
    ``AssertionError`` otherwise.  The instrumented row also carries the
    two round-trip outcomes: ``trace_ok`` (dump_jsonl → load_trace survives
    byte-identical and renders a breakdown) and ``scrape_ok`` (a live
    ``GET /metrics`` parses under the strict Prometheus parser with the
    expected families present).
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
                require_answer(len(identifier.result.identified), "obs initial answer")
                for batch in batches:
                    wall += identifier.apply(batch).wall_time
                identified = len(identifier.result.identified)
                fingerprint = _eip_result_fingerprint(identifier.result)
        finally:
            if instrumented:
                uninstall()
                disable_collection()
        return wall, identified, fingerprint, tracer

    off_walls: list[float] = []
    on_walls: list[float] = []
    for _ in range(reps):
        wall, identified, off_fingerprint, _ = maintain(False)
        off_walls.append(wall)
        wall, identified, on_fingerprint, tracer = maintain(True)
        on_walls.append(wall)
    if off_fingerprint != on_fingerprint:
        raise AssertionError(
            f"instrumentation changed the maintained answer: "
            f"{on_fingerprint} != {off_fingerprint}"
        )
    best_off = min(off_walls)
    best_on = min(on_walls)

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
        client = _KeepAliveClient(server.base_url)
        client.request("GET", "/healthz")
        client.close()
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

    def row(mode: str, wall: float, fingerprint: str) -> dict:
        return {
            "dataset": dataset,
            "mode": mode,
            "backend": "sequential",
            "batches": len(batches),
            "reps": reps,
            "wall_s": wall,
            "spans": 0,
            "counter_series": 0,
            "identified": identified,
            "fingerprint": fingerprint,
        }

    instrumented = row("instrumented", best_on, on_fingerprint)
    instrumented.update(
        spans=len(records),
        counter_series=len(registry().counters("repro_")),
        overhead_pct=(best_on - best_off) / best_off * 100.0 if best_off else 0.0,
        scrape_ok=scrape_ok,
        trace_ok=trace_ok,
    )
    return [row("uninstrumented", best_off, off_fingerprint), instrumented]


# ----------------------------------------------------------------------
# adversarial storm suite (differential oracle + distillation)
# ----------------------------------------------------------------------
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
) -> list[dict]:
    """Every storm family × backend through the differential oracle.

    Σ must identify entities on *graph* (``AssertionError`` otherwise).
    Each family samples its batch sequence once (against a scratch copy, so
    every backend replays identical ops), then a single-backend
    :class:`repro.testing.DifferentialOracle` checks the maintained
    streaming state against fresh recomputes after every batch.  Any
    divergence is distilled to a minimal counterexample and — unless MinHash
    flags it as a near-duplicate of a known case — written to *cases_dir*
    (default ``tests/regressions/``) for the pytest collector to replay
    forever.  Each row counts one family × backend's ``divergences``
    (the smoke gate fails on any), the total op count of the distilled
    counterexamples (``shrunk_ops``) and how many were dropped as known
    duplicates (``deduped``).
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

    reference = identify_entities(
        graph, list(rules), eta=eta, num_workers=num_workers, algorithm=algorithm, seed=seed
    )
    require_answer(len(reference.identified), "storm reference answer")
    target_dir = CASES_DIR if cases_dir is None else cases_dir
    rows: list[dict] = []
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
                {
                    "dataset": dataset,
                    "storm": storm,
                    "backend": backend,
                    "batches": len(batches),
                    "ops": total_ops,
                    "checks": report.checks,
                    "wall_s": report.wall_time,
                    "checks_per_s": report.checks_per_second,
                    "identified": len(reference.identified),
                    "divergences": len(report.divergences),
                    "shrunk_ops": shrunk_ops,
                    "deduped": deduped,
                }
            )
    return rows
