"""Benchmark smoke runner: one small, gated workload per family, for CI::

    python -m repro.bench.smoke --family <name> [--profile]

:data:`FAMILIES` holds every family as data — workload and scale, the
backends it runs on, the runner call, the gate, the report sections (title
plus row filter) and the summary line — and :func:`main` only reads the
table.  It runs the family, writes ``BENCH_<family>.json`` to the working
directory (the repo root in CI) *before* gating, so a failing gate still
leaves the JSON of the run that regressed, prints the sections, every
``*_speedup`` column and the summary, and then gates.  Runners raise
``AssertionError`` on any divergence (their in-run checks) and on an empty
reference answer; gates exit through ``SystemExit`` when a measurement
crosses its threshold.

* ``dmine`` / ``match`` — one DMine / EIP configuration on sequential and
  processes: catches pickling and pool-hang regressions; one fingerprint.
* ``index`` — the resident :class:`repro.graph.index.FragmentIndex`
  (docs/indexing.md): matching traffic (vf2, guided, simulation) on the
  raw-graph reference path and on the index, gated on the aggregate
  speedup (≥2× when numpy serves the kernel arrays, ≥1× on the pure-array
  path); one EIP and one DMine configuration on every backend in both
  modes, one fingerprint allowed; and a 100k-node scenario (25× the dense
  scale) that must simply complete under the smoke timeout.
* ``incremental`` — DMine and EIP with incremental matching off and on, on
  every backend (one fingerprint); fails if the sequential DMine
  ``incremental_speedup`` drops below 1.0 or the EIP prefix trie records
  no pool hits.
* ``stream`` — one sampled update sequence replayed in *repair* mode (a
  maintained :class:`~repro.stream.MaintainedMatchView` /
  :class:`~repro.stream.StreamingIdentifier`) and in *recompute* mode,
  every batch checked byte-identical; fails if a sequential or in-process
  ``repair_speedup`` drops below 1.0.
* ``stream_churn`` — one long deletion-biased maintenance run: fails if
  the resident node count of the last quarter exceeds the first quarter's
  peak, or if retained log operations outgrow the compaction bound
  (docs/lifecycle.md).
* ``lifecycle`` — per backend, a maintained run is ``save_state``d,
  ``restore``d and required byte-identical, including one further batch
  against a fresh recompute.
* ``serve`` — 8 HTTP readers paginate ``GET /answer`` while a writer POSTs
  update batches; a torn (mixed-version) pagination pass or any served
  delta that differs from the fresh recomputes' set-difference fails.
* ``tenant`` — 8 stride-1 overlapping Σ admitted into one shared core;
  fails if the 8th admission or the shared steady state costs more than
  ``TENANT_MARGINAL_LIMIT`` of its baseline, if the resident union is not
  deduplicated (``TENANT_UNION_LIMIT``) or if no prefix is shared.
* ``storm`` — every adversarial storm × backend through the differential
  oracle; any divergence (distilled into ``tests/regressions/``) fails.
* ``obs`` — streaming maintenance with observability off and on,
  best-of-reps; fails above 5 % overhead, on a ``GET /metrics`` scrape that
  lacks the stream/http families, on a trace that does not survive its
  JSON-lines round-trip, or on zero spans.

``--profile`` wraps the run in :mod:`cProfile` and prints the top 25
functions by cumulative time — the first stop when a trajectory row
regresses.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from repro.bench.harness import (
    run_comparison,
    run_dmine_config,
    run_eip_config,
    run_eip_stream_comparison,
    run_lifecycle_roundtrip,
    run_matching_traffic,
    run_matchview_stream_comparison,
    run_obs_overhead,
    run_serve_load,
    run_storm_suite,
    run_stream_churn,
    run_tenant_scaling,
    toggle_groups,
)
from repro.bench.reporting import format_rows, rows_as_json
from repro.bench.workloads import (
    POKEC_USERS,
    dense_eip_workload,
    dense_mining_workload,
    eip_workload,
    mining_workload,
    storm_workload,
    stream_workload,
)
from repro.parallel.executor import BACKENDS

# Fragments (BSP workers) of every smoke run.
WORKERS = 2

# Tiny-but-nontrivial scales for the dmine/match families: seconds, not
# minutes.  σ=1 is what makes the 400-node synthetic graph yield rules.
SMOKE_SCALE = 400
SMOKE_SIGMA = 1
SMOKE_RULES = 6

# The dense 4000-node workload of every other family, and the size of its
# mined Σ (which identifies entities; see dense_eip_workload).
DENSE_SCALE = 4000
DENSE_RULES = 12
DENSE_SIGMA = 2

# The index family's matching traffic keeps the sampled Σ of
# stream_workload.  Enough per-fragment traffic that the one-time build
# amortizes the way it does in production (a resident fragment serves many
# rounds, not three); the large-regime scenario runs indexed matching at
# INDEX_LARGE_FACTOR × the dense scale (100k nodes), sharing the dense
# label universe so the same Σ applies.
INDEX_REPS = 8
INDEX_LARGE_FACTOR = 25
INDEX_LARGE_RULES = 4
MATCHER_KINDS = ("vf2", "guided", "simulation")

# Deeper levelwise search than MINING_DEFAULTS: the incremental matcher's
# gains compound with every level that can delta-extend its parent.
INCREMENTAL_RULES = 16
INCREMENTAL_MINING = dict(
    max_edges=3, max_extensions_per_rule=8, max_rules_per_round=30
)

# A few medium batches keep the stream smoke honest (every batch is
# gate-checked against a full recompute) without the recompute half
# dominating the CI budget; the churn family replays enough shrinking
# batches that unbounded resident growth would be visible.
STREAM_BATCHES = 3
STREAM_BATCH_SIZE = 8
CHURN_BATCHES = 50
CHURN_BATCH_SIZE = 16
LIFECYCLE_BATCHES = 3
LIFECYCLE_BATCH_SIZE = 8

# The serve family hosts sampled Σ on the Pokec-like graph: POST /sessions
# can only sample rules, and sampled rules identify entities there.
SERVE_CLIENTS = 8
SERVE_BATCHES = 3
SERVE_BATCH_SIZE = 8
SERVE_RULES = 6
SERVE_MAX_EDGES = 3
SERVE_SEED = 11

# Tenants admit stride-1 overlapping slices of one mined pool (each sharing
# all but one rule with its neighbour).  Marginal admission and steady-state
# cost must both stay within TENANT_MARGINAL_LIMIT of their baselines, and
# the resident union within TENANT_UNION_LIMIT of the summed Σ sizes.
TENANT_COUNT = 8
TENANT_RULES = 6
TENANT_POOL_RULES = 16
TENANT_BATCHES = 2
TENANT_BATCH_SIZE = 8
TENANT_MARGINAL_LIMIT = 0.5
TENANT_UNION_LIMIT = 0.6

# Batches are deliberately large: the per-tick instrumentation cost is
# fixed, so deep ticks keep the measured ratio about the instrumentation
# rather than about timer noise on a near-empty wall.
OBS_BATCHES = 6
OBS_BATCH_SIZE = 24
OBS_REPS = 5
OBS_OVERHEAD_LIMIT_PCT = 5.0

# The oracle's fresh recompute per (batch, backend) dominates the storm
# family, so it runs on a 60-user Pokec-like graph.
STORM_SCALE = 60
STORM_RULES = 3
STORM_BATCHES = 3
STORM_BATCH_SIZE = 6


@dataclass(frozen=True)
class Family:
    """One smoke family as data.

    ``workload(scale=scale)`` returns ``(graph, Σ or predicate)`` and
    ``run(family, graph, data)`` the measured rows.  ``gate(rows)`` raises
    ``SystemExit`` on a regression; ``sections`` are ``(title, row filter)``
    pairs of the printed report and ``summary(rows)`` its last line.
    """

    workload: Callable[..., tuple]
    scale: int
    backends: tuple[str, ...]
    run: Callable[..., list[dict]]
    gate: Callable[[list[dict]], None]
    sections: tuple[tuple[str, Callable[[dict], bool]], ...]
    summary: Callable[[list[dict]], str]


# ----------------------------------------------------------------------
# runner calls
# ----------------------------------------------------------------------
def _eip(dataset: str, graph, rules) -> Callable[..., dict]:
    return partial(
        run_eip_config, dataset, graph, rules, WORKERS, "match", eta=0.5, parameter="backend"
    )


def _dmine(dataset: str, graph, predicate, sigma: int, **mining) -> Callable[..., dict]:
    return partial(
        run_dmine_config, dataset, graph, predicate, WORKERS, sigma, parameter="backend", **mining
    )


def _across(backends) -> list[list[dict]]:
    """One comparison group: sequential first, then every other backend."""
    return [[{"backend": backend} for backend in backends]]


def _run_index(family: Family, graph, rules) -> list[dict]:
    _, traffic_rules = stream_workload(family.scale, DENSE_RULES)
    rows = [
        row
        for kind in MATCHER_KINDS
        for row in run_comparison(
            partial(
                run_matching_traffic, "synthetic-dense", graph, traffic_rules, kind,
                reps=INDEX_REPS,
            ),
            [[{"use_index": False}, {"use_index": True}]],
            "index_speedup",
            "matches",
        )
    ]
    rows += run_comparison(
        _eip("synthetic-dense", graph, rules),
        toggle_groups("use_index", family.backends),
        "index_speedup",
        "identified",
    )
    _, predicate = dense_mining_workload(family.scale)
    rows += run_comparison(
        _dmine("synthetic-dense", graph, predicate, DENSE_SIGMA),
        toggle_groups("use_index", family.backends),
        "index_speedup",
        "rules",
    )
    large_scale = family.scale * INDEX_LARGE_FACTOR
    large_graph, _ = dense_mining_workload(large_scale)
    rows.append(
        run_matching_traffic(
            "synthetic-large", large_graph, traffic_rules[:INDEX_LARGE_RULES], "guided",
            use_index=True, reps=1, parameter="scale", value=large_scale,
        )
    )
    return rows


def _run_incremental(family: Family, graph, rules) -> list[dict]:
    _, predicate = dense_mining_workload(family.scale)
    groups = toggle_groups("use_incremental", family.backends)
    return run_comparison(
        _dmine("synthetic-dense", graph, predicate, DENSE_SIGMA, **INCREMENTAL_MINING),
        groups,
        "incremental_speedup",
        "rules",
    ) + run_comparison(
        _eip("synthetic-dense", graph, rules), groups, "incremental_speedup", "identified"
    )


def _run_stream(family: Family, graph, rules) -> list[dict]:
    batches = dict(num_batches=STREAM_BATCHES, batch_size=STREAM_BATCH_SIZE)
    return run_matchview_stream_comparison(
        "synthetic-dense", graph, rules, **batches
    ) + run_eip_stream_comparison(
        "synthetic-dense", graph, rules, WORKERS, eta=0.5, backends=family.backends, **batches
    )


def _run_serve(family: Family, graph, rules) -> list[dict]:
    # The server regenerates Σ from the same (predicate, params) the
    # workload sampled with; run_serve_load checks the names match.
    rule = rules[0]
    session_request = {
        "predicate": f"{rule.x_label}:{rule.consequent_label}:{rule.y_label}",
        "rules": SERVE_RULES,
        "max_edges": SERVE_MAX_EDGES,
        "d": 2,
        "seed": SERVE_SEED,
        "eta": 0.5,
        "workers": WORKERS,
        "algorithm": "match",
    }
    return run_serve_load(
        "pokec", graph, rules, session_request, clients=SERVE_CLIENTS,
        num_batches=SERVE_BATCHES, batch_size=SERVE_BATCH_SIZE,
    )


# ----------------------------------------------------------------------
# gates (SystemExit on regression) and report helpers
# ----------------------------------------------------------------------
def _gated_in_run(rows: list[dict]) -> None:
    """The runner's in-run checks are this family's whole gate."""


def _every_row(row: dict) -> bool:
    return True


def _is_traffic(row: dict) -> bool:
    """A matching-traffic row of the dense workload (not the large scenario)."""
    return row["backend"] == "in-process" and "scale" not in row


def _index_floor() -> float:
    from repro.graph.columnar import numpy_active

    return 2.0 if numpy_active() else 1.0


def _traffic_speedup(rows: list[dict]) -> float:
    """Reference-path over resident-index wall, summed over the traffic rows."""
    traffic = [row for row in rows if _is_traffic(row)]
    indexed = sum(row["wall_s"] for row in traffic if row["index"] == "on")
    if not indexed:
        raise SystemExit("index run produced no matching-traffic rows")
    return sum(row["wall_s"] for row in traffic if row["index"] == "off") / indexed


def _gate_index(rows: list[dict]) -> None:
    """The resident index must beat the reference path on matching traffic.

    ≥2× when numpy serves the kernel arrays, ≥1× on the pure-``array``
    fallback (still forbidden to regress, but interpreted loops cannot
    promise the vectorized margin).
    """
    aggregate, floor = _traffic_speedup(rows), _index_floor()
    if aggregate < floor:
        raise SystemExit(
            f"index regression: matching-traffic aggregate speedup "
            f"{aggregate:.2f}x < {floor:.1f}x"
        )


def _gate_incremental(rows: list[dict]) -> None:
    """Sequential DMine must not lose from incremental matching, and every
    incremental EIP row must take the prefix-trie path (census-split rule
    included): zero pool hits means trie sharing silently died.  The
    sequential backend is pinned because pool routing legitimately varies
    store hit rates run to run."""
    for row in rows:
        speedup = row.get("incremental_speedup")
        if speedup is None:
            continue  # the "off" baseline of a comparison pair
        if row["algorithm"] == "DMine" and row["backend"] == "sequential" and speedup < 1.0:
            raise SystemExit(
                f"incremental regression: sequential DMine incremental_speedup "
                f"{speedup:.2f} < 1.0"
            )
        if row.get("prefix_hits") == 0:
            raise SystemExit(
                f"incremental regression: EIP row ({row['backend']}) ran with "
                "use_incremental=True but recorded zero prefix-trie pool hits"
            )


def _gate_stream(rows: list[dict]) -> None:
    """Single-threaded repair must beat recompute: the sequential EIP rows
    and the pool-free in-process match-set rows.  Thread/process rows are
    skipped; their pool- and routing-dependent costs vary run to run."""
    for row in rows:
        speedup = row.get("repair_speedup", 1.0)
        if row["backend"] in ("sequential", "in-process") and speedup < 1.0:
            raise SystemExit(
                f"streaming regression: {row['backend']} {row['algorithm']} "
                f"repair_speedup {speedup:.2f} < 1.0"
            )


def _gate_churn(rows: list[dict]) -> None:
    """Deletion-heavy churn must keep resident state bounded.

    (a) The resident node count of the run's last quarter never exceeds the
    first quarter's peak (shedding and checkpointing keep pace), and (b)
    every batch leaves each retained log under the compaction threshold, so
    total retained log operations stay below ``fraction × resident`` plus a
    per-fragment rounding slack.
    """
    from repro.stream import StreamConfig

    if not rows:
        raise SystemExit("churn run produced no rows")
    fraction = StreamConfig().checkpoint_log_fraction
    quarter = max(1, len(rows) // 4)
    early_peak = max(row["resident_nodes"] for row in rows[:quarter])
    late_peak = max(row["resident_nodes"] for row in rows[-quarter:])
    if late_peak > early_peak:
        raise SystemExit(
            f"churn regression: resident fragment nodes grew under a "
            f"deletion-heavy workload (early peak {early_peak}, late peak "
            f"{late_peak})"
        )
    slack = fraction * WORKERS + 1
    for row in rows:
        bound = fraction * row["resident_nodes"] + slack
        if row["log_ops"] > bound:
            raise SystemExit(
                f"churn regression: batch {row['batch']} retains {row['log_ops']} "
                f"log ops, above the compaction bound {bound:.0f}"
            )


def _gate_obs(rows: list[dict]) -> None:
    """Observability must stay cheap and round-trip cleanly."""
    instrumented = [row for row in rows if row["mode"] == "instrumented"]
    if not instrumented:
        raise SystemExit("obs run produced no instrumented row")
    for row in instrumented:
        if not row["scrape_ok"]:
            raise SystemExit(
                "obs regression: GET /metrics scrape missing the expected "
                "stream/http families (see scrape_ok in BENCH_obs.json)"
            )
        if not row["trace_ok"]:
            raise SystemExit(
                "obs regression: trace JSON-lines round-trip lost or "
                "mutated spans (see trace_ok in BENCH_obs.json)"
            )
        if row["spans"] == 0:
            raise SystemExit("obs regression: instrumented run recorded zero spans")
        if row["overhead_pct"] > OBS_OVERHEAD_LIMIT_PCT:
            raise SystemExit(
                f"obs regression: instrumentation overhead "
                f"{row['overhead_pct']:.2f}% > {OBS_OVERHEAD_LIMIT_PCT:.0f}%"
            )


def _tenant_legs(rows: list[dict]):
    """``(cold admit, last admit, single, steady)`` rows of a tenant run."""
    admits = [row for row in rows if row["mode"] == "admit"]
    single = [row for row in rows if row["mode"] == "single"]
    steady = [row for row in rows if row["mode"] == "steady"]
    if len(admits) < 2 or not single or not steady:
        raise SystemExit("tenant run produced no admit/single/steady rows")
    return admits[0], admits[-1], single[0], steady[0]


def _gate_tenant(rows: list[dict]) -> None:
    """The k-th tenant must ride the shared substrate.

    Marginal admission (wall clock *and* centre-rule verifications) at most
    ``TENANT_MARGINAL_LIMIT ×`` the cold first admission; shared steady
    state at most ``TENANT_MARGINAL_LIMIT × k ×`` the single-tenant baseline
    (wall clock and verified centres); a resident union at most
    ``TENANT_UNION_LIMIT ×`` the summed tenant Σ sizes; and non-zero
    shared-prefix hits.
    """
    cold, last, single, steady = _tenant_legs(rows)
    limit, k = TENANT_MARGINAL_LIMIT, steady["tenants"]
    if last["wall_s"] > limit * cold["wall_s"]:
        raise SystemExit(
            f"tenant regression: admitting tenant {last['tenants']} cost "
            f"{last['wall_s']:.3f}s, above {limit:.1f} x the cold admission "
            f"({cold['wall_s']:.3f}s)"
        )
    # A warm admission still walks every resident centre, but verifies only
    # the novel suffix against each — so the work unit is centre x rule
    # verifications, not centres.
    cold_work = cold["backfill_centers"] * max(1, cold["novel_rules"])
    last_work = last["backfill_centers"] * last["novel_rules"]
    if last_work > limit * cold_work:
        raise SystemExit(
            f"tenant regression: admitting tenant {last['tenants']} cost "
            f"{last_work} centre-rule verifications, above {limit:.1f} x the "
            f"cold admission ({cold_work})"
        )
    for column in ("wall_s", "verified_centers"):
        if steady[column] > limit * k * single[column]:
            raise SystemExit(
                f"tenant regression: shared steady state {column} "
                f"{steady[column]} for {k} tenants, above {limit:.1f} x {k} x "
                f"the single-tenant baseline ({single[column]})"
            )
    if steady["union_rules"] > TENANT_UNION_LIMIT * steady["rules"]:
        raise SystemExit(
            f"tenant regression: resident union of {steady['union_rules']} rules "
            f"over {steady['rules']} admitted — canonical dedup is not biting "
            f"(gate <= {TENANT_UNION_LIMIT:.1f} x)"
        )
    if not sum(row["shared_prefix_hits"] for row in rows if row["mode"] == "admit"):
        raise SystemExit(
            "tenant regression: admissions recorded zero shared-prefix hits "
            "on overlapping rule sets — prefix sharing silently died"
        )


def _gate_storm(rows: list[dict]) -> None:
    """No storm may leave a surviving divergence.

    The suite runner has already distilled every divergence and written
    the novel ones under ``tests/regressions/``; this gate turns any
    non-zero count into a failed run, so CI fails loudly *and* leaves the
    shrunk counterexample behind.
    """
    if not rows:
        raise SystemExit("storm run produced no rows")
    for row in rows:
        if row["divergences"]:
            raise SystemExit(
                f"storm regression: {row['storm']} storm on backend "
                f"{row['backend']} diverged {row['divergences']} time(s) "
                f"(distilled to {row['shrunk_ops']} ops, {row['deduped']} known "
                "duplicates) — see tests/regressions/"
            )


def _summary_answer(rows: list[dict], column: str = "identified") -> str:
    return (
        f"{column} {rows[0][column]}; one fingerprint {rows[0]['fingerprint']} "
        f"over {len(rows)} rows"
    )


def _summary_index(rows: list[dict]) -> str:
    from repro.graph.columnar import numpy_active

    return (
        f"index matching-traffic aggregate speedup: {_traffic_speedup(rows):.2f}x "
        f"(gate >= {_index_floor():.1f}x, numpy {'on' if numpy_active() else 'off'})"
    )


def _summary_churn(rows: list[dict]) -> str:
    first, last = rows[0], rows[-1]
    return (
        f"resident nodes {first['resident_nodes']} -> {last['resident_nodes']}, "
        f"graph nodes {first['graph_nodes']} -> {last['graph_nodes']}, "
        f"shed total {sum(row['shed'] for row in rows)}, "
        f"compactions {sum(row['compacted'] for row in rows)}, "
        f"identified {first['identified']} -> {last['identified']}"
    )


def _summary_serve(rows: list[dict]) -> str:
    row = rows[0]
    return (
        f"read latency p50 {row['read_p50_ms']:.1f}ms / p99 {row['read_p99_ms']:.1f}ms "
        f"over {row['reads']} reads x {row['clients']} clients; "
        f"{row['ticks_per_sec']:.2f} ticks/s; torn reads: {row['torn_reads']}; "
        f"identified {row['identified']}"
    )


def _summary_tenant(rows: list[dict]) -> str:
    cold, last, single, steady = _tenant_legs(rows)
    marginal = last["wall_s"] / cold["wall_s"] if cold["wall_s"] else 0.0
    shared = steady["wall_s"] / (steady["tenants"] * single["wall_s"]) if single["wall_s"] else 0.0
    hits = sum(row["shared_prefix_hits"] for row in rows if row["mode"] == "admit")
    return (
        f"marginal admission (tenant {last['tenants']} vs cold): {marginal:.2f}x; "
        f"steady shared cost vs k x single: {shared:.2f}x; "
        f"union {steady['union_rules']} rules over {steady['rules']} admitted; "
        f"prefix hits {hits}"
    )


def _summary_storm(rows: list[dict]) -> str:
    checks = sum(row["checks"] for row in rows)
    wall = sum(row["wall_s"] for row in rows)
    rate = f"{checks / wall:.1f}/s" if wall else "n/a"
    return (
        f"storms {len({row['storm'] for row in rows})}, combos {len(rows)}, "
        f"oracle checks {checks} ({rate}), divergences "
        f"{sum(row['divergences'] for row in rows)}, identified {rows[0]['identified']}"
    )


def _summary_obs(rows: list[dict]) -> str:
    on = next(row for row in rows if row["mode"] == "instrumented")
    return (
        f"instrumentation overhead {on['overhead_pct']:.2f}% "
        f"(gate <= {OBS_OVERHEAD_LIMIT_PCT:.0f}%); {on['spans']} spans, "
        f"{on['counter_series']} counter series; scrape_ok={on['scrape_ok']} "
        f"trace_ok={on['trace_ok']}; identified {on['identified']}"
    )


FAMILIES: dict[str, Family] = {
    "dmine": Family(
        workload=partial(mining_workload, "synthetic"),
        scale=SMOKE_SCALE,
        backends=("sequential", "processes"),
        run=lambda family, graph, predicate: run_comparison(
            _dmine("synthetic", graph, predicate, SMOKE_SIGMA),
            _across(family.backends),
            "wall_speedup",
            "rules",
        ),
        gate=_gated_in_run,
        sections=(("DMine per backend (one fingerprint)", _every_row),),
        summary=partial(_summary_answer, column="rules"),
    ),
    "match": Family(
        workload=partial(eip_workload, "synthetic", SMOKE_RULES),
        scale=SMOKE_SCALE,
        backends=("sequential", "processes"),
        run=lambda family, graph, rules: run_comparison(
            _eip("synthetic", graph, rules), _across(family.backends), "wall_speedup", "identified"
        ),
        gate=_gated_in_run,
        sections=(("EIP match per backend (one fingerprint)", _every_row),),
        summary=_summary_answer,
    ),
    "index": Family(
        workload=partial(dense_eip_workload, num_rules=DENSE_RULES),
        scale=DENSE_SCALE,
        backends=BACKENDS,
        run=_run_index,
        gate=_gate_index,
        sections=(
            ("matching traffic, reference path vs resident index", _is_traffic),
            ("EIP match, every backend x index mode (one fingerprint)",
             lambda row: "identified" in row),
            ("DMine, every backend x index mode (one fingerprint)", lambda row: "rules" in row),
            ("large-regime scenario (gate: completes under the smoke timeout)",
             lambda row: "scale" in row),
        ),
        summary=_summary_index,
    ),
    "incremental": Family(
        workload=partial(dense_eip_workload, num_rules=INCREMENTAL_RULES),
        scale=DENSE_SCALE,
        backends=BACKENDS,
        run=_run_incremental,
        gate=_gate_incremental,
        sections=(
            ("DMine, every backend x incremental mode (one fingerprint)",
             lambda row: "rules" in row),
            ("EIP match, every backend x incremental mode (one fingerprint)",
             lambda row: "identified" in row),
        ),
        summary=lambda rows: (
            f"EIP prefix-trie hits {sum(row.get('prefix_hits', 0) for row in rows)}; "
            f"{rows[0]['rules']} rules mined, "
            f"{next(row['identified'] for row in rows if 'identified' in row)} identified"
        ),
    ),
    "stream": Family(
        workload=partial(dense_eip_workload, num_rules=DENSE_RULES),
        scale=DENSE_SCALE,
        backends=BACKENDS,
        run=_run_stream,
        gate=_gate_stream,
        sections=(
            ("maintained match sets: MatchStore.repair vs re-matching",
             lambda row: row["backend"] == "in-process"),
            ("streaming EIP: repair vs full recompute per batch (gated)",
             lambda row: row["backend"] != "in-process"),
        ),
        summary=lambda rows: (
            f"identified {rows[-1]['identified']} after {rows[-1]['batches']} batches, "
            f"maintained == recompute after every batch"
        ),
    ),
    "stream_churn": Family(
        workload=partial(dense_eip_workload, num_rules=DENSE_RULES),
        scale=DENSE_SCALE,
        backends=("sequential",),
        run=lambda family, graph, rules: run_stream_churn(
            "synthetic-dense", graph, rules, WORKERS, num_batches=CHURN_BATCHES,
            batch_size=CHURN_BATCH_SIZE, eta=0.5,
        ),
        gate=_gate_churn,
        sections=(
            ("resident fragment size under deletion churn (first 3 and last 9 batches)",
             lambda row: row["batch"] <= 3 or row["batch"] > CHURN_BATCHES - 9),
        ),
        summary=_summary_churn,
    ),
    "lifecycle": Family(
        workload=partial(dense_eip_workload, num_rules=DENSE_RULES),
        scale=DENSE_SCALE,
        backends=BACKENDS,
        run=lambda family, graph, rules: run_lifecycle_roundtrip(
            "synthetic-dense", graph, rules, WORKERS, backends=family.backends,
            num_batches=LIFECYCLE_BATCHES, batch_size=LIFECYCLE_BATCH_SIZE, eta=0.5,
        ),
        gate=_gated_in_run,
        sections=(("checkpoint -> restart -> byte-identical answers (gated in-run)",
                   _every_row),),
        summary=_summary_answer,
    ),
    "serve": Family(
        workload=partial(eip_workload, "pokec", SERVE_RULES, SERVE_MAX_EDGES, 2, seed=SERVE_SEED),
        scale=POKEC_USERS,
        backends=("sequential",),
        run=_run_serve,
        gate=_gated_in_run,
        sections=(("HTTP serving under update pressure (contract gated in-run)", _every_row),),
        summary=_summary_serve,
    ),
    "tenant": Family(
        workload=partial(dense_eip_workload, num_rules=TENANT_POOL_RULES),
        scale=DENSE_SCALE,
        backends=BACKENDS,
        run=lambda family, graph, pool: run_tenant_scaling(
            "synthetic-dense", graph, pool, num_tenants=TENANT_COUNT,
            rules_per_tenant=TENANT_RULES, num_workers=WORKERS, eta=0.5,
            backends=family.backends, num_batches=TENANT_BATCHES,
            batch_size=TENANT_BATCH_SIZE,
        ),
        gate=_gate_tenant,
        sections=(("shared-core multi-tenant scaling (projections gated in-run)",
                   _every_row),),
        summary=_summary_tenant,
    ),
    "storm": Family(
        workload=partial(storm_workload, num_rules=STORM_RULES),
        scale=STORM_SCALE,
        backends=BACKENDS,
        run=lambda family, graph, rules: run_storm_suite(
            "pokec", graph, rules, WORKERS, backends=family.backends,
            num_batches=STORM_BATCHES, batch_size=STORM_BATCH_SIZE, eta=0.5,
        ),
        gate=_gate_storm,
        sections=(("adversarial churn x differential oracle (gated on zero divergences)",
                   _every_row),),
        summary=_summary_storm,
    ),
    # Sequential only: the overhead gate compares the no-op instrumentation
    # path against the traced one on a pool-free run, so scheduler variance
    # cannot masquerade as tracer cost.
    "obs": Family(
        workload=partial(dense_eip_workload, num_rules=DENSE_RULES),
        scale=DENSE_SCALE,
        backends=("sequential",),
        run=lambda family, graph, rules: run_obs_overhead(
            "synthetic-dense", graph, rules, WORKERS, num_batches=OBS_BATCHES,
            batch_size=OBS_BATCH_SIZE, eta=0.5, reps=OBS_REPS,
        ),
        gate=_gate_obs,
        sections=(("streaming maintenance, observability off vs on (gated <=5%)",
                   _every_row),),
        summary=_summary_obs,
    ),
}


def run_smoke(name: str) -> list[dict]:
    """Run family *name* on its workload; return its rows (ungated)."""
    family = FAMILIES[name]
    graph, data = family.workload(scale=family.scale)
    return family.run(family, graph, data)


def report(name: str, rows: list[dict]) -> None:
    """Print the family's sections, speedups and summary, then gate."""
    family = FAMILIES[name]
    print(f"== smoke {name} (n={WORKERS}, backends={'/'.join(family.backends)}) ==")
    for title, keep in family.sections:
        print(f"-- {title} --")
        print(format_rows([row for row in rows if keep(row)]))
    for row in rows:
        for column in sorted(column for column in row if column.endswith("_speedup")):
            print(f"{column} ({row.get('algorithm')}@{row['backend']}): {row[column]:.2f}x")
    print(family.summary(rows))
    family.gate(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-smoke",
        description="Tiny per-family benchmark smoke run for CI.",
    )
    parser.add_argument("--family", choices=list(FAMILIES), required=True)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the family under cProfile and print the top 25 functions "
        "by cumulative time",
    )
    args = parser.parse_args(argv)

    if args.profile:
        profiler = cProfile.Profile()
        rows = profiler.runcall(run_smoke, args.family)
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(25)
        print(f"== cProfile top 25 (family={args.family}) ==")
        print(buffer.getvalue())
    else:
        rows = run_smoke(args.family)

    # Persist the trajectory rows *before* the gates run: a failing gate
    # must still leave the JSON of the run that regressed for diagnosis.
    out = Path(f"BENCH_{args.family}.json")
    title = f"smoke {args.family} (n={WORKERS})"
    out.write_text(rows_as_json(f"smoke_{args.family}", title, rows) + "\n")
    report(args.family, rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
