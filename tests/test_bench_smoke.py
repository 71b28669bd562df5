"""Tests for the smoke family table, its gates and the comparison loop.

Synthetic rows only: nothing here runs a workload, so the module stays fast.
"""

import re

import pytest

from repro.bench import smoke
from repro.bench.harness import require_answer, run_comparison, toggle_groups
from repro.parallel.executor import BACKENDS

FAMILY_NAMES = {
    "dmine", "match", "index", "incremental", "stream", "stream_churn",
    "lifecycle", "serve", "tenant", "storm", "obs",
}


def test_every_family_is_complete():
    assert set(smoke.FAMILIES) == FAMILY_NAMES
    for name, family in smoke.FAMILIES.items():
        assert callable(family.workload), name
        assert isinstance(family.scale, int) and family.scale > 0, name
        assert family.backends and set(family.backends) <= set(BACKENDS), name
        assert family.backends[0] == "sequential", name
        for hook in (family.run, family.gate, family.summary):
            assert callable(hook), name
        assert family.sections, name
        for title, keep in family.sections:
            assert isinstance(title, str) and title and callable(keep), name


def test_help_lists_exactly_family_and_profile(capsys):
    with pytest.raises(SystemExit) as exit_info:
        smoke.main(["--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert flags == {"--family", "--profile"}


# ----------------------------------------------------------------------
# the comparison loop and the empty-answer check
# ----------------------------------------------------------------------
def _fake_runner(walls, identified=3, fingerprints=None):
    calls = []

    def run_one(backend, use_index=True):
        position = len(calls)
        calls.append((backend, use_index))
        return {
            "algorithm": "match",
            "backend": backend,
            "index": "on" if use_index else "off",
            "wall_s": walls[position],
            "identified": identified,
            "fingerprint": (fingerprints or {}).get(position, "same"),
        }

    return run_one, calls


def test_comparison_runs_baseline_then_variant_per_group():
    run_one, calls = _fake_runner([4.0, 2.0, 3.0, 1.0])
    rows = run_comparison(
        run_one, toggle_groups("use_index", ("sequential", "threads")), "index_speedup", "identified"
    )
    assert calls == [
        ("sequential", False), ("sequential", True), ("threads", False), ("threads", True)
    ]
    assert "index_speedup" not in rows[0] and "index_speedup" not in rows[2]
    assert rows[1]["index_speedup"] == pytest.approx(2.0)
    assert rows[3]["index_speedup"] == pytest.approx(3.0)


def test_comparison_raises_on_divergent_fingerprints():
    run_one, _ = _fake_runner([1.0, 1.0], fingerprints={1: "other"})
    with pytest.raises(AssertionError, match="diverged"):
        run_comparison(run_one, [[{"backend": "sequential"}, {"backend": "processes"}]],
                       "wall_speedup", "identified")


def test_empty_answer_check_fires():
    run_one, calls = _fake_runner([1.0, 1.0], identified=0)
    with pytest.raises(AssertionError, match="reference answer is empty"):
        run_comparison(run_one, [[{"backend": "sequential"}, {"backend": "processes"}]],
                       "wall_speedup", "identified")
    assert len(calls) == 1  # fails on the baseline, before any variant runs
    with pytest.raises(AssertionError, match="reference answer is empty"):
        require_answer(0, "storm reference answer")
    require_answer(1, "non-empty")


# ----------------------------------------------------------------------
# gates: a passing row set, then each documented failing condition
# ----------------------------------------------------------------------
def _traffic(off_wall, on_wall):
    return [
        {"algorithm": "vf2", "backend": "in-process", "index": "off", "wall_s": off_wall},
        {"algorithm": "vf2", "backend": "in-process", "index": "on", "wall_s": on_wall},
        # The large-regime row is not traffic: it must not enter the aggregate.
        {"algorithm": "guided", "backend": "in-process", "index": "on", "wall_s": 100.0,
         "scale": 100000},
    ]


@pytest.mark.parametrize(
    "numpy_on, speedup, passes",
    [(True, 2.5, True), (True, 1.5, False), (False, 1.5, True), (False, 0.9, False)],
)
def test_index_gate_floor(monkeypatch, numpy_on, speedup, passes):
    monkeypatch.setattr("repro.graph.columnar.numpy_active", lambda: numpy_on)
    rows = _traffic(speedup, 1.0)
    if passes:
        smoke._gate_index(rows)
    else:
        with pytest.raises(SystemExit):
            smoke._gate_index(rows)


def test_index_gate_requires_traffic_rows():
    with pytest.raises(SystemExit):
        smoke._gate_index([{"backend": "sequential", "index": "on", "wall_s": 1.0}])


def _incremental_rows():
    return [
        {"algorithm": "DMine", "backend": "sequential", "wall_s": 2.0},
        {"algorithm": "DMine", "backend": "sequential", "wall_s": 1.0, "incremental_speedup": 2.0},
        # Pool routing legitimately varies: only sequential DMine is gated.
        {"algorithm": "DMine", "backend": "threads", "wall_s": 1.0, "incremental_speedup": 0.5},
        {"algorithm": "match", "backend": "sequential", "prefix_hits": 0, "wall_s": 1.0},
        {"algorithm": "match", "backend": "sequential", "prefix_hits": 5, "wall_s": 1.0,
         "incremental_speedup": 0.6},
    ]


@pytest.mark.parametrize(
    "position, column, value",
    [(1, "incremental_speedup", 0.99), (4, "prefix_hits", 0)],
    ids=["sequential-dmine-below-1", "zero-prefix-hits"],
)
def test_incremental_gate(position, column, value):
    smoke._gate_incremental(_incremental_rows())
    rows = _incremental_rows()
    rows[position][column] = value
    with pytest.raises(SystemExit):
        smoke._gate_incremental(rows)


def _stream_rows():
    return [
        {"algorithm": "vf2", "backend": "in-process", "repair_speedup": 1.5},
        {"algorithm": "match", "backend": "sequential"},
        {"algorithm": "match", "backend": "sequential", "repair_speedup": 5.0},
        {"algorithm": "match", "backend": "threads", "repair_speedup": 0.5},
    ]


@pytest.mark.parametrize("position", [0, 2], ids=["in-process", "sequential"])
def test_stream_gate(position):
    smoke._gate_stream(_stream_rows())
    rows = _stream_rows()
    rows[position]["repair_speedup"] = 0.99
    with pytest.raises(SystemExit):
        smoke._gate_stream(rows)


def _churn_rows():
    return [
        {"batch": batch, "resident_nodes": 1000 - batch, "log_ops": 10}
        for batch in range(1, 9)
    ]


def test_churn_gate():
    smoke._gate_churn(_churn_rows())
    grown = _churn_rows()
    grown[-1]["resident_nodes"] = 2000  # late peak above the early peak
    unbounded = _churn_rows()
    unbounded[3]["log_ops"] = 10_000  # above fraction x resident + slack
    for rows in (grown, unbounded, []):
        with pytest.raises(SystemExit):
            smoke._gate_churn(rows)


def _obs_rows():
    return [
        {"mode": "uninstrumented", "wall_s": 1.0},
        {"mode": "instrumented", "wall_s": 1.04, "overhead_pct": 4.9, "spans": 80,
         "scrape_ok": True, "trace_ok": True},
    ]


@pytest.mark.parametrize(
    "column, value",
    [("overhead_pct", 5.1), ("scrape_ok", False), ("trace_ok", False), ("spans", 0)],
)
def test_obs_gate(column, value):
    smoke._gate_obs(_obs_rows())
    rows = _obs_rows()
    rows[1][column] = value
    with pytest.raises(SystemExit):
        smoke._gate_obs(rows)
    with pytest.raises(SystemExit):
        smoke._gate_obs(_obs_rows()[:1])


def _tenant_rows():
    def row(mode, tenants, **values):
        base = {"mode": mode, "tenants": tenants, "rules": 6, "union_rules": 6,
                "shared_prefix_hits": 0, "backfill_centers": 100, "novel_rules": 0,
                "verified_centers": 0, "wall_s": 0.0}
        base.update(values)
        return base

    return [
        row("single", 1, verified_centers=100, wall_s=1.0),
        row("admit", 1, novel_rules=6, wall_s=1.0),
        row("admit", 2, novel_rules=1, shared_prefix_hits=3, wall_s=0.1),
        row("steady", 2, rules=12, union_rules=7, verified_centers=100, wall_s=1.0),
    ]


@pytest.mark.parametrize(
    "position, column, value",
    [
        (2, "wall_s", 0.51),  # marginal admission wall > 0.5 x cold
        (2, "novel_rules", 4),  # marginal centre-rule work > 0.5 x cold
        (3, "wall_s", 1.01),  # steady wall > 0.5 x k x single
        (3, "verified_centers", 101),  # steady verified > 0.5 x k x single
        (3, "union_rules", 8),  # union > 0.6 x admitted rules
        (2, "shared_prefix_hits", 0),  # no shared prefixes
    ],
    ids=["admit-wall", "admit-work", "steady-wall", "steady-verified", "union", "prefix-hits"],
)
def test_tenant_gate(position, column, value):
    smoke._gate_tenant(_tenant_rows())
    rows = _tenant_rows()
    rows[position][column] = value
    with pytest.raises(SystemExit):
        smoke._gate_tenant(rows)


def test_tenant_gate_requires_all_legs():
    with pytest.raises(SystemExit):
        smoke._gate_tenant(_tenant_rows()[1:])


def test_storm_gate():
    rows = [{"storm": "random", "backend": "sequential", "divergences": 0,
             "shrunk_ops": 0, "deduped": 0}]
    smoke._gate_storm(rows)
    rows[0]["divergences"] = 1
    for failing in (rows, []):
        with pytest.raises(SystemExit):
            smoke._gate_storm(failing)


def test_report_prints_sections_speedups_and_summary(capsys):
    rows = [
        {"algorithm": "DMine", "backend": "sequential", "wall_s": 2.0, "rules": 5,
         "fingerprint": "abc"},
        {"algorithm": "DMine", "backend": "processes", "wall_s": 1.0, "rules": 5,
         "fingerprint": "abc", "wall_speedup": 2.0},
    ]
    smoke.report("dmine", rows)
    out = capsys.readouterr().out
    assert "== smoke dmine (n=2, backends=sequential/processes) ==" in out
    assert "wall_speedup (DMine@processes): 2.00x" in out
    assert "rules 5; one fingerprint abc over 2 rows" in out
