"""Fig. 5(p) — reproduction extra: real wall-clock speedup per backend.

The paper's scalability figures report *simulated* parallel time (max worker
time + coordinator time per round), which is deterministic but never shows a
real multi-core win.  This series runs the same DMine and Match
configurations on the sequential, thread and process backends and reports
the measured wall-clock speedup of each over sequential — the number that
should track the processor count on real hardware (Exp-1/Exp-3 headline
claim).  On a single-core machine the process backend legitimately reports
≈1x or below; the series is about the measurement machinery, so rows only
assert result equivalence, not a speedup floor.  The inputs are chosen so
that the compared answers are non-empty: σ=1 mines rules on the synthetic
graph, and Match runs the sampled Σ of the Pokec-like graph.
"""

from functools import partial

import pytest

from repro.bench import (
    eip_workload,
    mining_workload,
    run_comparison,
    run_dmine_config,
    run_eip_config,
)

from conftest import record_series

# One comparison group: the sequential baseline, then each parallel backend.
BACKEND_GROUP = [[{"backend": name} for name in ("sequential", "threads", "processes")]]
WORKERS = 4
SIGMA = 1
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series(
        "fig5p", "Fig 5(p): real wall-clock speedup per execution backend", _rows
    )


def test_dmine_backend_speedup(benchmark):
    graph, predicate = mining_workload("synthetic")
    run_one = partial(
        run_dmine_config, "synthetic", graph, predicate, WORKERS, SIGMA, parameter="backend"
    )
    # run_comparison is the correctness gate: it raises unless every backend
    # mines the same, non-empty rule set (the fingerprint hashes rule
    # structure + support + confidence).
    rows = benchmark.pedantic(
        lambda: run_comparison(run_one, BACKEND_GROUP, "wall_speedup", "rules"),
        rounds=1,
        iterations=1,
    )
    _rows.extend(rows)


def test_match_backend_speedup(benchmark):
    graph, rules = eip_workload("pokec", num_rules=6)
    run_one = partial(
        run_eip_config, "pokec", graph, rules, WORKERS, "match", eta=0.5,
        parameter="backend",
    )
    rows = benchmark.pedantic(
        lambda: run_comparison(run_one, BACKEND_GROUP, "wall_speedup", "identified"),
        rounds=1,
        iterations=1,
    )
    _rows.extend(rows)
