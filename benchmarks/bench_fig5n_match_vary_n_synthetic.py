"""Fig. 5(n): Match vs Matchc vs disVF2, varying n on the synthetic graph.

Paper setting: |G| = (50M, 100M), ‖Σ‖ = 24, η = 1.5, n = 4..20.  Here: the
benchmark-scale synthetic graph with 8 rules and n = 2..8 workers.
"""

import pytest

from repro.bench import run_eip_config, synthetic_eip_workload

from conftest import record_series

WORKERS = [2, 4, 8]
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5n", "Fig 5(n): Match varying n (synthetic)", _rows)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
@pytest.mark.parametrize("n", WORKERS)
def test_match_vary_n_synthetic(benchmark, n, algorithm):
    graph, rules = synthetic_eip_workload(1200, 3600, num_rules=8)
    row = benchmark.pedantic(
        lambda: run_eip_config(
            "synthetic", graph, rules, num_workers=n, algorithm=algorithm,
            parameter="n", value=n,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["identified"] >= 0
