"""Fig. 5(e): DMine vs DMineno, varying n on the synthetic graph.

Paper setting: |G| = (10M, 20M), σ = 100, n = 4..20.  Here: a synthetic
graph of ~1.2k nodes / 3.6k edges with n = 2..8 simulated workers.
"""

import pytest

from repro.bench import mining_workload, run_dmine_config

from conftest import record_series

WORKERS = [2, 4, 8]
SIGMA = 4
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5e", "Fig 5(e): DMine varying n (synthetic)", _rows)


@pytest.mark.parametrize("optimized", [True, False], ids=["DMine", "DMineno"])
@pytest.mark.parametrize("n", WORKERS)
def test_dmine_vary_n_synthetic(benchmark, n, optimized):
    graph, predicate = mining_workload("synthetic")
    row = benchmark.pedantic(
        lambda: run_dmine_config(
            "synthetic", graph, predicate,
            num_workers=n, sigma=SIGMA, optimized=optimized, parameter="n", value=n,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["rules"] >= 0
