"""Fig. 5(b): DMine vs DMineno, varying n (Google+).

Paper setting: Google+, d = 2, σ = 500, n = 4..20.  Here: the Google+-like
graph with n = 2..8 simulated workers.  Expected shape as in Fig. 5(a).
"""

import pytest

from repro.bench import mining_workload, run_dmine_config

from conftest import record_series

WORKERS = [2, 4, 8]
SIGMA = 8
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5b", "Fig 5(b): DMine varying n (Google+-like)", _rows)


@pytest.mark.parametrize("optimized", [True, False], ids=["DMine", "DMineno"])
@pytest.mark.parametrize("n", WORKERS)
def test_dmine_vary_n_google(benchmark, n, optimized):
    graph, predicate = mining_workload("googleplus")
    row = benchmark.pedantic(
        lambda: run_dmine_config(
            "googleplus", graph, predicate,
            num_workers=n, sigma=SIGMA, optimized=optimized, parameter="n", value=n,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["rules"] >= 0
