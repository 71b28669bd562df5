"""Fig. 5(d): DMine vs DMineno, varying σ (Google+).

Same sweep as Fig. 5(c) on the Google+-like graph.
"""

import pytest

from repro.bench import mining_workload, run_dmine_config

from conftest import record_series

SIGMAS = [6, 10, 14]
WORKERS = 4
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5d", "Fig 5(d): DMine varying sigma (Google+-like)", _rows)


@pytest.mark.parametrize("optimized", [True, False], ids=["DMine", "DMineno"])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_dmine_vary_sigma_google(benchmark, sigma, optimized):
    graph, predicate = mining_workload("googleplus")
    row = benchmark.pedantic(
        lambda: run_dmine_config(
            "googleplus", graph, predicate,
            num_workers=WORKERS, sigma=sigma, optimized=optimized,
            parameter="sigma", value=sigma,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["rules"] >= 0
