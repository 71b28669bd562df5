"""Fig. 5(i): Match vs Matchc vs disVF2, varying n (Google+).

Same sweep as Fig. 5(h) on the Google+-like graph.
"""

import pytest

from repro.bench import eip_workload, run_eip_config

from conftest import record_series

WORKERS = [2, 4, 8]
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5i", "Fig 5(i): Match varying n (Google+-like)", _rows)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
@pytest.mark.parametrize("n", WORKERS)
def test_match_vary_n_google(benchmark, n, algorithm):
    graph, rules = eip_workload("googleplus", num_rules=8)
    row = benchmark.pedantic(
        lambda: run_eip_config(
            "googleplus", graph, rules, num_workers=n, algorithm=algorithm,
            parameter="n", value=n,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["identified"] >= 0
