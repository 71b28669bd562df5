"""Fig. 5(m): Match vs Matchc vs disVF2, varying d (Google+).

Same sweep as Fig. 5(l) on the Google+-like graph.
"""

import pytest

from repro.bench import eip_workload, run_eip_config

from conftest import record_series

RADII = [1, 2, 3]
WORKERS = 4
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5m", "Fig 5(m): Match varying d (Google+-like)", _rows)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
@pytest.mark.parametrize("d", RADII)
def test_match_vary_d_google(benchmark, d, algorithm):
    graph, rules = eip_workload("googleplus", num_rules=6, max_pattern_edges=4, d=d)
    row = benchmark.pedantic(
        lambda: run_eip_config(
            "googleplus", graph, rules, num_workers=WORKERS, algorithm=algorithm,
            parameter="d", value=d,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["identified"] >= 0
