"""Fig. 5(l): Match vs Matchc vs disVF2, varying the rule radius d (Pokec).

Paper setting: d from 1 to 5, n = 8, ‖Σ‖ = 20.  Here: rule workloads sampled
with maximum radius 1–3 on the Pokec-like graph.  Expected shape: all
algorithms slow down as d grows (larger neighbourhoods to explore); Match
and Matchc are less sensitive than disVF2.
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
    record_series("fig5l", "Fig 5(l): Match varying d (Pokec-like)", _rows)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
@pytest.mark.parametrize("d", RADII)
def test_match_vary_d_pokec(benchmark, d, algorithm):
    graph, rules = eip_workload("pokec", num_rules=6, max_pattern_edges=4, d=d)
    row = benchmark.pedantic(
        lambda: run_eip_config(
            "pokec", graph, rules, num_workers=WORKERS, algorithm=algorithm,
            parameter="d", value=d,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["identified"] >= 0
