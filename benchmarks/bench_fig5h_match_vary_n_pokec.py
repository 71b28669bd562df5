"""Fig. 5(h): Match vs Matchc vs disVF2, varying n (Pokec).

Paper setting: ‖Σ‖ = 24, |R| = (5, 8), d = 2, n = 4..20 on Pokec.  Here:
8 sampled rules on the Pokec-like graph, n = 2..8 simulated workers.
Expected shape: all three scale with n; Match fastest, disVF2 slowest.
"""

import pytest

from repro.bench import eip_workload, run_eip_config

from conftest import record_series

WORKERS = [2, 4, 8]
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5h", "Fig 5(h): Match varying n (Pokec-like)", _rows)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
@pytest.mark.parametrize("n", WORKERS)
def test_match_vary_n_pokec(benchmark, n, algorithm):
    graph, rules = eip_workload("pokec", num_rules=8)
    row = benchmark.pedantic(
        lambda: run_eip_config(
            "pokec", graph, rules, num_workers=n, algorithm=algorithm,
            parameter="n", value=n,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["identified"] >= 0
