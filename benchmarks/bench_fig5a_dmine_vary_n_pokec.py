"""Fig. 5(a): DMine vs DMineno, varying the number of processors n (Pokec).

Paper setting: Pokec, d = 2, σ = 5000, n = 4..20.  Here: the Pokec-like
graph, d = 2, a proportionally scaled σ, n = 2..8 simulated workers.  The
expected shape: time decreases as n grows, and DMine stays below DMineno.
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
    record_series("fig5a", "Fig 5(a): DMine varying n (Pokec-like)", _rows)


@pytest.mark.parametrize("optimized", [True, False], ids=["DMine", "DMineno"])
@pytest.mark.parametrize("n", WORKERS)
def test_dmine_vary_n_pokec(benchmark, n, optimized):
    graph, predicate = mining_workload("pokec")
    row = benchmark.pedantic(
        lambda: run_dmine_config(
            "pokec", graph, predicate,
            num_workers=n, sigma=SIGMA, optimized=optimized, parameter="n", value=n,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["rules"] >= 0
