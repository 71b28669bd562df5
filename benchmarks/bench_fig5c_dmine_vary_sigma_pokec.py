"""Fig. 5(c): DMine vs DMineno, varying the support threshold σ (Pokec).

Paper setting: σ from 3k to 7k on Pokec.  Here: σ swept over a proportional
range on the Pokec-like graph.  Expected shape: smaller σ ⇒ more candidate
rules survive ⇒ longer runtimes; DMine stays below DMineno and is less
sensitive to σ.
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
    record_series("fig5c", "Fig 5(c): DMine varying sigma (Pokec-like)", _rows)


@pytest.mark.parametrize("optimized", [True, False], ids=["DMine", "DMineno"])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_dmine_vary_sigma_pokec(benchmark, sigma, optimized):
    graph, predicate = mining_workload("pokec")
    row = benchmark.pedantic(
        lambda: run_dmine_config(
            "pokec", graph, predicate,
            num_workers=WORKERS, sigma=sigma, optimized=optimized,
            parameter="sigma", value=sigma,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["rules"] >= 0
