"""Fig. 5(f): DMine vs DMineno, varying the synthetic graph size |G|.

Paper setting: |G| from (10M, 20M) to (50M, 100M), n = 16.  Here: node
counts swept from 600 to 2400 (edges = 3 × nodes), n = 4.  Expected shape:
both algorithms take longer on larger graphs, DMine below DMineno.
"""

import pytest

from repro.bench import run_dmine_config, synthetic_mining_workload

from conftest import record_series

SIZES = [(600, 1800), (1200, 3600), (2400, 7200)]
WORKERS = 4
SIGMA = 4
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5f", "Fig 5(f): DMine varying |G| (synthetic)", _rows)


@pytest.mark.parametrize("optimized", [True, False], ids=["DMine", "DMineno"])
@pytest.mark.parametrize("size", SIZES, ids=[f"{v}v" for v, _ in SIZES])
def test_dmine_vary_size_synthetic(benchmark, size, optimized):
    num_nodes, num_edges = size
    graph, predicate = synthetic_mining_workload(num_nodes, num_edges)
    row = benchmark.pedantic(
        lambda: run_dmine_config(
            "synthetic", graph, predicate,
            num_workers=WORKERS, sigma=SIGMA, optimized=optimized,
            parameter="|G|", value=f"({num_nodes},{num_edges})",
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["rules"] >= 0
