"""Fig. 5(o): Match vs Matchc vs disVF2, varying the synthetic graph size.

Paper setting: |G| from (10M, 20M) to (50M, 100M), n = 4, ‖Σ‖ = 24.  Here:
node counts 600–2400 (edges = 3 × nodes), 8 rules, n = 4.  Expected shape:
all algorithms grow with |G|; Match the least sensitive, disVF2 the most.
"""

import pytest

from repro.bench import run_eip_config, synthetic_eip_workload

from conftest import record_series

SIZES = [(600, 1800), (1200, 3600), (2400, 7200)]
WORKERS = 4
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5o", "Fig 5(o): Match varying |G| (synthetic)", _rows)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
@pytest.mark.parametrize("size", SIZES, ids=[f"{v}v" for v, _ in SIZES])
def test_match_vary_size_synthetic(benchmark, size, algorithm):
    num_nodes, num_edges = size
    graph, rules = synthetic_eip_workload(num_nodes, num_edges, num_rules=8)
    row = benchmark.pedantic(
        lambda: run_eip_config(
            "synthetic", graph, rules, num_workers=WORKERS, algorithm=algorithm,
            parameter="|G|", value=f"({num_nodes},{num_edges})",
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["identified"] >= 0
