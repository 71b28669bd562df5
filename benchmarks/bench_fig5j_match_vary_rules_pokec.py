"""Fig. 5(j): Match vs Matchc vs disVF2, varying ‖Σ‖ (Pokec).

Paper setting: ‖Σ‖ from 8 to 48, n = 8, d = 2.  Here: rule-set sizes 4–16 on
the Pokec-like graph.  Expected shape: all algorithms grow with ‖Σ‖; Match is
the least sensitive because per-candidate work is shared across rules.
"""

import pytest

from repro.bench import eip_workload, run_eip_config

from conftest import record_series

RULE_COUNTS = [4, 8, 16]
WORKERS = 4
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series("fig5j", "Fig 5(j): Match varying ||Sigma|| (Pokec-like)", _rows)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
@pytest.mark.parametrize("num_rules", RULE_COUNTS)
def test_match_vary_rules_pokec(benchmark, num_rules, algorithm):
    graph, rules = eip_workload("pokec", num_rules=num_rules)
    row = benchmark.pedantic(
        lambda: run_eip_config(
            "pokec", graph, rules, num_workers=WORKERS, algorithm=algorithm,
            parameter="rules", value=num_rules,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["identified"] >= 0
