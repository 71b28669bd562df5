"""Fig. 5(k): Match vs Matchc vs disVF2, varying ‖Σ‖ (Google+).

Same sweep as Fig. 5(j) on the Google+-like graph.
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
    record_series("fig5k", "Fig 5(k): Match varying ||Sigma|| (Google+-like)", _rows)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
@pytest.mark.parametrize("num_rules", RULE_COUNTS)
def test_match_vary_rules_google(benchmark, num_rules, algorithm):
    graph, rules = eip_workload("googleplus", num_rules=num_rules)
    row = benchmark.pedantic(
        lambda: run_eip_config(
            "googleplus", graph, rules, num_workers=WORKERS, algorithm=algorithm,
            parameter="rules", value=num_rules,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append(row)
    assert row["identified"] >= 0
