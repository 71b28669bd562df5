"""Tests for the benchmark harness and the multi-predicate mining helpers."""

import json
from functools import partial

import pytest

from repro.bench import format_rows, print_series, rows_as_json, wall_speedups
from repro.bench.harness import run_comparison, run_dmine_config, run_eip_config
from repro.bench.workloads import eip_workload, mining_workload, synthetic_mining_workload
from repro.datasets import most_frequent_predicates
from repro.mining import DMineConfig, dmine_auto, dmine_for_predicates


class TestReporting:
    def test_format_rows_aligns_columns(self):
        rows = [
            {"dataset": "pokec", "n": 2, "time": 1.5},
            {"dataset": "googleplus", "n": 16, "time": 0.25},
        ]
        text = format_rows(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "dataset" in lines[0]
        assert "googleplus" in lines[3]

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_format_rows_rounds_floats(self):
        rows = [
            {"algorithm": "match", "wall_s": 1.23456},
            {"algorithm": "match", "wall_s": 0.5, "wall_speedup": 2.46913},
        ]
        text = format_rows(rows)
        assert "1.235" in text and "1.23456" not in text
        # Columns are the union over rows, so a variant's speedup shows.
        assert "wall_speedup" in text.splitlines()[0]
        assert "2.469" in text

    def test_print_series_smoke(self, capsys):
        print_series("demo", [{"a": 1}])
        captured = capsys.readouterr()
        assert "demo" in captured.out

    def test_wall_speedups(self):
        rows = [
            {"backend": "sequential", "wall_s": 2.0},
            {"backend": "processes", "wall_s": 0.5},
            {"backend": "threads", "wall_s": 0.0},
        ]
        speedups = wall_speedups(rows)
        assert speedups["sequential"] == pytest.approx(1.0)
        assert speedups["processes"] == pytest.approx(4.0)
        assert "threads" not in speedups  # zero wall time is dropped

    def test_wall_speedups_without_baseline(self):
        assert wall_speedups([{"backend": "processes", "wall_s": 1.0}]) == {}

    def test_rows_as_json_is_machine_readable(self):
        row = {
            "dataset": "pokec", "algorithm": "match", "backend": "processes",
            "wall_s": 1.00049, "identified": 10, "wall_speedup": 1.7,
        }
        data = json.loads(rows_as_json("smoke_match", "a title", [row]))
        assert data["name"] == "smoke_match"
        assert data["rows"][0]["backend"] == "processes"
        assert data["rows"][0]["wall_speedup"] == 1.7
        assert data["rows"][0]["wall_s"] == 1.0


class TestWorkloads:
    def test_mining_workload_datasets(self):
        for dataset in ("pokec", "googleplus", "synthetic"):
            graph, predicate = mining_workload(dataset, scale=120 if dataset != "synthetic" else 300)
            assert graph.num_nodes > 0
            assert predicate.num_edges == 1

    def test_mining_workload_is_cached(self):
        first = mining_workload("pokec", scale=120)
        second = mining_workload("pokec", scale=120)
        assert first[0] is second[0]

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            mining_workload("twitter")

    def test_eip_workload_rules_share_predicate(self):
        graph, rules = eip_workload("pokec", num_rules=4, scale=120, seed=3)
        assert len(rules) == 4
        signatures = {(r.x_label, r.consequent_label, r.y_label) for r in rules}
        assert len(signatures) == 1

    def test_synthetic_workload_size(self):
        graph, predicate = synthetic_mining_workload(300, 900)
        assert graph.num_nodes == 300
        assert graph.num_edges == 900


class TestHarnessRunners:
    def test_run_dmine_config_row(self):
        graph, predicate = mining_workload("pokec", scale=120)
        row = run_dmine_config(
            "pokec", graph, predicate, num_workers=2, sigma=6,
            optimized=True, parameter="n", value=2,
            max_edges=1, max_extensions_per_rule=5, max_rules_per_round=10,
        )
        assert row["algorithm"] == "DMine"
        assert row["sim_parallel_s"] >= 0
        assert row["n"] == 2
        assert row["rules"] > 0

    def test_run_eip_config_row(self):
        graph, rules = eip_workload("pokec", num_rules=3, scale=120, seed=3)
        row = run_eip_config(
            "pokec", graph, rules, num_workers=2, algorithm="match",
            parameter="n", value=2,
        )
        assert row["identified"] >= 0
        assert row["algorithm"] == "match"

    def test_run_dmine_backends_annotates_speedup(self):
        graph, predicate = mining_workload("pokec", scale=120)
        run_one = partial(
            run_dmine_config, "pokec", graph, predicate, 2, 6, parameter="backend",
            max_edges=1, max_extensions_per_rule=5, max_rules_per_round=10,
        )
        rows = run_comparison(
            run_one, [[{"backend": "sequential"}, {"backend": "processes"}]],
            "wall_speedup", "rules",
        )
        assert [row["backend"] for row in rows] == ["sequential", "processes"]
        # Same configuration on both backends must mine the same rules —
        # the fingerprint hashes rule structure + support + confidence.
        assert rows[0]["fingerprint"] and rows[0]["fingerprint"] == rows[1]["fingerprint"]
        assert rows[0]["rules"] == rows[1]["rules"] > 0
        assert rows[0]["F(Lk)"] == pytest.approx(rows[1]["F(Lk)"])
        assert "wall_speedup" not in rows[0]
        assert rows[1]["wall_speedup"] > 0


class TestMultiPredicateMining:
    def test_dmine_for_predicates(self, g1, visit_predicate):
        config = DMineConfig(
            k=2, d=1, sigma=1, num_workers=2, max_edges=1,
            max_extensions_per_rule=6, max_rules_per_round=10,
        )
        results = dmine_for_predicates(g1, [visit_predicate, visit_predicate], config)
        # Duplicate predicates are mined once.
        assert len(results) == 1
        assert results[visit_predicate].top_k

    def test_dmine_auto_uses_frequent_predicates(self, g1):
        config = DMineConfig(
            k=2, d=1, sigma=1, num_workers=2, max_edges=1,
            max_extensions_per_rule=5, max_rules_per_round=10,
        )
        results = dmine_auto(g1, config, top_predicates=2)
        assert len(results) == 2
        frequent = most_frequent_predicates(g1, top=2)
        assert set(results) == set(frequent)
