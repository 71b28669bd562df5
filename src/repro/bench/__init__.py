"""Benchmark harness shared by the ``benchmarks/`` suite.

Each benchmark module under ``benchmarks/`` regenerates one table or figure
of the paper's evaluation (Section 6).  The helpers here build the workloads
(graphs, predicates, rule sets Σ), run one configuration of DMine / DMineno /
Match / Matchc / disVF2 on any execution backend as plain-dict rows keyed by
their JSON column names, compare configurations (:func:`run_comparison`),
and format the measured series — as the paper-style text tables and as
machine-readable JSON for the CI perf trajectory.  ``python -m
repro.bench.smoke`` runs one small, gated workload per family
(:data:`repro.bench.smoke.FAMILIES`) as a fast regression canary.
"""

from repro.bench.workloads import (
    eip_workload,
    mining_workload,
    synthetic_eip_workload,
    synthetic_mining_workload,
)
from repro.bench.harness import run_comparison, run_dmine_config, run_eip_config
from repro.bench.reporting import format_rows, print_series, rows_as_json, wall_speedups

__all__ = [
    "mining_workload",
    "eip_workload",
    "synthetic_mining_workload",
    "synthetic_eip_workload",
    "run_dmine_config",
    "run_eip_config",
    "run_comparison",
    "format_rows",
    "print_series",
    "rows_as_json",
    "wall_speedups",
]
