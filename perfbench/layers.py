"""The traced run: spans around layer entry points, turned into per-layer metrics.

Only the traced run (``--trace 1``) imports the patches below.  Each wrapper
replaces a layer entry point *where its caller looks it up* (for example
``repro.stream.identifier.multi_source_ball``) and records a span on the
program's own tracer (:func:`repro.obs.tracing.span`), so the benchmark's
spans and the program's ``stream.*`` / ``dmine.*`` / ``eip.*`` spans form one
tree.  With no tracer installed the wrappers are the program's no-op span
path, which lets a traced run alternate traced and untraced operations.

Work inside worker processes is read only from what the program already
publishes: adopted ``stream.worker.*`` span records, ``RunTimings.rounds``
and the ``REPRO_OBS`` statistics counters.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from repro.obs import stats as obs_stats
from repro.obs import tracing
from repro.obs.registry import registry

#: (module path, attribute path, span name) of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.stream.identifier", "multi_source_ball", "graph.ball"),
    ("repro.partition.lifecycle", "FragmentManager.derive_batch", "partition.derive_batch"),
    ("repro.stream.identifier", "partition_graph", "partition.partition"),
    ("repro.identification.matchc", "partition_graph", "partition.partition"),
    ("repro.mining.dmine", "partition_graph", "partition.partition"),
    ("repro.parallel.runtime", "BSPRuntime.run_round", "parallel.round"),
    ("repro.stream.identifier", "StreamingIdentifier.apply", "stream.identifier_apply"),
    ("repro.api", "Session.answer", "api.answer_page"),
)

#: Counter families read from the metrics registry (``repro_<kind>_<field>_total``).
COUNTERS = {
    "index.sketches_built": "repro_index_sketches_built_total",
    "index.sketch_fast_paths": "repro_index_sketch_fast_paths_total",
    "columnar.fallbacks": "repro_columnar_fallbacks_total",
    "columnar.mask_filters": "repro_columnar_mask_filters_total",
    "columnar.row_filters": "repro_columnar_row_filters_total",
    "match.candidates_considered": "repro_match_candidates_considered_total",
    "match.states_expanded": "repro_match_states_expanded_total",
    "match.backtracks": "repro_match_backtracks_total",
    "match.matches_found": "repro_match_matches_found_total",
    "match.sketch_prunes": "repro_match_sketch_prunes_total",
    "match.profile_prunes": "repro_match_profile_prunes_total",
    "store.hits": "repro_store_hits_total",
    "store.misses": "repro_store_misses_total",
    "store.repair_rechecks": "repro_store_repair_rechecks_total",
    "store.repair_survivors": "repro_store_repair_survivors_total",
}


def _resolve(module_path: str, attr_path: str):
    import importlib

    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _spanned(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracing.span(name):
            return fn(*args, **kwargs)

    return wrapper


class Probe:
    """Instruments one traced run and accumulates per-operation measurements.

    Call :meth:`traced` around every operation whose layers should be
    measured; outside it no tracer is installed and every wrapper is a
    pass-through.  Statistics collection (``REPRO_OBS``) is switched on at
    construction, before any worker pool starts, so pools inherit it.
    """

    def __init__(self) -> None:
        obs_stats.enable_collection()
        obs_stats.reset_collection()
        registry().reset()
        self.tracer = tracing.Tracer()
        self._originals = []
        for module_path, attr_path, name in ENTRY_POINTS:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, _spanned(original, name))

    def close(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        tracing.uninstall()

    @contextmanager
    def traced(self):
        """Install the tracer for one operation; yields the span-record window."""
        window = Window(self.tracer)
        tracing.install(self.tracer)
        try:
            yield window
        finally:
            tracing.uninstall()
            window.close()

    @staticmethod
    def counters() -> dict[str, float]:
        view = registry().counters("repro_")
        return {name: view.get(family, 0.0) for name, family in COUNTERS.items()}


class Window:
    """Span records and counter deltas of one traced operation."""

    def __init__(self, tracer: tracing.Tracer) -> None:
        self._tracer = tracer
        self._first = len(tracer.records())
        self._counters = Probe.counters()
        self.records: list[dict] = []
        self.counters: dict[str, float] = {}

    def close(self) -> None:
        self.records = self._tracer.records()[self._first :]
        after = Probe.counters()
        self.counters = {name: after[name] - self._counters[name] for name in after}

    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(r["duration"] for r in self.records if r["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed self time of spans called *name*.

        Self time is a span's duration minus the part of it that its
        children cover.  Adopted worker spans carry their worker's clock,
        so children only count when they share the parent's clock (the
        ``t<tick>.w<fragment>.`` id prefix).
        """
        by_parent: dict = {}
        for record in self.records:
            by_parent.setdefault(record["parent_id"], []).append(record)
        total = 0.0
        for record in self.records:
            if record["name"] != name:
                continue
            clock = _clock(record["span_id"])
            intervals = sorted(
                (child["start"], child["start"] + child["duration"])
                for child in by_parent.get(record["span_id"], ())
                if _clock(child["span_id"]) == clock
            )
            start, end = record["start"], record["start"] + record["duration"]
            covered, cursor = 0.0, start
            for low, high in intervals:
                low, high = max(low, cursor), min(high, end)
                if high > low:
                    covered += high - low
                    cursor = high
            total += record["duration"] - covered
        return total


def _clock(span_id: str) -> str:
    return span_id.rpartition(".")[0]


def rounds_summary(rounds) -> dict[str, float]:
    """Worker-time totals of BSP rounds (``RunTimings.rounds`` entries)."""
    slowest = sum(max(r.worker_times, default=0.0) for r in rounds)
    summed = sum(sum(r.worker_times) for r in rounds)
    skews = [r.skew for r in rounds]
    return {
        "parallel.worker_max_s": slowest,
        "parallel.worker_sum_s": summed,
        "parallel.skew": sum(skews) / len(skews) if skews else 0.0,
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(counters: dict[str, float]) -> dict[str, float]:
    """Counter deltas plus the derived yield / hit / fallback ratios."""
    out = {name: value for name, value in counters.items() if not name.endswith("_filters")}
    out["match.yield"] = ratio(counters["match.matches_found"], counters["match.states_expanded"])
    out["store.hit_ratio"] = ratio(
        counters["store.hits"], counters["store.hits"] + counters["store.misses"]
    )
    out["columnar.fallback_ratio"] = ratio(
        counters["columnar.fallbacks"],
        counters["columnar.mask_filters"] + counters["columnar.row_filters"],
    )
    return out
