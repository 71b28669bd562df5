"""In-process workloads: the two streaming ticks and batch mine→identify.

Each driver receives generated :class:`inputs.Inputs`, times only calls into
``repro.api``, checks the answers outside the timed region and returns a
:class:`Outcome`.  With a :class:`layers.Probe` (the traced run) every other
operation runs traced, so the per-layer numbers and the tracing overhead
come from one run.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    Budget,
    PeakSampler,
    digest,
    median,
    own_hwm_mb,
    percentile,
    reset_peak_rss,
    rule_doc,
    same_answer,
    tree_hwm_mb,
)
from inputs import POKEC_PREDICATE, eip_config, mine_config

from repro import api
from repro.graph.io import load_graph_json
from repro.obs import tracing

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Ticks after which the maintained answer is compared with a recompute
#: (the end of the run is always checked too).
CHECK_TICKS = (1, 16, 64)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    mismatches: int = 0
    #: The workload's end-to-end numbers: setup and operation latencies (s).
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    #: Peak RSS of the system (the coordinator plus its live workers), and
    #: of the coordinator alone.
    peak_rss_mb: float = 0.0
    coordinator_rss_mb: float = 0.0
    #: Workload-specific figures for the human-readable table: name -> (value, unit).
    details: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.mismatches += 1
            self.notes.append(f"check failed: {what}")


def _setup_session(inputs, probe, traced: bool):
    """Load the generated graph and open a session; returns (session, seconds, window)."""
    if traced:
        with probe.traced() as window:
            session, elapsed = _open(inputs)
        return session, elapsed, window
    session, elapsed = _open(inputs)
    return session, elapsed, None


def _open(inputs):
    started = time.perf_counter()
    graph = load_graph_json(inputs.graph_path)
    session = api.open_session(graph, inputs.rules, config=eip_config(inputs.seed))
    return session, time.perf_counter() - started


# ----------------------------------------------------------------------
# streaming: one closed-loop writer applying pre-generated batches
# ----------------------------------------------------------------------
def run_stream(inputs, seconds: float, probe=None) -> Outcome:
    outcome = Outcome()
    reset_peak_rss()
    session = setup_window = None
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        candidate, elapsed, window = _setup_session(inputs, probe, probe is not None and last)
        outcome.setup_s.append(elapsed)
        if last:
            session, setup_window = candidate, window
        else:
            candidate.close()
    try:
        _stream_loop(session, inputs, seconds, probe, outcome, setup_window)
        # The kept session's worker pool is still alive here.
        outcome.coordinator_rss_mb = own_hwm_mb(os.getpid())
        outcome.peak_rss_mb = tree_hwm_mb(os.getpid())
    finally:
        session.close()
    return outcome


def _stream_loop(session, inputs, seconds, probe, outcome, setup_window) -> None:
    budget = Budget(seconds)
    untraced, traced = [], []
    windows, reports, centres = [], [], []
    for index, batch in enumerate(inputs.batches):
        if budget.exhausted:
            break
        trace_this = probe is not None and index % 2 == 1
        outcome.attempted += 1
        rounds_before = len(session.result.timings.rounds)
        started = time.perf_counter()
        try:
            if trace_this:
                with probe.traced() as window:
                    with tracing.span("api.apply"):
                        report, _delta = session.apply(batch)
                    session.answer(limit=50)
            else:
                report, _delta = session.apply(batch)
        except Exception as exc:  # a failed tick ends the run: the session is suspect
            outcome.failed += 1
            outcome.notes.append(f"tick {index + 1} failed: {exc!r}")
            break
        elapsed = time.perf_counter() - started
        budget.add(elapsed)
        # A traced tick's latency excludes the answer page read after it.
        (traced if trace_this else untraced).append(
            window.total("api.apply") if trace_this else elapsed
        )
        if trace_this:
            window.rounds = session.result.timings.rounds[rounds_before:]
            windows.append(window)
            reports.append(report)
            centres.append(inputs.centres[index])
        if index + 1 in CHECK_TICKS:
            outcome.check(same_answer(session.result, session.recompute()), f"tick {index + 1}")
    ticks = len(untraced) + len(traced)
    if ticks and ticks not in CHECK_TICKS and not outcome.failed:
        outcome.check(same_answer(session.result, session.recompute()), f"final tick {ticks}")
    # A tick's latency is Session.apply from batch in to delta published;
    # traced ticks only feed the per-layer numbers.
    outcome.op_s = untraced
    ops = sum(len(batch.ops) for batch in inputs.batches[:ticks])
    outcome.details.update(
        {
            "ticks": (ticks, "count"),
            "tick_p50_ms": (median(outcome.op_s) * 1e3, "ms"),
            "tick_p90_ms": (percentile(outcome.op_s, 0.9) * 1e3, "ms"),
            "updates_per_s": (ops / sum(outcome.op_s) if outcome.op_s else 0.0, "1/s"),
        }
    )
    if probe is not None:
        outcome.layers = _stream_layers(windows, reports, centres, setup_window)
        if traced and untraced:
            outcome.layers["obs.trace_overhead"] = median(traced) / median(untraced) - 1
        if windows:
            share = outcome.layers["stream.accounted_share"]
            outcome.check(share >= 0.9, f"traced phases cover only {share:.0%} of tick wall time")


def _stream_layers(windows, reports, centres, setup_window) -> dict:
    from layers import counter_metrics, ratio, rounds_summary

    layers: dict = {}
    if setup_window is not None:
        layers["partition.partition_s"] = setup_window.total("partition.partition")
        layers["stream.initial_verify_s"] = setup_window.total("stream.initial_verify")
    if not windows:
        return layers
    n = len(windows)

    def per_tick(fn) -> float:
        return sum(fn(window) for window in windows) / n

    layers.update(
        {
            "graph.ball_s": per_tick(lambda w: w.total("graph.ball")),
            "graph.index_refresh_s": per_tick(lambda w: w.total("stream.worker.index_refresh")),
            "graph.columnar_refresh_s": per_tick(
                lambda w: w.total("stream.worker.columnar_refresh")
            ),
            "partition.derive_batch_s": per_tick(lambda w: w.total("partition.derive_batch")),
            "parallel.round_s": per_tick(lambda w: w.total("parallel.round")),
            "stream.slice_build_s": per_tick(lambda w: w.self_time("stream.slice_build")),
            "stream.verify_s": per_tick(lambda w: w.self_time("stream.verify")),
            "stream.worker_verify_s": per_tick(lambda w: w.self_time("stream.worker.verify")),
            "stream.assemble_s": per_tick(lambda w: w.self_time("stream.assemble")),
            "stream.apply_batch_s": per_tick(lambda w: w.self_time("stream.apply_batch")),
            "api.publish_s": per_tick(
                lambda w: w.total("api.apply") - w.total("stream.identifier_apply")
            ),
            "api.answer_page_s": per_tick(lambda w: w.total("api.answer_page")),
            "partition.recheck_ratio": ratio(
                sum(r.rechecked_centers for r in reports), sum(centres)
            ),
            "partition.shipped_edges": sum(r.shipped_edges for r in reports) / n,
            "partition.resident_nodes": sum(r.resident_nodes for r in reports) / n,
        }
    )
    rounds = [timing for window in windows for timing in window.rounds]
    summary = rounds_summary(rounds)
    layers["parallel.worker_max_s"] = summary["parallel.worker_max_s"] / n
    layers["parallel.worker_sum_s"] = summary["parallel.worker_sum_s"] / n
    layers["parallel.skew"] = summary["parallel.skew"]
    layers["parallel.dispatch_s"] = layers["parallel.round_s"] - layers["parallel.worker_max_s"]
    totals = {name: sum(w.counters[name] for w in windows) for name in windows[0].counters}
    for name, value in counter_metrics(totals).items():
        layers[name] = value if name.endswith(("yield", "ratio")) else value / n
    phases = sum(
        w.total(name)
        for w in windows
        for name in ("stream.apply_batch", "stream.slice_build", "stream.verify", "stream.assemble")
    )
    wall = sum(w.total("api.apply") for w in windows)
    layers["stream.accounted_share"] = ratio(phases + layers["api.publish_s"] * n, wall)
    return layers


# ----------------------------------------------------------------------
# batch: DMine then EIP over the mined plus sampled rules, as one job
# ----------------------------------------------------------------------
MIN_JOBS = 2


def run_batch(inputs, seconds: float, probe=None, expected: str | None = None) -> Outcome:
    outcome = Outcome()
    budget = Budget(seconds)
    mine_walls, identify_walls, untraced, traced = [], [], [], []
    fingerprints = set()
    layers = {}
    reset_peak_rss()
    outcome.setup_s = [cold_start_s(inputs) for _ in range(SETUPS)]
    graph = load_graph_json(inputs.graph_path)
    with PeakSampler() as memory:
        job = 0
        # Jobs are long, so stop before one that would overrun the run length.
        while job < MIN_JOBS or budget.spent + budget.spent / job <= budget.seconds:
            trace_this = probe is not None and job % 2 == 1
            outcome.attempted += 1
            # Each job starts from a collected heap, like a fresh one-shot run:
            # the worker pools fork from this process, so garbage left by the
            # previous job would otherwise inflate their memory at random.
            gc.collect()
            try:
                if trace_this:
                    with probe.traced() as window:
                        mined, result, walls = mine_then_identify(graph, inputs)
                else:
                    mined, result, walls = mine_then_identify(graph, inputs)
            except Exception as exc:
                outcome.failed += 1
                outcome.notes.append(f"job {job + 1} failed: {exc!r}")
                break
            wall = sum(walls)
            budget.add(wall)
            outcome.op_s.append(wall)
            (traced if trace_this else untraced).append(wall)
            if not trace_this:
                mine_walls.append(walls[0])
                identify_walls.append(walls[1])
            fingerprints.add(job_fingerprint(mined, result))
            if trace_this and not layers:
                layers = _batch_layers(window, mined, result)
            job += 1
    outcome.coordinator_rss_mb = own_hwm_mb(os.getpid())
    outcome.peak_rss_mb = memory.peak_mb
    outcome.check(len(fingerprints) <= 1, "repeated jobs disagree")
    if expected is not None and fingerprints:
        outcome.check(fingerprints == {expected}, "mined Σ / identified set fingerprint moved")
    outcome.details.update(
        {
            "jobs": (len(outcome.op_s), "count"),
            "mine_s": (median(mine_walls), "s"),
            "identify_s": (median(identify_walls), "s"),
            "job_fingerprint": (sorted(fingerprints)[0] if fingerprints else "", ""),
        }
    )
    if probe is not None:
        layers["api.mine_s"] = median(mine_walls)
        layers["api.identify_s"] = median(identify_walls)
        if traced and untraced:
            layers["obs.trace_overhead"] = median(traced) / median(untraced) - 1
        outcome.layers = layers
    return outcome


#: A one-shot job's set-up: a fresh interpreter imports ``repro.api``, parses
#: the predicate and loads the graph.  Timing only the in-process graph load
#: (a few ms) gave medians that moved by half from run to run.
_COLD_START = (
    "import sys\n"
    "from repro import api\n"
    "from repro.graph.io import load_graph_json\n"
    "api.parse_predicate(sys.argv[2])\n"
    "load_graph_json(sys.argv[1])\n"
)


def cold_start_s(inputs) -> float:
    """Wall time of one :data:`_COLD_START` process, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(api.__file__).resolve().parent.parent))
    command = [sys.executable, "-c", _COLD_START, str(inputs.graph_path), POKEC_PREDICATE]
    started = time.perf_counter()
    # No timeout: with one, ``wait`` polls in steps of up to 50 ms.
    subprocess.run(command, env=env, check=True)
    return time.perf_counter() - started


def mine_then_identify(graph, inputs):
    started = time.perf_counter()
    with tracing.span("api.mine"):
        mined = api.mine(graph, inputs.predicate, mine_config(inputs.seed, **inputs.extra["mine"]))
    mine_wall = time.perf_counter() - started
    rules = [entry.rule for entry in mined.top_k] + list(inputs.rules)
    started = time.perf_counter()
    with tracing.span("api.identify"):
        result = api.identify(graph, rules, eip_config(inputs.seed))
    return mined, result, (mine_wall, time.perf_counter() - started)


def job_fingerprint(mined, result) -> str:
    return digest(
        {
            "mined": [
                rule_doc(entry.rule) + [repr(entry.confidence), entry.support]
                for entry in mined.top_k
            ],
            "identified": sorted(map(str, result.identified)),
        }
    )


def _batch_layers(window, mined, result) -> dict:
    from layers import counter_metrics, ratio, rounds_summary

    layers = {
        "mining.propose_s": window.total("dmine.propose"),
        "mining.evaluate_s": window.total("dmine.evaluate"),
        "mining.rounds": mined.rounds_executed,
        "mining.candidates_generated": mined.candidates_generated,
        "mining.prune_ratio": ratio(mined.candidates_pruned, mined.candidates_generated),
        "identification.partition_s": window.total("eip.partition"),
        "identification.verify_s": window.total("eip.verify"),
        "identification.assemble_s": window.total("eip.assemble"),
        "identification.prefix_pool_hits": result.prefix_pool_hits,
        "partition.partition_s": window.total("partition.partition"),
        "parallel.round_s": window.total("parallel.round"),
    }
    layers.update(rounds_summary(list(mined.timings.rounds) + list(result.timings.rounds)))
    layers["parallel.dispatch_s"] = layers["parallel.round_s"] - layers["parallel.worker_max_s"]
    layers.update(counter_metrics(window.counters))
    return layers
