"""``serve_mixed``: paged answer reads beside update ticks on a ``repro serve`` subprocess.

The server runs in its own process group on a fresh ephemeral port and is
torn down by killing the whole group: on SIGTERM ``repro serve`` leaves its
process-pool children alive, still holding the listening socket.  Load is
an open loop from this process over two keep-alive connections — one
reader thread paging ``GET /sessions/{id}/answer?limit=50`` at a fixed rate,
alternating tenants, and one writer posting an 8-op update batch at a fixed
period.  Every request is timed from when it was due and bounded by a
timeout; a timeout, an exception or a non-2xx status counts as a failure.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import quote

from common import median, own_hwm_mb, percentile, tree_hwm_mb
from inputs import (
    BACKEND,
    ETA,
    POKEC_PREDICATE,
    SERVE_PERIOD_S,
    SERVE_READ_RATE,
    TENANTS,
    WORKERS,
    eip_config,
)
from workloads import SETUPS, Outcome

from repro import api
from repro.graph.io import load_graph_json

REQUEST_TIMEOUT_S = 15.0
START_TIMEOUT_S = 60.0
PAGE_LIMIT = 50


class Server:
    """One ``repro serve`` process group on an ephemeral port."""

    def __init__(self, checkout, log_path, collect_stats: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(checkout / "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["REPRO_OBS"] = "1" if collect_stats else "0"
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=checkout,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        buffered = b""
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                found = re.search(rb"http://127\.0\.0\.1:(\d+)", buffered)
                if found:
                    return int(found.group(1))
            elif self.process.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"repro serve did not report its port: {buffered!r}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        """Kill the whole process group and wait until every member is gone."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=30)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.process.stdout.close()
        self._log.close()


def request(conn, method: str, path: str, body=None):
    """One request on a keep-alive connection; returns (status, parsed JSON or text)."""
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload is not None else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    kind = response.getheader("Content-Type", "")
    return response.status, (json.loads(raw) if "json" in kind else raw.decode("utf-8"))


def _session_body(inputs, tenant: str, count: int) -> dict:
    return {
        "graph_path": str(inputs.graph_path),
        "predicate": POKEC_PREDICATE,
        "rules": count,
        "max_edges": 4,
        "d": 2,
        "seed": inputs.seed,
        "eta": ETA,
        "workers": WORKERS,
        "backend": BACKEND,
        "tenant": tenant,
    }


def start(inputs, checkout, log_path, collect_stats: bool):
    """Spawn a server and admit both tenants; returns (server, seconds, sessions)."""
    started = time.perf_counter()
    server = Server(checkout, log_path, collect_stats)
    try:
        conn = server.connect()
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                status, _ = request(conn, "GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                conn.close()
                conn = server.connect()
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.02)
        sessions = {}
        for tenant, count in TENANTS:
            status, info = request(conn, "POST", "/sessions", _session_body(inputs, tenant, count))
            if status != 201:
                raise RuntimeError(f"POST /sessions for tenant {tenant} returned {status}: {info}")
            sessions[tenant] = info
        elapsed = time.perf_counter() - started
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, elapsed, sessions


# ----------------------------------------------------------------------
# the open loop
# ----------------------------------------------------------------------
class Load:
    """Client-side record of one open-loop run."""

    def __init__(self) -> None:
        self.reads: list[float] = []
        self.read_late: list[float] = []
        self.reads_during_update = 0
        self.updates: list[float] = []
        self.update_reports: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.update_in_flight = threading.Event()
        self._lock = threading.Lock()

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def _wait_until(due: float) -> float:
    """Sleep until *due*; returns how late the generator is (0 when on time)."""
    now = time.perf_counter()
    if now < due:
        time.sleep(due - now)
        return 0.0
    return now - due


def _timed(conn, method, path, body, due, load):
    """Send one request now; returns (latency from *due*, body) or None on failure."""
    with load._lock:
        load.attempted += 1
    try:
        status, document = request(conn, method, path, body)
    except (OSError, http.client.HTTPException) as exc:
        load.fail(f"{method} {path}: {exc!r}")
        conn.close()
        return None
    if not 200 <= status < 300:
        load.fail(f"{method} {path}: HTTP {status}")
        return None
    return time.perf_counter() - due, document


def _reader(server, sessions, seconds, t0, load) -> None:
    conn = server.connect()
    tenants = [sessions[name]["session"] for name, _ in TENANTS]
    total = int(seconds * SERVE_READ_RATE)
    try:
        for k in range(total):
            due = t0 + k / SERVE_READ_RATE
            late = _wait_until(due)
            overlapped = load.update_in_flight.is_set()
            path = f"/sessions/{tenants[k % 2]}/answer?limit={PAGE_LIMIT}"
            outcome = _timed(conn, "GET", path, None, due, load)
            if outcome is not None:
                load.reads.append(outcome[0])
                load.read_late.append(late)
                load.reads_during_update += overlapped
    finally:
        conn.close()


def _writer(server, sessions, batches, seconds, t0, load) -> None:
    conn = server.connect()
    tenants = [sessions[name]["session"] for name, _ in TENANTS]
    try:
        for j, batch in enumerate(batches):
            due = t0 + SERVE_PERIOD_S / 3 + j * SERVE_PERIOD_S
            if due - t0 >= seconds:
                break
            body = {"ops": [op.as_dict() for op in batch.ops]}
            _wait_until(due)
            load.update_in_flight.set()
            try:
                outcome = _timed(conn, "POST", f"/sessions/{tenants[j % 2]}/updates", body, due, load)
            finally:
                load.update_in_flight.clear()
            if outcome is not None:
                load.updates.append(outcome[0])
                load.update_reports.append(outcome[1])
    finally:
        conn.close()


def _open_loop(server, sessions, batches, seconds: float) -> Load:
    """Run the reader and the writer against *server* for *seconds*."""
    load = Load()
    t0 = time.perf_counter() + 0.05
    threads = [
        threading.Thread(target=_reader, args=(server, sessions, seconds, t0, load)),
        threading.Thread(target=_writer, args=(server, sessions, batches, seconds, t0, load)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return load


def run_serve(inputs, seconds: float, probe, checkout) -> Outcome:
    outcome = Outcome()
    log_path = inputs.graph_path.with_name("serve.log")
    baseline = None
    if probe is not None:
        # obs.trace_overhead compares the traced server with a plain one
        # under the same load; each gets half of the run.
        seconds /= 2
        plain, _elapsed, plain_sessions = start(inputs, checkout, log_path, False)
        try:
            baseline = _open_loop(plain, plain_sessions, inputs.batches, seconds)
        finally:
            plain.stop()
    server = None
    try:
        for _attempt in range(SETUPS):
            if server is not None:
                server.stop()
            server, elapsed, sessions = start(inputs, checkout, log_path, probe is not None)
            outcome.setup_s.append(elapsed)
        conn = server.connect()
        versions = {}
        for tenant, info in sessions.items():
            _status, first = request(conn, "GET", f"/sessions/{info['session']}/answer?limit=1")
            versions[tenant] = first["graph_version"]
        conn.close()
        load = _open_loop(server, sessions, inputs.batches, seconds)
        outcome.coordinator_rss_mb = own_hwm_mb(server.process.pid)
        outcome.peak_rss_mb = tree_hwm_mb(server.process.pid)
        conn = server.connect()
        _status, metrics_text = request(conn, "GET", "/metrics")
        answers = {
            tenant: _full_answer(conn, info["session"]) for tenant, info in sessions.items()
        }
        conn.close()
    finally:
        if server is not None:
            server.stop()
    for part in (baseline, load):
        if part is not None:
            outcome.attempted += part.attempted
            outcome.failed += part.failed
            outcome.notes.extend(part.errors)
    outcome.op_s = load.reads
    _check_answers(inputs, versions, answers, outcome)
    outcome.details.update(
        {
            "reads": (len(load.reads), "count"),
            "read_p50_ms": (median(load.reads) * 1e3, "ms"),
            "read_p90_ms": (percentile(load.reads, 0.9) * 1e3, "ms"),
            "read_p99_ms": (percentile(load.reads, 0.99) * 1e3, "ms"),
            "updates": (len(load.updates), "count"),
            "update_http_p50_ms": (median(load.updates) * 1e3, "ms"),
            "loadgen_late_p99_ms": (percentile(load.read_late, 0.99) * 1e3, "ms"),
        }
    )
    if probe is not None:
        outcome.layers = _serve_layers(inputs, sessions, load, metrics_text)
        if baseline.reads and load.reads:
            outcome.layers["obs.trace_overhead"] = median(load.reads) / median(baseline.reads) - 1
    return outcome


def _full_answer(conn, session_id: str):
    """Every entry of the session's newest answer, paged; returns (version, entries)."""
    entries, cursor, version = [], None, None
    while True:
        path = f"/sessions/{session_id}/answer?limit={PAGE_LIMIT}"
        if cursor is not None:
            path += f"&cursor={quote(cursor)}"
        status, page = request(conn, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}: {page}")
        version = page["graph_version"] if version is None else version
        entries.extend((e["entity"], e["rule"], str(e["confidence"])) for e in page["entries"])
        cursor = page["next_cursor"]
        if cursor is None:
            return version, entries


def _check_answers(inputs, versions, answers, outcome) -> None:
    """Each tenant's final paged answer must equal ``api.identify`` on the mirror."""
    mirror = load_graph_json(inputs.graph_path)
    applied = {answers[tenant][0] - versions[tenant] for tenant in answers}
    if len(applied) != 1:
        outcome.check(False, f"tenants disagree on applied ticks: {applied}")
        return
    for batch in inputs.batches[: applied.pop()]:
        batch.apply(mirror)
    for tenant, rules in inputs.extra["tenants"].items():
        result = api.identify(mirror, rules, eip_config(inputs.seed))
        expected = sorted(
            (str(entity), rule.name, _confidence(result.rule_confidences[rule]))
            for rule in result.accepted_rules
            for entity in result.rule_matches[rule]
        )
        outcome.check(sorted(answers[tenant][1]) == expected, f"tenant {tenant} answer")


def _confidence(value: float) -> str:
    return "inf" if math.isinf(value) else str(round(value, 9))


# ----------------------------------------------------------------------
# traced run: what the server and the client can see
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^(\w+)(?:\{(.*)\})? (\S+)$")


def parse_metrics(text: str) -> dict:
    """Prometheus text → {(name, frozenset(label items)): value}."""
    samples = {}
    for line in text.splitlines():
        found = _SAMPLE.match(line.strip())
        if not found:
            continue
        name, labels, value = found.groups()
        try:
            number = float(value)
        except ValueError:
            continue
        items = frozenset(re.findall(r'(\w+)="([^"]*)"', labels or ""))
        samples[(name, items)] = number
    return samples


def _handle_s(samples: dict, route: str) -> float:
    total = count = 0.0
    for (name, labels), value in samples.items():
        if dict(labels).get("route") != route:
            continue
        if name == "repro_http_request_seconds_sum":
            total += value
        elif name == "repro_http_request_seconds_count":
            count += value
    return total / count if count else 0.0


def _serve_layers(inputs, sessions, load, metrics_text) -> dict:
    from layers import COUNTERS, counter_metrics, ratio

    samples = parse_metrics(metrics_text)
    counters = {
        name: sum(v for (metric, _l), v in samples.items() if metric == family)
        for name, family in COUNTERS.items()
    }
    read_handle = _handle_s(samples, "/sessions/{session_id}/answer")
    layers = {
        "serve.handle_answer_s": read_handle,
        "serve.handle_updates_s": _handle_s(samples, "/sessions/{session_id}/updates"),
        "serve.handle_sessions_s": _handle_s(samples, "/sessions"),
        "serve.queue_ms": (sum(load.reads) / len(load.reads) - read_handle) * 1e3 if load.reads else 0.0,
        "serve.tick_overlap_share": ratio(load.reads_during_update, len(load.reads)),
        "serve.read_p99_ms": percentile(load.reads, 0.99) * 1e3,
        "serve.update_http_p50_ms": median(load.updates) * 1e3,
        "loadgen.late_ms": percentile(load.read_late, 0.99) * 1e3,
        "stream.tenant_backfill_centers": sessions["B"]["admission"]["backfill_centers"],
        "stream.tenant_shared_rules": sessions["B"]["admission"]["shared_rules"],
    }
    centres = inputs.centres[: len(load.update_reports)]
    layers["partition.recheck_ratio"] = ratio(
        sum(doc["report"]["rechecked_centers"] for doc in load.update_reports), sum(centres)
    )
    layers.update(counter_metrics(counters))
    layers["api.answer_page_s"] = _answer_page_s(inputs)
    return layers


def _answer_page_s(inputs) -> float:
    """Median ``Session.answer(limit=50)`` time on an in-process twin of tenant A."""
    graph = load_graph_json(inputs.graph_path)
    with api.open_session(graph, inputs.extra["tenants"]["A"], config=eip_config(inputs.seed)) as session:
        times = []
        for _ in range(50):
            started = time.perf_counter()
            session.answer(limit=PAGE_LIMIT)
            times.append(time.perf_counter() - started)
    return median(times)
