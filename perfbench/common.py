"""Shared helpers: statistics, answer comparison, memory, the measured clock."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import threading
from pathlib import Path


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The *q*-quantile (0 < q < 1) by linear interpolation; 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(payload) -> str:
    """Short stable hash of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rule_doc(rule) -> list:
    """A rule's identity as plain data: name plus its structural description."""
    return [rule.name, rule.describe()]


def same_answer(left, right) -> bool:
    """Whether two EIP answers agree on identified set, matches and confidences."""
    return (
        left.identified == right.identified
        and dict(left.rule_matches) == dict(right.rule_matches)
        and dict(left.rule_confidences) == dict(right.rule_confidences)
    )


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _children(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def own_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of one process, in MB."""
    return _hwm_kb(pid) / 1024.0


def tree_hwm_mb(root: int) -> float:
    """Sum of peak RSS (``VmHWM``) over *root* and its live descendants, in MB."""
    total, pending, seen = 0, [root], set()
    while pending:
        pid = pending.pop()
        if pid not in seen:
            seen.add(pid)
            total += _hwm_kb(pid)
            pending.extend(_children(pid))
    return total / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` so that input generation does not count."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


class PeakSampler:
    """The largest :func:`tree_hwm_mb` of this process seen by a sampling thread.

    For worker pools that start and stop inside one call (``api.mine``,
    ``api.identify``): they are gone before the call returns, so their
    memory is visible only while it runs.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.peak_mb = 0.0
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.peak_mb = max(self.peak_mb, tree_hwm_mb(os.getpid()))

    def __enter__(self) -> "PeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_hwm_mb(os.getpid()))
        return False


# ----------------------------------------------------------------------
# timed region
# ----------------------------------------------------------------------
class Budget:
    """The measured clock of a run: the summed wall time of timed operations."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.spent = 0.0

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.seconds

    def add(self, elapsed: float) -> None:
        self.spent += elapsed


def work_dir(checkout: Path, name: str) -> Path:
    """A fresh scratch directory for one run, inside the checkout."""
    base = checkout / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = base / f"{name}-{os.getpid()}"
    path.mkdir(exist_ok=True)
    return path
