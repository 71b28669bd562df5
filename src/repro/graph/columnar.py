"""Array helpers of the fragment-resident index (:mod:`repro.graph.index`).

The authoritative :class:`~repro.graph.graph.Graph` is a dict-of-dict-of-set
structure: perfect for mutation, wasteful to *probe* — every adjacency read
hashes strings.  :class:`~repro.graph.index.FragmentIndex` therefore lays its
kernel out in arrays, using the helpers here:

* :class:`LabelTable` — the shared, append-only ``label <-> small int``
  interning table (exposed as ``Graph.label_table``), so hot-path
  comparisons are int equality instead of string hashing;
* :func:`_csr_from_pairs` — counting-sort construction of one
  compressed-sparse-row block (``indptr``/``indices`` over dense node
  positions);
* :func:`numpy_or_none` — the feature probe behind the optional numpy fast
  path (the core stays dependency-free on stdlib ``array('q')`` buffers; set
  ``REPRO_NO_NUMPY=1`` to force the stdlib path even when numpy is
  importable).
"""

from __future__ import annotations

import os
import sys
from array import array

Label = str


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when absent or disabled.

    The probe honours the ``REPRO_NO_NUMPY`` environment variable (any
    non-empty value forces the stdlib ``array`` path) so both code paths are
    testable on a machine that has numpy installed.  Resolved at every index
    build, not at import time.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - depends on the environment
        return None
    return numpy


def numpy_active() -> bool:
    """Whether indexes built now would take the numpy fast path."""
    return numpy_or_none() is not None


class LabelTable:
    """Append-only bidirectional ``label <-> small int`` interning table.

    Shared per graph (``Graph.label_table``): ids are stable for the lifetime
    of the table, labels are ``sys.intern``-ed on entry, and a label that
    disappears from the graph keeps its id (the table never shrinks, so a
    patched index never sees an id change meaning).
    """

    __slots__ = ("_ids", "_labels")

    def __init__(self) -> None:
        self._ids: dict[Label, int] = {}
        self._labels: list[Label] = []

    def __len__(self) -> int:
        return len(self._labels)

    def intern(self, label: Label) -> int:
        """Id of *label*, assigning the next free id on first sight."""
        label_id = self._ids.get(label)
        if label_id is None:
            if type(label) is str:
                label = sys.intern(label)
            label_id = len(self._labels)
            self._ids[label] = label_id
            self._labels.append(label)
        return label_id

    def id_of(self, label: Label) -> int | None:
        """Id of *label* without assigning one (``None`` when unknown)."""
        return self._ids.get(label)

    def label_of(self, label_id: int) -> Label:
        """The label carrying *label_id*."""
        return self._labels[label_id]

    def __getstate__(self):
        return self._labels

    def __setstate__(self, labels) -> None:
        self._labels = [sys.intern(label) if type(label) is str else label for label in labels]
        self._ids = {label: i for i, label in enumerate(self._labels)}


def _csr_from_pairs(num_nodes: int, sources, targets, np):
    """Counting-sort edge pairs into a ``(indptr, indices)`` CSR block."""
    if np is not None:
        src = np.asarray(sources, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.int64)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        order = np.argsort(src, kind="stable")
        return indptr, tgt[order]
    counts = [0] * num_nodes
    for source in sources:
        counts[source] += 1
    indptr = array("q", [0] * (num_nodes + 1))
    total = 0
    for position, count in enumerate(counts):
        total += count
        indptr[position + 1] = total
    cursor = list(indptr[:num_nodes])
    indices = array("q", [0] * len(sources))
    for source, target in zip(sources, targets):
        indices[cursor[source]] = target
        cursor[source] += 1
    return indptr, indices
