"""The fragment-resident index: the one per-fragment structure of the hot path.

Every DMine expansion round and every EIP ``Match`` call needs the same
derived structures over its (fragment) graph: label candidate sets, labelled
adjacency profiles and k-hop neighbourhoods.  Recomputing them from the raw
:class:`~repro.graph.graph.Graph` makes each pattern probe pay O(degree) or
O(|ball|) again; a :class:`FragmentIndex` computes them once per graph and
answers every later probe from resident state.

Layers
------
* **label buckets** — an immutable snapshot of the graph's label buckets as
  frozensets (``Graph.nodes_with_label`` copies its bucket on every call).
  Build O(|V|), probe O(1).
* **kernel arrays** — every node/edge label interned to a small integer
  through the graph's shared :class:`~repro.graph.columnar.LabelTable`; one
  CSR block per edge label and direction over dense node positions; and the
  labelled adjacency profiles (``(direction, edge label, neighbour label) ->
  count``) laid out as one ``|V| x |columns|`` **profile matrix**.  Built in
  one O(|V| + |E|) pass on stdlib ``array('q')`` buffers, or numpy arrays
  when :func:`~repro.graph.columnar.numpy_or_none` finds numpy.  The kernel
  probes — :meth:`FragmentIndex.compile_requirement` (memoised per pattern
  node), :meth:`~FragmentIndex.dominates`,
  :meth:`~FragmentIndex.filter_candidates` (a whole-pool numpy mask on an
  unpatched index, int row comparisons otherwise) and
  :meth:`~FragmentIndex.dual_simulation` (CSR ranges) — serve the matchers'
  profile filtering and simulation.
* **frozen adjacency views** — per ``(node, direction, edge label)``
  neighbour sets and undirected neighbourhoods as frozensets, memoised on
  first use.  The matchers intersect these millions of times; the view
  avoids the per-probe copy ``Graph.out_neighbors`` must make.
* **k-hop sketch cache** — lazily-filled, memoised
  :class:`~repro.graph.sketch.KHopSketch` per ``(node, hops)``, with an
  explicit fast path for isolated nodes (no BFS round-trip).

Invalidation
------------
The index records ``graph.version`` (a monotonic mutation counter) at build
time and compares it on **every** probe.  On a mismatch the index either
brings itself up to date (``mode="refresh"``, the default) or raises
:class:`~repro.exceptions.StaleIndexError` (``mode="raise"``); a stale read
is impossible in both modes.  A probe made while a ``Graph.batch_update``
block is still open is treated as stale too — ``"raise"`` mode raises and
``"refresh"`` mode refuses to rebuild from a half-applied batch.

Delta maintenance
-----------------
``refresh()`` prefers patching to rebuilding: when the graph's bounded delta
log (:meth:`repro.graph.graph.Graph.deltas_since`) still reaches back to the
built version and the touched region stays under ``rebuild_fraction`` of the
graph, :meth:`FragmentIndex.apply_delta` patches the index **in place** —
label buckets are updated, the profiles of touched nodes and their
neighbours move into an id-space *overlay* that every profile probe consults
before the matrix, memoised adjacency views of touched nodes are dropped,
and cached sketches are invalidated only inside the k-hop balls of the
touched nodes (computed on the post-update graph; see ``docs/streaming.md``
for why that is exact).  The frozen arrays are not rewritten, so a patched
index answers the whole-pool mask and the CSR simulation through their row
and dict fallbacks until the next rebuild — which happens only when a
refresh's touched share exceeds ``rebuild_fraction`` (or the log has been
outrun).

Residency
---------
:func:`graph_index` memoises one index per graph object in a per-process
weak registry, so the index lives exactly as long as its graph and never
crosses a pickle boundary.  The process execution backend builds the indexes
of its fragments inside the worker-pool initializer
(:func:`repro.parallel.worker.init_worker`), so every worker process holds a
warm index next to each fragment for the lifetime of the pool.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.exceptions import GraphError, NodeNotFoundError, StaleIndexError
from repro.graph.columnar import _csr_from_pairs, numpy_or_none
from repro.graph.graph import Graph, GraphDelta
from repro.graph.sketch import KHopSketch, build_sketch, empty_sketch
from repro.obs.stats import StatisticsBase
from repro.obs.tracing import span

NodeId = Hashable
Label = str

#: Invalidation behaviours accepted by :class:`FragmentIndex`.
INDEX_MODES = ("refresh", "raise")

#: Default number of hops summarised by cached sketches (the paper uses 2).
DEFAULT_SKETCH_HOPS = 2

#: When the touched nodes of a pending delta chain exceed this fraction of
#: the graph, ``refresh()`` prefers one full O(|V| + |E|) rebuild over
#: patching most of the index anyway.  Per-index override: the
#: ``rebuild_fraction`` constructor argument; process-wide override: the
#: ``REPRO_DELTA_REBUILD_FRACTION`` environment variable (also the default
#: of :class:`repro.stream.StreamConfig`, and inherited by forked worker
#: processes).
DELTA_REBUILD_FRACTION = 0.25

#: Direction codes used in id-space profile triples.
OUT, IN = 0, 1

#: Bound on memoised compiled requirements per index; like the prefix-chain
#: memo of :mod:`repro.matching.multi`, the cache is simply cleared when full.
_REQUIREMENT_CACHE_LIMIT = 4096


def default_rebuild_fraction() -> float:
    """Effective rebuild fraction: ``REPRO_DELTA_REBUILD_FRACTION`` or the constant."""
    import os

    raw = os.environ.get("REPRO_DELTA_REBUILD_FRACTION")
    if raw is None:
        return DELTA_REBUILD_FRACTION
    fraction = float(raw)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(
            f"REPRO_DELTA_REBUILD_FRACTION must be in [0, 1], got {fraction}"
        )
    return fraction

_EMPTY_FROZEN: frozenset = frozenset()


@dataclass
class IndexStatistics(StatisticsBase):
    """Build/probe counters of one :class:`FragmentIndex` (used by tests).

    Snapshot/merge via :class:`repro.obs.stats.StatisticsBase`; collected as
    ``repro_index_*_total`` when ``REPRO_OBS`` is on.
    """

    _metric_kind = "index"

    builds: int = 0
    refreshes: int = 0
    delta_applies: int = 0
    sketches_built: int = 0
    sketch_fast_paths: int = 0
    sketches_invalidated: int = 0
    stale_probes: int = 0


@dataclass
class KernelStatistics(StatisticsBase):
    """Path mix of the kernel probes of one :class:`FragmentIndex`.

    ``mask_filters``/``row_filters`` count whole-pool numpy masks vs per-row
    candidate filters; ``fallbacks`` counts CSR simulations declined by a
    patched index.  Collected as ``repro_columnar_*_total`` when
    ``REPRO_OBS`` is on.
    """

    _metric_kind = "columnar"

    mask_filters: int = 0
    row_filters: int = 0
    simulations: int = 0
    fallbacks: int = 0


@dataclass(frozen=True)
class CompiledRequirement:
    """A pattern node's anchor requirement compiled into id/column space.

    ``label`` is the required node label and ``label_id`` its interned id
    (``-1`` when some required label is unknown to the table — then no data
    node can match).  ``cols``/``needs`` cover the needed triples that have a
    profile-matrix column; ``missing`` holds needed triples without one (no
    matrix row can satisfy those, only overlay rows possibly can).
    ``triples`` is the full id-space required profile used for overlay
    checks.
    """

    label: Label | None
    label_id: int
    cols: tuple[int, ...]
    needs: tuple[int, ...]
    missing: tuple[tuple[int, int, int], ...]
    triples: tuple[tuple[tuple[int, int, int], int], ...]


_IMPOSSIBLE = CompiledRequirement(None, -1, (), (), (), ())


class FragmentIndex:
    """Resident per-graph index (see the module docstring).

    Parameters
    ----------
    graph:
        The graph (typically one fragment's local graph) to index.
    mode:
        ``"refresh"`` brings the index up to date transparently when the
        graph has mutated since the last build; ``"raise"`` raises
        :class:`~repro.exceptions.StaleIndexError` instead.
    default_hops:
        Sketch depth used when :meth:`sketch` is called without *hops*.
    rebuild_fraction:
        Touched share of the graph above which :meth:`refresh` rebuilds
        instead of patching (default :func:`default_rebuild_fraction`).
    """

    __slots__ = (
        "_graph_ref",
        "mode",
        "default_hops",
        "rebuild_fraction",
        "statistics",
        "kernel_statistics",
        "label_table",
        "_np",
        "_built_version",
        "_pristine",
        "_labels",
        "_nodes_by_label",
        "_node_ids",
        "_pos",
        "_label_ids",
        "_out_csr",
        "_in_csr",
        "_columns",
        "_counts",
        "_positions_by_label",
        "_overlay_profiles",
        "_requirements",
        "_out_frozen",
        "_in_frozen",
        "_neighbors_frozen",
        "_sketches",
        "__weakref__",
    )

    def __init__(
        self,
        graph: Graph,
        mode: str = "refresh",
        default_hops: int = DEFAULT_SKETCH_HOPS,
        rebuild_fraction: float | None = None,
    ) -> None:
        if mode not in INDEX_MODES:
            raise ValueError(f"mode must be one of {INDEX_MODES}, got {mode!r}")
        if default_hops < 1:
            raise ValueError(f"default_hops must be >= 1, got {default_hops}")
        if rebuild_fraction is not None and not 0.0 <= rebuild_fraction <= 1.0:
            raise ValueError(
                f"rebuild_fraction must be in [0, 1], got {rebuild_fraction}"
            )
        self.rebuild_fraction = (
            rebuild_fraction if rebuild_fraction is not None else default_rebuild_fraction()
        )
        # Weak reference only: the process-wide registry maps graph -> index
        # with weak keys, so a strong graph reference here would keep every
        # indexed graph (e.g. per-run fragment graphs) alive forever.  The
        # index lives exactly as long as its graph, never the other way
        # around; callers always hold the graph while probing.
        self._graph_ref = weakref.ref(graph)
        self.mode = mode
        self.default_hops = default_hops
        self.statistics = IndexStatistics()
        self.kernel_statistics = KernelStatistics()
        self._build()

    @property
    def graph(self) -> Graph:
        """The indexed graph; raises if it has been garbage collected."""
        graph = self._graph_ref()
        if graph is None:
            raise GraphError("the graph of this FragmentIndex no longer exists")
        return graph

    # ------------------------------------------------------------------
    # build / invalidation
    # ------------------------------------------------------------------
    def _build(self) -> None:
        graph = self.graph
        table = graph.label_table  # shared, append-only; tops itself up
        intern = table.intern
        np = numpy_or_none()
        labels = dict(graph._labels)
        node_ids = list(labels)
        pos = {node: position for position, node in enumerate(node_ids)}
        num_nodes = len(node_ids)
        label_ids = array("q", (intern(labels[node]) for node in node_ids))
        # One (sources, targets) position list per edge-label id; the in-CSR
        # is the same pairs with the roles swapped.
        pairs: dict[int, tuple[array, array]] = {}
        for source, by_label in graph._out.items():
            source_pos = pos[source]
            for edge_label, targets in by_label.items():
                edge_label_id = intern(edge_label)
                entry = pairs.get(edge_label_id)
                if entry is None:
                    entry = pairs[edge_label_id] = (array("q"), array("q"))
                sources_arr, targets_arr = entry
                for target in targets:
                    sources_arr.append(source_pos)
                    targets_arr.append(pos[target])
        # Profile matrix: collect id-space profiles, then lay out the
        # observed triples as columns (sorted for a deterministic order).
        profiles: list[dict[tuple[int, int, int], int]] = [{} for _ in range(num_nodes)]
        for edge_label_id, (sources_arr, targets_arr) in pairs.items():
            for source_pos, target_pos in zip(sources_arr, targets_arr):
                out_key = (OUT, edge_label_id, label_ids[target_pos])
                profile = profiles[source_pos]
                profile[out_key] = profile.get(out_key, 0) + 1
                in_key = (IN, edge_label_id, label_ids[source_pos])
                profile = profiles[target_pos]
                profile[in_key] = profile.get(in_key, 0) + 1
        observed: set[tuple[int, int, int]] = set()
        for profile in profiles:
            observed.update(profile)
        columns = {triple: column for column, triple in enumerate(sorted(observed))}
        num_columns = len(columns)
        if np is not None:
            counts = np.zeros((num_nodes, num_columns), dtype=np.int64)
            for position, profile in enumerate(profiles):
                row = counts[position]
                for triple, count in profile.items():
                    row[columns[triple]] = count
            self._label_ids = np.asarray(label_ids, dtype=np.int64)
        else:
            counts = array("q", bytes(8 * num_nodes * num_columns))
            for position, profile in enumerate(profiles):
                base = position * num_columns
                for triple, count in profile.items():
                    counts[base + columns[triple]] = count
            self._label_ids = label_ids
        self._out_csr = {
            edge_label_id: _csr_from_pairs(num_nodes, sources_arr, targets_arr, np)
            for edge_label_id, (sources_arr, targets_arr) in pairs.items()
        }
        self._in_csr = {
            edge_label_id: _csr_from_pairs(num_nodes, targets_arr, sources_arr, np)
            for edge_label_id, (sources_arr, targets_arr) in pairs.items()
        }
        self.label_table = table
        self._np = np
        self._labels: dict[NodeId, Label] = labels
        self._nodes_by_label: dict[Label, frozenset] = {
            label: frozenset(nodes) for label, nodes in graph._nodes_by_label.items()
        }
        self._node_ids = node_ids
        self._pos = pos
        self._columns = columns
        self._counts = counts
        self._positions_by_label: dict[int, object] = {}
        self._overlay_profiles: dict[NodeId, dict[tuple[int, int, int], int]] = {}
        self._requirements: dict[tuple[int, object], tuple] = {}
        self._pristine = True
        self._out_frozen: dict[tuple[NodeId, Label], frozenset] = {}
        self._in_frozen: dict[tuple[NodeId, Label], frozenset] = {}
        self._neighbors_frozen: dict[NodeId, frozenset] = {}
        self._sketches: dict[tuple[NodeId, int], KHopSketch] = {}
        self._built_version = graph.version
        self.statistics.builds += 1

    @property
    def built_version(self) -> int:
        """Graph version the current contents were built from."""
        return self._built_version

    @property
    def is_stale(self) -> bool:
        """Whether the graph has mutated since the index was (re)built."""
        return self.graph.version != self._built_version

    @property
    def pristine(self) -> bool:
        """Whether no patch has been applied since the last build.

        Only a pristine index serves the whole-pool numpy mask and the CSR
        simulation; a patched one answers through the row/dict fallbacks.
        """
        return self._pristine

    def refresh(self) -> None:
        """Bring every layer up to date with the graph's current state.

        Prefers in-place delta patching: when the graph's recorded delta log
        still reaches back to :attr:`built_version` (and the touched region
        is small relative to the graph), every pending
        :class:`~repro.graph.graph.GraphDelta` is applied via
        :meth:`apply_delta`; otherwise the index rebuilds from scratch.
        """
        graph = self.graph
        if graph.in_batch:
            raise GraphError(
                f"cannot refresh the index of graph {graph.name!r} while a "
                "batch_update is open: the graph is in a half-applied state"
            )
        with span("index.refresh", graph=str(graph.name)) as trace:
            deltas = graph.deltas_since(self._built_version)
            if deltas is not None:
                touched_total = sum(len(delta.touched) for delta in deltas)
                if touched_total <= self.rebuild_fraction * max(1, graph.num_nodes):
                    for delta in deltas:
                        if not self.apply_delta(delta):  # pragma: no cover - chain guard
                            deltas = None
                            break
                    if deltas is not None:
                        self.statistics.refreshes += 1
                        trace.set(decision="patch", touched=touched_total)
                        return
                else:
                    deltas = None
            trace.set(decision="rebuild")
            self._build()
            self.statistics.refreshes += 1

    def apply_delta(self, delta: GraphDelta) -> bool:
        """Patch the index in place with one recorded graph delta.

        Requires ``delta.base_version`` to equal :attr:`built_version`
        (returns ``False``, leaving the index untouched, otherwise).  After a
        successful patch every probe answers exactly as a fresh build at
        ``delta.result_version`` would; only the whole-array fast paths
        (:attr:`pristine`) stay suspended until the next rebuild.
        """
        if delta.base_version != self._built_version:
            return False
        graph = self.graph
        if graph.in_batch:
            raise GraphError(
                f"cannot patch the index of graph {graph.name!r} while a "
                "batch_update is open: the graph is in a half-applied state"
            )
        if not delta.net_empty:
            self._patch(delta.touched)
        self._built_version = delta.result_version
        self.statistics.delta_applies += 1
        return True

    def _patch(self, touched: frozenset) -> None:
        """Recompute the touched region of every layer from the current graph.

        Later deltas of a chain may already be reflected in the graph; that
        is fine — patching reads the *current* state, so applying a chain in
        order converges on exactly the fresh-build answers (each layer's
        entries are pure functions of the current graph restricted to the
        patched region).
        """
        graph = self.graph
        labels = graph._labels
        intern = self.label_table.intern
        self._pristine = False
        # A new label may make a formerly impossible requirement satisfiable.
        self._requirements.clear()
        # Labels + label buckets of the touched nodes.
        for node in touched:
            old_label = self._labels.get(node)
            new_label = labels.get(node)
            if old_label == new_label:
                continue
            if old_label is not None:
                bucket = self._nodes_by_label.get(old_label, _EMPTY_FROZEN) - {node}
                if bucket:
                    self._nodes_by_label[old_label] = bucket
                else:
                    self._nodes_by_label.pop(old_label, None)
            if new_label is None:
                del self._labels[node]
            else:
                intern(new_label)
                self._labels[node] = new_label
                self._nodes_by_label[new_label] = self._nodes_by_label.get(
                    new_label, _EMPTY_FROZEN
                ) | {node}
        # Profile overlays of the touched nodes and their current neighbours
        # (a relabelled node changes the profiles of everything adjacent to
        # it; removed endpoints are touched already).
        recompute: set = set()
        for node in touched:
            if node in labels:
                recompute.add(node)
                recompute.update(graph.neighbors(node))
            else:
                self._overlay_profiles.pop(node, None)
        for node in recompute:
            profile: dict[tuple[int, int, int], int] = {}
            for edge_label, targets in graph._out[node].items():
                edge_label_id = intern(edge_label)
                for target in targets:
                    key = (OUT, edge_label_id, intern(labels[target]))
                    profile[key] = profile.get(key, 0) + 1
            for edge_label, sources in graph._in[node].items():
                edge_label_id = intern(edge_label)
                for source in sources:
                    key = (IN, edge_label_id, intern(labels[source]))
                    profile[key] = profile.get(key, 0) + 1
            self._overlay_profiles[node] = profile
        # Memoised adjacency views of touched nodes only — an untouched
        # node's neighbour sets are unchanged by definition (every edge
        # change touches both endpoints; a relabel changes no neighbour set).
        for frozen in (self._out_frozen, self._in_frozen):
            stale_keys = [key for key in frozen if key[0] in touched]
            for key in stale_keys:
                del frozen[key]
        for node in touched:
            self._neighbors_frozen.pop(node, None)
        # Sketches within the k-hop balls of the touched nodes, computed on
        # the *post-update* graph (exact; docs/streaming.md).
        if self._sketches:
            from repro.graph.neighborhood import multi_source_distances

            max_hops = max(hops for _node, hops in self._sketches)
            distances = multi_source_distances(graph, touched, max_hops)
            stale_sketches = [
                key
                for key in self._sketches
                if key[0] in touched or distances.get(key[0], max_hops + 1) <= key[1]
            ]
            for key in stale_sketches:
                del self._sketches[key]
            self.statistics.sketches_invalidated += len(stale_sketches)

    def _check(self) -> None:
        """Probe guard: refresh or raise if the graph has mutated."""
        graph = self._graph_ref()  # inlined self.graph: this runs per probe
        if graph is None:
            raise GraphError("the graph of this FragmentIndex no longer exists")
        if graph._version == self._built_version:
            recorder = graph._recorder
            if recorder is None or not recorder.dirty:
                return
        self.statistics.stale_probes += 1
        if self.mode == "raise":
            raise StaleIndexError(graph.name, self._built_version, graph.version)
        self.refresh()

    # ------------------------------------------------------------------
    # label buckets
    # ------------------------------------------------------------------
    def nodes_with_label(self, label: Label) -> frozenset:
        """Frozen set of nodes carrying *label* (no per-call copy)."""
        self._check()
        return self._nodes_by_label.get(label, _EMPTY_FROZEN)

    def count_nodes_with_label(self, label: Label) -> int:
        """Number of nodes carrying *label*."""
        self._check()
        return len(self._nodes_by_label.get(label, _EMPTY_FROZEN))

    def node_label(self, node: NodeId) -> Label:
        """Label of *node* (same contract as ``Graph.node_label``)."""
        self._check()
        try:
            return self._labels[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    # ------------------------------------------------------------------
    # profiles: the kernel probes
    # ------------------------------------------------------------------
    def profile(self, node: NodeId) -> dict:
        """Labelled adjacency profile of *node*, decoded to label strings.

        The same mapping :func:`repro.matching.candidates.adjacency_profile`
        computes from the raw graph; the matchers use the id-space probes
        below instead.
        """
        self._check()
        if node not in self._labels:
            raise NodeNotFoundError(node)
        profile = self._overlay_profiles.get(node)
        if profile is None:
            position = self._pos[node]
            if self._np is not None:
                row = self._counts[position]
            else:
                width = len(self._columns)
                row = self._counts[position * width : (position + 1) * width]
            profile = {triple: int(row[column]) for triple, column in self._columns.items()}
        label_of = self.label_table.label_of
        return {
            ("out" if direction == OUT else "in", label_of(edge), label_of(other)): count
            for (direction, edge, other), count in profile.items()
            if count
        }

    def compile_requirement(self, pattern, pattern_node) -> CompiledRequirement:
        """A pattern node's required label + profile in id/column space.

        Memoised per ``(pattern object, pattern node)`` until the next patch
        or rebuild: the matchers ask for the same requirement once per
        candidate.
        """
        self._check()
        key = (id(pattern), pattern_node)
        entry = self._requirements.get(key)
        if entry is not None and entry[0] is pattern:
            return entry[1]
        requirement = self._compile_requirement(pattern, pattern_node)
        if len(self._requirements) >= _REQUIREMENT_CACHE_LIMIT:
            self._requirements.clear()
        # The entry holds the pattern, so its id cannot be reused meanwhile.
        self._requirements[key] = (pattern, requirement)
        return requirement

    def _compile_requirement(self, pattern, pattern_node) -> CompiledRequirement:
        id_of = self.label_table.id_of
        label = pattern.label(pattern_node)
        anchor_label_id = id_of(label)
        needed: dict[tuple[int, int, int], int] = {}
        for edge in pattern.out_edges(pattern_node):
            edge_id = id_of(edge.label)
            target_id = id_of(pattern.label(edge.target))
            if edge_id is None or target_id is None:
                return _IMPOSSIBLE
            key = (OUT, edge_id, target_id)
            needed[key] = needed.get(key, 0) + 1
        for edge in pattern.in_edges(pattern_node):
            edge_id = id_of(edge.label)
            source_id = id_of(pattern.label(edge.source))
            if edge_id is None or source_id is None:
                return _IMPOSSIBLE
            key = (IN, edge_id, source_id)
            needed[key] = needed.get(key, 0) + 1
        if anchor_label_id is None:
            # Some required label never occurs in the graph's table, so no
            # data node (matrix or overlay) can satisfy the requirement.
            return _IMPOSSIBLE
        cols: list[int] = []
        needs: list[int] = []
        missing: list[tuple[int, int, int]] = []
        for triple, count in needed.items():
            column = self._columns.get(triple)
            if column is None:
                missing.append(triple)
            else:
                cols.append(column)
                needs.append(count)
        return CompiledRequirement(
            label,
            anchor_label_id,
            tuple(cols),
            tuple(needs),
            tuple(missing),
            tuple(needed.items()),
        )

    def dominates(self, node: NodeId, requirement: CompiledRequirement) -> bool:
        """Whether *node*'s label + profile satisfy *requirement*."""
        self._check()
        return self._dominates(node, requirement)

    def _dominates(self, node: NodeId, requirement: CompiledRequirement) -> bool:
        if requirement.label_id < 0 or self._labels.get(node) != requirement.label:
            return False
        overlay = self._overlay_profiles.get(node)
        if overlay is not None:
            return all(overlay.get(triple, 0) >= count for triple, count in requirement.triples)
        if requirement.missing:
            return False
        position = self._pos[node]
        counts = self._counts
        if self._np is not None:
            return all(
                counts[position, column] >= count
                for column, count in zip(requirement.cols, requirement.needs)
            )
        base = position * len(self._columns)
        return all(
            counts[base + column] >= count
            for column, count in zip(requirement.cols, requirement.needs)
        )

    def filter_candidates(
        self, pool: Iterable[NodeId], requirement: CompiledRequirement
    ) -> list[NodeId]:
        """Pool members whose label + profile satisfy *requirement*.

        A necessary-condition filter: every returned node may still fail the
        full search, but no dropped node could have matched.  With numpy and
        a pristine index the whole pool is masked in a few array operations;
        otherwise each member gets an int row comparison (still no string
        hashing).
        """
        self._check()
        if requirement.label_id < 0:
            return []
        np = self._np
        if np is not None and self._pristine and not requirement.missing:
            pool_list = list(pool)
            positions = np.fromiter(
                (self._pos.get(node, -1) for node in pool_list),
                dtype=np.int64,
                count=len(pool_list),
            )
            known = positions >= 0
            safe = np.where(known, positions, 0)
            keep = known & (self._label_ids[safe] == requirement.label_id)
            if requirement.cols:
                cols = np.asarray(requirement.cols, dtype=np.int64)
                needs = np.asarray(requirement.needs, dtype=np.int64)
                keep &= (self._counts[safe][:, cols] >= needs).all(axis=1)
            self.kernel_statistics.mask_filters += 1
            return [node for node, ok in zip(pool_list, keep) if ok]
        self.kernel_statistics.row_filters += 1
        return [node for node in pool if self._dominates(node, requirement)]

    # ------------------------------------------------------------------
    # CSR dual simulation
    # ------------------------------------------------------------------
    def dual_simulation(self, pattern) -> dict | None:
        """Maximum dual simulation of *pattern* over the CSR arrays.

        Returns ``pattern node -> set of data node ids`` — exactly the
        fixpoint :func:`repro.matching.simulation.maximum_dual_simulation`
        computes on the dict graph — or ``None`` when the index has been
        patched since its last build (the caller falls back to the dict
        path).  *pattern* must be copy-expanded.
        """
        self._check()
        if not self._pristine:
            self.kernel_statistics.fallbacks += 1
            return None
        self.kernel_statistics.simulations += 1
        if self._np is not None:
            return self._dual_simulation_numpy(pattern)
        return self._dual_simulation_array(pattern)

    def _empty_result(self, pattern) -> dict:
        return {node: set() for node in pattern.nodes()}

    def _dual_simulation_numpy(self, pattern) -> dict:
        np = self._np
        num_nodes = len(self._node_ids)
        id_of = self.label_table.id_of
        simulation: dict = {}
        for node in pattern.nodes():
            label_id = id_of(pattern.label(node))
            if label_id is None:
                return self._empty_result(pattern)
            mask = self._label_ids == label_id
            if not mask.any():
                return self._empty_result(pattern)
            simulation[node] = mask
        pattern_nodes = list(pattern.nodes())
        changed = True
        while changed:
            changed = False
            for node in pattern_nodes:
                mask = simulation[node]
                for edge in pattern.out_edges(node):
                    mask = mask & self._csr_any(
                        self._out_csr.get(id_of(edge.label)),
                        simulation[edge.target],
                        num_nodes,
                    )
                for edge in pattern.in_edges(node):
                    mask = mask & self._csr_any(
                        self._in_csr.get(id_of(edge.label)),
                        simulation[edge.source],
                        num_nodes,
                    )
                if not np.array_equal(mask, simulation[node]):
                    simulation[node] = mask
                    changed = True
            if any(not simulation[node].any() for node in pattern_nodes):
                return self._empty_result(pattern)
        node_ids = self._node_ids
        return {
            node: {node_ids[position] for position in np.flatnonzero(mask)}
            for node, mask in simulation.items()
        }

    def _csr_any(self, csr, target_mask, num_nodes: int):
        """Boolean array: position has >= 1 CSR neighbour inside *target_mask*."""
        np = self._np
        if csr is None:
            return np.zeros(num_nodes, dtype=bool)
        indptr, indices = csr
        hits = target_mask[indices]
        cumulative = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(hits, out=cumulative[1:])
        return (cumulative[indptr[1:]] - cumulative[indptr[:-1]]) > 0

    def _positions_with_label(self, label_id: int) -> list[int]:
        entry = self._positions_by_label.get(label_id)
        if entry is None:
            entry = self._positions_by_label[label_id] = [
                position
                for position, current in enumerate(self._label_ids)
                if current == label_id
            ]
        return entry

    def _dual_simulation_array(self, pattern) -> dict:
        id_of = self.label_table.id_of
        simulation: dict = {}
        for node in pattern.nodes():
            label_id = id_of(pattern.label(node))
            if label_id is None:
                return self._empty_result(pattern)
            positions = self._positions_with_label(label_id)
            if not positions:
                return self._empty_result(pattern)
            simulation[node] = set(positions)
        pattern_nodes = list(pattern.nodes())
        changed = True
        while changed:
            changed = False
            for node in pattern_nodes:
                survivors = {
                    position
                    for position in simulation[node]
                    if self._position_consistent(pattern, node, position, simulation)
                }
                if survivors != simulation[node]:
                    simulation[node] = survivors
                    changed = True
            if any(not simulation[node] for node in pattern_nodes):
                return self._empty_result(pattern)
        node_ids = self._node_ids
        return {
            node: {node_ids[position] for position in positions}
            for node, positions in simulation.items()
        }

    def _position_consistent(self, pattern, node, position: int, simulation) -> bool:
        id_of = self.label_table.id_of
        for edge in pattern.out_edges(node):
            if not _csr_row_hits(
                self._out_csr.get(id_of(edge.label)), position, simulation[edge.target]
            ):
                return False
        for edge in pattern.in_edges(node):
            if not _csr_row_hits(
                self._in_csr.get(id_of(edge.label)), position, simulation[edge.source]
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # frozen adjacency views
    # ------------------------------------------------------------------
    def out_neighbors(self, node: NodeId, label: Label) -> frozenset:
        """Frozen ``{target : node --label--> target}`` view, memoised."""
        self._check()
        key = (node, label)
        view = self._out_frozen.get(key)
        if view is None:
            if node not in self._labels:
                raise NodeNotFoundError(node)
            view = frozenset(self.graph._out[node].get(label, ()))
            self._out_frozen[key] = view
        return view

    def in_neighbors(self, node: NodeId, label: Label) -> frozenset:
        """Frozen ``{source : source --label--> node}`` view, memoised."""
        self._check()
        key = (node, label)
        view = self._in_frozen.get(key)
        if view is None:
            if node not in self._labels:
                raise NodeNotFoundError(node)
            view = frozenset(self.graph._in[node].get(label, ()))
            self._in_frozen[key] = view
        return view

    def neighbors(self, node: NodeId) -> frozenset:
        """Frozen undirected neighbourhood of *node*, memoised.

        ``Graph.neighbors`` allocates a fresh set (out ∪ in) on every call;
        ball extraction and the multi-source BFS helpers probe the same nodes
        over and over, so this view answers repeats with one dict read.
        """
        self._check()
        view = self._neighbors_frozen.get(node)
        if view is None:
            if node not in self._labels:
                raise NodeNotFoundError(node)
            view = frozenset(self.graph.neighbors(node))
            self._neighbors_frozen[node] = view
        return view

    # ------------------------------------------------------------------
    # k-hop sketch cache
    # ------------------------------------------------------------------
    def sketch(self, node: NodeId, hops: int | None = None) -> KHopSketch:
        """Memoised k-hop sketch of *node*.

        Isolated nodes take the explicit empty-neighbourhood fast path: their
        sketch is materialised directly (all-empty hop histograms) without a
        BFS round-trip.
        """
        self._check()
        k = hops if hops is not None else self.default_hops
        key = (node, k)
        sketch = self._sketches.get(key)
        if sketch is None:
            if node not in self._labels:
                raise NodeNotFoundError(node)
            graph = self.graph
            if not graph._out[node] and not graph._in[node]:
                sketch = empty_sketch(node, k)
                self.statistics.sketch_fast_paths += 1
            else:
                sketch = build_sketch(graph, node, k)
                self.statistics.sketches_built += 1
            self._sketches[key] = sketch
        return sketch

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        graph = self._graph_ref()
        name = graph.name if graph is not None else "<collected>"
        backend = "numpy" if self._np is not None else "array"
        return (
            f"FragmentIndex(graph={name!r}, mode={self.mode!r}, backend={backend}, "
            f"version={self._built_version}, labels={len(self._nodes_by_label)}, "
            f"columns={len(self._columns)}, pristine={self._pristine}, "
            f"sketches={len(self._sketches)})"
        )


def _csr_row_hits(csr, position: int, targets: set) -> bool:
    """Whether CSR row *position* has a neighbour inside *targets*."""
    if csr is None:
        return False
    indptr, indices = csr
    for offset in range(indptr[position], indptr[position + 1]):
        if indices[offset] in targets:
            return True
    return False


# ----------------------------------------------------------------------
# per-process registry
# ----------------------------------------------------------------------
# One index per graph object; weak keys keep transient graphs (extracted
# d-balls, test fixtures) collectable.  The lock only guards get-or-create:
# probes on a built index are plain dict reads under the GIL.
_REGISTRY: "weakref.WeakKeyDictionary[Graph, FragmentIndex]" = weakref.WeakKeyDictionary()
_REGISTRY_LOCK = threading.Lock()


def graph_index(
    graph: Graph,
    mode: str = "refresh",
    default_hops: int = DEFAULT_SKETCH_HOPS,
    rebuild_fraction: float | None = None,
) -> FragmentIndex:
    """The process-wide resident :class:`FragmentIndex` for *graph*.

    Builds the index on first use and memoises it against the graph object;
    every layer of the matching stack that probes the same graph shares one
    index.  *mode*/*default_hops*/*rebuild_fraction* only apply to the first
    (building) call.
    """
    index = _REGISTRY.get(graph)
    if index is None:
        with _REGISTRY_LOCK:
            index = _REGISTRY.get(graph)
            if index is None:
                index = FragmentIndex(
                    graph,
                    mode=mode,
                    default_hops=default_hops,
                    rebuild_fraction=rebuild_fraction,
                )
                _REGISTRY[graph] = index
    return index


def discard_index(graph: Graph) -> bool:
    """Drop the registered index of *graph*, if any; returns whether one existed."""
    with _REGISTRY_LOCK:
        return _REGISTRY.pop(graph, None) is not None


def registered_index(graph: Graph) -> FragmentIndex | None:
    """The registered index of *graph* without building one (None if absent)."""
    return _REGISTRY.get(graph)
