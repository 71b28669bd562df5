"""Fluent construction helpers for :class:`repro.graph.Graph`."""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from repro.graph.graph import Graph


class GraphBuilder:
    """Incrementally assemble a :class:`Graph`.

    Unlike :meth:`Graph.add_edge`, the builder creates endpoint nodes on the
    fly when a label is supplied, which keeps dataset definitions compact.

    Example
    -------
    >>> g = (
    ...     GraphBuilder("toy")
    ...     .node("alice", "cust")
    ...     .node("cafe", "restaurant")
    ...     .edge("alice", "cafe", "visit")
    ...     .build()
    ... )
    >>> g.num_edges
    1
    """

    def __init__(self, name: str = "graph") -> None:
        self._graph = Graph(name=name)

    def node(
        self,
        node_id: Hashable,
        label: str,
        attrs: dict[str, Any] | None = None,
    ) -> "GraphBuilder":
        """Add a node; idempotent for identical labels."""
        self._graph.add_node(node_id, label, attrs)
        return self

    def nodes(self, items: Iterable[tuple[Hashable, str]]) -> "GraphBuilder":
        """Add many ``(node_id, label)`` pairs."""
        for node_id, label in items:
            self._graph.add_node(node_id, label)
        return self

    def edge(
        self,
        source: Hashable,
        target: Hashable,
        label: str,
        source_label: str | None = None,
        target_label: str | None = None,
    ) -> "GraphBuilder":
        """Add an edge, optionally creating the endpoints with given labels."""
        if source_label is not None:
            self._graph.add_node(source, source_label)
        if target_label is not None:
            self._graph.add_node(target, target_label)
        self._graph.add_edge(source, target, label)
        return self

    def edges(self, items: Iterable[tuple[Hashable, Hashable, str]]) -> "GraphBuilder":
        """Add many ``(source, target, label)`` triples (endpoints must exist)."""
        for source, target, label in items:
            self._graph.add_edge(source, target, label)
        return self

    def undirected_edge(self, a: Hashable, b: Hashable, label: str) -> "GraphBuilder":
        """Add the pair of directed edges ``a->b`` and ``b->a`` with *label*.

        Social relations such as ``friend`` are symmetric in the paper's
        examples; this helper keeps dataset code readable.
        """
        self._graph.add_edge(a, b, label)
        self._graph.add_edge(b, a, label)
        return self

    def build(self) -> Graph:
        """Return the constructed graph (the builder must not be reused).

        The shared :class:`repro.graph.columnar.LabelTable` is warmed here so
        every label present at build time gets its interned id assigned once,
        before any index build or dict-path probe needs it.
        """
        graph = self._graph
        self._graph = Graph(name=graph.name)
        graph.label_table
        return graph
