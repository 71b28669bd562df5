"""Serialisation of graphs to/from JSON documents and edge-list files."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from repro.graph.graph import Graph


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """Convert *graph* to a JSON-serialisable dict.

    Nodes and edges are emitted in sorted order so equal graphs produce
    identical documents no matter how (or in which process) they were
    built — edge iteration follows adjacency-*set* order, which varies
    with the hash seed, and the serve/wire layer relies on document
    identity (same graph document + seed ⇒ same generated Σ).
    """
    return {
        "name": graph.name,
        "nodes": [
            {"id": node, "label": label, "attrs": graph.node_attrs(node) or None}
            for node, label in sorted(graph.node_items(), key=lambda item: str(item[0]))
        ],
        "edges": [
            {"source": edge.source, "target": edge.target, "label": edge.label}
            for edge in sorted(
                graph.edges(), key=lambda e: (str(e.source), e.label, str(e.target))
            )
        ],
    }


def graph_from_dict(document: dict[str, Any]) -> Graph:
    """Reconstruct a graph from :func:`graph_to_dict` output."""
    graph = Graph(name=document.get("name", "graph"))
    # Intern labels once at load time: every parsed label string collapses to
    # one shared object, so dict-path comparisons afterwards are pointer
    # checks and the shared LabelTable is warm before the first index build.
    for node in document["nodes"]:
        graph.add_node(node["id"], sys.intern(node["label"]), node.get("attrs") or None)
    for edge in document["edges"]:
        graph.add_edge(edge["source"], edge["target"], sys.intern(edge["label"]))
    graph.label_table
    return graph


def save_graph_json(graph: Graph, path: str | Path) -> None:
    """Write *graph* to *path* as a JSON document."""
    payload = graph_to_dict(graph)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)


def load_graph_json(path: str | Path) -> Graph:
    """Load a graph previously written by :func:`save_graph_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return graph_from_dict(document)


def save_edge_list(graph: Graph, path: str | Path, separator: str = "\t") -> None:
    """Write a labelled edge list: ``src src_label dst dst_label edge_label``."""
    with open(path, "w", encoding="utf-8") as handle:
        for edge in graph.edges():
            row = separator.join(
                str(field)
                for field in (
                    edge.source,
                    graph.node_label(edge.source),
                    edge.target,
                    graph.node_label(edge.target),
                    edge.label,
                )
            )
            handle.write(row + "\n")


def load_edge_list(path: str | Path, separator: str = "\t", name: str | None = None) -> Graph:
    """Load a graph from :func:`save_edge_list` output.

    Node ids are read back as strings; isolated nodes are not representable
    in this format (use the JSON format when they matter).
    """
    graph = Graph(name=name or Path(path).stem)
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split(separator)
            if len(parts) != 5:
                raise ValueError(
                    f"{path}:{line_number}: expected 5 fields, got {len(parts)}"
                )
            source, source_label, target, target_label, edge_label = parts
            graph.add_node(source, sys.intern(source_label))
            graph.add_node(target, sys.intern(target_label))
            graph.add_edge(source, target, sys.intern(edge_label))
    graph.label_table
    return graph
