"""Workflow manifest files.

A manifest is a UTF-8 JSON document:

    {
      "nodes": [
        {"id": "a", "executor": "synthesis", "config": {...},
         "inputs": [{"port": "raw", "type": "text", "source": "context"}],
         "output_type": "text"},
        ...
      ],
      "edges": [["a", "b", "upstream"], ...]
    }

Parsing is strict: unknown keys anywhere are violations. Files that cannot
be read, documents that are not JSON, or whose top-level shape prevents
building a graph at all, raise ManifestError instead.
"""

from __future__ import annotations

import json
from pathlib import Path

from dagline.errors import ManifestError
from dagline.graph import Edge, NodeSpec, PortDecl, Violation, WorkflowGraph

_NODE_KEYS = {"id", "executor", "config", "inputs", "output_type"}
_PORT_KEYS = {"port", "type", "source"}
_TOP_KEYS = {"nodes", "edges"}


def parse_manifest(text: str | bytes) -> tuple[WorkflowGraph, list[Violation]]:
    """Parse a manifest document into a graph plus strict-mode violations."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("manifest top level must be an object")

    violations: list[Violation] = []
    for key in sorted(set(doc) - _TOP_KEYS):
        violations.append(Violation("unknown-key", f"unknown top-level key {key!r}"))

    raw_nodes = doc.get("nodes", [])
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ManifestError("'nodes' and 'edges' must be arrays")

    specs: list[NodeSpec] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict):
            raise ManifestError(f"nodes[{i}] must be an object")
        node_id = entry.get("id")
        if not isinstance(node_id, str) or not node_id:
            raise ManifestError(f"nodes[{i}] is missing a string 'id'")
        for key in sorted(set(entry) - _NODE_KEYS):
            violations.append(Violation(
                "unknown-key", f"node {node_id!r} has unknown key {key!r}", (node_id,)
            ))
        if node_id in seen_ids:
            violations.append(Violation(
                "duplicate-node", f"node id {node_id!r} declared more than once", (node_id,)
            ))
            continue
        seen_ids.add(node_id)
        executor = entry.get("executor")
        if not isinstance(executor, str) or not executor:
            raise ManifestError(f"node {node_id!r} is missing a string 'executor'")
        config = entry.get("config", {})
        if not isinstance(config, dict):
            raise ManifestError(f"node {node_id!r} 'config' must be an object")
        ports = []
        for j, raw_port in enumerate(entry.get("inputs", [])):
            if not isinstance(raw_port, dict):
                raise ManifestError(f"node {node_id!r} inputs[{j}] must be an object")
            for key in sorted(set(raw_port) - _PORT_KEYS):
                violations.append(Violation(
                    "unknown-key",
                    f"node {node_id!r} port #{j} has unknown key {key!r}",
                    (node_id,),
                ))
            name = raw_port.get("port")
            if not isinstance(name, str) or not name:
                raise ManifestError(f"node {node_id!r} inputs[{j}] is missing a string 'port'")
            source = raw_port.get("source", "dependency")
            if source not in ("dependency", "context"):
                violations.append(Violation(
                    "bad-port-source",
                    f"node {node_id!r} port {name!r} has invalid source {source!r}",
                    (node_id,),
                ))
                source = "dependency"
            ports.append(PortDecl(
                name=name,
                artifact_type=str(raw_port.get("type", "text")),
                source=source,
            ))
        specs.append(NodeSpec(
            node_id=node_id,
            executor_kind=executor,
            config=config,
            input_ports=tuple(ports),
            output_type=str(entry.get("output_type", "text")),
        ))

    edges: list[Edge] = []
    for i, raw_edge in enumerate(raw_edges):
        if (
            not isinstance(raw_edge, list)
            or len(raw_edge) != 3
            or not all(isinstance(x, str) for x in raw_edge)
        ):
            raise ManifestError(f"edges[{i}] must be a [from, to, port] string triple")
        edges.append(Edge(*raw_edge))

    return WorkflowGraph(specs, edges), violations


def load_manifest(path: str | Path) -> tuple[WorkflowGraph, list[Violation]]:
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc.strerror}") from exc
    return parse_manifest(text)


def render_manifest(graph: WorkflowGraph) -> str:
    """Serialize a graph back to manifest JSON (sorted, human-readable)."""
    nodes = []
    for node_id in graph.node_ids():
        spec = graph.nodes[node_id]
        nodes.append({
            "id": spec.node_id,
            "executor": spec.executor_kind,
            "config": dict(spec.config),
            "inputs": [
                {"port": p.name, "type": p.artifact_type, "source": p.source}
                for p in spec.input_ports
            ],
            "output_type": spec.output_type,
        })
    edges = sorted(
        [[e.producer, e.consumer, e.port] for e in graph.edges]
    )
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2, sort_keys=False) + "\n"
