"""Workflow graph model and structural queries.

A workflow is a DAG of artifact-producing nodes. Edges are named: each edge
binds a producer's canonical output to one declared input port of a consumer.
Ports that are not fed by an edge are fed by an immutable context binding
supplied at run time; a port is never fed by both.

All types here are immutable after construction and all operations are pure,
so the module is safe for unrestricted concurrent use. A graph fills its
sorted edge lists, spec hashes, Kahn pass and structural violations lazily;
a racing fill stores equal values.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from dagline.errors import CycleError, UnknownNodeError, UnknownTargetError
from dagline.identity import ContentHash, encode_config, hash_content, hash_spec
from dagline.store import unsafe_name

if TYPE_CHECKING:
    import random

    from dagline.executors import ExecutorRegistry

DEPENDENCY = "dependency"
CONTEXT = "context"


@dataclass(frozen=True, slots=True)
class PortDecl:
    """One declared input slot: where its bytes come from and what they are."""

    name: str
    artifact_type: str
    source: str = DEPENDENCY

    def __post_init__(self) -> None:
        if self.source not in (DEPENDENCY, CONTEXT):
            raise ValueError(f"port source must be dependency or context, got {self.source!r}")


class _ConfigJsonSlot:
    """A slot outside ``NodeSpec``'s fields: building a spec leaves it unset, and
    equality, ``repr``, ``replace`` and pickling ignore it."""

    __slots__ = ("_config_json",)


@dataclass(frozen=True, slots=True)
class NodeSpec(_ConfigJsonSlot):
    """A node's structural specification.

    The executor config is part of the structure: the same procedure with
    different parameters is a different computation, so config participates
    in the execution identity. Its canonical JSON (``config_json``) is
    encoded on first use and kept in a slot that is not a field; like
    ``WorkflowGraph.spec_hash``, that relies on a spec, its config included,
    never changing. Building a spec computes and stores nothing more.
    """

    node_id: str
    executor_kind: str
    config: Mapping[str, object] = field(default_factory=dict)
    input_ports: tuple[PortDecl, ...] = ()
    output_type: str = "text"

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "input_ports", tuple(self.input_ports))

    @property
    def config_json(self) -> str:
        """The config's canonical JSON text, encoded once; the spec hash and synthesis read it."""
        try:
            return self._config_json
        except AttributeError:  # first use
            text = encode_config(self.config)
            object.__setattr__(self, "_config_json", text)
            return text

    def context_port(self, name: str) -> PortDecl:
        for p in self.input_ports:
            if p.name == name and p.source == CONTEXT:
                return p
        raise UnknownTargetError(f"{self.node_id}:{name} is not a declared context port")

    @property
    def dependency_ports(self) -> tuple[PortDecl, ...]:
        return tuple(p for p in self.input_ports if p.source == DEPENDENCY)

    @property
    def context_ports(self) -> tuple[PortDecl, ...]:
        return tuple(p for p in self.input_ports if p.source == CONTEXT)


@dataclass(frozen=True, slots=True)
class ContextBinding:
    """Immutable bytes bound to one context port for the duration of a run.

    The bytes are hashed once, here; identities and ledger entries read
    ``content_hash``.
    """

    port: str
    content: bytes
    content_type: str = "text"
    content_hash: ContentHash = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "content_hash", hash_content(self.content))


CONTEXT_EDIT = "context-edit"
ARTIFACT_EDIT = "artifact-edit"


@dataclass(frozen=True, slots=True)
class EditEvent:
    """A revision applied between runs.

    A context-edit replaces the bytes bound to one context port. An
    artifact-edit pins replacement content over a node's published output
    without touching the node's spec.
    """

    kind: str
    node_id: str
    new_content: bytes
    port: str | None = None
    event_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (CONTEXT_EDIT, ARTIFACT_EDIT):
            raise ValueError(f"unknown edit kind {self.kind!r}")
        if self.kind == CONTEXT_EDIT and not self.port:
            raise ValueError("context-edit requires a port name")


@dataclass(frozen=True, slots=True)
class Edge:
    """producer -> consumer, delivering into the consumer's named port."""

    producer: str
    consumer: str
    port: str


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken graph invariant; validation reports these as data."""

    code: str
    message: str
    nodes: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class KahnPass(NamedTuple):
    """One Kahn pass over a graph: a topological order and what it left out.

    ``order`` holds every schedulable node; ``stuck`` holds the nodes on or
    behind a cycle.
    """

    order: tuple[str, ...]
    stuck: frozenset[str]


class WorkflowGraph:
    """Immutable DAG of node specs and named dependency edges.

    Declaration order of nodes and edges is not semantic: graphs built from
    permuted inputs compare equal and hash identically downstream.
    """

    __slots__ = (
        "_nodes", "_edges", "_consumers", "_incoming", "_spec_hashes", "_kahn", "_violations",
    )

    def __init__(self, nodes: Iterable[NodeSpec], edges: Iterable[Edge | tuple[str, str, str]]) -> None:
        self._nodes: dict[str, NodeSpec] = {}
        for spec in nodes:
            if spec.node_id in self._nodes:
                raise ValueError(f"duplicate node id {spec.node_id!r}")
            self._nodes[spec.node_id] = spec
        self._edges = frozenset(
            e if isinstance(e, Edge) else Edge(*e) for e in edges
        )
        # One pass builds both indexes. A consumer's incoming edges are sorted
        # on its first edges_into lookup, so construction never pays for it.
        self._consumers: dict[str, set[str]] = defaultdict(set)
        self._incoming: dict[str, list[Edge] | tuple[Edge, ...]] = defaultdict(list)
        for e in self._edges:
            self._consumers[e.producer].add(e.consumer)
            self._incoming[e.consumer].append(e)
        self._spec_hashes: dict[str, ContentHash] = {}
        self._kahn: KahnPass | None = None
        self._violations: tuple[Violation, ...] | None = None

    @property
    def nodes(self) -> Mapping[str, NodeSpec]:
        return MappingProxyType(self._nodes)

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    def node(self, node_id: str) -> NodeSpec:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def edges_into(self, node_id: str) -> tuple[Edge, ...]:
        edges = self._incoming.get(node_id, ())
        if isinstance(edges, list):
            edges = tuple(sorted(edges, key=lambda e: (e.port, e.producer)))
            self._incoming[node_id] = edges
        return edges

    def predecessors(self, node_id: str) -> frozenset[str]:
        self.node(node_id)
        return frozenset(e.producer for e in self._incoming.get(node_id, ()))

    def spec_hash(self, node_id: str) -> ContentHash:
        """The node's spec hash, computed on first use; specs never change."""
        spec_hash = self._spec_hashes.get(node_id)
        if spec_hash is None:
            spec_hash = self._spec_hashes[node_id] = hash_spec(self.node(node_id))
        return spec_hash

    def kahn_pass(self, rng: random.Random | None = None) -> KahnPass:
        """The graph's Kahn pass, kept after first use; a seeded pass is never kept."""
        if rng is not None:
            return _kahn(self._nodes, self._consumers, rng)
        if self._kahn is None:
            self._kahn = _kahn(self._nodes, self._consumers)
        return self._kahn

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkflowGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __repr__(self) -> str:
        return f"WorkflowGraph({len(self._nodes)} nodes, {len(self._edges)} edges)"


def validate_graph(
    graph: WorkflowGraph, registry: ExecutorRegistry | None = None
) -> list[Violation]:
    """Check every structural invariant; an empty report means valid.

    Checks: node ids are safe file names (the store keeps a history file
    per node), edge endpoints exist, edges land on declared dependency ports,
    every dependency port has exactly one producer, port declarations are
    unique per node, executor kinds are registered, and the edge relation is
    acyclic. Context-port *bindings* are a workspace concern and are checked
    when local state is resolved, not here.

    Everything but the executor check depends on the graph alone, so it runs
    once per graph and is kept on it; each call returns a fresh list, with
    any ``unknown-executor`` violations last.
    """
    if graph._violations is None:
        graph._violations = tuple(_structural_violations(graph))
    violations = list(graph._violations)
    if registry is not None:
        for spec in graph.nodes.values():
            if not registry.is_registered(spec.executor_kind):
                violations.append(Violation(
                    "unknown-executor",
                    f"node {spec.node_id!r} names unregistered executor {spec.executor_kind!r}",
                    (spec.node_id,),
                ))
    return violations


def _structural_violations(graph: WorkflowGraph) -> list[Violation]:
    """Every violation ``validate_graph`` finds without an executor registry."""
    violations: list[Violation] = []
    known = set(graph.nodes)

    for spec in graph.nodes.values():
        node_id = spec.node_id
        if unsafe_name(node_id):
            violations.append(Violation(
                "unsafe-node-id",
                f"node id {node_id!r} cannot name a file: empty, '.', '..', or holds '/' or NUL",
                (node_id,),
            ))
        seen_ports: set[str] = set()
        for port in spec.input_ports:
            if port.name in seen_ports:
                violations.append(Violation(
                    "duplicate-port",
                    f"node {spec.node_id!r} declares port {port.name!r} twice",
                    (spec.node_id,),
                ))
            seen_ports.add(port.name)

    # Consumers in sorted order, each over its (port, producer)-sorted edges:
    # every edge is visited in (consumer, port, producer) order.
    bindings: dict[tuple[str, str], int] = defaultdict(int)
    for consumer in sorted(graph._incoming):
        spec = graph._nodes.get(consumer)
        declared = {} if spec is None else {p.name: p for p in spec.input_ports}
        for edge in graph.edges_into(consumer):
            endpoint_missing = False
            for endpoint in (edge.producer, consumer):
                if endpoint not in known:
                    violations.append(Violation(
                        "unknown-edge-endpoint",
                        f"edge {edge.producer}->{consumer}:{edge.port} names unknown node {endpoint!r}",
                        (endpoint,),
                    ))
                    endpoint_missing = True
            if endpoint_missing:
                continue
            port = declared.get(edge.port)
            if port is None:
                violations.append(Violation(
                    "undeclared-port",
                    f"edge into {consumer!r} targets undeclared port {edge.port!r}",
                    (consumer,),
                ))
                continue
            if port.source == CONTEXT:
                violations.append(Violation(
                    "context-port-edge",
                    f"port {edge.port!r} of node {consumer!r} is context-bound but has an incoming edge",
                    (consumer,),
                ))
            bindings[(consumer, edge.port)] += 1

    for (consumer, port), count in bindings.items():  # inserted in sorted order
        if count > 1:
            violations.append(Violation(
                "duplicate-binding",
                f"port {port!r} of node {consumer!r} is bound by {count} edges",
                (consumer,),
            ))

    for spec in graph.nodes.values():
        for port in spec.dependency_ports:
            if bindings.get((spec.node_id, port.name), 0) == 0:
                violations.append(Violation(
                    "unbound-port",
                    f"dependency port {port.name!r} of node {spec.node_id!r} has no incoming edge",
                    (spec.node_id,),
                ))

    cycle = graph.kahn_pass().stuck
    if cycle:
        violations.append(Violation(
            "cycle",
            "dependency edges form a cycle among {" + ", ".join(sorted(cycle)) + "}",
            tuple(sorted(cycle)),
        ))

    return violations


def _kahn(nodes: Mapping[str, NodeSpec], consumers: Mapping[str, set[str]],
          rng: random.Random | None = None) -> KahnPass:
    """Kahn's algorithm over edges between known nodes, least ready node id first.

    With ``rng``, a uniform draw among the ready nodes comes next instead: the
    drawn slot is swapped to the end and popped. Ready nodes are added in id
    order, so a seeded order depends only on the graph and the seed.
    """
    waiting = dict.fromkeys(sorted(nodes), 0)
    for producer, targets in consumers.items():
        if producer in waiting:
            for c in targets:
                if c in waiting:
                    waiting[c] += 1
    ready = [n for n, d in waiting.items() if d == 0]  # sorted, so already a heap
    order: list[str] = []
    while ready:
        if rng is None:
            n = heapq.heappop(ready)
        else:
            i = rng.randrange(len(ready))
            ready[i], ready[-1] = ready[-1], ready[i]
            n = ready.pop()
        order.append(n)
        targets = consumers.get(n, ())
        for c in targets if rng is None else sorted(targets):
            if c in waiting:
                waiting[c] -= 1
                if waiting[c] == 0:
                    heapq.heappush(ready, c)  # a seeded draw ignores the heap order
    return KahnPass(
        order=tuple(order),
        stuck=frozenset(n for n, d in waiting.items() if d > 0),
    )


def topological_order(graph: WorkflowGraph) -> list[str]:
    """Dependency order with lexicographic tie-breaking.

    The order is a pure function of the graph, so scheduling traces and
    report layouts are reproducible across processes.
    """
    for e in graph.edges:
        if e.producer not in graph._nodes or e.consumer not in graph._nodes:
            raise UnknownNodeError(f"edge endpoint missing from graph: {e}")
    kahn = graph.kahn_pass()
    if kahn.stuck:
        raise CycleError(
            "graph has no topological order; cycle among " + ", ".join(sorted(kahn.stuck))
        )
    return list(kahn.order)


def descendants(graph: WorkflowGraph, roots: Iterable[str]) -> frozenset[str]:
    """All nodes reachable from the roots via one or more edges, roots excluded."""
    root_set = set(roots)
    for n in root_set:
        if n not in graph.nodes:
            raise UnknownNodeError(f"unknown root {n!r}")
    consumers = graph._consumers
    seen: set[str] = set()
    frontier = list(root_set)
    while frontier:
        node = frontier.pop()
        for c in consumers.get(node, ()):
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return frozenset(seen - root_set)


def ancestors(graph: WorkflowGraph, node_id: str) -> frozenset[str]:
    """All transitive producers feeding the node."""
    graph.node(node_id)
    seen: set[str] = set()
    frontier = [node_id]
    while frontier:
        node = frontier.pop()
        for p in graph.predecessors(node):
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return frozenset(seen - {node_id})
