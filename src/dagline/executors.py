"""Node-local procedures and their registry.

The ``synthesis`` executor is the deterministic stand-in for a model call:
a digest-and-marker transducer. It reads nothing outside the resolved local
state, and its output is a total function of (spec, state) bytes, so the
runtime's determinism, replay, and propagation properties can be tested at
the byte level.

Marker tokens (``MARK:...``) are unique strings planted in source material;
the transducer re-emits every marker it sees, which makes content provenance
("did branch X's material reach this artifact?") decidable by substring
search. A marker appears in a node's output iff it appears in some input.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

from dagline.errors import (
    ContractViolationError,
    DuplicateExecutorError,
    ExecutorFailureError,
    UndeclaredInputError,
    UnknownExecutorError,
)
from dagline.graph import ContextBinding, NodeSpec
from dagline.identity import ContentHash, hash_content
from dagline.store import ExecutionStats

MARKER_PATTERN = re.compile(rb"MARK:[A-Z0-9_.-]+(?::[A-Z0-9_.-]+)*")

SYNTHESIS = "synthesis"
PASSTHROUGH = "passthrough"


class DependencyInput(NamedTuple):
    """One dependency port's input: the producer's artifact id and its bytes."""

    artifact_id: ContentHash
    content: bytes


@dataclass(slots=True)
class ResolvedLocalState:
    """Everything a node may see while executing.

    Context entries and dependency inputs are inherited and immutable. A
    dependency input is the artifact id and the bytes the store checked
    against it; its provenance is not part of what an executor sees.
    Executors must not consume ports the spec never declared; ``execute``
    enforces it.
    """

    context_entries: tuple[ContextBinding, ...] = ()
    dependency_artifacts: Mapping[str, DependencyInput] = field(default_factory=dict)

    def input_surface(self) -> list[tuple[str, ContentHash, bytes]]:
        """(port, content hash, bytes) for every input, sorted by port name.

        The hashes are the ones already computed: a binding's ``content_hash``
        and an artifact's id.
        """
        surface = [(b.port, b.content_hash, b.content) for b in self.context_entries]
        surface.extend(
            (port, rec.artifact_id, rec.content)
            for port, rec in self.dependency_artifacts.items()
        )
        surface.sort(key=lambda item: item[0])
        return surface


@dataclass(frozen=True, slots=True)
class NodeResult:
    """What one execution produced: its canonical output and, once ``execute``
    has measured it, the work it took."""

    canonical_output: tuple[bytes, str]
    stats: ExecutionStats = ExecutionStats()


ExecutorFn = Callable[[NodeSpec, ResolvedLocalState], NodeResult]


@dataclass(frozen=True, slots=True)
class _Entry:
    implementation: ExecutorFn
    deterministic: bool


class ExecutorRegistry:
    """Named executor implementations with a determinism flag apiece.

    Nodes whose executor is flagged non-deterministic are never replayed and
    never written to the ledger, so the identity-conflict guard stays
    meaningful for everything else.
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}

    def register(
        self, kind: str, implementation: ExecutorFn, *, deterministic: bool = True
    ) -> None:
        if kind in self._entries:
            raise DuplicateExecutorError(f"executor kind {kind!r} already registered")
        self._entries[kind] = _Entry(implementation, deterministic)

    def is_registered(self, kind: str) -> bool:
        return kind in self._entries

    def is_deterministic(self, kind: str) -> bool:
        return self._get(kind).deterministic

    def implementation(self, kind: str) -> ExecutorFn:
        return self._get(kind).implementation

    def _get(self, kind: str) -> _Entry:
        try:
            return self._entries[kind]
        except KeyError:
            raise UnknownExecutorError(f"no executor registered for kind {kind!r}") from None


def extract_markers(content: bytes) -> list[str]:
    """Distinct marker tokens in order of first appearance; each is decoded once."""
    return [marker.decode("ascii") for marker in dict.fromkeys(MARKER_PATTERN.findall(content))]


def config_digest(spec: NodeSpec) -> str:
    """SHA-256 of the config's canonical JSON, the text the spec hash embeds.

    The text is ``spec.config_json``, encoded once per spec, so a node's
    executions and its spec hash share one encoding.
    """
    return hash_content(spec.config_json.encode("utf-8")).hex


def synthesize(spec: NodeSpec, state: ResolvedLocalState) -> NodeResult:
    """Deterministic synthesis: digest header, per-port marker extraction, body.

    Output document (format frozen, see docs/FORMATS.md):

        synthesis/v1
        node: <node-id>
        instructions: <sha256 of canonical config>
        port: <port-name> <content-hash>      (ports sorted by name)
        mark: <marker>                        (per distinct marker in the port)
        body:
        note: <marker>                        (per distinct marker overall)

    ``work_passes`` in the config is the stand-in model's compute-cost
    parameter: the input surface is folded into a scratch digest that many
    times, so execution cost scales with input size the way a model call
    would. It never affects the output bytes.
    """
    surface = state.input_surface()

    work_passes = int(spec.config.get("work_passes", 1))
    if work_passes > 0 and surface:
        scratch = hashlib.sha256()
        for _ in range(work_passes):
            for _, _, content in surface:
                scratch.update(content)

    lines = ["synthesis/v1", f"node: {spec.node_id}", f"instructions: {config_digest(spec)}"]
    seen: list[str] = []
    for port, content_hash, content in surface:
        markers = extract_markers(content)
        lines.append(f"port: {port} {content_hash.hex}")
        lines += [f"mark: {marker}" for marker in markers]
        seen += markers
    lines.append("body:")
    lines += [f"note: {marker}" for marker in dict.fromkeys(seen)]
    output = ("\n".join(lines) + "\n").encode("utf-8")
    return NodeResult(canonical_output=(output, spec.output_type))


def passthrough(spec: NodeSpec, state: ResolvedLocalState) -> NodeResult:
    """Republish a single input verbatim; used for source-ingest nodes."""
    surface = state.input_surface()
    if len(surface) != 1:
        raise ValueError(
            f"passthrough node {spec.node_id!r} needs exactly one input port, "
            f"got {len(surface)}"
        )
    _, _, content = surface[0]
    return NodeResult(canonical_output=(content, spec.output_type))


def default_registry() -> ExecutorRegistry:
    registry = ExecutorRegistry()
    registry.register(SYNTHESIS, synthesize)
    registry.register(PASSTHROUGH, passthrough)
    return registry


def execute(
    spec: NodeSpec, state: ResolvedLocalState, registry: ExecutorRegistry | None = None
) -> NodeResult:
    """Run a node's executor against its resolved state.

    Enforces the local visibility boundary (only declared ports may appear in
    the state), measures stats, and checks the output type against the node's
    contract. Deterministic executors return byte-identical results for
    byte-identical (spec, state).
    """
    registry = registry or default_registry()
    implementation = registry.implementation(spec.executor_kind)

    declared = {p.name for p in spec.input_ports}
    offered = {b.port for b in state.context_entries} | set(state.dependency_artifacts)
    undeclared = offered - declared
    if undeclared:
        raise UndeclaredInputError(
            f"node {spec.node_id!r} was offered undeclared ports: "
            + ", ".join(sorted(undeclared))
        )

    started = time.perf_counter()
    try:
        result = implementation(spec, state)
    except Exception as exc:
        raise ExecutorFailureError(spec.node_id, exc) from exc
    elapsed = time.perf_counter() - started

    _, output_type = result.canonical_output
    if output_type != spec.output_type:
        raise ContractViolationError(
            f"node {spec.node_id!r} produced type {output_type!r}, "
            f"contract requires {spec.output_type!r}"
        )
    input_chars = sum([len(b.content) for b in state.context_entries])
    input_chars += sum([len(d.content) for d in state.dependency_artifacts.values()])
    stats = ExecutionStats(
        input_chars=input_chars,
        output_chars=len(result.canonical_output[0]),
        synthesis_calls=1 if spec.executor_kind == SYNTHESIS else 0,
        elapsed=elapsed,
    )
    return NodeResult(result.canonical_output, stats)
