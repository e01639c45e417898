"""Run orchestration: identity-based replay, scoped invalidation, explanation.

A run walks the graph in dependency order. For each node it computes the
execution identity from the node's spec, its context surface, and what its
predecessors contributed this run. An identity that matches a ledger entry
is proof the prior result still applies, so the artifact is restored instead
of recomputed. Edits move identities, and only the edited node's descendants
can see the difference, which is what scopes recomputation.

Every dependency is declared before a run starts, so a run's schedule is
computed once, before its first node: ``topological_order`` by default, or
a seeded Kahn pass (``schedule_rng``) that depends only on the graph and the
seed. The run then settles each node inline in that order; published
artifacts are schedule-independent.

``settle`` is the one place a node is decided. A hit or a pin finishes
there; a hit costs one read of the stored bytes, rehashed against the
recorded artifact id (``read_artifact``). A miss resolves the node's
local state, reading each dependency through that same check and no
sidecar, executes it and publishes its artifact and, if the executor is
deterministic, its ledger entry. The miss reason names the identity
component that moved since the node's prior record (``prior_record``), the
same rule ``explain`` applies to any earlier run.
"""

from __future__ import annotations

import random
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Mapping

from dagline.errors import (
    DaglineError,
    ExecutorFailureError,
    MissingContextError,
    MissingDependencyError,
    UnknownNodeError,
    UnknownTargetError,
)
from dagline.executors import (
    DependencyInput,
    ExecutorRegistry,
    ResolvedLocalState,
    default_registry,
    execute,
)
from dagline.graph import (
    ARTIFACT_EDIT,
    CONTEXT_EDIT,
    ContextBinding,
    EditEvent,
    WorkflowGraph,
    descendants,
    topological_order,
    validate_graph,
)
from dagline.identity import (
    ContentHash,
    ExecutionIdentity,
    compute_execution_identity,
    compute_input_hash,
    identity_from_doc,
    identity_to_doc,
)
from dagline.store import (
    CONTEXT_INPUT,
    DEPENDENCY_INPUT,
    BaseStore,
    ExecutionRecord,
    ExecutionStats,
    InputRef,
    check_name,
    stats_from_doc,
    stats_to_doc,
)

FULL = "full"
REPLAY = "replay"

REPLAYED = "replayed"
RECOMPUTED = "recomputed"
PINNED = "pinned"

IDENTITY_HIT = "identity-hit"
MISS_SPEC = "identity-miss:spec"
MISS_INPUT = "identity-miss:input"
MISS_PREDECESSOR = "identity-miss:predecessor"
MISS_NEW = "identity-miss:new"
OVERRIDE = "override"

# Miss reason by the category of the diverged component.
_MISS_REASONS = {
    "new": MISS_NEW, "spec": MISS_SPEC, "input": MISS_INPUT,
    "predecessor": MISS_PREDECESSOR,
}


@dataclass(frozen=True, slots=True)
class Workspace:
    """A graph plus everything needed to run it: context, overrides, store."""

    graph: WorkflowGraph
    context: Mapping[tuple[str, str], ContextBinding] = field(default_factory=dict)
    overrides: Mapping[str, ContentHash] = field(default_factory=dict)
    store: BaseStore = None  # type: ignore[assignment]
    registry: ExecutorRegistry = field(default_factory=default_registry)

    def __post_init__(self) -> None:
        object.__setattr__(self, "context", dict(self.context))
        object.__setattr__(self, "overrides", dict(self.overrides))
        for (node_id, port_name) in self.context:
            self.graph.node(node_id).context_port(port_name)
        for node_id in self.overrides:
            self.graph.node(node_id)


@dataclass(frozen=True, slots=True)
class NodeDecision:
    """Why one node was replayed, recomputed, or pinned this run."""

    node_id: str
    identity: ExecutionIdentity
    action: str
    reason: str
    artifact_id: ContentHash

    @property
    def contribution(self) -> ContentHash:
        """What this node feeds into consumer identities.

        Pinned nodes bypass their executor, so the only faithful identity for
        their output is the override content hash itself.
        """
        if self.action == PINNED:
            return self.artifact_id
        return self.identity.value


@dataclass(frozen=True, slots=True)
class RunReport:
    run_id: str
    mode: str
    decisions: tuple[NodeDecision, ...]
    final_artifacts: Mapping[str, ContentHash]
    totals: ExecutionStats
    elapsed: float
    failed_node: str | None = None
    _by_node: Mapping[str, NodeDecision] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "final_artifacts", dict(self.final_artifacts))
        object.__setattr__(self, "_by_node", {d.node_id: d for d in self.decisions})

    def decision_for(self, node_id: str) -> NodeDecision:
        try:
            return self._by_node[node_id]
        except KeyError:
            raise UnknownNodeError(
                f"no decision for node {node_id!r} in run {self.run_id}"
            ) from None


def report_to_doc(report: RunReport) -> dict:
    return {
        "decisions": [
            {
                "action": d.action,
                "artifact": d.artifact_id.hex,
                "identity": identity_to_doc(d.identity),
                "node_id": d.node_id,
                "reason": d.reason,
            }
            for d in report.decisions
        ],
        "elapsed": report.elapsed,
        "failed_node": report.failed_node,
        "final_artifacts": {n: h.hex for n, h in report.final_artifacts.items()},
        "mode": report.mode,
        "run_id": report.run_id,
        "totals": stats_to_doc(report.totals),
    }


def report_from_doc(doc: dict) -> RunReport:
    decisions = tuple(
        NodeDecision(
            node_id=d["node_id"],
            identity=identity_from_doc(d["identity"]),
            action=d["action"],
            reason=d["reason"],
            artifact_id=ContentHash.from_hex(d["artifact"]),
        )
        for d in doc["decisions"]
    )
    return RunReport(
        run_id=doc["run_id"],
        mode=doc["mode"],
        decisions=decisions,
        final_artifacts={
            n: ContentHash.from_hex(h) for n, h in doc["final_artifacts"].items()
        },
        totals=stats_from_doc(doc["totals"]),
        elapsed=doc["elapsed"],
        failed_node=doc.get("failed_node"),
    )


def _resolve_ports(
    workspace: Workspace, node_id: str, published: Mapping[str, ContentHash]
) -> tuple[list[ContextBinding], dict[str, str]]:
    """A node's context bindings, sorted by port, and each dependency port's producer.

    Raises if a context port is unbound or a producer has not published yet.
    """
    spec = workspace.graph.node(node_id)
    bindings = []
    for port in spec.context_ports:
        binding = workspace.context.get((node_id, port.name))
        if binding is None:
            raise MissingContextError(f"no context bound for {node_id}:{port.name}")
        bindings.append(binding)
    bindings.sort(key=lambda b: b.port)
    producers = {e.port: e.producer for e in workspace.graph.edges_into(node_id)}
    dependencies = {}
    for port in spec.dependency_ports:
        producer = producers.get(port.name)
        if producer is None or producer not in published:
            raise MissingDependencyError(
                f"dependency port {node_id}:{port.name} has no published producer"
            )
        dependencies[port.name] = producer
    return bindings, dependencies


def resolve_local_state(
    workspace: Workspace, node_id: str, published: Mapping[str, ContentHash]
) -> ResolvedLocalState:
    """Materialize exactly what one node may see: its declared ports, nothing else."""
    bindings, producers = _resolve_ports(workspace, node_id, published)
    read = workspace.store.read_artifact
    artifacts = {port: published[producer] for port, producer in producers.items()}
    return ResolvedLocalState(
        context_entries=tuple(bindings),
        dependency_artifacts={p: DependencyInput(a, read(a)) for p, a in artifacts.items()},
    )


def node_identity(
    workspace: Workspace,
    node_id: str,
    contributions: Mapping[str, ContentHash],
) -> ExecutionIdentity:
    """Identity of a node given what each predecessor contributed this run."""
    bindings, producers = _resolve_ports(workspace, node_id, contributions)
    return compute_execution_identity(
        spec_hash=workspace.graph.spec_hash(node_id),
        input_hash=compute_input_hash(bindings),
        predecessors={port: contributions[p] for port, p in producers.items()},
    )


def apply_edit(workspace: Workspace, edit: EditEvent) -> tuple[Workspace, frozenset[str]]:
    """Apply one edit; returns the revised workspace and the dirty set.

    A context-edit rebinds a port and dirties the target plus its
    descendants. An artifact-edit stores the new content and pins it over
    the node's output: the node itself will not recompute, so only its
    descendants are dirty.
    """
    graph = workspace.graph
    if edit.node_id not in graph.nodes:
        raise UnknownTargetError(f"edit targets unknown node {edit.node_id!r}")
    if edit.kind == CONTEXT_EDIT:
        port = graph.node(edit.node_id).context_port(edit.port)
        context = dict(workspace.context)
        context[(edit.node_id, port.name)] = ContextBinding(
            port=port.name, content=edit.new_content, content_type=port.artifact_type
        )
        dirty = descendants(graph, {edit.node_id}) | {edit.node_id}
        return replace(workspace, context=context), frozenset(dirty)

    if edit.kind == ARTIFACT_EDIT:
        has_prior = workspace.store.latest_record_for_node(edit.node_id) is not None
        if not has_prior and edit.node_id not in workspace.overrides:
            raise UnknownTargetError(
                f"artifact-edit targets node {edit.node_id!r} with no published artifact"
            )
        spec = graph.node(edit.node_id)
        artifact_id = workspace.store.put_artifact(
            edit.new_content,
            content_type=spec.output_type,
            producer=edit.node_id,
            produced_under=None,
        )
        overrides = dict(workspace.overrides)
        overrides[edit.node_id] = artifact_id
        return replace(workspace, overrides=overrides), descendants(graph, {edit.node_id})

    raise UnknownTargetError(f"unknown edit kind {edit.kind!r}")


class _RunState:
    """Mutable bookkeeping for one run: what each settled node published."""

    def __init__(self, workspace: Workspace, mode: str) -> None:
        self.workspace = workspace
        self.mode = mode
        self.published: dict[str, ContentHash] = {}
        self.contributions: dict[str, ContentHash] = {}
        self.decisions: dict[str, NodeDecision] = {}
        self.totals = ExecutionStats()

    def settle(self, node_id: str) -> None:
        """Replay, pin or execute one node and publish its decision."""
        workspace = self.workspace
        store = workspace.store
        spec = workspace.graph.node(node_id)
        identity = node_identity(workspace, node_id, self.contributions)

        override = workspace.overrides.get(node_id)
        if override is not None:
            if not store.has_artifact(override):
                raise UnknownTargetError(
                    f"override for {node_id!r} references missing artifact"
                )
            self._finish(node_id, NodeDecision(
                node_id=node_id, identity=identity, action=PINNED,
                reason=OVERRIDE, artifact_id=override,
            ))
            return

        deterministic = workspace.registry.is_deterministic(spec.executor_kind)
        record = store.lookup_by_identity(identity)
        if record is None:
            divergence = _divergence(store.prior_record(node_id, identity), identity)
            reason = _MISS_REASONS[divergence.partition(":")[0]]
        elif self.mode == REPLAY and deterministic:
            store.read_artifact(record.canonical_artifact)
            # The ledger's identity equals the one just computed; keeping it
            # frees the new one at once, so a hit leaves only its decision.
            self._finish(node_id, NodeDecision(
                node_id=node_id, identity=record.identity, action=REPLAYED,
                reason=IDENTITY_HIT, artifact_id=record.canonical_artifact,
            ))
            return
        else:
            reason = IDENTITY_HIT  # full-mode recompute over a warm ledger
        local = resolve_local_state(workspace, node_id, self.published)
        result = execute(spec, local, workspace.registry)

        content, content_type = result.canonical_output
        canonical_id = store.put_artifact(content, content_type, node_id, identity)
        if deterministic:
            surface = {
                b.port: InputRef(CONTEXT_INPUT, b.content_hash)
                for b in local.context_entries
            }
            for port, artifact in local.dependency_artifacts.items():
                surface[port] = InputRef(DEPENDENCY_INPUT, artifact.artifact_id)
            store.record_execution(ExecutionRecord(
                identity=identity,
                node_id=node_id,
                canonical_artifact=canonical_id,
                candidate_artifacts=(canonical_id,),
                input_surface=surface,
                stats=result.stats,
            ))

        self.totals = self.totals + result.stats
        self._finish(node_id, NodeDecision(
            node_id=node_id, identity=identity, action=RECOMPUTED,
            reason=reason, artifact_id=canonical_id,
        ))

    def _finish(self, node_id: str, decision: NodeDecision) -> None:
        self.decisions[node_id] = decision
        self.published[node_id] = decision.artifact_id
        self.contributions[node_id] = decision.contribution


def diverging_component(prior: ExecutionIdentity, current: ExecutionIdentity) -> str:
    """First identity component that moved: spec, input, or predecessor:<port>."""
    if prior.spec_hash != current.spec_hash:
        return "spec"
    if prior.input_hash != current.input_hash:
        return "input"
    for port in sorted(set(prior.predecessors) | set(current.predecessors)):
        if prior.predecessors.get(port) != current.predecessors.get(port):
            return f"predecessor:{port}"
    return "none"


def _divergence(prior: ExecutionRecord | None, identity: ExecutionIdentity) -> str:
    """What moved since the prior record: ``new`` when there is none."""
    return "new" if prior is None else diverging_component(prior.identity, identity)


def run(
    workspace: Workspace,
    mode: str = REPLAY,
    *,
    run_id: str | None = None,
    schedule_rng: random.Random | None = None,
) -> RunReport:
    """Execute the workspace and persist a run report.

    ``replay`` restores ledger hits; ``full`` re-executes everything (the
    ledger then re-verifies determinism via idempotent re-records).
    ``schedule_rng`` draws the processing order from a seeded Kahn pass,
    the same for the same graph and seed in any process; any schedule
    publishes identical artifacts and the decision list is always reported
    in topological order. A given ``run_id`` must name a run directory
    (``check_name``); it is checked before any node runs.
    """
    if mode not in (FULL, REPLAY):
        raise ValueError(f"unknown run mode {mode!r}")
    if workspace.store is None:
        raise DaglineError("workspace has no store")
    # Generated ids sort chronologically so "latest run" is well defined.
    if run_id is None:
        run_id = f"{time.time_ns():019d}-{uuid.uuid4().hex[:6]}"
    else:
        check_name(run_id, "run id")
    violations = validate_graph(workspace.graph, workspace.registry)
    if violations:
        raise DaglineError(
            "graph is invalid: " + "; ".join(str(v) for v in violations[:5])
        )

    order = topological_order(workspace.graph)
    schedule = order if schedule_rng is None else workspace.graph.kahn_pass(schedule_rng).order
    state = _RunState(workspace, mode)
    started = time.perf_counter()

    failure: ExecutorFailureError | None = None
    try:
        for node_id in schedule:
            state.settle(node_id)
    except ExecutorFailureError as exc:
        failure = exc

    # A failed run reports the decisions made before the failure.
    report = RunReport(
        run_id=run_id,
        mode=mode,
        decisions=tuple(state.decisions[n] for n in order if n in state.decisions),
        final_artifacts=dict(state.published),
        totals=state.totals,
        elapsed=time.perf_counter() - started,
        failed_node=None if failure is None else failure.node_id,
    )
    workspace.store.put_run_report(run_id, report_to_doc(report))
    if failure is not None:
        failure.partial_report = report  # type: ignore[attr-defined]
        raise failure
    return report


@dataclass(frozen=True, slots=True)
class Explanation:
    """Why a node was (or was not) reusable in a given run."""

    node_id: str
    action: str
    reason: str
    divergence: str | None
    current_identity: str
    prior_identity: str | None

    def render(self) -> str:
        lines = [
            f"node: {self.node_id}",
            f"action: {self.action}",
            f"reason: {self.reason}",
            f"identity: {self.current_identity}",
        ]
        if self.prior_identity:
            lines.append(f"prior identity: {self.prior_identity}")
        if self.divergence:
            lines.append(f"diverged component: {self.divergence}")
        return "\n".join(lines)


def explain(store: BaseStore, report: RunReport, node_id: str) -> Explanation:
    """Attribute a node's run decision to the identity component that moved.

    A miss is compared with the node's prior record for that run's identity,
    the rule the run itself used, so any earlier run is explained as it ran.
    """
    decision = report.decision_for(node_id)
    divergence = prior_identity = None
    if decision.action == RECOMPUTED and decision.reason != IDENTITY_HIT:
        prior = store.prior_record(node_id, decision.identity)
        divergence = _divergence(prior, decision.identity)
        if prior is not None:
            prior_identity = prior.identity.value.hex
    return Explanation(
        node_id=node_id,
        action=decision.action,
        reason=decision.reason,
        divergence=divergence,
        current_identity=decision.identity.value.hex,
        prior_identity=prior_identity,
    )
