"""The two controlled update scenarios over a staged policy-memo workflow.

The maintained work product is a memo assembled in stages: four ingest
sources feed a claim matrix, which feeds a tension analysis, which (with an
operator directive) feeds recommendation criteria, then an implementation
plan, then the final memo. The unrelated-branch scenario adds a recruiting
branch (two sources and a summary) that sits beside the memo chain without
feeding it.

Label sets are derived from graph structure, never hand-listed: the
propagation set is exactly the edit target's descendant set, so the metrics
measure runtime behavior against structural ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

from dagline.errors import DaglineError
from dagline.evaluation.corpus import Fragment, build_corpus
from dagline.graph import (
    ARTIFACT_EDIT,
    CONTEXT_EDIT,
    ContextBinding,
    Edge,
    EditEvent,
    NodeSpec,
    PortDecl,
    WorkflowGraph,
    descendants,
)
from dagline.runtime import REPLAY, Workspace, run
from dagline.store import MemoryStore

UNRELATED_BRANCH_NOOP_UPDATE = "unrelated_branch_noop_update"
INTERMEDIATE_ARTIFACT_EDIT = "intermediate_artifact_edit"
TASKS = (UNRELATED_BRANCH_NOOP_UPDATE, INTERMEDIATE_ARTIFACT_EDIT)

CONSTRAINT_MARKER = "MARK:CONSTRAINT:BUDGETNEUTRAL"

FINAL_NODE = "final_memo"
CRITERIA_NODE = "recommendation_criteria"

# Stand-in model compute cost: the synthesis executor folds its input this
# many times, so call cost scales with input size the way a model call would.
# Sized so one full-bundle call clearly outweighs a whole replay pass.
DEFAULT_WORK_PASSES = 768


def _ctx_port() -> tuple[PortDecl, ...]:
    return (PortDecl("raw", "text", source="context"),)


def _dep(name: str) -> PortDecl:
    return PortDecl(name, "text", source="dependency")


def build_memo_graph(*, include_recruiting: bool, work_passes: int) -> WorkflowGraph:
    """The staged workflow; recruiting branch only for the unrelated task."""

    def synthesis(node_id: str, instructions: str, ports: tuple[PortDecl, ...]) -> NodeSpec:
        return NodeSpec(
            node_id=node_id,
            executor_kind="synthesis",
            config={"instructions": instructions, "work_passes": work_passes},
            input_ports=ports,
            output_type="text",
        )

    nodes = [
        NodeSpec("src_utilization", "passthrough", {}, _ctx_port(), "text"),
        NodeSpec("src_reimbursement", "passthrough", {}, _ctx_port(), "text"),
        NodeSpec("src_operations", "passthrough", {}, _ctx_port(), "text"),
        NodeSpec("src_access_cost", "passthrough", {}, _ctx_port(), "text"),
        synthesis(
            "claim_matrix",
            "tabulate claims supported by each context source",
            (_dep("access_cost"), _dep("operations"), _dep("reimbursement"), _dep("utilization")),
        ),
        synthesis(
            "tension_analysis",
            "surface tensions between claims",
            (_dep("claims"),),
        ),
        synthesis(
            CRITERIA_NODE,
            "derive recommendation criteria honoring the operator directives",
            (_dep("analysis"), PortDecl("directives", "text", source="context")),
        ),
        synthesis(
            "implementation_plan",
            "plan rollout steps satisfying every criterion",
            (_dep("criteria"),),
        ),
        synthesis(
            FINAL_NODE,
            "assemble the final memo from plan and criteria",
            (_dep("criteria"), _dep("plan")),
        ),
    ]
    edges = [
        Edge("src_access_cost", "claim_matrix", "access_cost"),
        Edge("src_operations", "claim_matrix", "operations"),
        Edge("src_reimbursement", "claim_matrix", "reimbursement"),
        Edge("src_utilization", "claim_matrix", "utilization"),
        Edge("claim_matrix", "tension_analysis", "claims"),
        Edge("tension_analysis", CRITERIA_NODE, "analysis"),
        Edge(CRITERIA_NODE, "implementation_plan", "criteria"),
        Edge("implementation_plan", FINAL_NODE, "plan"),
        Edge(CRITERIA_NODE, FINAL_NODE, "criteria"),
    ]
    if include_recruiting:
        nodes.extend([
            NodeSpec("recruit_src_a", "passthrough", {}, _ctx_port(), "text"),
            NodeSpec("recruit_src_b", "passthrough", {}, _ctx_port(), "text"),
            synthesis(
                "recruiting_summary",
                "summarize recruiting and staffing posture",
                (_dep("source_a"), _dep("source_b")),
            ),
        ])
        edges.extend([
            Edge("recruit_src_a", "recruiting_summary", "source_a"),
            Edge("recruit_src_b", "recruiting_summary", "source_b"),
        ])
    return WorkflowGraph(nodes, edges)


@dataclass(frozen=True, slots=True)
class Scenario:
    """One task instance: the baseline workspace, the edit, and its label sets.

    ``workspace`` has run once (its store holds the baseline) and
    ``pre_state`` is that run's bytes per node. The label sets are derived
    from the graph: ``propagation_set`` is the edit target's descendants and
    ``stable_set`` every other node but the target. The markers and the two
    node names are what the metrics look for in the post-update bytes.
    """

    final_node: ClassVar[str] = FINAL_NODE
    criteria_node: ClassVar[str] = CRITERIA_NODE

    name: str
    workspace: Workspace
    edit: EditEvent
    contamination_markers: tuple[str, ...]
    constraint_marker: str | None
    criteria_version_marker: str
    propagation_markers: tuple[str, ...]
    pre_state: Mapping[str, bytes]

    @property
    def propagation_set(self) -> frozenset[str]:
        return descendants(self.workspace.graph, {self.edit.node_id})

    @property
    def stable_set(self) -> frozenset[str]:
        graph = self.workspace.graph
        return frozenset(graph.nodes) - self.propagation_set - {self.edit.node_id}

    @property
    def prior_final(self) -> bytes:
        return self.pre_state[self.final_node]


def build_scenario(
    name: str,
    seed: int,
    *,
    work_passes: int = DEFAULT_WORK_PASSES,
) -> Scenario:
    """Construct a scenario: corpus, workspace, baseline run, and edit event.

    The same (name, seed) always produces byte-identical corpora, baseline
    artifacts, and edit content.
    """
    if name not in TASKS:
        raise DaglineError(f"unknown task {name!r}; expected one of {TASKS}")
    include_recruiting = name == UNRELATED_BRANCH_NOOP_UPDATE
    fragments = build_corpus(seed, include_recruiting=include_recruiting)
    graph = build_memo_graph(
        include_recruiting=include_recruiting, work_passes=work_passes
    )

    context = {
        ("src_utilization", "raw"): _binding(fragments["utilization"]),
        ("src_reimbursement", "raw"): _binding(fragments["reimbursement"]),
        ("src_operations", "raw"): _binding(fragments["operations"]),
        ("src_access_cost", "raw"): _binding(fragments["access_cost"]),
        (CRITERIA_NODE, "directives"): ContextBinding(
            "directives", fragments["directives"].text, "text"
        ),
    }
    if include_recruiting:
        context[("recruit_src_a", "raw")] = _binding(fragments["recruit_a"])
        context[("recruit_src_b", "raw")] = _binding(fragments["recruit_b"])

    workspace = Workspace(graph=graph, context=context, store=MemoryStore())
    baseline = run(workspace, REPLAY, run_id=f"baseline-{name}-{seed}")
    pre_state = {
        node: workspace.store.read_artifact(artifact)
        for node, artifact in baseline.final_artifacts.items()
    }

    if include_recruiting:
        edited = fragments["recruit_a_edited"]
        edit = EditEvent(
            kind=CONTEXT_EDIT,
            node_id="recruit_src_a",
            port="raw",
            new_content=edited.text,
            event_id=f"edit-{seed}-recruiting-refresh",
        )
        contamination = (
            fragments["recruit_a"].markers
            + fragments["recruit_b"].markers
            + edited.markers
        )
        constraint_marker = None
        criteria_version_marker = fragments["directives"].markers[0]
        propagation_markers = edited.markers
    else:
        amendment = (
            "\n## amendment\n"
            "year-one expansion must be budget neutral and include utilization\n"
            "controls before chronic-care follow-up scales.\n"
            f"{CONSTRAINT_MARKER}\n"
        )
        edit = EditEvent(
            kind=ARTIFACT_EDIT,
            node_id=CRITERIA_NODE,
            new_content=pre_state[CRITERIA_NODE] + amendment.encode("utf-8"),
            event_id=f"edit-{seed}-criteria-constraint",
        )
        contamination = ()
        constraint_marker = CONSTRAINT_MARKER
        criteria_version_marker = CONSTRAINT_MARKER
        propagation_markers = (CONSTRAINT_MARKER,)

    return Scenario(
        name=name,
        workspace=workspace,
        edit=edit,
        contamination_markers=tuple(contamination),
        constraint_marker=constraint_marker,
        criteria_version_marker=criteria_version_marker,
        propagation_markers=propagation_markers,
        pre_state=pre_state,
    )


def _binding(fragment: Fragment) -> ContextBinding:
    return ContextBinding("raw", fragment.text, "text")
