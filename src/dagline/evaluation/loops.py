"""Single-call regeneration baselines.

A loop condition answers an update by regenerating the final deliverable in
one synthesis call over everything it can see: the prior final memo plus the
full current material bundle (and, in one condition, the edit event text).
It maintains no intermediate artifacts, so whatever it does not regenerate
simply stays stale.
"""

from __future__ import annotations

from dataclasses import dataclass

from dagline.errors import DaglineError
from dagline.evaluation.scenarios import Scenario
from dagline.executors import NodeResult, ResolvedLocalState, execute
from dagline.graph import ContextBinding, EditEvent, NodeSpec, PortDecl
from dagline.identity import hash_content
from dagline.runtime import Workspace

FINAL_UPDATE = "final_update"
WITH_EDIT_EVENT = "with_edit_event"
CONDITIONS = (FINAL_UPDATE, WITH_EDIT_EVENT)


@dataclass(frozen=True, slots=True)
class LoopState:
    """What a loop sees: prior final output and the post-edit material bundle."""

    prior_final: bytes
    source_bundle: tuple[tuple[str, bytes], ...]
    edit_event: EditEvent


def loop_state_for(scenario: Scenario, edited_workspace: Workspace) -> LoopState:
    """Bundle every current source fragment plus any operator-edited artifact.

    Context bindings reflect post-edit sources; artifact edits contribute the
    edited content itself (the operator shares the document they changed).
    """
    bundle: list[tuple[str, bytes]] = []
    for (node_id, port), binding in sorted(edited_workspace.context.items()):
        bundle.append((f"{node_id}:{port}", binding.content))
    for node_id, artifact_id in sorted(edited_workspace.overrides.items()):
        content = edited_workspace.store.read_artifact(artifact_id)
        bundle.append((f"{node_id}:artifact", content))
    return LoopState(
        prior_final=scenario.prior_final,
        source_bundle=tuple(bundle),
        edit_event=scenario.edit,
    )


def render_edit_event(edit: EditEvent) -> str:
    target = edit.node_id if edit.port is None else f"{edit.node_id}:{edit.port}"
    return (
        f"edit-event id={edit.event_id} kind={edit.kind} target={target} "
        f"content-sha256={hash_content(edit.new_content).hex}\n"
    )


def loop_update_result(
    state: LoopState, condition: str, *, work_passes: int = 1
) -> NodeResult:
    """One synthesis call over the whole bundle; returns output plus stats."""
    if condition not in CONDITIONS:
        raise DaglineError(f"unknown loop condition {condition!r}")
    entries = [ContextBinding("prior_final", state.prior_final, "text")]
    for label, content in state.source_bundle:
        entries.append(ContextBinding(f"bundle:{label}", content, "text"))
    if condition == WITH_EDIT_EVENT:
        entries.append(ContextBinding(
            "edit_event", render_edit_event(state.edit_event).encode("utf-8"), "text"
        ))
    spec = NodeSpec(
        node_id=f"loop_{condition}",
        executor_kind="synthesis",
        config={
            "instructions": "regenerate the final memo from the prior memo and all current materials",
            "work_passes": work_passes,
        },
        input_ports=tuple(
            PortDecl(b.port, "text", source="context") for b in entries
        ),
        output_type="text",
    )
    local = ResolvedLocalState(context_entries=tuple(entries))
    return execute(spec, local)


def loop_update(state: LoopState, condition: str, *, work_passes: int = 1) -> bytes:
    """The regenerated final memo bytes."""
    return loop_update_result(state, condition, work_passes=work_passes).canonical_output[0]
