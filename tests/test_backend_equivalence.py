"""MemoryStore and FileStore answer every store query alike for one session.

An 8-wide, 6-deep diamond lattice is run on each backend: a cold FULL run,
a replay, a context-edit, an artifact-edit, then a replay. Only measured
fields (``elapsed``, ``created_at``) may differ between the two stores.
"""

from __future__ import annotations

from dataclasses import replace

from dagline.graph import ARTIFACT_EDIT, CONTEXT_EDIT, Edge, EditEvent, WorkflowGraph
from dagline.runtime import FULL, REPLAY, apply_edit, run
from dagline.store import FileStore, MemoryStore, record_bytes

from conftest import ctx_port, dep_port, synthesis_node, workspace_for


def lattice(width: int = 8, depth: int = 6) -> WorkflowGraph:
    """Layer 0 reads context; every later node reads two neighbours above."""
    nodes = [synthesis_node(f"n{col}-l0", (ctx_port(),), col=col) for col in range(width)]
    edges = []
    for layer in range(1, depth):
        for col in range(width):
            node_id = f"n{col}-l{layer}"
            nodes.append(synthesis_node(node_id, (dep_port("left"), dep_port("right"))))
            edges.append(Edge(f"n{col}-l{layer - 1}", node_id, "left"))
            edges.append(Edge(f"n{(col + 1) % width}-l{layer - 1}", node_id, "right"))
    return WorkflowGraph(nodes, edges)


def unmeasured(record) -> bytes:
    return record_bytes(replace(record, stats=replace(record.stats, elapsed=0.0)))


def session(store) -> dict:
    """Run the session on ``store`` and collect every store answer."""
    workspace = replace(workspace_for(lattice()), store=store)
    reports = [run(workspace, FULL, run_id="0001-cold")]
    reports.append(run(workspace, REPLAY, run_id="0002-replay"))
    workspace, _ = apply_edit(
        workspace, EditEvent(CONTEXT_EDIT, "n3-l0", b"revised MARK:E1", port="raw")
    )
    reports.append(run(workspace, REPLAY, run_id="0003-context-edit"))
    workspace, _ = apply_edit(workspace, EditEvent(ARTIFACT_EDIT, "n5-l2", b"pinned MARK:P1"))
    reports.append(run(workspace, REPLAY, run_id="0004-artifact-edit"))
    reports.append(run(workspace, REPLAY, run_id="0005-replay"))

    nodes = sorted(workspace.graph.nodes)
    artifact_ids = {r.canonical_artifact for r in store.records()}
    for report in reports:
        artifact_ids.update(report.final_artifacts.values())
    artifacts = {}
    for artifact_id in sorted(artifact_ids, key=lambda a: a.hex):
        artifact = store.get_artifact(artifact_id)
        artifacts[artifact_id.hex] = (
            artifact.content, artifact.content_type, artifact.producer,
            artifact.produced_under,
        )
    report_docs = []
    for run_id in store.list_runs():
        doc = store.get_run_report(run_id)
        doc["elapsed"] = doc["totals"]["elapsed"] = 0.0
        report_docs.append(doc)
    return {
        "records": [unmeasured(r) for r in store.records()],
        "history": {n: store.node_history(n) for n in nodes},
        "latest": {n: unmeasured(store.latest_record_for_node(n)) for n in nodes},
        "artifacts": artifacts,
        "artifact_count": store.artifact_count(),
        "reports": report_docs,
    }


def test_memory_and_file_stores_give_identical_answers(tmp_path):
    memory = session(MemoryStore())
    on_disk = session(FileStore(tmp_path / "store"))
    assert memory.keys() == on_disk.keys()
    for key in memory:
        assert memory[key] == on_disk[key], key
    # The session exercises what it claims to: replays, edits, provenance.
    assert len(memory["reports"]) == 5
    assert any(under is None for *_, under in memory["artifacts"].values())
    assert any(under is not None for *_, under in memory["artifacts"].values())
    assert any(len(history) > 1 for history in memory["history"].values())
