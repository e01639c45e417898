"""A FileStore session interrupted at any write reopens and completes.

"Write" means every file a store opens for writing: each ``_atomic_write``
temp file and each history append. A fault fails the k-th of them, either
cleanly (the open raises ``OSError``, which the store reports as
``StorageError``) or as a crash (half the payload reaches the file, then the
process stops, simulated by a ``BaseException`` that no store code catches).
The store is then reopened and the whole session redone on it.
"""

from __future__ import annotations

import builtins
import dataclasses

import pytest

import dagline.store
from dagline.errors import StorageError
from dagline.graph import ARTIFACT_EDIT, CONTEXT_EDIT, Edge, EditEvent, WorkflowGraph
from dagline.runtime import FULL, PINNED, REPLAY, apply_edit, run
from dagline.store import FileStore

from conftest import ctx_port, dep_port, synthesis_node, workspace_for


class Crash(BaseException):
    """The process stopping mid-write: no handler in the store runs."""


class _TornFile:
    """A file that takes half of what is written to it, then crashes."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise Crash


class FaultyOpen:
    """``open`` for dagline.store that counts writes and fails the k-th."""

    def __init__(self, fail_at: int | None = None, mode: str = "error"):
        self.fail_at, self.mode, self.writes = fail_at, mode, 0

    def __call__(self, path, mode="r", *args, **kwargs):
        if "w" not in mode and "a" not in mode:
            return builtins.open(path, mode, *args, **kwargs)
        self.writes += 1
        if self.writes != self.fail_at:
            return builtins.open(path, mode, *args, **kwargs)
        if self.mode == "error":
            raise OSError(f"injected failure opening {path}")
        return _TornFile(builtins.open(path, mode, *args, **kwargs))


def graph() -> WorkflowGraph:
    """Two sources, a chain and a join: five nodes."""
    return WorkflowGraph(
        [
            synthesis_node("s1", (ctx_port(),)),
            synthesis_node("s2", (ctx_port(),)),
            synthesis_node("m1", (dep_port("up"),)),
            synthesis_node("m2", (dep_port("left"), dep_port("right"))),
            synthesis_node("out", (dep_port("left"), dep_port("right"))),
        ],
        [
            Edge("s1", "m1", "up"),
            Edge("s1", "m2", "left"),
            Edge("s2", "m2", "right"),
            Edge("m1", "out", "left"),
            Edge("m2", "out", "right"),
        ],
    )


def session(root) -> dict[str, bytes]:
    """A cold run, a context-edit run, an artifact-edit run; final bytes per node."""
    store = FileStore(root)
    workspace = dataclasses.replace(workspace_for(graph()), store=store)
    run(workspace, FULL, run_id="0001-cold")
    workspace, _ = apply_edit(
        workspace, EditEvent(CONTEXT_EDIT, "s2", b"revised MARK:E1", port="raw")
    )
    run(workspace, REPLAY, run_id="0002-context-edit")
    workspace, _ = apply_edit(workspace, EditEvent(ARTIFACT_EDIT, "m1", b"pinned MARK:P1"))
    report = run(workspace, REPLAY, run_id="0003-artifact-edit")
    return {n: store.get_artifact(a).content for n, a in report.final_artifacts.items()}


def assert_consistent(root) -> None:
    """Every record is named by its node's history; every node has a latest record."""
    store = FileStore(root)
    for record in store.records():
        assert record.identity.value in store.node_history(record.node_id)
    for node_id in graph().nodes:
        assert store.latest_record_for_node(node_id) is not None, node_id


def test_session_redone_after_a_fault_at_any_write(tmp_path, monkeypatch):
    counter = FaultyOpen()
    monkeypatch.setattr(dagline.store, "open", counter, raising=False)
    clean = session(tmp_path / "clean")
    assert counter.writes > 30  # the session writes objects, ledger, histories, reports
    for mode, expected in (("error", StorageError), ("crash", Crash)):
        for k in range(1, counter.writes + 1):
            root = tmp_path / f"{mode}-{k}"
            monkeypatch.setattr(dagline.store, "open", FaultyOpen(k, mode), raising=False)
            with pytest.raises(expected):
                session(root)
            monkeypatch.setattr(dagline.store, "open", builtins.open, raising=False)
            assert session(root) == clean, (mode, k)
            assert_consistent(root)


def test_failed_history_append_leaves_no_record_without_a_history(tmp_path, monkeypatch):
    """The append fails once during a cold run; a reopened store replays,
    names every node's latest record, and accepts an artifact-edit."""
    root = tmp_path / "store"
    workspace = dataclasses.replace(workspace_for(graph()), store=FileStore(root))
    appends = []

    def failing_append(path, mode="r", *args, **kwargs):
        if mode == "a":
            appends.append(path)
            if len(appends) == 3:
                raise OSError(f"injected failure appending to {path}")
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(dagline.store, "open", failing_append, raising=False)
    with pytest.raises(StorageError, match="injected"):
        run(workspace, FULL)
    monkeypatch.setattr(dagline.store, "open", builtins.open, raising=False)

    workspace = dataclasses.replace(workspace, store=FileStore(root))
    run(workspace, REPLAY)
    for node_id in workspace.graph.nodes:
        assert workspace.store.latest_record_for_node(node_id) is not None, node_id
    node_id = appends[2].rsplit("/", 1)[1]
    workspace, _ = apply_edit(workspace, EditEvent(ARTIFACT_EDIT, node_id, b"pinned"))
    assert run(workspace, REPLAY).decision_for(node_id).action == PINNED
    assert_consistent(root)
