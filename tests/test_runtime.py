"""Runtime behavior: replay, invalidation scope, scheduling, explanations."""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import pytest

from dagline.errors import (
    ArtifactNotFoundError,
    DaglineError,
    ExecutorFailureError,
    IdentityConflictError,
    IntegrityError,
    MissingContextError,
    MissingDependencyError,
    StorageError,
    UnknownTargetError,
)
from dagline.executors import NodeResult, ResolvedLocalState, default_registry, synthesize
from dagline.graph import (
    ARTIFACT_EDIT,
    CONTEXT_EDIT,
    ContextBinding,
    Edge,
    EditEvent,
    NodeSpec,
    WorkflowGraph,
    ancestors,
    descendants,
)
from dagline.identity import hash_content
from dagline.runtime import (
    FULL,
    PINNED,
    RECOMPUTED,
    REPLAY,
    REPLAYED,
    Workspace,
    apply_edit,
    explain,
    node_identity,
    report_from_doc,
    report_to_doc,
    resolve_local_state,
    run,
)
from dagline.store import FileStore, MemoryStore

from conftest import (
    chain_graph,
    chain_workspace,
    ctx_port,
    dep_port,
    diamond_graph,
    random_edit,
    random_workflow,
    source_node,
    synthesis_node,
    workspace_for,
)


def artifact_bytes(workspace: Workspace, report) -> dict[str, bytes]:
    return {
        node: workspace.store.get_artifact(artifact).content
        for node, artifact in report.final_artifacts.items()
    }


def rerun_cold(workspace: Workspace, edit: EditEvent | None = None) -> dict[str, bytes]:
    """Independent oracle: rebuild state from scratch in a fresh store."""
    fresh = replace(workspace, store=MemoryStore(), overrides={})
    if edit is not None:
        if edit.kind == CONTEXT_EDIT:
            fresh, _ = apply_edit(fresh, edit)
        else:
            pinned = fresh.store.put_artifact(
                edit.new_content, "text", edit.node_id, None
            )
            fresh = replace(fresh, overrides={edit.node_id: pinned})
    return artifact_bytes(fresh, run(fresh, FULL))


class TestResolveLocalState:
    def test_source_node_context_only(self):
        workspace = chain_workspace()
        state = resolve_local_state(workspace, "retrieval", {})
        assert len(state.context_entries) == 1
        assert state.dependency_artifacts == {}

    def test_unpublished_producer(self):
        workspace = chain_workspace()
        with pytest.raises(MissingDependencyError):
            resolve_local_state(workspace, "analysis", {})

    def test_no_transitive_leakage(self):
        workspace = chain_workspace()
        report = run(workspace, FULL)
        published = dict(report.final_artifacts)
        state = resolve_local_state(workspace, "analysis", published)
        assert set(state.dependency_artifacts) == {"upstream"}
        only = state.dependency_artifacts["upstream"]
        assert only.artifact_id.hex == report.final_artifacts["retrieval"].hex
        assert state.context_entries == ()  # nothing of retrieval's own inputs

    def test_missing_context(self):
        workspace = chain_workspace()
        trimmed = replace(workspace, context={})
        with pytest.raises(MissingContextError):
            resolve_local_state(trimmed, "retrieval", {})


class TestNodeIdentity:
    def chain_identities(self, workspace: Workspace) -> dict[str, str]:
        report = run(workspace, REPLAY)
        return {d.node_id: d.identity.value.hex for d in report.decisions}

    def test_second_run_identities_identical(self):
        workspace = chain_workspace()
        first = self.chain_identities(workspace)
        second = self.chain_identities(workspace)
        assert first == second

    def test_context_edit_moves_whole_chain_not_unrelated(self):
        workspace = chain_workspace()
        before = self.chain_identities(workspace)
        edited, _ = apply_edit(workspace, EditEvent(
            CONTEXT_EDIT, "retrieval", b"revised source", port="raw", event_id="e1"
        ))
        after = self.chain_identities(edited)
        for node in ("retrieval", "analysis", "synthesis"):
            assert before[node] != after[node]
        assert before["unrelated"] == after["unrelated"]

    def test_artifact_pin_moves_consumers_only(self):
        workspace = chain_workspace()
        run(workspace, FULL)
        before = self.chain_identities(workspace)
        edited, _ = apply_edit(workspace, EditEvent(
            ARTIFACT_EDIT, "analysis", b"hand-tuned analysis", event_id="e2"
        ))
        after = self.chain_identities(edited)
        assert before["retrieval"] == after["retrieval"]  # ancestor untouched
        assert before["synthesis"] != after["synthesis"]  # consumer re-keyed
        # Cross-check with a full recomputation oracle.
        oracle_before = rerun_cold(workspace)
        oracle_after = rerun_cold(workspace, EditEvent(
            ARTIFACT_EDIT, "analysis", b"hand-tuned analysis", event_id="e2"
        ))
        assert oracle_before["retrieval"] == oracle_after["retrieval"]
        assert oracle_before["synthesis"] != oracle_after["synthesis"]

    def test_undecided_predecessor(self):
        workspace = chain_workspace()
        with pytest.raises(MissingDependencyError):
            node_identity(workspace, "analysis", {})


class TestRunAndReplay:
    def test_full_then_replay_everything_restored(self):
        workspace = chain_workspace()
        first = run(workspace, FULL)
        again = run(workspace, REPLAY)
        assert all(d.action == REPLAYED for d in again.decisions)
        assert all(d.reason == "identity-hit" for d in again.decisions)
        assert again.totals.synthesis_calls == 0
        assert again.totals.input_chars == 0
        assert artifact_bytes(workspace, first) == artifact_bytes(workspace, again)

    def test_decision_list_in_topological_order(self):
        workspace = workspace_for(diamond_graph())
        report = run(workspace, FULL)
        assert [d.node_id for d in report.decisions] == ["a", "b", "c", "d"]

    def test_full_mode_on_warm_store_recomputes_without_new_objects(self):
        workspace = chain_workspace()
        run(workspace, FULL)
        objects = workspace.store.artifact_count()
        report = run(workspace, FULL)
        assert all(d.action == RECOMPUTED for d in report.decisions)
        assert all(d.reason == "identity-hit" for d in report.decisions)
        assert workspace.store.artifact_count() == objects

    def test_cold_replay_reports_new_misses(self):
        workspace = chain_workspace()
        report = run(workspace, REPLAY)
        assert all(d.action == RECOMPUTED for d in report.decisions)
        assert all(d.reason == "identity-miss:new" for d in report.decisions)

    def test_run_rejects_invalid_graph(self):
        graph = WorkflowGraph([synthesis_node("a", (dep_port("x"),))], [])
        workspace = Workspace(graph=graph, context={}, store=MemoryStore())
        with pytest.raises(DaglineError):
            run(workspace, FULL)

    def test_report_round_trips_through_doc(self):
        workspace = chain_workspace()
        report = run(workspace, FULL)
        doc = report_to_doc(report)
        revived = report_from_doc(doc)
        assert report_to_doc(revived) == doc
        stored = workspace.store.get_run_report(report.run_id)
        assert stored == doc


class TestReplayIntegrity:
    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_replay_hit_on_tampered_object_raises(self, backend, tmp_path):
        workspace = chain_workspace()
        if backend == "file":
            workspace = replace(workspace, store=FileStore(tmp_path / "store"))
        cold = run(workspace, FULL)
        target = cold.final_artifacts["synthesis"].hex
        store = workspace.store
        if backend == "memory":
            content, meta = store._objects[target]
            store._objects[target] = (b"tampered " + content, meta)
        else:
            path = store._object_path(target)
            raw = bytearray(path.read_bytes())
            raw[0] ^= 0xFF
            path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            run(workspace, REPLAY)

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_replay_hit_on_missing_object_raises(self, backend, tmp_path):
        workspace = chain_workspace()
        if backend == "file":
            workspace = replace(workspace, store=FileStore(tmp_path / "store"))
        cold = run(workspace, FULL)
        target = cold.final_artifacts["synthesis"].hex
        store = workspace.store
        if backend == "memory":
            del store._objects[target]
        else:
            store._object_path(target).unlink()
        with pytest.raises(ArtifactNotFoundError):
            run(workspace, REPLAY)

    def test_replay_hit_checks_bytes_without_the_sidecar(self, tmp_path, monkeypatch):
        import dagline.runtime

        workspace = replace(chain_workspace(), store=FileStore(tmp_path / "store"))
        cold = run(workspace, FULL)
        target = cold.final_artifacts["synthesis"]
        path = workspace.store._object_path(target.hex)
        path.with_name(path.name + ".json").unlink()
        calls = []
        monkeypatch.setattr(
            dagline.runtime, "execute", lambda spec, *args: calls.append(spec.node_id)
        )
        replayed = run(workspace, REPLAY)
        assert calls == []
        assert {d.action for d in replayed.decisions} == {REPLAYED}
        with pytest.raises(StorageError):
            workspace.store.get_artifact(target)


_json_opens: list[str] | None = None  # set while a test counts sidecar opens


def _count_json_opens(event: str, args: tuple) -> None:
    if event == "open" and _json_opens is not None and str(args[0]).endswith(".json"):
        _json_opens.append(str(args[0]))


sys.addaudithook(_count_json_opens)


class TestDependencyReads:
    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_miss_on_tampered_dependency_raises(self, backend, tmp_path):
        workspace = chain_workspace()
        if backend == "file":
            workspace = replace(workspace, store=FileStore(tmp_path / "store"))
        cold = run(workspace, FULL)
        target = cold.final_artifacts["analysis"].hex  # synthesis's only input
        store = workspace.store
        if backend == "memory":
            content, meta = store._objects[target]
            store._objects[target] = (b"tampered " + content, meta)
        else:
            path = store._object_path(target)
            raw = bytearray(path.read_bytes())
            raw[0] ^= 0xFF
            path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            run(workspace, FULL)

    def test_miss_reads_dependencies_without_sidecars(self, tmp_path):
        global _json_opens
        workspace = replace(chain_workspace(), store=FileStore(tmp_path / "store"))
        cold = run(workspace, FULL)
        path = workspace.store._object_path(cold.final_artifacts["retrieval"].hex)
        path.with_name(path.name + ".json").unlink()
        _json_opens = []
        try:
            full = run(workspace, FULL)
            opened = _json_opens
        finally:
            _json_opens = None
        assert opened == []
        assert {d.action for d in full.decisions} == {RECOMPUTED}
        assert full.final_artifacts == cold.final_artifacts
        for artifact_id in full.final_artifacts.values():
            assert hash_content(workspace.store.read_artifact(artifact_id)) == artifact_id


class TestApplyEdit:
    def test_context_edit_on_chain_source(self):
        workspace = chain_workspace()
        _, dirty = apply_edit(workspace, EditEvent(
            CONTEXT_EDIT, "retrieval", b"new", port="raw", event_id="e"
        ))
        assert dirty == {"retrieval", "analysis", "synthesis"}

    def test_artifact_edit_dirties_downstream_only(self):
        workspace = chain_workspace()
        run(workspace, FULL)
        edited, dirty = apply_edit(workspace, EditEvent(
            ARTIFACT_EDIT, "analysis", b"pinned", event_id="e"
        ))
        assert dirty == {"synthesis"}
        report = run(edited, REPLAY)
        assert report.decision_for("analysis").action == PINNED
        assert report.decision_for("retrieval").action == REPLAYED
        assert report.decision_for("synthesis").action == RECOMPUTED

    def test_edit_on_sink_dirty_empty_beyond_target(self):
        workspace = chain_workspace()
        _, dirty = apply_edit(workspace, EditEvent(
            CONTEXT_EDIT, "unrelated", b"new", port="raw", event_id="e"
        ))
        assert dirty == {"unrelated"}

    def test_unknown_targets(self):
        workspace = chain_workspace()
        with pytest.raises(UnknownTargetError):
            apply_edit(workspace, EditEvent(CONTEXT_EDIT, "ghost", b"x", port="raw", event_id="e"))
        with pytest.raises(UnknownTargetError):
            apply_edit(workspace, EditEvent(CONTEXT_EDIT, "analysis", b"x", port="upstream", event_id="e"))
        with pytest.raises(UnknownTargetError):
            apply_edit(workspace, EditEvent(ARTIFACT_EDIT, "analysis", b"x", event_id="e"))

    def test_workspace_otherwise_unchanged(self):
        workspace = chain_workspace()
        edited, _ = apply_edit(workspace, EditEvent(
            CONTEXT_EDIT, "retrieval", b"new", port="raw", event_id="e"
        ))
        assert edited.graph is workspace.graph
        assert workspace.context[("retrieval", "raw")].content != b"new"
        assert edited.context[("retrieval", "raw")].content == b"new"
        assert edited.context[("unrelated", "raw")] == workspace.context[("unrelated", "raw")]


class TestPinnedPrecedence:
    def test_override_bytes_published_and_executor_skipped(self):
        calls = []

        def counting_synthesis(spec, state):
            calls.append(spec.node_id)
            return synthesize(spec, state)

        registry = default_registry()
        registry._entries["synthesis"] = replace(  # swap impl, keep flag
            registry._entries["synthesis"], implementation=counting_synthesis
        )
        workspace = replace(chain_workspace(), registry=registry)
        run(workspace, FULL)
        edited, _ = apply_edit(workspace, EditEvent(
            ARTIFACT_EDIT, "analysis", b"operator says so", event_id="e"
        ))
        calls.clear()
        report = run(edited, REPLAY)
        content = edited.store.get_artifact(report.final_artifacts["analysis"]).content
        assert content == b"operator says so"
        assert "analysis" not in calls  # pinned node's executor never ran
        assert calls == ["synthesis"]
        # The pin must not poison the ledger: the node's identity (unchanged,
        # since nothing upstream moved) still maps to the computed output.
        pinned_identity = report.decision_for("analysis").identity
        record = edited.store.lookup_by_identity(pinned_identity)
        assert record is not None
        assert record.canonical_artifact.hex != report.final_artifacts["analysis"].hex


class TestInvalidationScope:
    @pytest.mark.parametrize("seed", range(20))
    def test_recompute_set_matches_dirty_and_oracle(self, seed):
        rng = random.Random(seed)
        workspace = random_workflow(rng)
        baseline = run(workspace, FULL)
        pre = artifact_bytes(workspace, baseline)
        edit = random_edit(rng, workspace)
        edited, dirty = apply_edit(workspace, edit)
        report = run(edited, REPLAY)
        recomputed = {d.node_id for d in report.decisions if d.action == RECOMPUTED}
        assert recomputed == dirty
        post = artifact_bytes(edited, report)
        changed = {n for n in pre if post[n] != pre[n]}
        assert changed <= dirty | {edit.node_id}
        for node in set(pre) - dirty - {edit.node_id}:
            assert post[node] == pre[node]  # preservation outside the dirty set
        # Oracle: cold rerun from scratch agrees on every artifact.
        assert rerun_cold(workspace, edit) == post


class TestDescendantsOracleEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_perturbing_a_node_changes_exactly_its_downstream_closure(self, seed):
        """descendants(v) | {v} is exactly what a full rerun rewrites when
        v's output is perturbed (all-synthesis graphs, <= 6 nodes)."""
        rng = random.Random(300 + seed)
        workspace = random_workflow(rng, max_nodes=6, allow_passthrough=False)
        pre = rerun_cold(workspace)
        node_ids = sorted(workspace.graph.nodes)
        target = node_ids[rng.randrange(len(node_ids))]
        edit = EditEvent(ARTIFACT_EDIT, target, b"perturbed:" + rng.randbytes(8),
                         event_id="oracle")
        post = rerun_cold(workspace, edit)
        changed = {n for n in pre if post[n] != pre[n]}
        assert changed == descendants(workspace.graph, {target}) | {target}


class TestSchedulingIndependence:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_and_threaded_schedules_agree(self, seed):
        rng = random.Random(1000 + seed)
        workspace = random_workflow(rng, max_nodes=8)
        baseline = run(replace(workspace, store=MemoryStore()), FULL)
        base_bytes = None
        for trial in range(4):
            fresh = replace(workspace, store=MemoryStore())
            report = run(fresh, FULL, schedule_rng=random.Random(trial))
            assert {n: h.hex for n, h in report.final_artifacts.items()} == \
                {n: h.hex for n, h in baseline.final_artifacts.items()}
            assert report.decisions == baseline.decisions
            current = artifact_bytes(fresh, report)
            base_bytes = base_bytes or current
            assert current == base_bytes


class TestNonDeterministicExecutors:
    def test_flagged_nondeterministic_never_replays_never_records(self):
        registry = default_registry()
        ticker = iter(range(10**6))

        def wild(spec, state):
            return NodeResult((f"draw-{next(ticker)}".encode(), "text"))

        registry.register("wild", wild, deterministic=False)
        graph = WorkflowGraph(
            [
                NodeSpec("dice", "wild", {}, (), "text"),
                synthesis_node("memo", (dep_port("in0"),)),
            ],
            [Edge("dice", "memo", "in0")],
        )
        workspace = Workspace(graph=graph, context={}, store=MemoryStore(), registry=registry)
        first = run(workspace, REPLAY)
        second = run(workspace, REPLAY)
        assert first.decision_for("dice").action == RECOMPUTED
        assert second.decision_for("dice").action == RECOMPUTED
        assert workspace.store.latest_record_for_node("dice") is None
        # Quarantine is per-node: the downstream deterministic node still replays
        # on its (unchanged) identity even though the wild output moved.
        assert second.decision_for("memo").action == REPLAYED

    def test_lying_random_executor_trips_identity_conflict(self):
        registry = default_registry()
        rng = random.Random(99)

        def chaotic(spec, state):  # claims determinism, breaks it
            return NodeResult((rng.randbytes(8), "text"))

        registry.register("chaotic", chaotic, deterministic=True)
        graph = WorkflowGraph([NodeSpec("x", "chaotic", {}, (), "text")], [])
        workspace = Workspace(graph=graph, context={}, store=MemoryStore(), registry=registry)
        run(workspace, FULL)
        with pytest.raises(IdentityConflictError):
            run(workspace, FULL)


class TestFailures:
    def test_executor_failure_carries_node_and_partial_report(self):
        registry = default_registry()

        def boom(spec, state):
            raise RuntimeError("blown fuse")

        registry.register("boom", boom)
        graph = WorkflowGraph(
            [
                source_node("ok_source", executor="synthesis"),
                NodeSpec("fuse", "boom", {}, (dep_port("in0"),), "text"),
            ],
            [Edge("ok_source", "fuse", "in0")],
        )
        workspace = workspace_for(graph)
        workspace = replace(workspace, registry=registry)
        with pytest.raises(ExecutorFailureError) as err:
            run(workspace, FULL, run_id="failing-run")
        assert err.value.node_id == "fuse"
        partial = err.value.partial_report
        assert partial.failed_node == "fuse"
        assert [d.node_id for d in partial.decisions] == ["ok_source"]
        assert workspace.store.get_run_report("failing-run")["failed_node"] == "fuse"


class TestExplain:
    def test_replayed_node_has_no_divergence(self):
        workspace = chain_workspace()
        run(workspace, FULL)
        report = run(workspace, REPLAY)
        info = explain(workspace.store, report, "analysis")
        assert info.action == REPLAYED
        assert info.reason == "identity-hit"
        assert info.divergence is None

    def test_config_change_attributed_to_spec(self):
        workspace = chain_workspace()
        run(workspace, FULL)
        bumped_nodes = []
        for spec in workspace.graph.nodes.values():
            if spec.node_id == "analysis":
                spec = NodeSpec(
                    spec.node_id, spec.executor_kind,
                    {**spec.config, "temperature": "low"},
                    spec.input_ports, spec.output_type,
                )
            bumped_nodes.append(spec)
        regraphed = WorkflowGraph(bumped_nodes, workspace.graph.edges)
        reworked = replace(workspace, graph=regraphed)
        report = run(reworked, REPLAY)
        info = explain(reworked.store, report, "analysis")
        assert report.decision_for("analysis").reason == "identity-miss:spec"
        assert info.divergence == "spec"
        downstream = explain(reworked.store, report, "synthesis")
        assert downstream.divergence == "predecessor:upstream"

    def test_context_change_attributed_to_input(self):
        workspace = chain_workspace()
        run(workspace, FULL)
        edited, _ = apply_edit(workspace, EditEvent(
            CONTEXT_EDIT, "retrieval", b"fresh pull", port="raw", event_id="e"
        ))
        report = run(edited, REPLAY)
        assert explain(edited.store, report, "retrieval").divergence == "input"
        assert report.decision_for("retrieval").reason == "identity-miss:input"

    def test_predecessor_attribution_names_the_moved_port(self):
        for port, upstream in (("left", "b"), ("right", "c")):
            workspace = workspace_for(diamond_graph())  # fresh history per case
            run(workspace, FULL)
            edited, _ = apply_edit(workspace, EditEvent(
                ARTIFACT_EDIT, upstream, f"pin {upstream}".encode(), event_id="e"
            ))
            report = run(edited, REPLAY)
            info = explain(edited.store, report, "d")
            assert info.divergence == f"predecessor:{port}"
            assert report.decision_for("d").reason == "identity-miss:predecessor"

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_every_run_is_explained_by_its_own_miss_reason(self, backend, tmp_path):
        graph = WorkflowGraph(
            [source_node("a"), source_node("b"),
             synthesis_node("m", (dep_port("x"), dep_port("y")))],
            [Edge("a", "m", "x"), Edge("b", "m", "y")],
        )
        workspace = workspace_for(graph)
        if backend == "file":
            workspace = replace(workspace, store=FileStore(tmp_path / "store"))
        reports = [run(workspace, REPLAY)]
        reconfigured = replace(graph.node("m"), config={"temperature": "low"})
        workspace = replace(workspace, graph=WorkflowGraph(
            [graph.node("a"), graph.node("b"), reconfigured], graph.edges
        ))
        reports.append(run(workspace, REPLAY))
        workspace, _ = apply_edit(workspace, EditEvent(
            CONTEXT_EDIT, "b", b"edited b", port="raw", event_id="e"
        ))
        reports.append(run(workspace, REPLAY))

        reasons = [
            {d.node_id: d.reason.removeprefix("identity-miss:")
             for d in report.decisions if d.action == RECOMPUTED}
            for report in reports
        ]
        assert reasons == [
            {"a": "new", "b": "new", "m": "new"},
            {"m": "spec"},
            {"b": "input", "m": "predecessor"},
        ]
        # Explained after all three runs, each run still reads as it ran.
        explained = [
            {node: explain(workspace.store, report, node).divergence.partition(":")[0]
             for node in run_reasons}
            for report, run_reasons in zip(reports, reasons)
        ]
        assert explained == reasons


def test_report_with_tampered_identity_value_fails_decode():
    workspace = chain_workspace()
    doc = report_to_doc(run(workspace, FULL))
    doc["decisions"][1]["identity"]["value"] = "00" * 32
    with pytest.raises(IntegrityError):
        report_from_doc(doc)


@pytest.mark.parametrize("node_id", ["../escape", "a/b"])
def test_unsafe_node_id_never_reaches_the_file_store(tmp_path, node_id):
    root = tmp_path / "store"
    graph = WorkflowGraph(
        [source_node(node_id), synthesis_node("sink", (dep_port("x"),))],
        [Edge(node_id, "sink", "x")],
    )
    workspace = Workspace(
        graph=graph, context={(node_id, "raw"): ContextBinding("raw", b"text")},
        store=FileStore(root),
    )
    with pytest.raises(DaglineError, match="unsafe-node-id"):
        run(workspace, FULL)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
    assert sorted(p.name for p in root.iterdir()) == ["executions", "nodes", "objects", "runs"]
    assert not any(p.is_file() for p in root.rglob("*"))


@pytest.mark.parametrize("port", ["nope", "upstream"])
def test_workspace_rejects_a_binding_for_an_undeclared_or_dependency_port(port):
    with pytest.raises(UnknownTargetError, match=f"analysis:{port}"):
        Workspace(graph=chain_graph(), context={("analysis", port): ContextBinding(port, b"x")})


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("run_id", ["", ".", "..", "a/b", "a\0b"])
def test_unsafe_run_id_writes_nothing(backend, run_id, tmp_path):
    root = tmp_path / "store"
    store = MemoryStore() if backend == "memory" else FileStore(root)
    workspace = replace(chain_workspace(), store=store)
    with pytest.raises(StorageError, match="invalid run id"):
        store.put_run_report(run_id, {"run_id": run_id})
    with pytest.raises(StorageError, match="invalid run id"):
        run(workspace, FULL, run_id=run_id)
    assert store.list_runs() == []
    assert store.artifact_count() == 0
    if backend == "file":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
        assert not any(p.is_file() for p in root.rglob("*"))


def test_cold_file_run_makes_one_directory_per_shard(tmp_path, monkeypatch):
    import os

    width, depth = 10, 30
    nodes = [source_node(f"n00_{j}") for j in range(width)]
    edges = []
    for k in range(1, depth):
        for j in range(width):
            node_id = f"n{k:02d}_{j}"
            nodes.append(synthesis_node(node_id, (dep_port("in0"), dep_port("in1"))))
            edges.append(Edge(f"n{k - 1:02d}_{j}", node_id, "in0"))
            edges.append(Edge(f"n{k - 1:02d}_{(j + 1) % width}", node_id, "in1"))
    workspace = replace(
        workspace_for(WorkflowGraph(nodes, edges)), store=FileStore(tmp_path / "store")
    )
    real_mkdir = os.mkdir
    made = []

    def counting_mkdir(path, *args, **kwargs):
        made.append(path)
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    run(workspace, FULL)
    objects = workspace.store._object_ids()
    shards = {hex_id[:2] for hex_id in objects}
    assert len(objects) > len(shards)  # some shard holds two objects
    assert len(made) <= len(shards) + 1  # plus the run's report directory
