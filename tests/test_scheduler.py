"""The run driver: its default order, its failures, and schedule independence."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import dagline
from dagline.errors import ExecutorFailureError
from dagline.executors import default_registry, synthesize
from dagline.graph import (
    CONTEXT_EDIT,
    Edge,
    EditEvent,
    NodeSpec,
    WorkflowGraph,
    topological_order,
)
from dagline.runtime import FULL, RECOMPUTED, REPLAY, REPLAYED, apply_edit, run
from dagline.store import record_bytes

from conftest import (
    ctx_port,
    dep_port,
    random_workflow,
    source_node,
    synthesis_node,
    workspace_for,
)

SCHEDULES = ["default", "rng-1", "rng-2", "rng-3", "rng-4", "rng-5"]


def schedule_kwargs(schedule: str) -> dict:
    """``run`` keyword arguments for a schedule name; each call seeds afresh."""
    kind, _, n = schedule.partition("-")
    if kind == "rng":
        return {"schedule_rng": random.Random(int(n))}
    return {}


def lattice_graph(width: int = 8, depth: int = 10) -> WorkflowGraph:
    """A diamond lattice: layer 0 reads context, every later node reads two
    neighbours of the layer above. Ids are chosen so that lexicographic
    order differs from dependency order."""

    def node_id(layer: int, col: int) -> str:
        return f"c{col}-l{layer}"

    nodes = [
        NodeSpec(node_id(0, col), "synthesis", {"col": col}, (ctx_port(),), "text")
        for col in range(width)
    ]
    edges = []
    for layer in range(1, depth):
        for col in range(width):
            nodes.append(synthesis_node(
                node_id(layer, col), (dep_port("left"), dep_port("right")), layer=layer,
            ))
            edges.append(Edge(node_id(layer - 1, col), node_id(layer, col), "left"))
            edges.append(Edge(node_id(layer - 1, (col + 1) % width), node_id(layer, col), "right"))
    return WorkflowGraph(nodes, edges)


def recording_registry(calls: list[str]):
    registry = default_registry()

    def recording(spec, state):
        calls.append(spec.node_id)
        return synthesize(spec, state)

    registry.register("recording", recording)
    return registry


def as_recording(graph: WorkflowGraph) -> WorkflowGraph:
    nodes = [replace(spec, executor_kind="recording") for spec in graph.nodes.values()]
    return WorkflowGraph(nodes, graph.edges)


def failing_workspace():
    """Two healthy chains and a node whose executor always raises."""
    registry = default_registry()

    def boom(spec, state):
        raise RuntimeError("blown fuse")

    registry.register("boom", boom)
    graph = WorkflowGraph(
        [
            source_node("a_source", executor="synthesis"),
            source_node("b_source", executor="synthesis"),
            synthesis_node("a_next", (dep_port("in0"),)),
            NodeSpec("fuse", "boom", {}, (dep_port("in0"),), "text"),
            synthesis_node("after_fuse", (dep_port("in0"),)),
        ],
        [
            Edge("a_source", "a_next", "in0"),
            Edge("b_source", "fuse", "in0"),
            Edge("fuse", "after_fuse", "in0"),
        ],
    )
    return replace(workspace_for(graph), registry=registry)


class TestDefaultOrder:
    def test_lattice_executes_in_topological_order(self):
        calls: list[str] = []
        graph = as_recording(lattice_graph())
        workspace = replace(workspace_for(graph), registry=recording_registry(calls))
        run(workspace, FULL)
        assert calls == topological_order(graph)
        assert calls != sorted(calls)  # the lattice really tests rank, not id order

    @pytest.mark.parametrize("seed", range(6))
    def test_random_workflow_executes_in_topological_order(self, seed):
        calls: list[str] = []
        workspace = random_workflow(
            random.Random(3000 + seed), max_nodes=12, allow_passthrough=False
        )
        graph = as_recording(workspace.graph)
        workspace = replace(workspace, graph=graph, registry=recording_registry(calls))
        run(workspace, FULL)
        assert calls == topological_order(graph)

    def test_replays_release_consumers_in_order(self):
        calls: list[str] = []
        graph = as_recording(lattice_graph())
        workspace = replace(workspace_for(graph), registry=recording_registry(calls))
        run(workspace, FULL)
        edited, dirty = apply_edit(
            workspace, EditEvent(CONTEXT_EDIT, "c3-l0", b"moved", port="raw")
        )
        calls.clear()
        run(edited, REPLAY)
        assert calls == [n for n in topological_order(graph) if n in dirty]


class TestFailures:
    @pytest.mark.parametrize("schedule", ["rng-5"])
    def test_failure_writes_partial_report(self, schedule):
        workspace = failing_workspace()
        with pytest.raises(ExecutorFailureError) as err:
            run(workspace, FULL, run_id="failing-run", **schedule_kwargs(schedule))
        assert err.value.node_id == "fuse"
        partial = err.value.partial_report
        assert partial.failed_node == "fuse"
        decided = [d.node_id for d in partial.decisions]
        assert "b_source" in decided
        assert "fuse" not in decided and "after_fuse" not in decided
        assert decided == [n for n in topological_order(workspace.graph) if n in decided]
        assert workspace.store.get_run_report("failing-run")["failed_node"] == "fuse"

    def test_failure_leaves_no_threads_behind(self):
        before = threading.active_count()
        with pytest.raises(ExecutorFailureError) as err:
            run(failing_workspace(), FULL)
        assert threading.active_count() == before
        assert err.value.node_id == "fuse"


class TestScheduleIndependenceAtScale:
    def session(self, schedule: str):
        workspace = workspace_for(lattice_graph())
        cold = run(workspace, FULL, **schedule_kwargs(schedule))
        edited, _ = apply_edit(
            workspace, EditEvent(CONTEXT_EDIT, "c5-l0", b"revised", port="raw")
        )
        warm = run(edited, REPLAY, **schedule_kwargs(schedule))
        ledger = [
            record_bytes(replace(r, stats=replace(r.stats, elapsed=0.0)))
            for r in workspace.store.records()
        ]
        return cold, warm, ledger

    def test_every_schedule_gives_identical_results(self):
        base_cold, base_warm, base_ledger = self.session("default")
        assert {d.action for d in base_cold.decisions} == {RECOMPUTED}
        assert {d.action for d in base_warm.decisions} == {RECOMPUTED, REPLAYED}
        for schedule in SCHEDULES:
            cold, warm, ledger = self.session(schedule)
            for got, want in ((cold, base_cold), (warm, base_warm)):
                assert got.decisions == want.decisions, schedule
                assert got.final_artifacts == want.final_artifacts, schedule
            assert ledger == base_ledger, schedule


class TestSeededScheduleCost:
    def test_seeded_replay_of_wide_graph_costs_about_the_default(self):
        """A seeded pop is O(1): no per-pop scan of the ready set."""
        graph = WorkflowGraph([source_node(f"s{i:04d}") for i in range(4000)], [])
        workspace = workspace_for(graph)
        run(workspace, FULL)

        def best_cpu(**kwargs) -> float:
            times = []
            for _ in range(3):
                started = time.process_time()
                run(workspace, REPLAY, **kwargs)
                times.append(time.process_time() - started)
            return min(times)

        default = best_cpu()
        seeded = best_cpu(schedule_rng=random.Random(11))
        assert seeded < 2.5 * default, (seeded, default)


# One seeded FULL run of the lattice; prints the executor call order.
SEEDED_LATTICE_RUN = """
import random
from dataclasses import replace
from conftest import workspace_for
from test_scheduler import as_recording, lattice_graph, recording_registry
from dagline.runtime import FULL, run
calls = []
graph = as_recording(lattice_graph())
run(replace(workspace_for(graph), registry=recording_registry(calls)), FULL,
    schedule_rng=random.Random(3))
print(" ".join(calls))
"""


class TestSeededScheduleReproduces:
    def test_seeded_order_is_the_same_in_every_process(self):
        """String hashing differs per process; a seeded order must not follow it."""
        path = os.pathsep.join(
            [str(Path(dagline.__file__).parents[1]), str(Path(__file__).parent)]
        )
        orders = set()
        for hash_seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            done = subprocess.run(
                [sys.executable, "-c", SEEDED_LATTICE_RUN],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            orders.add(done.stdout)
        assert len(orders) == 1, orders
        calls = orders.pop().split()
        graph = lattice_graph()
        assert sorted(calls) == sorted(graph.nodes)
        assert calls != topological_order(graph)  # the seed really reorders
