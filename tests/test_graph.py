"""Graph model: validation, ordering, reachability."""

from __future__ import annotations

import itertools
import random

import pytest

from dagline.errors import CycleError, UnknownNodeError
from dagline.graph import (
    Edge,
    NodeSpec,
    WorkflowGraph,
    descendants,
    topological_order,
    validate_graph,
)
from dagline.executors import default_registry

from conftest import chain_graph, ctx_port, dep_port, diamond_graph, source_node, synthesis_node


def codes(violations) -> set[str]:
    return {v.code for v in violations}


class TestValidateGraph:
    def test_minimal_valid_graph(self):
        graph = WorkflowGraph([source_node("only")], [])
        assert validate_graph(graph) == []

    def test_smallest_cycle_reported_once_with_members(self):
        graph = WorkflowGraph(
            [
                synthesis_node("a", (dep_port("x"),)),
                synthesis_node("b", (dep_port("x"),)),
            ],
            [Edge("a", "b", "x"), Edge("b", "a", "x")],
        )
        cycles = [v for v in validate_graph(graph) if v.code == "cycle"]
        assert len(cycles) == 1
        assert set(cycles[0].nodes) == {"a", "b"}

    def test_duplicate_binding_detected(self):
        graph = WorkflowGraph(
            [
                source_node("a"),
                source_node("b"),
                synthesis_node("sink", (dep_port("x"),)),
            ],
            [Edge("a", "sink", "x"), Edge("b", "sink", "x")],
        )
        report = validate_graph(graph)
        # Oracle: count bindings per (consumer, port); exactly one port != 1.
        per_port = {}
        for e in graph.edges:
            per_port[(e.consumer, e.port)] = per_port.get((e.consumer, e.port), 0) + 1
        overbound = [k for k, n in per_port.items() if n != 1]
        assert overbound == [("sink", "x")]
        assert codes(report) == {"duplicate-binding"}

    def test_unbound_dependency_port(self):
        graph = WorkflowGraph([synthesis_node("a", (dep_port("x"),))], [])
        assert codes(validate_graph(graph)) == {"unbound-port"}

    def test_edge_into_context_port_and_undeclared_port(self):
        graph = WorkflowGraph(
            [source_node("a"), source_node("b"), source_node("c")],
            [Edge("a", "b", "raw"), Edge("a", "c", "nope")],
        )
        assert codes(validate_graph(graph)) == {"context-port-edge", "undeclared-port"}

    def test_unknown_edge_endpoint(self):
        graph = WorkflowGraph([source_node("a")], [Edge("a", "ghost", "x")])
        assert codes(validate_graph(graph)) == {"unknown-edge-endpoint"}

    def test_duplicate_port_declaration(self):
        spec = NodeSpec("a", "synthesis", {}, (ctx_port("p"), ctx_port("p")), "text")
        graph = WorkflowGraph([spec], [])
        assert codes(validate_graph(graph)) == {"duplicate-port"}

    def test_unregistered_executor_flagged_with_registry(self):
        graph = WorkflowGraph([NodeSpec("a", "nonesuch", {}, (ctx_port(),), "text")], [])
        assert codes(validate_graph(graph, default_registry())) == {"unknown-executor"}
        registry = default_registry()
        registry.register("nonesuch", lambda spec, state: None)
        assert validate_graph(graph, registry) == []

    def test_accepts_iff_topological_order_exists_small_graphs(self):
        # Brute force oracle over random digraphs of <= 6 nodes: validation
        # passes the cycle check exactly when some permutation respects edges.
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(1, 6)
            ids = [f"v{i}" for i in range(n)]
            pairs = [(a, b) for a in ids for b in ids if a != b]
            chosen = rng.sample(pairs, min(len(pairs), rng.randint(0, n + 2)))
            incoming = {}
            for a, b in chosen:
                incoming.setdefault(b, []).append(a)
            nodes = []
            edges = []
            for node_id in ids:
                ports = []
                for k, producer in enumerate(sorted(incoming.get(node_id, []))):
                    ports.append(dep_port(f"in{k}"))
                    edges.append(Edge(producer, node_id, f"in{k}"))
                if not ports:
                    ports.append(ctx_port())
                nodes.append(synthesis_node(node_id, tuple(ports)))
            graph = WorkflowGraph(nodes, edges)
            has_cycle = "cycle" in codes(validate_graph(graph))
            orderable = any(
                all(perm.index(a) < perm.index(b) for a, b in chosen)
                for perm in itertools.permutations(ids)
            )
            assert orderable == (not has_cycle)


class TestTopologicalOrder:
    def test_chain_forced_by_edges(self):
        graph = WorkflowGraph(
            [source_node("a"), synthesis_node("b", (dep_port("x"),)),
             synthesis_node("c", (dep_port("x"),))],
            [Edge("a", "b", "x"), Edge("b", "c", "x")],
        )
        assert topological_order(graph) == ["a", "b", "c"]

    def test_diamond_lexicographic_tiebreak(self):
        graph = diamond_graph()
        order = topological_order(graph)
        assert order == ["a", "b", "c", "d"]
        # Verify against every valid topological order by brute force.
        edges = [(e.producer, e.consumer) for e in graph.edges]
        valid = [
            list(perm)
            for perm in itertools.permutations(graph.node_ids())
            if all(perm.index(a) < perm.index(b) for a, b in edges)
        ]
        assert order in valid
        assert order == min(valid)  # lexicographically first valid order

    def test_disconnected_nodes_sorted(self):
        graph = WorkflowGraph([source_node("x"), source_node("m")], [])
        assert topological_order(graph) == ["m", "x"]

    def test_cycle_raises(self):
        graph = WorkflowGraph(
            [synthesis_node("a", (dep_port("x"),)), synthesis_node("b", (dep_port("x"),))],
            [Edge("a", "b", "x"), Edge("b", "a", "x")],
        )
        with pytest.raises(CycleError):
            topological_order(graph)

    def test_pure_function_of_graph(self):
        nodes = [
            source_node("a", executor="synthesis"),
            synthesis_node("b", (dep_port("left"),)),
            synthesis_node("c", (dep_port("right"),)),
            synthesis_node("d", (dep_port("left"), dep_port("right"))),
        ]
        edges = [
            Edge("a", "b", "left"), Edge("a", "c", "right"),
            Edge("b", "d", "left"), Edge("c", "d", "right"),
        ]
        rng = random.Random(7)
        baseline = topological_order(WorkflowGraph(nodes, edges))
        for _ in range(20):
            shuffled_nodes = nodes[:]
            shuffled_edges = edges[:]
            rng.shuffle(shuffled_nodes)
            rng.shuffle(shuffled_edges)
            permuted = WorkflowGraph(shuffled_nodes, shuffled_edges)
            assert topological_order(permuted) == baseline
            assert permuted == WorkflowGraph(nodes, edges)


class TestDescendants:
    def test_chain_from_retrieval(self):
        graph = chain_graph()
        assert descendants(graph, {"retrieval"}) == {"analysis", "synthesis"}

    def test_chain_from_sink_is_empty(self):
        assert descendants(chain_graph(), {"synthesis"}) == frozenset()

    def test_diamond_by_path_enumeration(self):
        graph = diamond_graph()
        # Oracle: enumerate all simple paths from b.
        edges = [(e.producer, e.consumer) for e in graph.edges]
        reachable = set()
        frontier = ["b"]
        while frontier:
            node = frontier.pop()
            for a, b in edges:
                if a == node and b not in reachable:
                    reachable.add(b)
                    frontier.append(b)
        assert descendants(graph, {"b"}) == frozenset(reachable) == {"d"}

    def test_unknown_root(self):
        with pytest.raises(UnknownNodeError):
            descendants(chain_graph(), {"ghost"})


def permuted_dag(seed: int) -> tuple[list[NodeSpec], list[Edge]]:
    """A random DAG, declared in shuffled order, with some edges repeated."""
    rng = random.Random(seed)
    ids = [f"v{i:02d}" for i in range(rng.randint(8, 30))]
    nodes, edges = [], []
    for j, node_id in enumerate(ids):
        producers = rng.sample(ids[:j], min(j, rng.randint(0, 3)))
        ports = tuple(dep_port(f"in{k}") for k in range(len(producers))) or (ctx_port(),)
        nodes.append(synthesis_node(node_id, ports))
        # Shuffled producers make (port, producer) order differ from either alone.
        edges += [Edge(p, node_id, f"in{k}") for k, p in enumerate(producers)]
    edges += rng.sample(edges, len(edges) // 3)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return nodes, edges


class TestGraphIndex:
    @pytest.mark.parametrize("seed", range(12))
    def test_index_matches_brute_force_scans(self, seed):
        nodes, edges = permuted_dag(seed)
        graph = WorkflowGraph(nodes, edges)
        distinct = set(edges)
        for node_id in graph.node_ids():
            incoming = sorted(
                (e for e in distinct if e.consumer == node_id),
                key=lambda e: (e.port, e.producer),
            )
            assert graph.edges_into(node_id) == tuple(incoming)
            assert graph.edges_into(node_id) == tuple(incoming)  # cached answer
            assert graph.predecessors(node_id) == {e.producer for e in incoming}
            reachable, frontier = set(), [node_id]
            while frontier:
                current = frontier.pop()
                for e in distinct:
                    if e.producer == current and e.consumer not in reachable:
                        reachable.add(e.consumer)
                        frontier.append(e.consumer)
            assert descendants(graph, {node_id}) == reachable - {node_id}

    def test_nodes_view_is_read_only(self):
        nodes, edges = permuted_dag(3)
        graph = WorkflowGraph(nodes, edges)
        victim = graph.node_ids()[0]
        with pytest.raises(TypeError):
            graph.nodes[victim] = source_node(victim)  # type: ignore[index]
        with pytest.raises(TypeError):
            del graph.nodes[victim]  # type: ignore[attr-defined]
        assert graph == WorkflowGraph(nodes, edges)
        assert graph.node(victim) == next(n for n in nodes if n.node_id == victim)


@pytest.mark.parametrize("node_id", ["../escape", "a/b", "", ".", "..", "nul\0byte"])
def test_unsafe_node_id_is_a_named_violation(node_id):
    graph = WorkflowGraph(
        [source_node(node_id), synthesis_node("sink", (dep_port("x"),))],
        [Edge(node_id, "sink", "x")],
    )
    violations = validate_graph(graph)
    assert codes(violations) == {"unsafe-node-id"}
    assert violations[0].nodes == (node_id,)


def test_node_id_with_dots_inside_is_safe():
    graph = WorkflowGraph([source_node("a..b"), source_node(".hidden")], [])
    assert validate_graph(graph) == []


def test_validate_graph_returns_a_fresh_list_per_call():
    graph = WorkflowGraph([synthesis_node("a", (dep_port("x"),)), source_node("b", "nope")], [])
    first = validate_graph(graph)
    first.clear()
    assert codes(validate_graph(graph)) == {"unbound-port"}
    assert codes(validate_graph(graph, default_registry())) == {"unbound-port", "unknown-executor"}
    assert validate_graph(graph) is not validate_graph(graph)
