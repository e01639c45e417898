"""Guard for the benchmark's tracer: it patches dagline names by attribute.

``perfbench/tracing.py`` is loaded by path, so a rename in dagline that
would silently stop ``perfbench/run.py --trace 1`` from tracing a layer
fails here instead.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dagline.graph
import dagline.runtime
import dagline.store
from dagline.runtime import FULL, REPLAY

from conftest import chain_workspace

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dagline_attributes() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded dagline module, plus the patched classes'."""
    snapshot = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and name.startswith("dagline")
        for attr, value in vars(module).items()
    }
    for cls in (dagline.graph.WorkflowGraph, dagline.store.MemoryStore, dagline.store.FileStore):
        for attr, value in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = value
    return snapshot


def test_every_span_target_resolves(tracing):
    for (module, attr), name in tracing.SPANS.items():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
    assert callable(dagline.graph.WorkflowGraph.edges_into)


def test_install_traces_the_run_path_and_uninstall_restores(tracing):
    before = dagline_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dagline_attributes() != before
        workspace = chain_workspace()
        # Through the module, as the tracer patches module attributes.
        dagline.runtime.run(workspace, FULL)
        dagline.runtime.run(workspace, REPLAY)
    finally:
        tracer.uninstall()
    after = dagline_attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    totals = tracer.span_totals()
    for name in ("runtime.run", "identity.node_identity", "runtime.resolve",
                 "executors.execute", "graph.validate", "graph.topo", "graph.edges_into"):
        assert totals.get(name, {}).get("calls", 0) > 0, name


def test_traced_file_store_session_feeds_the_store_counters(tracing, tmp_path):
    root = tmp_path / "store"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Through the module, as the tracer swaps the store classes there.
        workspace = replace(chain_workspace(), store=dagline.store.FileStore(root))
        dagline.runtime.run(workspace, FULL)
        reopened = replace(workspace, store=dagline.store.FileStore(root))
        dagline.runtime.run(reopened, REPLAY)
    finally:
        tracer.uninstall()
    assert tracer.span_totals().get("store.open", {}).get("calls") == 2
    for name in ("store.ledger_entries", "store.lookup_calls", "store.report_bytes"):
        assert tracer.counters[name] > 0, name
