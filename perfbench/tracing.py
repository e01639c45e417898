"""Per-layer tracing from outside the program.

While installed, the tracer replaces each traced function at every dagline
module attribute that holds it, so callers that imported the name resolve
the wrapper; ``uninstall`` puts every original back. Stores are traced by
timing subclasses swapped in for ``MemoryStore`` and ``FileStore``.

Spans are kept in memory as flat ``(name, start_ns, end_ns, parent)``
records and written out once at the end. A span's self time is its duration
minus the durations of its direct children; the run is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import dagline.cli
import dagline.evaluation.experiment
import dagline.evaluation.loops
import dagline.evaluation.metrics
import dagline.evaluation.scenarios
import dagline.executors
import dagline.graph
import dagline.identity
import dagline.manifest
import dagline.runtime
import dagline.store

# Span name for each traced function, keyed by where it is defined.
SPANS = {
    (dagline.graph, "validate_graph"): "graph.validate",
    (dagline.graph, "topological_order"): "graph.topo",
    (dagline.graph, "descendants"): "graph.descendants",
    (dagline.runtime, "node_identity"): "identity.node_identity",
    (dagline.runtime, "resolve_local_state"): "runtime.resolve",
    (dagline.runtime, "apply_edit"): "runtime.apply_edit",
    (dagline.runtime, "run"): "runtime.run",
    (dagline.executors, "execute"): "executors.execute",
    (dagline.manifest, "load_manifest"): "manifest.load",
    (dagline.cli, "main"): "cli.main",
    (dagline.evaluation.scenarios, "build_scenario"): "evaluation.build_scenario",
    (dagline.evaluation.loops, "loop_update_result"): "evaluation.loop_update",
    (dagline.evaluation.metrics, "compute_metrics"): "evaluation.compute_metrics",
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")  # name, start, end, parent per span
        self._open: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result`` counts outside it."""
        name_id = self._name_id(name)
        spans, opened = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans) // 4
            spans.extend((name_id, 0, 0, opened[-1] if opened else -1))
            opened.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * index + 2] = clock()
                spans[4 * index + 1] = start
                opened.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- patching -----------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original: object, replacement: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("dagline"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        # Counting runs in a span of its own, so no layer's self time holds it.
        results = {"runtime.run": self.wrap("trace.count", self._count_decisions),
                   "executors.execute": self.wrap("trace.count", self._count_execution)}
        for (module, attr), name in SPANS.items():
            original = getattr(module, attr)
            self._patch_everywhere(original, self.wrap(name, original, results.get(name)))
        graph_cls = dagline.graph.WorkflowGraph
        self._set(graph_cls, "edges_into", self.wrap("graph.edges_into", graph_cls.edges_into))
        self._patch_everywhere(dagline.identity.hash_content, self._counted_hash())
        for cls in (dagline.store.MemoryStore, dagline.store.FileStore):
            self._patch_everywhere(cls, _timing_store(self, cls))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_decisions(self, report) -> None:
        for decision in report.decisions:
            self.counters[f"runtime.{decision.action}"] += 1

    def _count_execution(self, result) -> None:
        self.counters["executors.synthesis_calls"] += result.stats.synthesis_calls
        self.counters["executors.input_bytes"] += result.stats.input_chars

    def _counted_hash(self):
        original = dagline.identity.hash_content
        counters = self.counters

        def hash_content(content):
            counters["identity.hash_calls"] += 1
            counters["identity.hash_bytes"] += len(content)
            return original(content)

        return hash_content

    # -- analysis -----------------------------------------------------------
    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        spans = self.spans
        count = len(spans) // 4
        child_ns = [0] * count
        for i in range(count):
            parent = spans[4 * i + 3]
            if parent >= 0:
                child_ns[parent] += spans[4 * i + 2] - spans[4 * i + 1]
        totals: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(count):
            entry = totals[self.names[spans[4 * i]]]
            duration = spans[4 * i + 2] - spans[4 * i + 1]
            entry["calls"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - child_ns[i]) / 1e9
        return totals

    def write(self, path: Path) -> None:
        """One JSON header line naming the spans, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for i in range(0, len(spans), 4):
                fh.write(f"[{spans[i]},{spans[i + 1]},{spans[i + 2]},{spans[i + 3]}]\n")


def _timing_store(tracer: Tracer, base: type) -> type:
    """A subclass of ``base`` whose public operations record store spans."""
    wrap, counters = tracer.wrap, tracer.counters
    opened = wrap("store.open", base.__init__)
    count_entries = wrap("trace.count", lambda store: sum(1 for _ in store.records()))
    lookup = wrap("store.lookup", base.lookup_by_identity)
    get_artifact = wrap("store.get_artifact", base.get_artifact)

    class TimingStore(base):
        def __init__(self, *args, **kwargs):
            opened(self, *args, **kwargs)
            counters["store.ledger_entries"] += count_entries(self)

        def lookup_by_identity(self, identity):
            record = lookup(self, identity)
            counters["store.lookup_calls"] += 1
            counters["store.lookup_hits"] += record is not None
            return record

        def get_artifact(self, artifact_id):
            artifact = get_artifact(self, artifact_id)
            counters["store.read_bytes"] += len(artifact.content)
            return artifact

        put_artifact = wrap("store.put_artifact", base.put_artifact)
        record_execution = wrap("store.record_execution", base.record_execution)
        latest_record_for_node = wrap("store.latest_record", base.latest_record_for_node)
        put_run_report = wrap("store.put_run_report", base.put_run_report)

        def _write_report(self, run_id, payload):
            counters["store.report_bytes"] += len(payload)
            super()._write_report(run_id, payload)

    TimingStore.__name__ = TimingStore.__qualname__ = f"Timing{base.__name__}"
    return TimingStore
