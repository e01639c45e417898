"""dagline benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload scoped-edit-mem --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; dagline is imported from ``src/``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A summary with sample counts goes to
standard error. See README.md in this directory for the workloads and how
to read the trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

# The timed operations of every workload. Each is reported as its median
# per position in the session, averaged over positions (see README.md).
OPERATIONS = ("cold_run", "replay", "edit_run", "edit_cmd", "round")
SETUP_REPEATS = 8


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def typical(by_position: dict[int, list[float]]) -> float:
    medians = [_median(samples) for samples in by_position.values()]
    return sum(medians) / len(medians) if medians else 0.0


def end_to_end(setup_s: list[float], bench) -> dict[str, tuple[float, str]]:
    metrics = {"setup_s": (_median(setup_s), "s")}
    for op in OPERATIONS:
        metrics[f"{op}_p50_s"] = (typical(bench.samples[op]), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer, traced, plain, store_bytes) -> dict[str, tuple[float, str]]:
    """Per-layer totals per traced session; times are self times."""
    totals = tracer.span_totals()
    count = tracer.counters
    sessions = max(traced.sessions, 1)

    def self_s(*names: str) -> tuple[float, str]:
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names) / sessions, "s"

    def calls(name: str) -> tuple[float, str]:
        return totals.get(name, {}).get("calls", 0) / sessions, "count"

    def counter(name: str, unit: str = "count") -> tuple[float, str]:
        return count[name] / sessions, unit

    lookups = count["store.lookup_calls"]
    untraced_round = typical(plain.samples["round"])
    traced_round = typical(traced.samples["round"])
    total_bytes, artifact_bytes = store_bytes or (0, 0)
    return {
        "graph.edges_into_s": self_s("graph.edges_into"),
        "graph.edges_into_calls": calls("graph.edges_into"),
        "graph.validate_s": self_s("graph.validate"),
        "graph.topo_s": self_s("graph.topo"),
        "graph.descendants_s": self_s("graph.descendants"),
        "identity.node_identity_s": self_s("identity.node_identity"),
        "identity.hash_calls": counter("identity.hash_calls"),
        "identity.hash_bytes": counter("identity.hash_bytes", "bytes"),
        "store.lookup_s": self_s("store.lookup"),
        "store.lookup_calls": counter("store.lookup_calls"),
        "store.hit_ratio": (count["store.lookup_hits"] / lookups if lookups else 0.0, "ratio"),
        "store.get_artifact_s": self_s("store.get_artifact"),
        "store.read_bytes": counter("store.read_bytes", "bytes"),
        "store.put_artifact_s": self_s("store.put_artifact"),
        "store.record_execution_s": self_s("store.record_execution"),
        "store.latest_record_s": self_s("store.latest_record"),
        "store.put_run_report_s": self_s("store.put_run_report"),
        "store.report_bytes": counter("store.report_bytes", "bytes"),
        "store.open_s": self_s("store.open"),
        "store.ledger_entries": counter("store.ledger_entries"),
        "store.amplification": (total_bytes / artifact_bytes if artifact_bytes else 0.0, "ratio"),
        "manifest.load_s": self_s("manifest.load"),
        "cli.self_s": self_s("cli.main"),
        "executors.execute_s": self_s("executors.execute"),
        "executors.execute_calls": calls("executors.execute"),
        "executors.synthesis_calls": counter("executors.synthesis_calls"),
        "executors.input_bytes": counter("executors.input_bytes", "bytes"),
        "evaluation.build_scenario_s": self_s("evaluation.build_scenario"),
        "evaluation.loop_update_s": self_s("evaluation.loop_update"),
        "evaluation.compute_metrics_s": self_s("evaluation.compute_metrics"),
        "runtime.run_s": (totals.get("runtime.run", {}).get("total_s", 0.0) / sessions, "s"),
        "runtime.self_s": self_s("runtime.run", "runtime.resolve"),
        "runtime.apply_edit_s": self_s("runtime.apply_edit"),
        "runtime.replayed": counter("runtime.replayed"),
        "runtime.recomputed": counter("runtime.recomputed"),
        "trace.overhead_share": (
            traced_round / untraced_round - 1 if untraced_round and traced_round else 0.0, "ratio"
        ),
        "trace.spans": (len(tracer.spans) / 4 / sessions, "count"),
    }


def measure(args: argparse.Namespace, work_dir: Path) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, Bench, run_checked, timed_per_call

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    setup_s: list[float] = []

    def set_up(bench) -> None:
        # One set-up takes about 30 ms, too short to time alone; the session
        # runs on the inputs of the last one.
        _, seconds = timed_per_call(SETUP_REPEATS, workload.setup)
        setup_s.append(seconds)

    # With --trace 1, untraced and traced sessions alternate; the untraced
    # ones give the reference for the tracing overhead.
    plain, traced = Bench(), Bench()
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    session = 0
    while time.perf_counter() < deadline or session < (2 if tracer else 1):
        use_tracer = tracer is not None and session % 2 == 1
        bench = traced if use_tracer else plain
        # Collect the last session's garbage now, not inside a timed operation.
        gc.collect()
        if run_checked(bench, set_up):
            if use_tracer:
                tracer.install()
            try:
                if run_checked(bench, workload.session):
                    bench.sessions += 1
            finally:
                if use_tracer:
                    tracer.uninstall()
        session += 1

    if tracer is None:
        metrics = end_to_end(setup_s, plain)
        print(f"{'setup':<10} n={len(setup_s):<4} median={_median(setup_s):.6g} s", file=sys.stderr)
        for op in OPERATIONS:
            by_position = plain.samples[op]
            samples = [x for xs in by_position.values() for x in xs]
            print(f"{op:<10} n={len(samples):<4} positions={len(by_position)} "
                  f"typical={typical(by_position):.6g} s  min={min(samples, default=0.0):.6g} s  "
                  f"max={max(samples, default=0.0):.6g} s", file=sys.stderr)
    else:
        # Before the final check, which may still call a timing store.
        metrics = per_layer(tracer, traced, plain, workload.store_bytes())
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"trace: {trace_path} ({traced.sessions} traced sessions)", file=sys.stderr)
    run_checked(plain, workload.final_check)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6g} {unit}", file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scoped-edit-mem", "cli-rewrite-file", "update-experiment"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dagline" / "__init__.py").is_file():
        print(f"error: no dagline package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
