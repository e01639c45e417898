"""The benchmark's workloads and the output checks on every timed operation.

A workload's ``setup`` builds one session's inputs from the seed, and
``session`` then runs on them. Every session does the same work, so
per-session trace totals compare across program versions and a store never
grows with the window length. Each timed operation is
checked; a failed check is counted, never fatal, and an exception abandons
the rest of its session.

All dagline calls go through module attributes (``rt.run``, not a bound
name) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import dagline.cli
import dagline.evaluation.experiment as experiment
import dagline.evaluation.scenarios as scenarios
import dagline.identity
import dagline.runtime as rt
import dagline.store
from lattice import Lattice

class CheckFailed(Exception):
    pass


def user_seconds() -> float:
    """User-mode CPU time of this process; README.md says why not wall time."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def timed(fn, *args):
    started = user_seconds()
    result = fn(*args)
    return result, user_seconds() - started


def timed_per_call(repeats: int, fn, *args):
    """Time ``repeats`` calls of ``fn(*args)``; the last result and the time per call.

    For operations of a few milliseconds or less: one such call alone is too
    short to time steadily on a shared machine.
    """
    started = user_seconds()
    for _ in range(repeats):
        result = fn(*args)
    return result, (user_seconds() - started) / repeats


class Bench:
    """Samples of the timed operations plus the check tally of one mode."""

    def __init__(self) -> None:
        # samples[operation][position in the session] -> seconds, one per session
        self.samples: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.attempted = 0
        self.failed = 0
        self.sessions = 0

    def add(self, operation: str, seconds: float, position: int = 0) -> None:
        self.samples[operation][position].append(seconds)

    def add_round(self, position: int, replay_s: float, edit_cmd_s: float, edit_run_s: float) -> None:
        for operation, seconds in (("replay", replay_s), ("edit_cmd", edit_cmd_s),
                                   ("edit_run", edit_run_s),
                                   ("round", replay_s + edit_cmd_s + edit_run_s)):
            self.add(operation, seconds, position)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check ends the session."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            raise CheckFailed(what)


def run_checked(bench: Bench, step) -> bool:
    """Run ``step(bench)``; a failed check or an exception counts as one failure."""
    try:
        step(bench)
        return True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:  # any other failure of the program under test
        bench.attempted += 1
        bench.failed += 1
        traceback.print_exc(file=sys.stderr)
    return False


def _recomputed(report: rt.RunReport) -> set[str]:
    return {d.node_id for d in report.decisions if d.action == rt.RECOMPUTED}


def _check_cold(bench: Bench, report: rt.RunReport, nodes: int) -> None:
    bench.check(
        len(report.decisions) == nodes and len(_recomputed(report)) == nodes,
        "cold run must recompute every node",
    )


def _check_replay(bench: Bench, report: rt.RunReport) -> None:
    bench.check(
        all(d.action == rt.REPLAYED for d in report.decisions)
        and report.totals.synthesis_calls == 0,
        "warm replay must only replay, with zero synthesis calls",
    )


def _check_fresh_cold_run(bench: Bench, workspace: rt.Workspace, final: dict) -> None:
    """A cold run of ``workspace`` on an empty store gives the ``final`` artifacts' bytes."""
    fresh = dagline.store.MemoryStore()
    for node_id, artifact_id in workspace.overrides.items():
        artifact = workspace.store.get_artifact(artifact_id)
        fresh.put_artifact(artifact.content, artifact.content_type, node_id, None)
    report = rt.run(replace(workspace, store=fresh))
    same = report.final_artifacts.keys() == final.keys() and all(
        fresh.get_artifact(h).content == workspace.store.get_artifact(final[n]).content
        for n, h in report.final_artifacts.items()
    )
    bench.check(same, "a fresh cold run must give byte-identical final artifacts")


class ScopedEditMem:
    """Library replay path on a 2000-node lattice held in a MemoryStore."""

    width, depth, rounds = 100, 20, 2
    # One apply_edit takes about 2 ms. A context-edit only rebinds a port, so
    # a repeat gives the same workspace and dirty set.
    EDIT_REPEATS = 50

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.lattice = Lattice(self.width, self.depth, 2, seed=self.seed)

    def session(self, bench: Bench) -> None:
        lattice = self.lattice
        nodes = self.width * self.depth
        workspace = rt.Workspace(
            graph=lattice.graph, context=lattice.context, store=dagline.store.MemoryStore()
        )
        report, seconds = timed(rt.run, workspace)
        bench.add("cold_run", seconds)
        _check_cold(bench, report, nodes)
        for position in range(self.rounds):
            report, replay_s = timed(rt.run, workspace)
            _check_replay(bench, report)

            edit = lattice.next_edit()
            (workspace, dirty), edit_s = timed_per_call(self.EDIT_REPEATS, rt.apply_edit, workspace, edit)
            bench.check(len(dirty) == lattice.dirty_per_edit, "dirty set size")

            report, edit_run_s = timed(rt.run, workspace)
            bench.check(_recomputed(report) == dirty, "edit-run must recompute exactly the dirty set")

            bench.add_round(position, replay_s, edit_s, edit_run_s)
        self.final = (workspace, report.final_artifacts)

    def final_check(self, bench: Bench) -> None:
        _check_fresh_cold_run(bench, *self.final)

    def store_bytes(self) -> tuple[int, int] | None:
        return None


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dagline.cli.main(argv)
    return code, out.getvalue()


def _run_lines(output: str) -> tuple[dict[str, str], str]:
    """Node -> action from ``dagline run`` output, plus the report path."""
    actions, report = {}, ""
    for line in output.splitlines():
        fields = line.split()
        if fields and fields[0] == "report:":
            report = fields[1]
        elif len(fields) == 4:
            actions[fields[0]] = fields[1]
    return actions, report


class CliRewriteFile:
    """``dagline`` commands in-process against a FileStore on a 600-node lattice."""

    width, depth, rounds = 10, 60, 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.setups = 0

    def setup(self) -> None:
        # A new directory per session, and no deletion until the run is over:
        # on ext4 mounted with discard, a deletion can slow the file creations
        # after it, and that kernel time shows in the traced spans.
        self.setups += 1
        self.dir = self.work_dir / f"session-{self.setups}"
        self.store = self.dir / "store"
        self.lattice = Lattice(self.width, self.depth, 2, seed=self.seed)
        self.manifest, context_dir = self.lattice.write(self.dir / "inputs")
        self.run_argv = ["run", str(self.manifest), "--store", str(self.store),
                         "--context", str(context_dir)]

    def _run(self, bench: Bench) -> tuple[dict[str, str], dict, float]:
        (code, output), seconds = timed(_cli, self.run_argv)
        actions, report_path = _run_lines(output)
        bench.check(code == 0 and bool(report_path), "dagline run must exit 0")
        report = json.loads((self.store / report_path).read_bytes())
        return actions, report, seconds

    def session(self, bench: Bench) -> None:
        lattice = self.lattice
        nodes = self.width * self.depth
        self.edits = []

        actions, _, seconds = self._run(bench)
        bench.add("cold_run", seconds)
        bench.check(len(actions) == nodes and set(actions.values()) == {rt.RECOMPUTED},
                    "cold run must recompute every node")
        for position in range(self.rounds):
            actions, report, replay_s = self._run(bench)
            bench.check(set(actions.values()) == {rt.REPLAYED}
                        and report["totals"]["synthesis_calls"] == 0,
                        "warm replay must only replay, with zero synthesis calls")

            edit = lattice.next_edit()
            self.edits.append(edit)
            edit_file = self.dir / f"{edit.event_id}.txt"
            edit_file.write_bytes(edit.new_content)
            argv = ["edit", str(self.manifest), "--store", str(self.store),
                    "--context-edit", f"{edit.node_id}:{edit.port}:{edit_file}"]
            (code, output), edit_s = timed(_cli, argv)
            dirty = {line.strip() for line in output.splitlines()[1:]}
            bench.check(code == 0 and len(dirty) == lattice.dirty_per_edit,
                        "dagline edit must exit 0 and print the dirty set")

            actions, self.report, edit_run_s = self._run(bench)
            recomputed = {n for n, a in actions.items() if a == rt.RECOMPUTED}
            bench.check(recomputed == dirty, "edit-run must recompute exactly the dirty set")

            bench.add_round(position, replay_s, edit_s, edit_run_s)

    def final_check(self, bench: Bench) -> None:
        """Rebuild the final workspace in-process and cold-run it."""
        lattice = self.lattice
        stored = dagline.store.FileStore(self.store)
        workspace = rt.Workspace(graph=lattice.graph, context=lattice.context, store=stored)
        for edit in self.edits:
            workspace, _ = rt.apply_edit(workspace, edit)
        final = {
            n: dagline.identity.ContentHash.from_hex(h)
            for n, h in self.report["final_artifacts"].items()
        }
        _check_fresh_cold_run(bench, workspace, final)

    def store_bytes(self) -> tuple[int, int] | None:
        """(bytes under the store directory, bytes of distinct artifact content)."""
        total = artifacts = 0
        for path in self.store.rglob("*"):
            if path.is_file():
                size = path.stat().st_size
                total += size
                if path.parent.parent.name == "objects" and not path.name.endswith(".json"):
                    artifacts += size
        return total, artifacts


class UpdateExperiment:
    """The paper's update experiment, both tasks, plus its steps timed one by one."""

    # Its steps take 0.02-30 ms on these small graphs, too short to time
    # alone, so a session repeats each and reports the time per repeat: the
    # step sequence REPEATS times per task, each apply_edit EDIT_REPEATS
    # times (an edit only adds content-addressed bytes, so a repeat gives the
    # same workspace and dirty set), and run_experiment EXPERIMENT_REPEATS
    # times per task.
    REPEATS = 30
    EDIT_REPEATS = 100
    EXPERIMENT_REPEATS = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.reference: dict[str, dict] = {}

    def setup(self) -> None:
        self.scenarios = {t: scenarios.build_scenario(t, self.seed) for t in scenarios.TASKS}

    def session(self, bench: Bench) -> None:
        steps = dict.fromkeys(("cold_run", "replay", "edit_cmd", "edit_run"), 0.0)
        self.finals = []
        for task, scenario in self.scenarios.items():
            for _ in range(self.REPEATS):
                workspace = replace(scenario.workspace, store=dagline.store.MemoryStore())
                nodes = len(workspace.graph.node_ids())
                report, seconds = timed(rt.run, workspace)
                steps["cold_run"] += seconds
                _check_cold(bench, report, nodes)

                report, seconds = timed(rt.run, workspace)
                steps["replay"] += seconds
                _check_replay(bench, report)

                (edited, dirty), seconds = timed_per_call(
                    self.EDIT_REPEATS, rt.apply_edit, workspace, scenario.edit
                )
                steps["edit_cmd"] += seconds
                report, seconds = timed(rt.run, edited)
                steps["edit_run"] += seconds
                bench.check(_recomputed(report) == dirty, "edit-run must recompute exactly the dirty set")
            self.finals.append((edited, report.final_artifacts))
        for operation, seconds in steps.items():
            bench.add(operation, seconds / self.REPEATS)

        reports, seconds = timed(lambda: [
            experiment.run_experiment(t, 1, seed=self.seed)
            for _ in range(self.EXPERIMENT_REPEATS) for t in scenarios.TASKS
        ])
        bench.add("round", seconds / self.EXPERIMENT_REPEATS)
        for report in reports:
            rows = {
                condition: {k: v for k, v in metrics.rows[0].as_dict().items() if k != "elapsed"}
                for condition, metrics in report.conditions.items()
            }
            reference = self.reference.setdefault(report.task, rows)
            bench.check(rows == reference, "experiment metrics must repeat exactly")

    def final_check(self, bench: Bench) -> None:
        for workspace, final in self.finals:
            _check_fresh_cold_run(bench, workspace, final)

    def store_bytes(self) -> tuple[int, int] | None:
        return None


WORKLOADS = {
    "scoped-edit-mem": ScopedEditMem,
    "cli-rewrite-file": CliRewriteFile,
    "update-experiment": UpdateExperiment,
}
