"""Experiment driver: three conditions, n repeats, report rendering.

Each (condition, repeat) gets a freshly built scenario from the same seed,
so the whole stack is deterministic: every repeat row is identical and the
report says so. Efficiency columns are measured from the update step only;
the shared baseline build is not charged to any condition.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Mapping

from dagline.errors import DaglineError
from dagline.evaluation.loops import FINAL_UPDATE, WITH_EDIT_EVENT, loop_state_for, loop_update_result
from dagline.evaluation.metrics import METRIC_FIELDS, MetricsReport, MetricsRow, compute_metrics
from dagline.evaluation.scenarios import DEFAULT_WORK_PASSES, UNRELATED_BRANCH_NOOP_UPDATE, build_scenario
from dagline.runtime import REPLAY, apply_edit, run

LOOP_FINAL_UPDATE = "loop_final_update"
LOOP_WITH_EDIT_EVENT = "loop_with_edit_event"
DAG_REPLAY = "dag_replay"
CONDITIONS = (LOOP_FINAL_UPDATE, LOOP_WITH_EDIT_EVENT, DAG_REPLAY)

FOOTNOTES = (
    "contamination, constraint reflection, propagation, and consistency are "
    "marker proxies: deterministic substring checks over planted MARK tokens, "
    "standing in for judge scoring",
    "input/output chars are character counts of executor input/output surfaces, "
    "a tokenizer-free proxy for token counts; orderings, not absolute values, "
    "are the comparison target",
    "the deterministic synthesis stand-in re-emits every marker it sees, so "
    "loop contamination is 1.0 by construction rather than stochastic",
    "elapsed is measured wall-clock of the update step alone (seconds)",
)


@dataclass(frozen=True, slots=True)
class ExperimentReport:
    """All conditions' metrics for one task, plus relative orderings."""

    task: str
    repeats: int
    seed: int
    conditions: Mapping[str, MetricsReport]

    def condition(self, name: str) -> MetricsReport:
        return self.conditions[name]

    def efficiency_orderings(self) -> dict[str, float | bool]:
        dag = self.conditions[DAG_REPLAY].mean
        loops = [
            self.conditions[LOOP_FINAL_UPDATE].mean,
            self.conditions[LOOP_WITH_EDIT_EVENT].mean,
        ]
        min_loop_input = min(l.input_chars for l in loops)
        max_loop_input = max(l.input_chars for l in loops)
        return {
            "dag_input_chars": dag.input_chars,
            "min_loop_input_chars": min_loop_input,
            "input_ratio_min": min_loop_input / dag.input_chars if dag.input_chars else 0.0,
            "input_ratio_max": max_loop_input / dag.input_chars if dag.input_chars else 0.0,
            "dag_elapsed": dag.elapsed,
            "min_loop_elapsed": min(l.elapsed for l in loops),
            "dag_faster_than_both_loops": all(dag.elapsed < l.elapsed for l in loops),
            "dag_fewer_input_chars": all(dag.input_chars < l.input_chars for l in loops),
        }

    def all_repeats_identical(self) -> bool:
        return all(r.identical_repeats for r in self.conditions.values())

    def render_table(self) -> str:
        if self.task == UNRELATED_BRANCH_NOOP_UPDATE:
            columns = [
                ("exact preserve", "final_output_exact_match", "{:.2f}"),
                ("hash preserve", "final_output_hash_preserved", "{:.2f}"),
                ("churn", "unnecessary_churn_rate", "{:.3f}"),
                ("contam. *", "unrelated_branch_contamination_rate", "{:.3f}"),
                ("input chars *", "input_chars", "{:.0f}"),
                ("model calls", "synthesis_calls", "{:.0f}"),
                ("elapsed s *", "elapsed", "{:.4f}"),
            ]
        else:
            columns = [
                ("constraint reflected *", "final_memo_constraint_reflection", "{:.2f}"),
                ("cross-artifact consist. *", "cross_artifact_consistency_score", "{:.2f}"),
                ("stable preserve", "stable_artifact_hash_preservation", "{:.2f}"),
                ("downstream propagation *", "downstream_propagation_recall", "{:.2f}"),
                ("upstream churn", "upstream_churn_rate", "{:.2f}"),
                ("unaffected preserve", "unaffected_artifact_preservation", "{:.2f}"),
                ("input chars *", "input_chars", "{:.0f}"),
                ("model calls", "synthesis_calls", "{:.0f}"),
                ("elapsed s *", "elapsed", "{:.4f}"),
            ]
        out = io.StringIO()
        out.write(f"task: {self.task}  (n={self.repeats}, seed={self.seed})\n")
        if self.all_repeats_identical():
            out.write(
                "all repeats are identical under the deterministic stack "
                "(variance 0; elapsed is a wall-clock measurement and may jitter)\n"
            )
        widths = [max(len(h), 10) for h, _, _ in columns]
        name_width = max(len(c) for c in CONDITIONS)
        header = "condition".ljust(name_width) + "  " + "  ".join(
            h.rjust(w) for (h, _, _), w in zip(columns, widths)
        )
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for condition in CONDITIONS:
            mean = self.conditions[condition].mean
            cells = [
                fmt.format(getattr(mean, attr)).rjust(w)
                for (_, attr, fmt), w in zip(columns, widths)
            ]
            out.write(condition.ljust(name_width) + "  " + "  ".join(cells) + "\n")
        out.write("\ncolumns marked * are proxy metrics:\n")
        for note in FOOTNOTES:
            out.write(f"  * {note}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        lines = ["task,condition,repeat," + ",".join(METRIC_FIELDS)]
        for condition in CONDITIONS:
            for i, row in enumerate(self.conditions[condition].rows):
                values = ",".join(repr(getattr(row, f)) for f in METRIC_FIELDS)
                lines.append(f"{self.task},{condition},{i},{values}")
        return "\n".join(lines) + "\n"


def run_condition(
    task: str,
    condition: str,
    seed: int = 0,
    *,
    work_passes: int = DEFAULT_WORK_PASSES,
) -> MetricsRow:
    """Build a fresh scenario, apply the edit under one condition, score it."""
    if condition not in CONDITIONS:
        raise DaglineError(f"unknown condition {condition!r}")
    scenario = build_scenario(task, seed, work_passes=work_passes)
    edited, _dirty = apply_edit(scenario.workspace, scenario.edit)

    if condition == DAG_REPLAY:
        report = run(edited, REPLAY, run_id=f"update-{task}-{seed}")
        post_state = {
            node: edited.store.read_artifact(artifact)
            for node, artifact in report.final_artifacts.items()
        }
        stats = replace(report.totals, elapsed=report.elapsed)
        return compute_metrics(scenario, scenario.pre_state, post_state, stats)

    loop_condition = FINAL_UPDATE if condition == LOOP_FINAL_UPDATE else WITH_EDIT_EVENT
    state = loop_state_for(scenario, edited)
    result = loop_update_result(state, loop_condition, work_passes=work_passes)
    post_state = dict(scenario.pre_state)
    post_state[scenario.final_node] = result.canonical_output[0]
    for node_id, artifact_id in edited.overrides.items():
        post_state[node_id] = edited.store.read_artifact(artifact_id)
    return compute_metrics(scenario, scenario.pre_state, post_state, result.stats)


def run_experiment(
    task: str,
    repeats: int = 3,
    *,
    seed: int = 0,
    work_passes: int = DEFAULT_WORK_PASSES,
) -> ExperimentReport:
    """All three conditions over identically seeded scenarios."""
    if repeats < 1:
        raise DaglineError("repeats must be >= 1")
    conditions = {}
    for condition in CONDITIONS:
        rows = tuple(
            run_condition(task, condition, seed, work_passes=work_passes)
            for _ in range(repeats)
        )
        conditions[condition] = MetricsReport(task=task, condition=condition, rows=rows)
    return ExperimentReport(task=task, repeats=repeats, seed=seed, conditions=conditions)
