"""Maintained-state metrics.

Hash/byte metrics compare post-update artifacts against the pre-edit
baseline. Content-use metrics (contamination, constraint reflection,
consistency) are marker proxies: deterministic substring checks standing in
for judge scoring, and labeled as proxies wherever they are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

from dagline.errors import DaglineError
from dagline.evaluation.scenarios import Scenario
from dagline.graph import ancestors, descendants
from dagline.identity import hash_content
from dagline.store import ExecutionStats


@dataclass(frozen=True, slots=True)
class MetricsRow:
    """One repeat's metric values; rates all lie in [0, 1]."""

    final_output_exact_match: float
    final_output_hash_preserved: float
    stable_artifact_hash_preservation: float
    unnecessary_churn_rate: float
    unrelated_branch_contamination_rate: float
    final_memo_constraint_reflection: float
    cross_artifact_consistency_score: float
    downstream_propagation_recall: float
    upstream_churn_rate: float
    unaffected_artifact_preservation: float
    input_chars: float
    output_chars: float
    synthesis_calls: float
    elapsed: float

    def __post_init__(self) -> None:
        for name in METRIC_FIELDS[:10]:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DaglineError(f"rate {name} out of [0,1]: {value}")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_FIELDS}


# Field order, which is the CSV column order; the first ten are rates.
METRIC_FIELDS = tuple(f.name for f in fields(MetricsRow))


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """Per-repeat rows plus their mean for one (task, condition) pair."""

    task: str
    condition: str
    rows: tuple[MetricsRow, ...]

    @property
    def mean(self) -> MetricsRow:
        n = len(self.rows)
        if n == 0:
            raise DaglineError("metrics report has no repeats")
        return MetricsRow(**{
            name: sum(getattr(row, name) for row in self.rows) / n
            for name in METRIC_FIELDS
        })

    @property
    def identical_repeats(self) -> bool:
        """True when every repeat agrees on all deterministic metrics.

        Elapsed is excluded: it is a wall-clock measurement, not an output of
        the deterministic stack.
        """
        deterministic = METRIC_FIELDS[:-1]
        head = self.rows[0]
        return all(
            all(getattr(row, f) == getattr(head, f) for f in deterministic)
            for row in self.rows
        )


def _fraction_preserved(
    nodes: frozenset[str],
    pre_state: Mapping[str, bytes],
    post_state: Mapping[str, bytes],
) -> float:
    if not nodes:
        return 1.0
    kept = sum(1 for n in nodes if post_state[n] == pre_state[n])
    return kept / len(nodes)


def _contains_any(content: bytes, markers: tuple[str, ...]) -> bool:
    return any(m.encode("ascii") in content for m in markers)


def compute_metrics(
    scenario: Scenario,
    pre_state: Mapping[str, bytes],
    post_state: Mapping[str, bytes],
    stats: ExecutionStats,
) -> MetricsRow:
    """Score one update against the scenario's structural label sets.

    ``post_state`` maps every scenario node to its post-update bytes; for
    loop conditions that is the stale baseline everywhere except the final
    node (and the operator-edited artifact itself).
    """
    graph = scenario.workspace.graph
    for node in graph.nodes:
        if node not in pre_state or node not in post_state:
            raise DaglineError(f"metrics require pre and post bytes for node {node!r}")

    final_pre = pre_state[scenario.final_node]
    final_post = post_state[scenario.final_node]
    exact = 1.0 if final_post == final_pre else 0.0
    hash_preserved = (
        1.0 if hash_content(final_post).hex == hash_content(final_pre).hex else 0.0
    )

    stable_preserved = _fraction_preserved(scenario.stable_set, pre_state, post_state)

    contamination = (
        1.0
        if scenario.contamination_markers
        and _contains_any(final_post, scenario.contamination_markers)
        else 0.0
    )

    reflection = (
        1.0
        if scenario.constraint_marker
        and scenario.constraint_marker.encode("ascii") in final_post
        else 0.0
    )

    propagation = scenario.propagation_set
    if propagation:
        reached = sum(
            1
            for n in propagation
            if _contains_any(post_state[n], scenario.propagation_markers)
        )
        propagation_recall = reached / len(propagation)
    else:
        propagation_recall = 1.0

    upstream = ancestors(graph, scenario.edit.node_id)
    if upstream:
        changed = sum(1 for n in upstream if post_state[n] != pre_state[n])
        upstream_churn = changed / len(upstream)
    else:
        upstream_churn = 0.0

    unaffected = frozenset(graph.nodes) - propagation - {scenario.edit.node_id}
    unaffected_preservation = _fraction_preserved(unaffected, pre_state, post_state)

    # Consistency: the final output and every maintained artifact downstream
    # of the criteria must carry the criteria version currently in force.
    reference = (descendants(graph, {scenario.criteria_node}) | {scenario.final_node})
    reference -= {scenario.criteria_node}
    version = scenario.criteria_version_marker.encode("ascii")
    consistent = sum(1 for n in sorted(reference) if version in post_state[n])
    consistency = consistent / len(reference) if reference else 1.0

    return MetricsRow(
        final_output_exact_match=exact,
        final_output_hash_preserved=hash_preserved,
        stable_artifact_hash_preservation=stable_preserved,
        unnecessary_churn_rate=1.0 - stable_preserved,
        unrelated_branch_contamination_rate=contamination,
        final_memo_constraint_reflection=reflection,
        cross_artifact_consistency_score=consistency,
        downstream_propagation_recall=propagation_recall,
        upstream_churn_rate=upstream_churn,
        unaffected_artifact_preservation=unaffected_preservation,
        input_chars=float(stats.input_chars),
        output_chars=float(stats.output_chars),
        synthesis_calls=float(stats.synthesis_calls),
        elapsed=stats.elapsed,
    )
