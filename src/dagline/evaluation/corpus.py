"""Synthetic source material with embedded provenance markers.

Each fragment is deterministic filler prose carrying a few globally unique
``MARK:<BRANCH>:<serial>`` tokens. Because the synthesis executor re-emits
every marker it sees, a marker's presence in an artifact is an exact,
judge-free record of which source material reached it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

_WORDS = (
    "coverage", "visit", "panel", "network", "clinic", "follow-up", "intake",
    "billing", "schedule", "capacity", "region", "quarter", "baseline",
    "program", "referral", "outcome", "cohort", "rate", "trend", "review",
    "staffing", "budget", "policy", "metric", "access", "demand", "volume",
    "report", "audit", "pilot", "rollout", "criteria", "threshold", "window",
)


@dataclass(frozen=True, slots=True)
class Fragment:
    """One source document: bytes plus the markers planted in it."""

    name: str
    branch: str
    text: bytes
    markers: tuple[str, ...]


def make_fragment(
    rng: random.Random,
    name: str,
    branch: str,
    serials: Iterator[int],
    *,
    marker_count: int = 2,
    approx_size: int = 800,
) -> Fragment:
    """Build one fragment of roughly ``approx_size`` bytes."""
    markers = tuple(
        f"MARK:{branch}:{next(serials):04d}" for _ in range(marker_count)
    )
    lines = [f"## {name} notes"]
    size = len(lines[0])
    pending = list(markers)
    while size < approx_size or pending:
        if pending and (size >= approx_size or rng.random() < 0.25):
            line = pending.pop(0)
        else:
            words = rng.randint(6, 12)
            line = " ".join(rng.choice(_WORDS) for _ in range(words)) + "."
        lines.append(line)
        size += len(line) + 1
    text = ("\n".join(lines) + "\n").encode("utf-8")
    return Fragment(name=name, branch=branch, text=text, markers=markers)


def build_corpus(seed: int, *, include_recruiting: bool) -> dict[str, Fragment]:
    """All source fragments for one scenario, keyed by fragment name.

    The sizes are fixed: each of the four memo sources is about 2600 bytes,
    the operator directives about 600 and each recruiting fragment about
    220. The same seed always yields byte-identical fragments. Recruiting
    fragments, and the replacement content for the recruiting edit, are
    generated only for the unrelated-branch scenario; either way serials
    never collide.
    """
    rng = random.Random(seed)
    serials = itertools.count()
    fragments = {}
    for name, branch in (
        ("utilization", "UTILIZATION"),
        ("reimbursement", "REIMBURSEMENT"),
        ("operations", "OPERATIONS"),
        ("access_cost", "ACCESS-COST"),
    ):
        fragments[name] = make_fragment(
            rng, name, branch, serials, marker_count=3, approx_size=2600
        )
    fragments["directives"] = make_fragment(
        rng, "directives", "CRITERIA", serials, marker_count=1, approx_size=600
    )
    if include_recruiting:
        for name, branch in (("recruit_a", "RECRUIT-A"), ("recruit_b", "RECRUIT-B")):
            fragments[name] = make_fragment(
                rng, name, branch, serials, marker_count=2, approx_size=220
            )
        # The replacement content for the recruiting edit, with fresh serials.
        fragments["recruit_a_edited"] = make_fragment(
            rng, "recruit_a_edited", "RECRUIT-A", serials,
            marker_count=2, approx_size=220,
        )
    return fragments
