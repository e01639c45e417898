"""Seeded diamond-lattice workflows for the benchmark.

A lattice is ``width`` columns by ``depth`` levels. Level 0 holds
passthrough sources, each fed by one context port ``raw``. Every node at
level ``k >= 1`` is a synthesis node reading ``fan_in`` producers from level
``k - 1``: columns ``j, j + 1, ..., j + fan_in - 1``, wrapping around the
width. Because columns wrap, every source is alike: a context-edit of any
source dirties ``min(k * (fan_in - 1) + 1, width)`` nodes at level ``k``,
which is 210 nodes for 100 x 20 and 555 for 10 x 60 at fan-in 2.

The seed picks the context bytes, the edit targets and the edit contents;
the same arguments always give byte-identical inputs.
"""

from __future__ import annotations

import random
from pathlib import Path

from dagline.graph import CONTEXT_EDIT, ContextBinding, Edge, EditEvent, NodeSpec, PortDecl, WorkflowGraph
from dagline.manifest import render_manifest

SOURCE_PORT = "raw"
CONTENT_BYTES = 384
_WORDS = (
    "claim", "ledger", "policy", "memo", "budget", "review", "signal", "source",
    "draft", "brief", "metric", "region", "quarter", "audit", "intake", "plan",
)


def node_id(level: int, column: int) -> str:
    # Zero-padded so lexicographic order is level order.
    return f"n{level:03d}_{column:03d}"


def expected_dirty(width: int, depth: int, fan_in: int) -> int:
    """Size of the dirty set of a context-edit of one source."""
    return sum(min(k * (fan_in - 1) + 1, width) for k in range(depth))


class Lattice:
    """One seeded lattice: graph, context, and a stream of source edits."""

    def __init__(
        self, width: int, depth: int, fan_in: int = 2, *, seed: int, work_passes: int = 1
    ) -> None:
        if width < fan_in or depth < 1 or fan_in < 1:
            raise ValueError("need width >= fan_in >= 1 and depth >= 1")
        self.width, self.depth, self.fan_in = width, depth, fan_in
        self.seed = seed
        self.sources = [node_id(0, j) for j in range(width)]
        self._rng = random.Random(f"lattice:{width}x{depth}x{fan_in}:{seed}")
        self._edits = 0

        ports = tuple(PortDecl(f"in{i}", "text") for i in range(fan_in))
        nodes = [
            NodeSpec(s, "passthrough", {}, (PortDecl(SOURCE_PORT, "text", "context"),))
            for s in self.sources
        ]
        edges = []
        for k in range(1, depth):
            config = {"instructions": f"fold level {k}", "work_passes": work_passes}
            for j in range(width):
                nid = node_id(k, j)
                nodes.append(NodeSpec(nid, "synthesis", config, ports))
                for i in range(fan_in):
                    edges.append(Edge(node_id(k - 1, (j + i) % width), nid, f"in{i}"))
        self.graph = WorkflowGraph(nodes, edges)
        self.context = {
            (s, SOURCE_PORT): ContextBinding(SOURCE_PORT, self._content(j, 0))
            for j, s in enumerate(self.sources)
        }

    @property
    def dirty_per_edit(self) -> int:
        return expected_dirty(self.width, self.depth, self.fan_in)

    def _content(self, column: int, version: int) -> bytes:
        """Seeded filler around one marker; the version keeps every edit novel."""
        words = []
        size = 0
        while size < CONTENT_BYTES:
            word = self._rng.choice(_WORDS)
            words.append(word)
            size += len(word) + 1
        return f"MARK:S{column:03d}:V{version}\n{' '.join(words)}\n".encode("ascii")

    def next_edit(self) -> EditEvent:
        """A context-edit of a seeded source with content no earlier edit used."""
        self._edits += 1
        column = self._rng.randrange(self.width)
        return EditEvent(
            CONTEXT_EDIT,
            self.sources[column],
            self._content(column, self._edits),
            port=SOURCE_PORT,
            event_id=f"bench-{self._edits:06d}",
        )

    def write(self, directory: Path) -> tuple[Path, Path]:
        """Write ``manifest.json`` and a ``context/<node>/<port>`` tree."""
        directory.mkdir(parents=True, exist_ok=True)
        manifest = directory / "manifest.json"
        manifest.write_text(render_manifest(self.graph), encoding="utf-8")
        context_dir = directory / "context"
        for (nid, port), binding in self.context.items():
            (context_dir / nid).mkdir(parents=True, exist_ok=True)
            (context_dir / nid / port).write_bytes(binding.content)
        return manifest, context_dir
