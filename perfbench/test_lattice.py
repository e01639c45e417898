"""Checks of the lattice generator: dirty-set sizes and seed determinism.

    python3 -m pytest perfbench/test_lattice.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dagline import MemoryStore, Workspace, apply_edit, validate_graph  # noqa: E402
from lattice import Lattice, expected_dirty  # noqa: E402


def _dirty_sizes(lattice: Lattice, edits: int) -> set[int]:
    workspace = Workspace(graph=lattice.graph, context=lattice.context, store=MemoryStore())
    sizes = set()
    for _ in range(edits):
        workspace, dirty = apply_edit(workspace, lattice.next_edit())
        sizes.add(len(dirty))
    return sizes


def test_dirty_set_sizes_of_the_benchmark_shapes():
    assert expected_dirty(100, 20, 2) == 210
    assert expected_dirty(10, 60, 2) == 555
    assert _dirty_sizes(Lattice(100, 20, 2, seed=7), edits=20) == {210}
    assert _dirty_sizes(Lattice(10, 60, 2, seed=7), edits=20) == {555}
    assert _dirty_sizes(Lattice(6, 5, 3, seed=7), edits=5) == {expected_dirty(6, 5, 3)}


def test_lattice_is_a_valid_graph_of_the_requested_size():
    lattice = Lattice(10, 60, 2, seed=1)
    assert len(lattice.graph.node_ids()) == 600
    assert len(lattice.graph.edges) == 2 * 10 * 59
    assert validate_graph(lattice.graph) == []


def _inputs(seed: int, directory: Path) -> tuple[dict[str, bytes], list]:
    lattice = Lattice(10, 6, 2, seed=seed)
    manifest, context_dir = lattice.write(directory)
    files = {p.relative_to(directory).as_posix(): p.read_bytes()
             for p in sorted(directory.rglob("*")) if p.is_file()}
    assert manifest.name in files and context_dir.is_dir()
    edits = [lattice.next_edit() for _ in range(5)]
    return files, edits


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    files_a, edits_a = _inputs(3, tmp_path / "a")
    files_b, edits_b = _inputs(3, tmp_path / "b")
    files_c, edits_c = _inputs(4, tmp_path / "c")
    assert files_a == files_b and edits_a == edits_b
    assert files_a["manifest.json"] == files_c["manifest.json"]
    assert files_a != files_c and edits_a != edits_c


def test_every_edit_is_novel():
    lattice = Lattice(4, 3, 2, seed=0)
    contents = [lattice.next_edit().new_content for _ in range(50)]
    assert len(set(contents)) == len(contents)
    assert not set(contents) & {b.content for b in lattice.context.values()}
