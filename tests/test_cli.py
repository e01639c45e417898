"""Command-line surface: exit codes, output shapes, state handling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dagline.cli import main
from dagline.graph import ContextBinding, Edge, NodeSpec, PortDecl, WorkflowGraph
from dagline.runtime import FULL, Workspace, run
from dagline.store import TEMP_MARK, FileStore

MANIFEST = {
    "nodes": [
        {"id": "fetch", "executor": "passthrough",
         "inputs": [{"port": "raw", "type": "text", "source": "context"}],
         "output_type": "text"},
        {"id": "digest", "executor": "synthesis", "config": {"instructions": "condense"},
         "inputs": [{"port": "upstream", "type": "text", "source": "dependency"}],
         "output_type": "text"},
        {"id": "memo", "executor": "synthesis",
         "inputs": [{"port": "summary", "type": "text", "source": "dependency"}],
         "output_type": "text"},
    ],
    "edges": [["fetch", "digest", "upstream"], ["digest", "memo", "summary"]],
}


@pytest.fixture
def project(tmp_path):
    manifest = tmp_path / "wf.json"
    manifest.write_text(json.dumps(MANIFEST))
    ctx = tmp_path / "ctx" / "fetch"
    ctx.mkdir(parents=True)
    (ctx / "raw").write_bytes(b"origin text MARK:SRC:0001\n")
    return {
        "manifest": str(manifest),
        "ctx": str(tmp_path / "ctx"),
        "store": str(tmp_path / "store"),
        "tmp": tmp_path,
    }


def invoke(*argv) -> int:
    return main(list(argv))


def run_args(project, *extra):
    return ("run", project["manifest"], "--store", project["store"],
            "--context", project["ctx"], *extra)


class TestValidate:
    def test_valid_manifest_silent_success(self, project, capsys):
        assert invoke("validate", project["manifest"]) == 0
        assert capsys.readouterr().out == ""

    def test_cycle_reported_exit_one(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MANIFEST))
        doc["edges"].append(["memo", "digest", "upstream"])
        # memo -> digest collides with fetch -> digest on the same port; use
        # a distinct port to isolate the cycle violation.
        doc["nodes"][1]["inputs"].append(
            {"port": "back", "type": "text", "source": "dependency"}
        )
        doc["edges"][-1] = ["memo", "digest", "back"]
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        assert invoke("validate", str(path)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if l.startswith("cycle:")) == 1

    def test_malformed_document_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert invoke("validate", str(path)) == 2


class TestRun:
    def test_cold_then_replay(self, project, capsys):
        assert invoke(*run_args(project)) == 0
        cold = capsys.readouterr().out
        assert cold.count("recomputed") == 3
        assert "identity-miss:new" in cold
        assert invoke(*run_args(project)) == 0
        warm = capsys.readouterr().out
        assert warm.count("replayed") == 3
        assert "identity-hit" in warm

    def test_decision_table_stable_across_invocations(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        invoke(*run_args(project))
        first = capsys.readouterr().out
        invoke(*run_args(project))
        second = capsys.readouterr().out

        def table(text: str) -> list[str]:
            return [line for line in text.splitlines() if not line.startswith("report:")]

        assert table(first) == table(second)

    def test_full_mode_on_warm_store_keeps_object_count(self, project, capsys):
        from dagline.store import FileStore

        invoke(*run_args(project))
        capsys.readouterr()
        count = FileStore(project["store"]).artifact_count()
        assert invoke(*run_args(project, "--mode", "full")) == 0
        out = capsys.readouterr().out
        assert out.count("recomputed") == 3
        assert FileStore(project["store"]).artifact_count() == count

    def test_missing_store_flag(self, project, capsys, monkeypatch):
        monkeypatch.delenv("DAGLINE_STORE", raising=False)
        assert invoke("run", project["manifest"], "--context", project["ctx"]) == 1

    def test_store_from_environment(self, project, capsys, monkeypatch):
        monkeypatch.setenv("DAGLINE_STORE", project["store"])
        assert invoke("run", project["manifest"], "--context", project["ctx"]) == 0


class TestEdit:
    def test_context_edit_prints_dirty_and_next_run_recomputes(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        new_file = project["tmp"] / "new_raw.txt"
        new_file.write_bytes(b"revised MARK:SRC:0002\n")
        assert invoke("edit", project["manifest"], "--store", project["store"],
                      "--context-edit", f"fetch:raw:{new_file}") == 0
        out = capsys.readouterr().out
        assert [l.strip() for l in out.splitlines()[1:]] == ["digest", "fetch", "memo"]
        invoke(*run_args(project))
        rerun = capsys.readouterr().out
        assert rerun.count("recomputed") == 3

    def test_artifact_edit_dirty_excludes_target(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        pin = project["tmp"] / "pin.txt"
        pin.write_bytes(b"operator digest\n")
        assert invoke("edit", project["manifest"], "--store", project["store"],
                      "--artifact-edit", f"digest:{pin}") == 0
        out = capsys.readouterr().out
        assert [l.strip() for l in out.splitlines()[1:]] == ["memo"]
        invoke(*run_args(project))
        rerun = capsys.readouterr().out
        assert "pinned" in rerun
        assert rerun.count("recomputed") == 1

    def test_edit_on_sink_is_dirty_free(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        pin = project["tmp"] / "pin.txt"
        pin.write_bytes(b"hand-written memo\n")
        invoke("edit", project["manifest"], "--store", project["store"],
               "--artifact-edit", f"memo:{pin}")
        out = capsys.readouterr().out
        assert [l.strip() for l in out.splitlines()[1:]] == []

    def test_unknown_target_exit_one(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        ghost = project["tmp"] / "x.txt"
        ghost.write_bytes(b"x")
        assert invoke("edit", project["manifest"], "--store", project["store"],
                      "--context-edit", f"ghost:raw:{ghost}") == 1


    @pytest.mark.parametrize("flag,spec", [
        ("--context-edit", "fetch:raw:{file}"),
        ("--artifact-edit", "fetch:{file}"),
    ])
    def test_edit_artifact_keeps_the_declared_type(self, tmp_path, capsys, flag, spec):
        from dagline.identity import ContentHash
        from dagline.store import FileStore

        doc = json.loads(json.dumps(MANIFEST))
        doc["nodes"][0]["inputs"][0]["type"] = "markdown"
        doc["nodes"][0]["output_type"] = "json"
        doc["nodes"][1]["inputs"][0]["type"] = "json"
        manifest = tmp_path / "typed.json"
        manifest.write_text(json.dumps(doc))
        (tmp_path / "ctx" / "fetch").mkdir(parents=True)
        (tmp_path / "ctx" / "fetch" / "raw").write_bytes(b"# origin\n")
        store = str(tmp_path / "store")
        assert invoke("run", str(manifest), "--store", store,
                      "--context", str(tmp_path / "ctx")) == 0
        edit_file = tmp_path / "edit.txt"
        edit_file.write_bytes(b"# revised source\n")
        assert invoke("edit", str(manifest), "--store", store,
                      flag, spec.format(file=edit_file)) == 0
        capsys.readouterr()
        [entry] = json.loads((tmp_path / "store" / "edits.json").read_bytes())
        artifact = FileStore(store).get_artifact(ContentHash.from_hex(entry["artifact"]))
        assert artifact.content == b"# revised source\n"
        assert artifact.content_type == ("markdown" if flag == "--context-edit" else "json")


class TestLineageExplainDiff:
    def test_lineage_tree_depth_three(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        assert invoke("lineage", "--store", project["store"], "--node", "memo") == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("memo ")
        assert lines[1].strip().startswith("digest <-summary")
        assert lines[2].strip().startswith("fetch <-upstream")
        assert lines[3].strip().startswith("context:raw")

    def test_lineage_source_is_leaf_only(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        invoke("lineage", "--store", project["store"], "--node", "fetch")
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("fetch ")
        assert len(out) == 2 and out[1].strip().startswith("context:raw")

    def test_lineage_marks_pinned_overrides(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        pin = project["tmp"] / "pin.txt"
        pin.write_bytes(b"operator digest\n")
        invoke("edit", project["manifest"], "--store", project["store"],
               "--artifact-edit", f"digest:{pin}")
        invoke(*run_args(project))
        capsys.readouterr()
        invoke("lineage", "--store", project["store"], "--node", "memo")
        out = capsys.readouterr().out
        assert "[pinned]" in out
        assert "digest" in out

    def test_lineage_of_a_pinned_artifact_takes_uppercase_hex(self, project, capsys):
        invoke(*run_args(project))
        pin = project["tmp"] / "pin.txt"
        pin.write_bytes(b"operator memo\n")
        invoke("edit", project["manifest"], "--store", project["store"],
               "--artifact-edit", f"memo:{pin}")
        [entry] = json.loads((project["tmp"] / "store" / "edits.json").read_bytes())
        hex_id = entry["artifact"]
        capsys.readouterr()
        for text in (hex_id, hex_id.upper()):
            assert invoke("lineage", "--store", project["store"], "--artifact", text) == 0
            assert capsys.readouterr().out == f"memo [pinned] {hex_id[:12]}\n"

    def test_explain_latest_run(self, project, capsys):
        invoke(*run_args(project))
        invoke(*run_args(project))
        capsys.readouterr()
        assert invoke("explain", "--store", project["store"], "--node", "digest") == 0
        out = capsys.readouterr().out
        assert "action: replayed" in out
        assert "reason: identity-hit" in out

    def test_diff_two_runs(self, project, capsys):
        from dagline.store import FileStore

        invoke(*run_args(project))
        capsys.readouterr()
        new_file = project["tmp"] / "new.txt"
        new_file.write_bytes(b"changed source\n")
        invoke("edit", project["manifest"], "--store", project["store"],
               "--context-edit", f"fetch:raw:{new_file}")
        invoke(*run_args(project))
        capsys.readouterr()
        run_a, run_b = FileStore(project["store"]).list_runs()
        assert invoke("diff", "--store", project["store"], run_a, run_b) == 0
        out = capsys.readouterr().out
        assert "3 of 3 artifacts changed" in out

    def test_unknown_run_or_node(self, project, capsys):
        invoke(*run_args(project))
        capsys.readouterr()
        assert invoke("explain", "--store", project["store"],
                      "--node", "digest", "--run", "nope") == 1
        assert invoke("lineage", "--store", project["store"], "--node", "ghost") == 1

    def test_run_without_a_report_is_not_listed(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        graph = WorkflowGraph(
            [source("src"), NodeSpec("out", "passthrough", {}, (PortDecl("up", "text"),))],
            [Edge("src", "out", "up")],
        )
        context = {("src", "raw"): ContextBinding("raw", b"source MARK:SRC\n")}
        run(Workspace(graph=graph, context=context, store=FileStore(store_dir)), FULL,
            run_id="0001")
        # A crash while writing the second run's report leaves only its temp file.
        crashed = store_dir / "runs" / "0002"
        crashed.mkdir()
        (crashed / f"report{TEMP_MARK}123.456").write_bytes(b'{"decisions": [')
        assert FileStore(store_dir).list_runs() == ["0001"]
        assert invoke("explain", "--store", str(store_dir), "--node", "out") == 0
        assert "action: recomputed" in capsys.readouterr().out


def run_into_store(store_dir, nodes, edges) -> None:
    """Run a graph whose sources read context port ``raw`` into a FileStore."""
    context = {
        (spec.node_id, "raw"): ContextBinding("raw", b"source MARK:SRC\n")
        for spec in nodes if spec.input_ports[0].source == "context"
    }
    graph = WorkflowGraph(nodes, edges)
    run(Workspace(graph=graph, context=context, store=FileStore(store_dir)), FULL)


def source(node_id: str) -> NodeSpec:
    return NodeSpec(node_id, "passthrough", {}, (PortDecl("raw", "text", "context"),))


class TestLineageScale:
    def test_lattice_prints_each_shared_ancestor_once(self, tmp_path, capsys):
        width, depth = 10, 12
        nodes = [source(f"n000_{j:03d}") for j in range(width)]
        edges = []
        ports = (PortDecl("in0", "text"), PortDecl("in1", "text"))
        for k in range(1, depth):
            for j in range(width):
                node_id = f"n{k:03d}_{j:03d}"
                nodes.append(NodeSpec(node_id, "synthesis", {"level": k}, ports))
                edges.append(Edge(f"n{k - 1:03d}_{j:03d}", node_id, "in0"))
                edges.append(Edge(f"n{k - 1:03d}_{(j + 1) % width:03d}", node_id, "in1"))
        run_into_store(tmp_path / "store", nodes, edges)
        assert invoke("lineage", "--store", str(tmp_path / "store"), "--node", "n011_000") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) <= 3 * len(nodes)
        # Each of the node's ancestors, itself included, is printed in full once.
        full = [line for line in lines if "identity=" in line and "(see above)" not in line]
        ancestry = sum(min(depth - k, width) for k in range(depth))
        assert len(full) == len({line.split()[0] for line in full}) == ancestry

    def test_long_chain_does_not_exhaust_the_stack(self, tmp_path, capsys):
        nodes = [source("c0000")] + [
            NodeSpec(f"c{i:04d}", "synthesis", {}, (PortDecl("up", "text"),))
            for i in range(1, 1500)
        ]
        edges = [Edge(f"c{i - 1:04d}", f"c{i:04d}", "up") for i in range(1, 1500)]
        run_into_store(tmp_path / "store", nodes, edges)
        assert invoke("lineage", "--store", str(tmp_path / "store"), "--node", "c1499") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1501

    def test_identical_bytes_chain_prints_each_node_once(self, tmp_path, capsys):
        nodes = [source("p0")] + [
            NodeSpec(f"p{i}", "passthrough", {}, (PortDecl("up", "text"),))
            for i in range(1, 6)
        ]
        edges = [Edge(f"p{i - 1}", f"p{i}", "up") for i in range(1, 6)]
        run_into_store(tmp_path / "store", nodes, edges)
        assert invoke("lineage", "--store", str(tmp_path / "store"), "--node", "p5") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "p5", "p4", "p3", "p2", "p1", "p0", "context:raw"
        ]


class TestExperimentCommand:
    def test_writes_report_and_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert invoke("experiment", "unrelated_branch_noop_update",
                      "--repeats", "1", "--out", str(out_dir)) == 0
        printed = capsys.readouterr().out
        assert "dag_replay" in printed
        report = (out_dir / "report.txt").read_text()
        assert "proxy" in report
        csv = (out_dir / "metrics.csv").read_text()
        assert csv.startswith("task,condition,repeat,")

    def test_unknown_task_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            invoke("experiment", "nonesuch")
        assert err.value.code == 2


_ledger_opens: list[str] | None = None  # set while a test counts ledger-entry opens


def _count_ledger_opens(event: str, args: tuple) -> None:
    if event == "open" and _ledger_opens is not None and "/executions/" in str(args[0]):
        _ledger_opens.append(str(args[0]))


sys.addaudithook(_count_ledger_opens)


class TestLocking:
    def test_second_process_locked_out(self, project, capsys):
        import fcntl

        invoke(*run_args(project))
        capsys.readouterr()
        holder = open(project["tmp"] / "store" / ".lock", "w")
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        try:
            assert invoke(*run_args(project)) == 1
            assert "in use" in capsys.readouterr().err
        finally:
            holder.close()

    def test_locked_out_command_reads_no_ledger_entry(self, project, capsys):
        import fcntl

        global _ledger_opens
        invoke(*run_args(project))
        capsys.readouterr()
        assert len(list((project["tmp"] / "store" / "executions").iterdir())) == 3
        holder = open(project["tmp"] / "store" / ".lock", "w")
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        _ledger_opens = []
        try:
            assert invoke(*run_args(project)) == 1
            opens = _ledger_opens
        finally:
            _ledger_opens = None
            holder.close()
        assert "in use" in capsys.readouterr().err
        assert opens == []


class TestEditLog:
    def edit(self, project, flag, spec, content: bytes) -> None:
        path = project["tmp"] / f"edit-{len(content)}.txt"
        path.write_bytes(content)
        assert invoke("edit", project["manifest"], "--store", project["store"],
                      flag, spec.format(file=path)) == 0

    def test_latest_edit_of_a_port_wins(self, project, capsys):
        invoke(*run_args(project))
        self.edit(project, "--context-edit", "fetch:raw:{file}", b"first MARK:SRC:0002\n")
        self.edit(project, "--context-edit", "fetch:raw:{file}", b"second edit MARK:SRC:0003\n")
        self.edit(project, "--artifact-edit", "memo:{file}", b"pinned memo\n")
        assert invoke(*run_args(project)) == 0
        assert "pinned" in capsys.readouterr().out
        store = FileStore(project["store"])
        fetch = store.get_artifact(store.latest_record_for_node("fetch").canonical_artifact)
        assert fetch.content == b"second edit MARK:SRC:0003\n"

    def test_logged_edit_of_a_removed_port_fails_the_run(self, project, capsys):
        invoke(*run_args(project))
        self.edit(project, "--context-edit", "fetch:raw:{file}", b"revised\n")
        doc = json.loads(json.dumps(MANIFEST))
        doc["nodes"][0]["inputs"][0]["port"] = "renamed"
        with open(project["manifest"], "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert invoke(*run_args(project)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fetch:raw" in err


@pytest.mark.parametrize("node_id", ["../escape", "a/b"])
def test_validate_rejects_unsafe_node_ids(tmp_path, capsys, node_id):
    doc = json.loads(json.dumps(MANIFEST))
    doc["nodes"][0]["id"] = node_id
    doc["edges"][0][0] = node_id
    path = tmp_path / "unsafe.json"
    path.write_text(json.dumps(doc))
    assert invoke("validate", str(path)) == 1
    assert capsys.readouterr().out.startswith("unsafe-node-id:")


def test_run_makes_one_structural_validation_pass(project, capsys, monkeypatch):
    import dagline.graph

    passes = []
    real_pass = dagline.graph._structural_violations

    def counting_pass(graph):
        passes.append(graph)
        return real_pass(graph)

    monkeypatch.setattr(dagline.graph, "_structural_violations", counting_pass)
    assert invoke(*run_args(project)) == 0
    assert len(passes) == 1


def store_files(store: str) -> list[str]:
    """Every file under the store but its lock, relative to it."""
    root = FileStore(store).root
    return sorted(
        str(p.relative_to(root)) for p in root.rglob("*") if p.is_file() and p.name != ".lock"
    )


# ``{printed}`` is an artifact prefix as ``dagline run`` prints it.
BAD_INPUTS = {
    "lineage-non-hex": ("lineage", "--store", "{store}", "--artifact", "zz"),
    # The empty prefix starts every hash, so it matches all three of the run's artifacts.
    "lineage-ambiguous-prefix": ("lineage", "--store", "{store}", "--artifact", ""),
    "validate-missing-manifest": ("validate", "{tmp}/missing.json"),
    "run-missing-manifest": (
        "run", "{tmp}/missing.json", "--store", "{store}", "--context", "{ctx}"),
    "edit-missing-manifest": (
        "edit", "{tmp}/missing.json", "--store", "{store}",
        "--context-edit", "fetch:raw:{ctx}/fetch/raw"),
    "context-edit-missing-file": (
        "edit", "{manifest}", "--store", "{store}",
        "--context-edit", "fetch:raw:{tmp}/missing.txt"),
    "artifact-edit-missing-file": (
        "edit", "{manifest}", "--store", "{store}", "--artifact-edit", "digest:{tmp}/missing.txt"),
    "context-edit-malformed-spec": (
        "edit", "{manifest}", "--store", "{store}", "--context-edit", "fetch:raw"),
}


@pytest.mark.parametrize("argv", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
def test_bad_input_exits_two_with_one_error_line(project, capsys, argv):
    assert invoke(*run_args(project)) == 0
    printed = capsys.readouterr().out.split()[3]
    before = store_files(project["store"])
    assert invoke(*(a.format(printed=printed, **project) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert store_files(project["store"]) == before


def test_lineage_of_a_node_id_outside_the_store_touches_no_file(project, capsys):
    victim = project["tmp"] / "victim.txt"
    victim.write_bytes(b"kept line\ntorn tail")  # a history load would cut the tail
    assert invoke(*run_args(project)) == 0
    capsys.readouterr()
    assert invoke("lineage", "--store", project["store"], "--node", "../../victim.txt") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert victim.read_bytes() == b"kept line\ntorn tail"


def test_python_dash_m_runs_the_command_line():
    repo = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    manifest = repo / "demos" / "sample_workflow" / "manifest.json"
    argv = [sys.executable, "-m", "dagline", "validate", str(manifest)]
    assert subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path)).returncode == 0


HEX_DIGITS = "0123456789abcdef"


def printed_artifacts(out: str) -> dict[str, str]:
    """Node id to artifact prefix, from the decision lines ``dagline run`` prints."""
    return {line.split()[0]: line.split()[3] for line in out.splitlines()
            if not line.startswith("report:")}


def test_lineage_takes_the_artifact_prefix_run_prints(project, capsys):
    assert invoke(*run_args(project)) == 0
    printed = printed_artifacts(capsys.readouterr().out)["digest"]
    assert invoke("lineage", "--store", project["store"], "--node", "digest") == 0
    expected = capsys.readouterr().out
    for text in (printed, printed.upper()):
        assert invoke("lineage", "--store", project["store"], "--artifact", text) == 0
        assert capsys.readouterr().out == expected


def test_lineage_takes_a_prefix_of_a_pinned_artifact(project, capsys):
    assert invoke(*run_args(project)) == 0
    pin = project["tmp"] / "pin.txt"
    pin.write_bytes(b"operator memo\n")
    assert invoke("edit", project["manifest"], "--store", project["store"],
                  "--artifact-edit", f"memo:{pin}") == 0
    [entry] = json.loads((project["tmp"] / "store" / "edits.json").read_bytes())
    capsys.readouterr()
    prefix = entry["artifact"][:12]
    assert invoke("lineage", "--store", project["store"], "--artifact", prefix) == 0
    assert capsys.readouterr().out == f"memo [pinned] {prefix}\n"


WIDE_SOURCES = 17  # 17 distinct hashes over 16 first hex digits: two share one


def test_ambiguous_prefix_exits_two_and_lists_its_matches(tmp_path, capsys):
    ids = [f"s{i:02d}" for i in range(WIDE_SOURCES)]
    manifest = tmp_path / "wide.json"
    manifest.write_text(json.dumps({"nodes": [MANIFEST["nodes"][0] | {"id": i} for i in ids],
                                    "edges": []}))
    for node_id in ids:
        (tmp_path / "ctx" / node_id).mkdir(parents=True)
        (tmp_path / "ctx" / node_id / "raw").write_bytes(f"{node_id} source\n".encode())
    store = str(tmp_path / "store")
    assert invoke("run", str(manifest), "--store", store, "--context", str(tmp_path / "ctx")) == 0
    artifacts = set(printed_artifacts(capsys.readouterr().out).values())
    assert len(artifacts) == WIDE_SOURCES
    digit = next(d for d in HEX_DIGITS if sum(a.startswith(d) for a in artifacts) > 1)
    matches = sorted(a for a in artifacts if a.startswith(digit))
    before = store_files(store)
    assert invoke("lineage", "--store", store, "--artifact", digit.upper()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"matches {len(matches)} artifacts" in captured.err
    assert all(match in captured.err for match in matches)
    assert store_files(store) == before
    unmatched = next(a + b for a in HEX_DIGITS for b in HEX_DIGITS
                     if not any(h.startswith(a + b) for h in artifacts))
    assert invoke("lineage", "--store", store, "--artifact", unmatched) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_undecodable_edit_log_fails_run_with_one_error_line(project, capsys):
    assert invoke(*run_args(project)) == 0
    edit_log = project["tmp"] / "store" / "edits.json"
    edit_log.write_bytes(b"{oops")
    capsys.readouterr()
    assert invoke(*run_args(project)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable edit log") and err.count("\n") == 1
    assert str(edit_log) in err


def test_undecodable_latest_report_fails_explain_with_one_error_line(project, capsys):
    assert invoke(*run_args(project)) == 0
    [run_id] = FileStore(project["store"]).list_runs()
    report = project["tmp"] / "store" / "runs" / run_id / "report"
    report.write_bytes(b"{oops")
    capsys.readouterr()
    assert invoke("explain", "--store", project["store"], "--node", "digest") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable run report") and err.count("\n") == 1
    assert str(report) in err


@pytest.mark.parametrize("log", [
    {"a": 1},
    [{"kind": "artifact-edit"}],
    [{"kind": "context-edit", "node": "fetch", "artifact": "ab" * 32}],
    [{"kind": "artifact-edit", "node": "digest", "artifact": "not hex"}],
    ["artifact-edit"],
])
def test_malformed_edit_log_fails_run_with_one_error_line(project, capsys, log):
    assert invoke(*run_args(project)) == 0
    edit_log = project["tmp"] / "store" / "edits.json"
    edit_log.write_text(json.dumps(log))
    before = store_files(project["store"])
    capsys.readouterr()
    assert invoke(*run_args(project)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed edit log") and err.count("\n") == 1
    assert str(edit_log) in err
    assert store_files(project["store"]) == before


@pytest.mark.parametrize("report", [{}, [], {"decisions": [{"node_id": "digest"}]}])
def test_malformed_latest_report_fails_explain_with_one_error_line(project, capsys, report):
    assert invoke(*run_args(project)) == 0
    [run_id] = FileStore(project["store"]).list_runs()
    path = project["tmp"] / "store" / "runs" / run_id / "report"
    path.write_text(json.dumps(report))
    before = store_files(project["store"])
    capsys.readouterr()
    assert invoke("explain", "--store", project["store"], "--node", "digest") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed run report") and err.count("\n") == 1
    assert str(path) in err
    assert store_files(project["store"]) == before
