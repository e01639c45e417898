"""Operator command line.

    dagline validate MANIFEST
    dagline run MANIFEST --store DIR --context DIR [--mode replay|full]
    dagline edit MANIFEST --store DIR --context-edit node:port:file
    dagline edit MANIFEST --store DIR --artifact-edit node:file
    dagline lineage --store DIR (--node ID | --artifact HEX)
    dagline explain --store DIR --node ID [--run RUN_ID]
    dagline diff --store DIR RUN_A RUN_B
    dagline experiment TASK [--repeats N] [--seed S] [--out DIR]

Exit codes: 0 success, 1 domain violation, 2 usage or parse error. The store
path defaults to $DAGLINE_STORE. Edits are persisted in the store and applied
on top of the manifest and context directory by every subsequent run, so
editing and re-running stay separate steps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from dagline.errors import DaglineError, ManifestError, StorageError
from dagline.evaluation.scenarios import TASKS
from dagline.evaluation.experiment import run_experiment
from dagline.graph import (
    ARTIFACT_EDIT,
    CONTEXT_EDIT,
    ContextBinding,
    EditEvent,
    validate_graph,
)
from dagline.identity import ContentHash, canonical_json_bytes
from dagline.manifest import load_manifest
from dagline.runtime import (
    REPLAY,
    RunReport,
    Workspace,
    apply_edit,
    explain,
    report_from_doc,
    run,
)
from dagline.store import CONTEXT_INPUT, BaseStore, ExecutionRecord, FileStore, _atomic_write

try:
    import fcntl
except ImportError:  # non-POSIX; advisory locking degrades to a no-op
    fcntl = None  # type: ignore[assignment]


class UsageError(DaglineError):
    """An argument is malformed or names a file that cannot be read."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ManifestError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DaglineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _release_locks()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagline",
        description="content-addressed workflow runs with identity-based replay",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a workflow manifest")
    p.add_argument("manifest", type=Path)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("run", help="execute a workflow (replaying ledger hits)")
    p.add_argument("manifest", type=Path)
    _store_arg(p)
    p.add_argument("--context", type=Path, required=True,
                   help="directory of context files laid out as <node>/<port>")
    p.add_argument("--mode", choices=["replay", "full"], default=REPLAY)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("edit", help="record an edit; the next run picks it up")
    p.add_argument("manifest", type=Path)
    _store_arg(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--context-edit", metavar="NODE:PORT:FILE")
    group.add_argument("--artifact-edit", metavar="NODE:FILE")
    p.set_defaults(handler=_cmd_edit)

    p = sub.add_parser("lineage", help="print the transitive input surface")
    _store_arg(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--node")
    group.add_argument("--artifact", help="artifact hash (lowercase hex)")
    p.set_defaults(handler=_cmd_lineage)

    p = sub.add_parser("explain", help="why a node was replayed or recomputed")
    _store_arg(p)
    p.add_argument("--node", required=True)
    p.add_argument("--run", help="run id (default: latest)")
    p.set_defaults(handler=_cmd_explain)

    p = sub.add_parser("diff", help="compare two run reports")
    _store_arg(p)
    p.add_argument("run_a")
    p.add_argument("run_b")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser("experiment", help="reproduce a controlled update experiment")
    p.add_argument("task", choices=list(TASKS))
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="directory for report.txt and metrics.csv")
    p.set_defaults(handler=_cmd_experiment)

    return parser


def _store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        type=Path,
        default=os.environ.get("DAGLINE_STORE"),
        help="store directory (default: $DAGLINE_STORE)",
    )


def _open_store(args: argparse.Namespace) -> FileStore:
    """The store at ``--store``, opened once this process holds its lock.

    The lock comes first, so the ledger loaded at open already holds every
    write of the command that held the lock before.
    """
    if args.store is None:
        raise DaglineError("no store path: pass --store or set DAGLINE_STORE")
    args.store.mkdir(parents=True, exist_ok=True)
    _lock(args.store)
    return FileStore(args.store)


_LOCK_HANDLES = []  # lock fds held for the duration of one command


def _release_locks() -> None:
    while _LOCK_HANDLES:
        _LOCK_HANDLES.pop().close()


def _lock(root: Path) -> None:
    if fcntl is None:
        return
    handle = (root / ".lock").open("w")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise DaglineError(f"store {root} is in use by another dagline process")
    _LOCK_HANDLES.append(handle)


def _cmd_validate(args: argparse.Namespace) -> int:
    graph, violations = load_manifest(args.manifest)
    violations += validate_graph(graph)
    for violation in violations:
        print(violation)
    return 1 if violations else 0


def _load_workspace(args: argparse.Namespace, store: FileStore, edit_log: list[dict]) -> Workspace:
    """The manifest and the context directory, with the store's edit log on top.

    The log is read in one pass: the latest edit of each port or node wins, a
    context-edit's bytes come from the store (its context file is not read),
    and an artifact-edit pins its artifact id.
    """
    graph, violations = load_manifest(args.manifest)
    violations += validate_graph(graph)
    if violations:
        raise DaglineError(
            "manifest is invalid:\n" + "\n".join(str(v) for v in violations)
        )
    context_edits: dict[tuple[str, str], ContentHash] = {}
    overrides: dict[str, ContentHash] = {}
    for entry in edit_log:
        artifact_id = ContentHash.from_hex(entry["artifact"])
        if entry["kind"] == CONTEXT_EDIT:
            context_edits[(entry["node"], entry["port"])] = artifact_id
        else:
            overrides[entry["node"]] = artifact_id
    context = {}
    context_dir: Path | None = getattr(args, "context", None)
    for node_id, spec in graph.nodes.items():
        for port in spec.context_ports:
            if context_dir is None or (node_id, port.name) in context_edits:
                continue
            path = context_dir / node_id / port.name
            if path.exists():
                context[(node_id, port.name)] = ContextBinding(
                    port.name, path.read_bytes(), port.artifact_type
                )
    for (node_id, name), artifact_id in context_edits.items():
        port = graph.node(node_id).context_port(name)
        content = store.read_artifact(artifact_id)
        context[(node_id, name)] = ContextBinding(name, content, port.artifact_type)
    return Workspace(graph=graph, context=context, overrides=overrides, store=store)


def _edit_log_path(store: FileStore) -> Path:
    return store.root / "edits.json"


def _read_edit_log(store: FileStore) -> list[dict]:
    path = _edit_log_path(store)
    if not path.exists():
        return []
    return json.loads(path.read_text(encoding="utf-8"))


def _cmd_run(args: argparse.Namespace) -> int:
    store = _open_store(args)
    workspace = _load_workspace(args, store, _read_edit_log(store))
    try:
        report = run(workspace, args.mode)
    except DaglineError as exc:
        partial = getattr(exc, "partial_report", None)
        if partial is not None:
            print(f"run failed at node {partial.failed_node}; partial report "
                  f"runs/{partial.run_id}/report", file=sys.stderr)
        raise
    for decision in report.decisions:
        print(f"{decision.node_id:<28} {decision.action:<10} "
              f"{decision.reason:<28} {decision.artifact_id.hex[:12]}")
    print(f"report: runs/{report.run_id}/report")
    return 0


def _parse_edit_spec(raw: str, parts: int) -> list[str]:
    pieces = raw.split(":", parts - 1)
    if len(pieces) != parts or not all(pieces):
        raise UsageError(f"malformed edit spec {raw!r}")
    return pieces


def _read_input(file_name: str) -> bytes:
    try:
        return Path(file_name).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {file_name}: {exc.strerror}") from None


def _cmd_edit(args: argparse.Namespace) -> int:
    store = _open_store(args)
    edit_log = _read_edit_log(store)
    workspace = _load_workspace(args, store, edit_log)
    event_id = f"cli-{len(edit_log):06d}"
    if args.context_edit:
        node, port, file_name = _parse_edit_spec(args.context_edit, 3)
        content = _read_input(file_name)
        edit = EditEvent(CONTEXT_EDIT, node, content, port=port, event_id=event_id)
        _, dirty = apply_edit(workspace, edit)
        content_type = workspace.graph.node(node).context_port(port).artifact_type
        artifact_id = store.put_artifact(content, content_type, node, produced_under=None)
    else:
        node, file_name = _parse_edit_spec(args.artifact_edit, 2)
        content = _read_input(file_name)
        edit = EditEvent(ARTIFACT_EDIT, node, content, event_id=event_id)
        edited, dirty = apply_edit(workspace, edit)
        artifact_id = edited.overrides[node]  # stored by apply_edit
    entry = {
        "artifact": artifact_id.hex,
        "event_id": event_id,
        "kind": edit.kind,
        "node": edit.node_id,
    }
    if edit.port:
        entry["port"] = edit.port
    _atomic_write(_edit_log_path(store), canonical_json_bytes([*edit_log, entry]) + b"\n")
    print(f"edit {event_id} recorded; dirty set:")
    for node_id in sorted(dirty):
        print(f"  {node_id}")
    return 0


def _overrides_by_artifact(store: FileStore) -> dict[str, str]:
    by_artifact = {}
    for entry in _read_edit_log(store):
        if entry["kind"] == ARTIFACT_EDIT:
            by_artifact[entry["artifact"]] = entry["node"]
    return by_artifact


def _cmd_lineage(args: argparse.Namespace) -> int:
    if args.artifact:
        try:
            artifact_id = ContentHash.from_hex(args.artifact)
        except ValueError:
            raise UsageError(f"--artifact needs all 64 hex digits: {args.artifact!r}") from None
    store = _open_store(args)
    overrides = _overrides_by_artifact(store)
    if args.node:
        record = store.latest_record_for_node(args.node)
        if record is None:
            raise DaglineError(f"no execution recorded for node {args.node!r}")
        _print_lineage(store, record, overrides)
    else:
        records = store.records_for_artifact(artifact_id)
        if not records:
            hex_id = artifact_id.hex
            if hex_id in overrides:
                print(f"{overrides[hex_id]} [pinned] {hex_id[:12]}")
                return 0
            raise DaglineError(f"no execution produced artifact {hex_id[:12]}")
        _print_lineage(store, records[0], overrides)
    return 0


def _print_lineage(
    store: BaseStore, record: ExecutionRecord, overrides: dict[str, str]
) -> None:
    """Print the record's inputs depth first, in port order, without recursion.

    A dependency port leads to the record of the identity it contributed. A
    record is printed in full once; a later visit is one line ending ``(see above)``.
    """
    printed: set[str] = set()
    # A record to expand, with its depth and the port it feeds, or a line to print.
    stack: list[tuple[ExecutionRecord, int, str] | str] = [(record, 0, "")]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            print(entry)
            continue
        record, depth, via = entry
        indent = "  " * depth
        label = f" <-{via}" if via else ""
        head = (f"{indent}{record.node_id}{label} identity={record.identity.value.hex[:12]} "
                f"artifact={record.canonical_artifact.hex[:12]}")
        if record.identity.value.hex in printed:
            print(head + " (see above)")
            continue
        printed.add(record.identity.value.hex)
        print(head)
        inputs: list[tuple[ExecutionRecord, int, str] | str] = []
        for port, ref in sorted(record.input_surface.items()):
            if ref.kind == CONTEXT_INPUT:
                inputs.append(f"{indent}  context:{port} {ref.hash.hex[:12]}")
                continue
            upstream = store.lookup_by_identity(record.identity.predecessors[port])
            if upstream is not None:
                inputs.append((upstream, depth + 1, port))
            elif ref.hash.hex in overrides:
                inputs.append(
                    f"{indent}  {overrides[ref.hash.hex]} <-{port} [pinned] {ref.hash.hex[:12]}"
                )
            else:
                inputs.append(f"{indent}  <unknown> <-{port} {ref.hash.hex[:12]}")
        stack.extend(reversed(inputs))


def _load_report(store: FileStore, run_id: str | None) -> RunReport:
    runs = store.list_runs()
    if not runs:
        raise DaglineError("store has no recorded runs")
    if run_id is None:
        run_id = runs[-1]
    try:
        return report_from_doc(store.get_run_report(run_id))
    except StorageError:
        raise DaglineError(f"no run report {run_id!r}") from None


def _cmd_explain(args: argparse.Namespace) -> int:
    store = _open_store(args)
    report = _load_report(store, args.run)
    print(explain(store, report, args.node).render())
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    store = _open_store(args)
    report_a = _load_report(store, args.run_a)
    report_b = _load_report(store, args.run_b)
    nodes = sorted(set(report_a.final_artifacts) | set(report_b.final_artifacts))
    changed = 0
    for node in nodes:
        a = report_a.final_artifacts.get(node)
        b = report_b.final_artifacts.get(node)
        if a is not None and a == b:
            status = "same"
        else:
            status = "changed"
            changed += 1
        a_hex = a.hex[:12] if a else "-"
        b_hex = b.hex[:12] if b else "-"
        print(f"{node:<28} {status:<8} {a_hex} -> {b_hex}")
    print(f"{changed} of {len(nodes)} artifacts changed")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    report = run_experiment(args.task, args.repeats, seed=args.seed)
    table = report.render_table()
    print(table, end="")
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.txt").write_text(table, encoding="utf-8")
        (args.out / "metrics.csv").write_text(report.to_csv(), encoding="utf-8")
        print(f"wrote {args.out / 'report.txt'} and {args.out / 'metrics.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
