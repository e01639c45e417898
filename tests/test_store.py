"""Store semantics: content addressing, ledger discipline, persistence."""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import threading

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dagline.errors import (
    ArtifactNotFoundError,
    IdentityConflictError,
    IntegrityError,
    StorageError,
)
from dagline.graph import WorkflowGraph
from dagline.identity import compute_execution_identity, hash_content
from dagline.runtime import FULL, REPLAYED, run
from dagline.store import (
    TEMP_MARK,
    ExecutionRecord,
    ExecutionStats,
    FileStore,
    InputRef,
    MemoryStore,
    record_bytes,
    record_from_doc,
)

from conftest import source_node, workspace_for

ABC_SHA = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(tmp_path / "store")


def identity_for(tag: bytes):
    return compute_execution_identity(
        hash_content(b"spec:" + tag), hash_content(b"input:" + tag)
    )


def record_for(store, tag: bytes, content: bytes) -> ExecutionRecord:
    identity = identity_for(tag)
    artifact = store.put_artifact(content, "text", "node", identity)
    return ExecutionRecord(
        identity=identity,
        node_id="node",
        canonical_artifact=artifact,
        candidate_artifacts=(artifact,),
        input_surface={"p": InputRef("context", hash_content(b"ctx"))},
        stats=ExecutionStats(input_chars=3, output_chars=len(content), synthesis_calls=1),
    )


class TestArtifacts:
    def test_round_trip(self, store):
        artifact_id = store.put_artifact(b"payload", "text", "n", None)
        record = store.get_artifact(artifact_id)
        assert record.content == b"payload"
        assert record.content_type == "text"
        assert record.producer == "n"

    def test_known_vector(self, store):
        assert store.put_artifact(b"abc", "text", "n", None).hex == ABC_SHA

    def test_idempotent_put(self, store):
        a = store.put_artifact(b"same", "text", "n", None)
        b = store.put_artifact(b"same", "text", "n", None)
        assert a.hex == b.hex
        assert store.artifact_count() == 1

    def test_distinct_contents_distinct_objects(self, store):
        store.put_artifact(b"one", "text", "n", None)
        store.put_artifact(b"two", "text", "n", None)
        assert store.artifact_count() == 2

    def test_unknown_artifact(self, store):
        with pytest.raises(ArtifactNotFoundError):
            store.get_artifact(hash_content(b"never stored"))

    def test_provenance_round_trips(self, store):
        identity = identity_for(b"prov")
        artifact_id = store.put_artifact(b"traced", "text", "maker", identity)
        assert store.get_artifact(artifact_id).produced_under.value.hex == identity.value.hex


def test_tampered_object_detected(tmp_path):
    store = FileStore(tmp_path / "store")
    artifact_id = store.put_artifact(b"genuine content", "text", "n", None)
    path = store._object_path(artifact_id.hex)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        store.get_artifact(artifact_id)


class TestLedger:
    def test_record_then_lookup(self, store):
        record = record_for(store, b"t1", b"out")
        store.record_execution(record)
        found = store.lookup_by_identity(record.identity)
        assert found is not None
        assert found.canonical_artifact.hex == record.canonical_artifact.hex

    def test_lookup_before_record_absent(self, store):
        assert store.lookup_by_identity(identity_for(b"nothing")) is None

    def test_flipped_digest_misses(self, store):
        record = record_for(store, b"t2", b"out2")
        store.record_execution(record)
        flipped = bytearray(record.identity.value.digest)
        flipped[0] ^= 0x01
        from dagline.identity import ContentHash

        assert store.lookup_by_identity(ContentHash(bytes(flipped))) is None

    def test_conflicting_record_rejected(self, store):
        record = record_for(store, b"t3", b"first output")
        store.record_execution(record)
        other_artifact = store.put_artifact(b"second output", "text", "node", record.identity)
        clash = ExecutionRecord(
            identity=record.identity,
            node_id="node",
            canonical_artifact=other_artifact,
            candidate_artifacts=(other_artifact,),
            input_surface=record.input_surface,
            stats=record.stats,
        )
        with pytest.raises(IdentityConflictError):
            store.record_execution(clash)

    def test_identical_rerecord_accepted_even_with_new_elapsed(self, store):
        record = record_for(store, b"t4", b"out4")
        store.record_execution(record)
        import dataclasses

        again = dataclasses.replace(
            record, stats=dataclasses.replace(record.stats, elapsed=9.9)
        )
        store.record_execution(again)
        assert len(list(store.records())) == 1
        assert store.node_history("node")[-1].hex == record.identity.value.hex

    def test_missing_referenced_artifact_rejected(self, store):
        identity = identity_for(b"t5")
        ghost = hash_content(b"not stored")
        record = ExecutionRecord(
            identity=identity, node_id="node",
            canonical_artifact=ghost, candidate_artifacts=(ghost,),
        )
        with pytest.raises(ArtifactNotFoundError):
            store.record_execution(record)


def test_ledger_reload_reconstructs_index(tmp_path):
    root = tmp_path / "store"
    first = FileStore(root)
    records = [record_for(first, bytes([i]), b"content-%d" % i) for i in range(5)]
    for record in records:
        first.record_execution(record)
    reopened = FileStore(root)
    assert sorted(r.identity.value.hex for r in reopened.records()) == \
        sorted(r.identity.value.hex for r in first.records())
    for record in records:
        found = reopened.lookup_by_identity(record.identity)
        assert found is not None
        assert record_bytes(found) == record_bytes(record)


@pytest.mark.parametrize("field", ["spec", "value"])
def test_tampered_ledger_entry_fails_reopen(tmp_path, field):
    root = tmp_path / "store"
    store = FileStore(root)
    record = record_for(store, b"tamper", b"ledger output")
    store.record_execution(record)
    path = root / "executions" / record.identity.value.hex
    doc = json.loads(path.read_bytes())
    doc["identity"][field] = hash_content(b"forged " + field.encode()).hex
    path.write_bytes(json.dumps(doc).encode())
    with pytest.raises(IntegrityError):
        FileStore(root)


def test_ledger_entry_file_is_bit_exact(tmp_path):
    store = FileStore(tmp_path / "store")
    record = record_for(store, b"exact", b"exact output")
    store.record_execution(record)
    path = store.root / "executions" / record.identity.value.hex
    on_disk = path.read_bytes()
    import json

    assert record_bytes(record_from_doc(json.loads(on_disk))) == on_disk


def test_run_report_round_trip(store):
    store.put_run_report("run-1", {"a": 1, "nested": {"b": [1, 2]}})
    assert store.get_run_report("run-1") == {"a": 1, "nested": {"b": [1, 2]}}
    assert store.list_runs() == ["run-1"]


def test_concurrent_identical_and_distinct_writes(store):
    errors = []

    def worker(i: int) -> None:
        try:
            store.put_artifact(b"shared", "text", "n", None)
            store.put_artifact(b"private-%d" % (i % 4), "text", "n", None)
            record = record_for(store, b"conc", b"same result")
            store.record_execution(record)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert store.artifact_count() == 1 + 4 + 1  # shared + 4 privates + record output
    assert len(list(store.records())) == 1


def test_tampered_sidecar_identity_fails_get_artifact(tmp_path):
    store = FileStore(tmp_path / "store")
    record = record_for(store, b"sidecar", b"sidecar output")
    hex_id = record.canonical_artifact.hex
    sidecar = store.root / "objects" / hex_id[:2] / (hex_id[2:] + ".json")
    meta = json.loads(sidecar.read_bytes())
    meta["produced_under"]["value"] = hash_content(b"forged value").hex
    sidecar.write_bytes(json.dumps(meta).encode())
    with pytest.raises(IntegrityError):
        store.get_artifact(record.canonical_artifact)


def _differing(store, record, field):
    """``record`` with one determinism-constrained field changed."""
    other = store.put_artifact(b"another output", "text", "node", record.identity)
    port, ref = next(iter(record.input_surface.items()))
    changes = {
        "canonical_artifact": {"canonical_artifact": other},
        "candidate_artifacts": {"candidate_artifacts": (record.canonical_artifact, other)},
        "input_surface_hash": {
            "input_surface": {port: InputRef(ref.kind, hash_content(b"moved"))}
        },
        "input_surface_kind": {"input_surface": {port: InputRef("dependency", ref.hash)}},
    }
    return dataclasses.replace(record, **changes[field])


@pytest.mark.parametrize(
    "field",
    ["canonical_artifact", "candidate_artifacts", "input_surface_hash", "input_surface_kind"],
)
def test_rerecord_with_a_different_result_conflicts(store, field):
    record = record_for(store, b"values", b"value output")
    store.record_execution(record)
    with pytest.raises(IdentityConflictError):
        store.record_execution(_differing(store, record, field))
    assert [record_bytes(r) for r in store.records()] == [record_bytes(record)]


def test_rerecord_differing_only_in_stats_is_accepted(store):
    record = record_for(store, b"stats", b"stats output")
    store.record_execution(record)
    other_stats = ExecutionStats(input_chars=99, output_chars=1, synthesis_calls=0, elapsed=5.0)
    store.record_execution(dataclasses.replace(record, stats=other_stats))
    assert [record_bytes(r) for r in store.records()] == [record_bytes(record)]
    assert store.node_history("node") == [record.identity.value]


def test_put_artifact_after_a_failed_second_write_is_readable(tmp_path, monkeypatch):
    import dagline.store
    from dagline.errors import StorageError

    store = FileStore(tmp_path / "store")
    real_write = dagline.store._atomic_write
    writes = []

    def second_write_fails(path, payload):
        writes.append(path)
        if len(writes) == 2:
            raise StorageError(f"injected failure writing {path}")
        real_write(path, payload)

    monkeypatch.setattr(dagline.store, "_atomic_write", second_write_fails)
    with pytest.raises(StorageError, match="injected"):
        store.put_artifact(b"payload", "text", "n", None)
    artifact_id = store.put_artifact(b"payload", "text", "n", None)
    assert store.get_artifact(artifact_id).content == b"payload"
    assert FileStore(tmp_path / "store").get_artifact(artifact_id).producer == "n"


def test_verify_artifact_accepts_stored_bytes_and_rejects_absent_ones(store):
    artifact_id = store.put_artifact(b"verified", "text", "n", identity_for(b"verify"))
    assert store.read_artifact(artifact_id) == b"verified"
    with pytest.raises(ArtifactNotFoundError):
        store.read_artifact(hash_content(b"never stored"))


def test_verify_artifact_rejects_changed_bytes(store):
    artifact_id = store.put_artifact(b"original", "text", "n", None)
    assert store.read_artifact(artifact_id) == b"original"
    if isinstance(store, MemoryStore):
        _, meta = store._objects[artifact_id.hex]
        store._objects[artifact_id.hex] = (b"changed", meta)
    else:
        store._object_path(artifact_id.hex).write_bytes(b"changed")
    with pytest.raises(IntegrityError):
        store.read_artifact(artifact_id)


# -- the node-history index ----------------------------------------------------

_history_reads: list[str] | None = None  # set while a test counts history reads


def _count_history_reads(event: str, args: tuple) -> None:
    if event == "open" and _history_reads is not None:
        path, mode = str(args[0]), args[1]
        if "/nodes/" in path and mode in ("r", "rb"):
            _history_reads.append(path)


sys.addaudithook(_count_history_reads)


def test_file_store_reads_each_history_once_per_handle(tmp_path):
    from dagline.graph import CONTEXT_EDIT, EditEvent
    from dagline.runtime import REPLAY, apply_edit, run

    from conftest import diamond_graph, workspace_for

    global _history_reads
    workspace = dataclasses.replace(
        workspace_for(diamond_graph()), store=FileStore(tmp_path / "store")
    )
    run(workspace, REPLAY)
    workspace = dataclasses.replace(workspace, store=FileStore(tmp_path / "store"))
    _history_reads = []
    try:
        edited, _ = apply_edit(
            workspace, EditEvent(CONTEXT_EDIT, "a", b"revised", port="raw")
        )
        run(edited, REPLAY)  # every node misses
        store = workspace.store
        for node_id in workspace.graph.nodes:
            for _ in range(3):
                first = store.lookup_by_identity(store.node_history(node_id)[0])
                store.prior_record(node_id, first.identity)
                store.latest_record_for_node(node_id)
        reads = sorted(_history_reads)
    finally:
        _history_reads = None
    assert reads == sorted(f"{store._nodes_dir}/{n}" for n in workspace.graph.nodes)


def _reference_prior(history: list[str], recorded: set[str], current: str | None):
    """The slice-and-walk rule: nearest recorded entry before ``current``."""
    end = history.index(current) if current in history else len(history)
    for hex_identity in reversed(history[:end]):
        if hex_identity in recorded:
            return hex_identity
    return None


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=12))
def test_prior_record_follows_the_slice_and_walk_rule(ops):
    """Histories with unrecorded entries (an append whose ledger write
    failed) and duplicates; an identity keeps its first position."""
    with tempfile.TemporaryDirectory() as root:
        stores = [MemoryStore(), FileStore(root)]
        for store in stores:
            for tag, recorded in ops:
                record = record_for(store, bytes([tag]), b"out-%d" % tag)
                if recorded:
                    store.record_execution(record)
                else:
                    store._append_history("node", record.identity.value.hex)
        stores.append(FileStore(root))  # the duplicates on disk load alike
        appended, recorded = [], set()
        for tag, is_recorded in ops:
            hex_identity = identity_for(bytes([tag])).value.hex
            if hex_identity not in recorded:
                appended.append(hex_identity)
            if is_recorded:
                recorded.add(hex_identity)
        history = list(dict.fromkeys(appended))
        for store in stores:
            assert [h.hex for h in store.node_history("node")] == history
            for tag in range(6):  # tag 5 is never appended
                identity = identity_for(bytes([tag]))
                found = store.prior_record("node", identity)
                expected = _reference_prior(history, recorded, identity.value.hex)
                assert (found and found.identity.value.hex) == expected
            latest = store.latest_record_for_node("node")
            assert (latest and latest.identity.value.hex) == \
                _reference_prior(history, recorded, None)


def test_latest_record_skips_a_newest_entry_with_no_record(store):
    record = record_for(store, b"kept", b"kept output")
    store.record_execution(record)
    store._append_history("node", identity_for(b"unrecorded").value.hex)
    assert store.latest_record_for_node("node") == record


# -- crash leftovers: temp files and torn history lines -------------------------

def _four_records(root):
    store = FileStore(root)
    for i in range(4):
        store.record_execution(record_for(store, bytes([i]), b"content-%d" % i))
    return store


def test_reopen_skips_partial_and_complete_ledger_temp_files(tmp_path):
    root = tmp_path / "store"
    store = _four_records(root)
    record = next(store.records())
    executions = root / "executions"
    partial = executions / f"{record.identity.value.hex}{TEMP_MARK}123.456"
    partial.write_bytes(record_bytes(record)[:40])
    complete = executions / f"{'ab' * 32}{TEMP_MARK}123.789"
    complete.write_bytes(record_bytes(record))
    assert len(list(FileStore(root).records())) == 4


def test_artifact_count_skips_shard_temp_files(tmp_path):
    store = _four_records(tmp_path / "store")
    assert store.artifact_count() == 4
    hex_id = next(store.records()).canonical_artifact.hex
    shard = store.root / "objects" / hex_id[:2]
    (shard / f"{hex_id[2:]}{TEMP_MARK}1.2").write_bytes(b"par")
    (shard / f"{hex_id[2:]}.json{TEMP_MARK}1.2").write_bytes(b"{")
    assert store.artifact_count() == 4


def test_undecodable_ledger_entry_fails_reopen_with_its_name(tmp_path):
    root = tmp_path / "store"
    _four_records(root)
    (root / "executions" / ("cd" * 32)).write_bytes(b'{"node_id": ')
    with pytest.raises(StorageError, match="cd" * 32):
        FileStore(root)


def test_ledger_entry_under_another_name_fails_reopen(tmp_path):
    root = tmp_path / "store"
    graph = WorkflowGraph([source_node("a"), source_node("b")], [])
    workspace = dataclasses.replace(workspace_for(graph), store=FileStore(root))
    report = run(workspace, FULL)
    a, b = (report.decision_for(n).identity.value.hex for n in ("a", "b"))
    executions = root / "executions"
    (executions / b).write_bytes((executions / a).read_bytes())
    with pytest.raises(IntegrityError, match=b):
        FileStore(root)


def test_failed_atomic_write_leaves_no_temp_file(tmp_path):
    from dagline.store import _atomic_write

    target = tmp_path / "target"
    (target / "occupied").mkdir(parents=True)  # a rename onto it fails
    with pytest.raises(StorageError):
        _atomic_write(target, b"payload")
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_torn_history_line_is_cut_off_before_the_next_append(tmp_path):
    root = tmp_path / "store"
    store = FileStore(root)
    first = record_for(store, b"first", b"first output")
    store.record_execution(first)
    history_file = root / "nodes" / "node"
    with open(history_file, "a") as fh:
        fh.write(identity_for(b"torn").value.hex[:20])
    reopened = FileStore(root)
    second = record_for(reopened, b"second", b"second output")
    reopened.record_execution(second)
    assert reopened.node_history("node") == [first.identity.value, second.identity.value]
    assert history_file.read_text() == \
        f"{first.identity.value.hex}\n{second.identity.value.hex}\n"
    assert FileStore(root).node_history("node") == reopened.node_history("node")


def test_failed_append_is_mended_by_the_same_handle(tmp_path, monkeypatch):
    import builtins

    import dagline.store

    store = FileStore(tmp_path / "store")
    first = record_for(store, b"first", b"first output")
    store.record_execution(first)
    second = record_for(store, b"second", b"second output")

    def torn_append(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        if mode == "a":  # half the line lands, then the disk fills
            with fh:
                fh.write(second.identity.value.hex[:20])
            raise OSError("injected: no space left on device")
        return fh

    monkeypatch.setattr(dagline.store, "open", torn_append, raising=False)
    with pytest.raises(StorageError, match="injected"):
        store.record_execution(second)
    monkeypatch.undo()
    store.record_execution(second)
    expected = [first.identity.value, second.identity.value]
    assert store.node_history("node") == expected
    assert FileStore(tmp_path / "store").node_history("node") == expected


def test_history_readers_beside_concurrent_writers(store):
    """Writers grow one node's history while readers walk it."""
    records = [record_for(store, b"stress-%d" % i, b"out-%d" % i) for i in range(200)]
    errors = []

    def write(part: list) -> None:
        try:
            for record in part:
                store.record_execution(record)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def read() -> None:
        try:
            for record in records:
                store.prior_record("node", record.identity)
                store.node_history("node")
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(records[i::4],)) for i in range(4)]
        threads += [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(store.node_history("node")) == len(records)


def _entry_with_preds(root):
    """A FileStore at ``root`` holding one entry whose identity has a predecessor."""
    store = FileStore(root)
    identity = compute_execution_identity(
        hash_content(b"spec:preds"), hash_content(b"input:preds"), {"up": hash_content(b"up")}
    )
    artifact = store.put_artifact(b"preds output", "text", "node", identity)
    store.record_execution(ExecutionRecord(
        identity=identity, node_id="node", canonical_artifact=artifact,
        candidate_artifacts=(artifact,),
        input_surface={"up": InputRef("dependency", hash_content(b"up"))},
    ))
    return root / "executions" / identity.value.hex


def _set_field(*path):
    def fault(doc, value):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return fault


_NOT_HEX, _SHORT = "zz" * 32, "ab" * 31
_HASH_FIELDS = {
    "canonical_artifact": _set_field("canonical_artifact"),
    "candidate_artifacts": _set_field("candidate_artifacts", 0),
    "input_surface": _set_field("input_surface", "up", "hash"),
}


@pytest.mark.parametrize("fault, error", [
    ("truncated", StorageError),
    ("no canonical_artifact", StorageError),
    *[(f"{how} {name}", StorageError) for name in _HASH_FIELDS for how in ("non-hex", "31-byte")],
    ("forged preds", IntegrityError),
])
def test_faulty_ledger_entry_fails_reopen(tmp_path, fault, error):
    path = _entry_with_preds(tmp_path / "store")
    raw = path.read_bytes()
    doc = json.loads(raw)
    if fault == "truncated":
        raw = raw[: len(raw) // 2]
    else:
        if fault == "no canonical_artifact":
            del doc["canonical_artifact"]
        elif fault == "forged preds":
            doc["identity"]["preds"]["up"] = hash_content(b"forged up").hex
        else:
            how, name = fault.split(" ")
            _HASH_FIELDS[name](doc, _NOT_HEX if how == "non-hex" else _SHORT)
        raw = json.dumps(doc).encode()
    path.write_bytes(raw)
    with pytest.raises(error):
        FileStore(tmp_path / "store")


def test_reopened_store_answers_as_the_writing_handle(tmp_path):
    from dagline.graph import CONTEXT_EDIT, EditEvent
    from dagline.runtime import REPLAY, apply_edit

    from test_scheduler import lattice_graph

    root = tmp_path / "store"
    writer = FileStore(root)
    workspace = dataclasses.replace(workspace_for(lattice_graph(8, 10)), store=writer)
    run(workspace, FULL)
    for source in ("c1-l0", "c5-l0"):
        edit = EditEvent(CONTEXT_EDIT, source, b"revised " + source.encode(), port="raw")
        workspace, _ = apply_edit(workspace, edit)
        run(workspace, REPLAY)
    records = list(writer.records())
    assert len(records) > 80
    # Each query is the first to build the records it returns on its own handle.
    reopened = FileStore(root)
    for record in records:
        assert reopened.prior_record(record.node_id, record.identity) == \
            writer.prior_record(record.node_id, record.identity)
    for node_id in workspace.graph.nodes:
        assert reopened.prior_record(node_id) == writer.prior_record(node_id)
    reopened = FileStore(root)
    for record in records:
        assert reopened.lookup_by_identity(record.identity) == record
    assert list(FileStore(root).records()) == records


class TestReopenScale:
    """Reopen is counted, not timed: Python calls per ledger entry."""

    @pytest.mark.parametrize("width, depth", [(10, 10), (20, 20)])
    def test_reopen_makes_a_bounded_number_of_calls_per_entry(self, tmp_path, width, depth):
        import cProfile
        import pstats

        from test_scheduler import lattice_graph

        root = tmp_path / "store"
        graph = lattice_graph(width, depth)
        run(dataclasses.replace(workspace_for(graph), store=FileStore(root)), FULL)
        entries = width * depth
        profile = cProfile.Profile()
        store = profile.runcall(FileStore, root)
        assert pstats.Stats(profile).total_calls <= 47 * entries
        assert len(list(store.records())) == entries


class TestRunPathScale:
    """A warm replay is counted, not timed: Python calls per node of a 20x20 lattice."""

    @pytest.mark.parametrize("backend, bound", [("memory", 70), ("file", 125)])
    def test_replay_makes_a_bounded_number_of_calls_per_node(self, tmp_path, backend, bound):
        import cProfile
        import pstats

        from test_scheduler import lattice_graph

        graph = lattice_graph(20, 20)
        workspace = workspace_for(graph)
        if backend == "file":
            workspace = dataclasses.replace(workspace, store=FileStore(tmp_path / "store"))
        run(workspace, FULL)
        if backend == "file":  # the replay reads every hit's entry from disk
            workspace = dataclasses.replace(workspace, store=FileStore(tmp_path / "store"))
        profile = cProfile.Profile()
        report = profile.runcall(run, workspace)
        assert pstats.Stats(profile).total_calls <= bound * len(graph.nodes)
        assert {d.action for d in report.decisions} == {REPLAYED}


def test_lost_sidecar_is_rewritten_by_the_next_put(tmp_path):
    from conftest import chain_workspace

    store = FileStore(tmp_path / "store")
    workspace = dataclasses.replace(chain_workspace(), store=store)
    artifact_id = run(workspace, FULL).final_artifacts["retrieval"]
    hex_id = artifact_id.hex
    (tmp_path / "store" / "objects" / hex_id[:2] / f"{hex_id[2:]}.json").unlink()
    run(workspace, FULL)
    assert store.get_artifact(artifact_id).producer == "retrieval"


ESCAPING_NODE_ID = "../../victim"  # from <store>/nodes, the store's parent directory


@pytest.mark.parametrize(
    "call", ["node_history", "prior_record", "latest_record_for_node", "record_execution"]
)
def test_node_id_outside_the_store_is_refused_before_any_file(tmp_path, call):
    victim = tmp_path / "victim"
    victim.write_bytes(b"kept line\ntorn tail")  # a history load would cut the tail
    store = FileStore(tmp_path / "store")
    if call == "record_execution":
        record = record_for(store, b"escape", b"escape output")
        args = (dataclasses.replace(record, node_id=ESCAPING_NODE_ID),)
    else:
        args = (ESCAPING_NODE_ID,)
    with pytest.raises(StorageError, match="invalid node id"):
        getattr(store, call)(*args)
    assert victim.read_bytes() == b"kept line\ntorn tail"
