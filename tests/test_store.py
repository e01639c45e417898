"""Store semantics: content addressing, ledger discipline, persistence."""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from dagline.errors import ArtifactNotFoundError, IdentityConflictError, IntegrityError
from dagline.identity import compute_execution_identity, hash_content
from dagline.store import (
    ExecutionRecord,
    ExecutionStats,
    FileStore,
    InputRef,
    MemoryStore,
    record_bytes,
    record_from_doc,
)

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
    assert store.verify_artifact(artifact_id) is None
    with pytest.raises(ArtifactNotFoundError):
        store.verify_artifact(hash_content(b"never stored"))


def test_verify_artifact_rejects_changed_bytes(store):
    artifact_id = store.put_artifact(b"original", "text", "n", None)
    if isinstance(store, MemoryStore):
        _, meta = store._objects[artifact_id.hex]
        store._objects[artifact_id.hex] = (b"changed", meta)
    else:
        store._object_path(artifact_id.hex).write_bytes(b"changed")
    with pytest.raises(IntegrityError):
        store.verify_artifact(artifact_id)
