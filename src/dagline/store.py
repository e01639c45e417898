"""Content-addressed artifact storage and the execution ledger.

Artifacts are stored under the SHA-256 of their bytes, so identical content
occupies one slot and re-publication is free. Executions are recorded in a
ledger keyed by execution identity; a second, *different* record under the
same identity is rejected as a determinism violation.

Two backends share the same semantics: ``FileStore`` persists to a directory
(``objects/``, ``executions/``, ``runs/``, ``nodes/``) and ``MemoryStore``
keeps everything in dicts for tests and experiments. ``BaseStore`` holds the
two indexes, the ledger (identity hex to ``ExecutionRecord``) and the node
histories (node id to an insertion-ordered dict of the identity hexes
recorded for it; an identity appended twice keeps its first position), and
passes artifact metadata as values (``produced_under`` is an
``ExecutionIdentity``); only ``FileStore`` encodes and decodes the
docs/FORMATS.md documents, the ledger entry and the artifact sidecar, and
reads and appends the history files. Writes are serialized by an internal
lock; concurrent identical writes are idempotent.

A handle loads the ledger at open and a node's history on its first use,
then extends both with its own writes; another handle's writes become
visible after a reopen. A FileStore checks every ledger entry at open
(``check_entry``: one SHA-256 of the identity document, built from the
hex strings of its parts, and a shape check of every other hash) and keeps
the entry's bytes; ``BaseStore._record`` builds its ``ExecutionRecord``
(``record_from_doc``, which checks nothing again) on its first lookup and
keeps the record in the bytes' place. The records one handle builds share
their ``ContentHash`` objects. A new record is appended to its node's history
before its ledger entry is written, so a failure between the two leaves a
history entry with no record, which every reader skips, and never a record
that no history names. ``prior_record`` is the one walk over a history: the
nearest entry before an identity that has a record.

``read_artifact`` is the one checked read of stored bytes: it reads the
object and rehashes it against the artifact id, and reads no sidecar. A run
reads every replay hit and every dependency input through it.
``get_artifact``, for provenance readers, adds the metadata from the sidecar
and checks the ``produced_under`` identity it holds against its parts.

Node ids and run ids become file names, so ``unsafe_name`` is the one rule
for both: an empty name, ``.``, ``..``, or one holding ``/`` or NUL.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Mapping

from dagline.errors import (
    ArtifactNotFoundError,
    IdentityConflictError,
    IntegrityError,
    StorageError,
)
from dagline.identity import (
    DIGEST_SIZE,
    ContentHash,
    ExecutionIdentity,
    canonical_json_bytes,
    hash_content,
    identity_from_doc,
    identity_to_doc,
    unchecked,
    verified_value_hex,
)

DEPENDENCY_INPUT = "dependency"
CONTEXT_INPUT = "context"

# ``_atomic_write`` writes ``<name>.tmp<pid>.<thread>`` and renames it into
# place; listings skip any name that carries this mark.
TEMP_MARK = ".tmp"


def unsafe_name(name: str) -> bool:
    """Whether ``name`` cannot be one file name inside a store directory."""
    return name in ("", ".", "..") or "/" in name or "\0" in name


def check_run_id(run_id: str) -> str:
    """``run_id`` itself, or ``StorageError`` if it cannot name a run directory."""
    if unsafe_name(run_id):
        raise StorageError(
            f"invalid run id {run_id!r}: empty, '.', '..', or holds '/' or NUL"
        )
    return run_id


@dataclass(frozen=True, slots=True)
class ExecutionStats:
    """Work done by one execution; character counts are the token analog."""

    input_chars: int = 0
    output_chars: int = 0
    synthesis_calls: int = 0
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if min(self.input_chars, self.output_chars, self.synthesis_calls) < 0:
            raise ValueError("stats counts must be non-negative")
        if self.elapsed < 0:
            raise ValueError("elapsed must be non-negative")

    def __add__(self, other: ExecutionStats) -> ExecutionStats:
        return ExecutionStats(
            input_chars=self.input_chars + other.input_chars,
            output_chars=self.output_chars + other.output_chars,
            synthesis_calls=self.synthesis_calls + other.synthesis_calls,
            elapsed=self.elapsed + other.elapsed,
        )


def stats_to_doc(stats: ExecutionStats) -> dict:
    """The stats document shared by ledger entries (``stats``) and reports (``totals``)."""
    return {
        "elapsed": stats.elapsed,
        "input_chars": stats.input_chars,
        "output_chars": stats.output_chars,
        "synthesis_calls": stats.synthesis_calls,
    }


def stats_from_doc(doc: Mapping[str, object]) -> ExecutionStats:
    return ExecutionStats(
        input_chars=doc["input_chars"],
        output_chars=doc["output_chars"],
        synthesis_calls=doc["synthesis_calls"],
        elapsed=doc["elapsed"],
    )


@dataclass(frozen=True, slots=True)
class ArtifactRecord:
    """A published artifact as ``get_artifact`` returns it, with its provenance."""

    artifact_id: ContentHash
    content: bytes
    content_type: str
    producer: str
    produced_under: ExecutionIdentity | None
    created_at: float = 0.0  # informational only; never hashed


@dataclass(frozen=True, slots=True)
class InputRef:
    """One entry of an execution's resolved input surface."""

    kind: str  # dependency | context
    hash: ContentHash


@dataclass(frozen=True, slots=True)
class ExecutionRecord:
    """The ledger entry for one node execution."""

    identity: ExecutionIdentity
    node_id: str
    canonical_artifact: ContentHash
    candidate_artifacts: tuple[ContentHash, ...] = ()
    input_surface: Mapping[str, InputRef] = field(default_factory=dict)
    stats: ExecutionStats = ExecutionStats()

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidate_artifacts", tuple(self.candidate_artifacts))
        object.__setattr__(self, "input_surface", dict(self.input_surface))


_INPUT_KINDS = frozenset((DEPENDENCY_INPUT, CONTEXT_INPUT))


def check_entry(doc: dict) -> str:
    """The identity hex of a parsed ledger entry, checked so ``record_from_doc`` can trust it.

    The identity value is recomputed from the hex strings of its parts;
    ``IntegrityError`` if it does not verify. ``KeyError``, ``TypeError`` or
    ``ValueError`` if a field is missing, a hash is not the lowercase hex of
    a 32-byte digest, an input kind is unknown or a stats count is negative.
    """
    identity, surface, stats = doc["identity"], doc["input_surface"].values(), doc["stats"]
    hexes = [
        identity["spec"], identity["inputs"], *identity["preds"].values(),
        doc["canonical_artifact"], *doc["candidate_artifacts"], *[ref["hash"] for ref in surface],
    ]
    joined = "".join(hexes)
    if set(map(len, hexes)) != {2 * DIGEST_SIZE} or bytes.fromhex(joined).hex() != joined:
        raise ValueError("a hash is not the lowercase hex of a 32-byte digest")
    if not isinstance(doc["node_id"], str):
        raise TypeError("node_id is not a string")
    if not {ref["kind"] for ref in surface} <= _INPUT_KINDS:
        raise ValueError("an input kind is neither dependency nor context")
    if min(stats["input_chars"], stats["output_chars"], stats["synthesis_calls"]) < 0 \
            or stats["elapsed"] < 0:
        raise ValueError("stats counts must be non-negative")
    return verified_value_hex(identity)


# A ContentHash built from a checked hex string, without its constructor's
# two Python frames: about a third of the time, and hashes dominate a decode.
_new_object = object.__new__
_set_digest = ContentHash.digest.__set__


def record_from_doc(doc: dict, hashes: dict[str, ContentHash] | None = None) -> ExecutionRecord:
    """Decode a ledger entry that ``check_entry`` passed; nothing is checked or hashed again.

    ``hashes`` maps a hex string to the ContentHash already built for it and
    gains the entry's new ones, so the entries one store decodes share their
    hashes: a predecessor is an upstream entry's identity, and a dependency
    input its artifact.
    """
    hashes = {} if hashes is None else hashes

    def content_hash(hex_text: str) -> ContentHash:
        found = hashes.get(hex_text)
        if found is None:
            found = hashes[hex_text] = _new_object(ContentHash)
            _set_digest(found, bytes.fromhex(hex_text))
        return found

    identity, stats = doc["identity"], doc["stats"]
    return unchecked(
        ExecutionRecord,
        unchecked(
            ExecutionIdentity,
            content_hash(identity["value"]),
            content_hash(identity["spec"]),
            content_hash(identity["inputs"]),
            {port: content_hash(h) for port, h in identity["preds"].items()},
        ),
        doc["node_id"],
        content_hash(doc["canonical_artifact"]),
        tuple(map(content_hash, doc["candidate_artifacts"])),
        {
            port: InputRef(ref["kind"], content_hash(ref["hash"]))
            for port, ref in doc["input_surface"].items()
        },
        unchecked(
            ExecutionStats,
            stats["input_chars"], stats["output_chars"], stats["synthesis_calls"],
            stats["elapsed"],
        ),
    )


def record_bytes(record: ExecutionRecord) -> bytes:
    """Canonical ledger-entry encoding; parse + re-serialize is bit-exact."""
    doc = {
        "canonical_artifact": record.canonical_artifact.hex,
        "candidate_artifacts": [c.hex for c in record.candidate_artifacts],
        "identity": identity_to_doc(record.identity),
        "input_surface": {
            port: {"hash": ref.hash.hex, "kind": ref.kind}
            for port, ref in record.input_surface.items()
        },
        "node_id": record.node_id,
        "stats": stats_to_doc(record.stats),
    }
    return canonical_json_bytes(doc) + b"\n"


class BaseStore:
    """Semantics shared by both backends; subclasses provide the primitives.

    The ledger index ``_records`` and the histories ``_histories`` live here
    for both backends. A ledger value is an ``ExecutionRecord`` or, in a
    FileStore, the raw bytes of an entry checked at open; ``_record`` is the
    one reader of the index, and turns kept bytes into a record on first use.
    Artifact metadata travels as ``{"content_type", "created_at", "producer",
    "produced_under"}`` with the identity object (or ``None``) as its value.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, ExecutionRecord | bytes] = {}
        self._histories: dict[str, dict[str, None]] = {}

    # -- primitives supplied by subclasses ---------------------------------
    def _has_object(self, hex_id: str) -> bool:
        raise NotImplementedError

    def _write_object(self, hex_id: str, content: bytes, meta: dict) -> None:
        raise NotImplementedError

    def _has_meta(self, hex_id: str) -> bool:
        """Whether a stored object's metadata is stored too."""
        raise NotImplementedError

    def _write_meta(self, hex_id: str, meta: dict) -> None:
        raise NotImplementedError

    def _read_bytes(self, hex_id: str) -> bytes:
        """The object's bytes alone; ``ArtifactNotFoundError`` if absent."""
        raise NotImplementedError

    def _read_meta(self, hex_id: str) -> dict:
        """The metadata of an object whose bytes ``_read_bytes`` has read."""
        raise NotImplementedError

    def _object_ids(self) -> list[str]:
        raise NotImplementedError

    def _put_record(self, hex_identity: str, record: ExecutionRecord) -> None:
        self._records[hex_identity] = record

    def _decode_record(self, raw: bytes) -> ExecutionRecord:
        """The record of a ledger entry's bytes, kept by open after checking them."""
        raise NotImplementedError

    def _record(self, hex_identity: str) -> ExecutionRecord | None:
        entry = self._records.get(hex_identity)
        if entry.__class__ is bytes:
            entry = self._records[hex_identity] = self._decode_record(entry)
        return entry

    def _load_history(self, node_id: str) -> dict[str, None]:
        return {}

    def _append_history(self, node_id: str, hex_identity: str) -> None:
        self._history(node_id).setdefault(hex_identity)

    def _history(self, node_id: str) -> dict[str, None]:
        if node_id not in self._histories:
            self._histories[node_id] = self._load_history(node_id)
        return self._histories[node_id]

    def _write_report(self, run_id: str, payload: bytes) -> None:
        raise NotImplementedError

    def _read_report(self, run_id: str) -> bytes:
        raise NotImplementedError

    def _run_ids(self) -> list[str]:
        raise NotImplementedError

    # -- public API ---------------------------------------------------------
    def put_artifact(
        self,
        content: bytes,
        content_type: str,
        producer: str,
        produced_under: ExecutionIdentity | None,
    ) -> ContentHash:
        """Persist bytes at their content hash; idempotent for identical content.

        Stored bytes whose metadata is missing get it written again; only a
        put of bytes already stored pays to look for it.
        """
        artifact_id = hash_content(content)
        hex_id = artifact_id.hex
        with self._lock:
            exists = self._has_object(hex_id)
            if not exists or not self._has_meta(hex_id):
                meta = {
                    "content_type": content_type,
                    "created_at": time.time(),
                    "producer": producer,
                    "produced_under": produced_under,
                }
                if exists:  # the metadata was lost after the bytes were written
                    self._write_meta(hex_id, meta)
                else:
                    self._write_object(hex_id, content, meta)
        return artifact_id

    def read_artifact(self, artifact_id: ContentHash) -> bytes:
        """The stored bytes, checked against ``artifact_id``; metadata is not read.

        Raises ``ArtifactNotFoundError`` if the object is absent and
        ``IntegrityError`` if its bytes do not match.
        """
        content = self._read_bytes(artifact_id.hex)
        if hash_content(content).digest != artifact_id.digest:
            raise IntegrityError(
                f"artifact id {artifact_id.hex[:12]} does not match content hash"
            )
        return content

    def get_artifact(self, artifact_id: ContentHash) -> ArtifactRecord:
        """The checked bytes plus their metadata, for provenance readers."""
        content = self.read_artifact(artifact_id)
        meta = self._read_meta(artifact_id.hex)
        return ArtifactRecord(artifact_id=artifact_id, content=content, **meta)

    def has_artifact(self, artifact_id: ContentHash) -> bool:
        return self._has_object(artifact_id.hex)

    def artifact_count(self) -> int:
        return len(self._object_ids())

    def record_execution(self, record: ExecutionRecord) -> None:
        """Write a ledger entry; rejects a different record under a known identity.

        Identical re-records are accepted and keep the original entry (volatile
        stats such as elapsed are not part of the determinism comparison). A
        new record enters its node's history before the ledger.
        """
        artifacts = dict.fromkeys((record.canonical_artifact, *record.candidate_artifacts))
        for artifact in artifacts:
            if not self._has_object(artifact.hex):
                raise ArtifactNotFoundError(
                    f"record for node {record.node_id!r} references missing "
                    f"artifact {artifact.hex[:12]}"
                )
        hex_identity = record.identity.value.hex
        with self._lock:
            existing = self._record(hex_identity)
            if existing is not None:
                if replace(existing, stats=record.stats) != record:
                    raise IdentityConflictError(
                        f"identity {hex_identity[:12]} already recorded with a "
                        f"different result for node {record.node_id!r}; "
                        "this indicates a non-deterministic executor"
                    )
                return
            self._append_history(record.node_id, hex_identity)
            self._put_record(hex_identity, record)

    def lookup_by_identity(
        self, identity: ExecutionIdentity | ContentHash
    ) -> ExecutionRecord | None:
        value = identity.value if isinstance(identity, ExecutionIdentity) else identity
        return self._record(value.hex)

    def records(self) -> Iterator[ExecutionRecord]:
        """All ledger entries, ordered by identity hex for determinism."""
        for hex_identity in sorted(self._records):
            yield self._record(hex_identity)

    def node_history(self, node_id: str) -> list[ContentHash]:
        """Identities recorded for a node, oldest first, each once."""
        with self._lock:
            return [ContentHash.from_hex(h) for h in self._history(node_id)]

    def latest_record_for_node(self, node_id: str) -> ExecutionRecord | None:
        """The node's newest history entry that has a ledger record."""
        return self.prior_record(node_id)

    def prior_record(
        self, node_id: str, identity: ExecutionIdentity | None = None
    ) -> ExecutionRecord | None:
        """The nearest history entry before ``identity`` that has a ledger record.

        An identity not in the history, as in a run deciding a miss, or none
        searches the whole history; so a run's miss reason and a later
        explanation of that run read the same prior record.
        """
        with self._lock:
            history = self._history(node_id)
            entries = reversed(history)
            if identity is not None and identity.value.hex in history:
                for hex_identity in entries:
                    if hex_identity == identity.value.hex:
                        break
            for hex_identity in entries:
                record = self._record(hex_identity)
                if record is not None:
                    return record
            return None

    def records_for_artifact(self, artifact_id: ContentHash) -> list[ExecutionRecord]:
        """The entries with canonical artifact ``artifact_id``, in ``records`` order."""
        matches = sorted(
            h for h in self._records if self._record(h).canonical_artifact == artifact_id
        )
        return [self._records[h] for h in matches]

    def put_run_report(self, run_id: str, payload: dict) -> None:
        self._write_report(check_run_id(run_id), canonical_json_bytes(payload) + b"\n")

    def get_run_report(self, run_id: str) -> dict:
        return json.loads(self._read_report(check_run_id(run_id)))

    def list_runs(self) -> list[str]:
        return sorted(self._run_ids())


class MemoryStore(BaseStore):
    """Dict-backed store; same contract as FileStore, no persistence."""

    def __init__(self) -> None:
        super().__init__()
        self._objects: dict[str, tuple[bytes, dict]] = {}
        self._reports: dict[str, bytes] = {}

    def _has_object(self, hex_id: str) -> bool:
        return hex_id in self._objects

    def _write_object(self, hex_id: str, content: bytes, meta: dict) -> None:
        self._objects[hex_id] = (content, meta)

    def _has_meta(self, hex_id: str) -> bool:
        return True  # an object is stored with its metadata, in one value

    def _read_bytes(self, hex_id: str) -> bytes:
        try:
            return self._objects[hex_id][0]
        except KeyError:
            raise ArtifactNotFoundError(f"no artifact {hex_id}") from None

    def _read_meta(self, hex_id: str) -> dict:
        return self._objects[hex_id][1]

    def _object_ids(self) -> list[str]:
        return list(self._objects)

    def _write_report(self, run_id: str, payload: bytes) -> None:
        self._reports[run_id] = payload

    def _read_report(self, run_id: str) -> bytes:
        try:
            return self._reports[run_id]
        except KeyError:
            raise StorageError(f"no run report {run_id!r}") from None

    def _run_ids(self) -> list[str]:
        return list(self._reports)


class FileStore(BaseStore):
    """Directory-backed store.

    Layout:
        objects/<2 hex>/<62 hex>        raw artifact bytes
        objects/<2 hex>/<62 hex>.json   artifact metadata (type, provenance)
        executions/<identity hex>       one canonical-JSON ledger entry
        nodes/<node id>                 newline-separated identity history
        runs/<run id>/report            canonical-JSON run report

    The ledger is append-only. On open every entry is read and checked
    (``check_entry``): its identity value is recomputed from the hex strings
    of its parts and compared with the stored value and the file name, and
    every other hash must be the lowercase hex of a digest, so a bad entry
    fails the open, not a later lookup. The entry's bytes go into
    BaseStore's index, and its ``ExecutionRecord`` is built when it is first
    looked up, so a fresh handle sees exactly what was recorded. A node's
    history file is read once per handle, on the node's first use, and a torn last line left by
    an interrupted append is cut off then. Leftover temp files are never
    read as entries or objects, and a run without its report is not listed.
    This class alone encodes and decodes the ledger entries and the
    sidecars; the rest of the store sees values. Paths on the run path are
    joined as strings from the directories fixed at open, and a handle
    creates each object shard directory at most once.
    """

    def __init__(self, root: str | Path) -> None:
        super().__init__()
        self.root = Path(root)
        for sub in ("objects", "executions", "nodes", "runs"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        base = os.fspath(self.root)
        self._objects_dir = os.path.join(base, "objects")
        self._executions_dir = os.path.join(base, "executions")
        self._nodes_dir = os.path.join(base, "nodes")
        self._shards: set[str] = set()  # object shard directories known to exist
        self._hashes: dict[str, ContentHash] = {}  # shared by the records it decodes
        with os.scandir(self._executions_dir) as entries:
            ledger = sorted([
                (e.name, e.path) for e in entries
                if e.is_file() and TEMP_MARK not in e.name
            ])
        for name, path in ledger:
            with open(path, "rb") as fh:
                raw = fh.read()
            try:
                hex_identity = check_entry(json.loads(raw.decode()))
            except (ValueError, KeyError, TypeError) as exc:
                raise StorageError(f"unreadable ledger entry {name}: {exc!r}") from exc
            if hex_identity != name:
                raise IntegrityError(f"ledger entry {name} holds identity {hex_identity}")
            self._records[name] = raw

    def _object_file(self, hex_id: str) -> str:
        return f"{self._objects_dir}/{hex_id[:2]}/{hex_id[2:]}"

    def _object_path(self, hex_id: str) -> Path:
        return Path(self._object_file(hex_id))

    def _has_object(self, hex_id: str) -> bool:
        return os.path.exists(self._object_file(hex_id))

    def _write_object(self, hex_id: str, content: bytes, meta: dict) -> None:
        shard = hex_id[:2]
        if shard not in self._shards:
            os.makedirs(f"{self._objects_dir}/{shard}", exist_ok=True)
            self._shards.add(shard)
        # The sidecar goes first: ``_has_object`` checks only the bytes, so a
        # failure between the two writes leaves an object put_artifact rewrites.
        self._write_meta(hex_id, meta)
        _atomic_write(self._object_file(hex_id), content)

    def _has_meta(self, hex_id: str) -> bool:
        return os.path.exists(self._object_file(hex_id) + ".json")

    def _write_meta(self, hex_id: str, meta: dict) -> None:
        identity = meta["produced_under"]
        sidecar = dict(
            meta, produced_under=None if identity is None else identity_to_doc(identity)
        )
        _atomic_write(self._object_file(hex_id) + ".json", canonical_json_bytes(sidecar) + b"\n")

    def _read_bytes(self, hex_id: str) -> bytes:
        try:
            with open(self._object_file(hex_id), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise ArtifactNotFoundError(f"no artifact {hex_id}") from None
        except OSError as exc:
            raise StorageError(f"cannot read artifact {hex_id[:12]}: {exc}") from exc

    def _read_meta(self, hex_id: str) -> dict:
        try:
            with open(self._object_file(hex_id) + ".json", "rb") as fh:
                meta = json.loads(fh.read())
        except OSError as exc:
            raise StorageError(f"cannot read artifact {hex_id[:12]}: {exc}") from exc
        doc = meta["produced_under"]
        meta["produced_under"] = None if doc is None else identity_from_doc(doc)
        return meta

    def _object_ids(self) -> list[str]:
        ids = []
        for shard in (self.root / "objects").iterdir():
            if not shard.is_dir():
                continue
            for path in shard.iterdir():
                if not path.name.endswith(".json") and TEMP_MARK not in path.name:
                    ids.append(shard.name + path.name)
        return ids

    def _put_record(self, hex_identity: str, record: ExecutionRecord) -> None:
        _atomic_write(f"{self._executions_dir}/{hex_identity}", record_bytes(record))
        super()._put_record(hex_identity, record)

    def _decode_record(self, raw: bytes) -> ExecutionRecord:
        return record_from_doc(json.loads(raw.decode()), self._hashes)

    def _load_history(self, node_id: str) -> dict[str, None]:
        path = f"{self._nodes_dir}/{node_id}"
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            end = raw.rfind(b"\n") + 1
            if end < len(raw):  # a torn last line; the ledger never names it
                os.truncate(path, end)
        except FileNotFoundError:
            return {}
        except OSError as exc:
            raise StorageError(f"cannot read history of {node_id!r}: {exc}") from exc
        return dict.fromkeys(raw[:end].decode().split())

    def _append_history(self, node_id: str, hex_identity: str) -> None:
        self._history(node_id)  # loaded first, so the line never joins a torn tail
        try:
            with open(f"{self._nodes_dir}/{node_id}", "a", encoding="utf-8") as fh:
                fh.write(hex_identity + "\n")
        except OSError as exc:
            del self._histories[node_id]  # reload, and mend the file, on next use
            raise StorageError(f"cannot append history of {node_id!r}: {exc}") from exc
        super()._append_history(node_id, hex_identity)

    def _write_report(self, run_id: str, payload: bytes) -> None:
        run_dir = self.root / "runs" / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(run_dir / "report", payload)

    def _read_report(self, run_id: str) -> bytes:
        path = self.root / "runs" / run_id / "report"
        try:
            return path.read_bytes()
        except OSError:
            raise StorageError(f"no run report {run_id!r}") from None

    def _run_ids(self) -> list[str]:
        # A run exists once its report does; a crash mid-write leaves only a temp file.
        return [p.name for p in (self.root / "runs").iterdir() if (p / "report").is_file()]


def _atomic_write(path: str | Path, payload: bytes) -> None:
    tmp = f"{path}{TEMP_MARK}{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise StorageError(f"write failed for {path}: {exc}") from exc

