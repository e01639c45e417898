"""Content hashes and execution identities.

An execution identity binds together everything a node's result can depend
on: its structural spec, its resolved context inputs, and the identities of
its predecessors. Two executions share an identity exactly when nothing
observable to the node differs, which is what makes replay a proof of
equivalence rather than a similarity heuristic.

Canonical encoding (the on-disk compatibility contract, see docs/FORMATS.md):
every hashed structure is rendered as compact JSON with lexicographically
sorted object keys, separators ``(",", ":")``, non-ASCII preserved, encoded
as UTF-8. Lists keep their declared order only where order is semantic
(a node's input ports); everything map-like is sorted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _json_string
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from dagline.errors import DuplicatePortError, IntegrityError

if TYPE_CHECKING:
    from dagline.graph import ContextBinding, NodeSpec

DIGEST_SIZE = 32


def canonical_json_bytes(value: Any) -> bytes:
    """Encode a JSON-compatible value canonically (sorted keys, compact, UTF-8)."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


@dataclass(frozen=True, slots=True)
class ContentHash:
    """A SHA-256 digest rendered lowercase-hex wherever it leaves the process."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != DIGEST_SIZE:
            raise ValueError(
                f"digest must be exactly {DIGEST_SIZE} bytes, got {len(self.digest)}"
            )

    @property
    def hex(self) -> str:
        return self.digest.hex()

    @classmethod
    def from_hex(cls, text: str) -> ContentHash:
        return cls(bytes.fromhex(text))

    def __str__(self) -> str:
        return self.hex


def hash_content(content: bytes) -> ContentHash:
    """Hash raw bytes. The empty input yields the standard SHA-256 empty digest."""
    return ContentHash(hashlib.sha256(content).digest())


def canonical_bytes(spec: NodeSpec) -> bytes:
    """Canonical byte encoding of a node's structural spec.

    Config keys are sorted; the input-port list keeps its declared order
    because port order is part of the structure. Field-wise equal specs
    produce identical bytes regardless of how they were constructed.
    """
    doc = {
        "config": _plain(spec.config),
        "executor": spec.executor_kind,
        "id": spec.node_id,
        "inputs": [[p.name, p.artifact_type, p.source] for p in spec.input_ports],
        "output_type": spec.output_type,
    }
    return canonical_json_bytes(doc)


def hash_spec(spec: NodeSpec) -> ContentHash:
    return hash_content(canonical_bytes(spec))


_EMPTY_INPUT_HASH = hash_content(canonical_json_bytes([]))


def compute_input_hash(context: Iterable[ContextBinding]) -> ContentHash:
    """Hash a node's resolved context surface.

    Bindings are reduced to ``(port, content-type, content-hash)`` triples and
    sorted by port name, so the result is independent of supply order. Hashing
    per-binding content hashes (not concatenated raw bytes) keeps boundaries
    unambiguous; each binding hashed its bytes when it was made. The empty
    surface, ``[]``, is hashed once at import.
    """
    triples: list[list[str]] = []
    seen: set[str] = set()
    for binding in context:
        if binding.port in seen:
            raise DuplicatePortError(f"duplicate context port {binding.port!r}")
        seen.add(binding.port)
        triples.append([binding.port, binding.content_type, binding.content_hash.hex])
    if not triples:
        return _EMPTY_INPUT_HASH
    triples.sort(key=lambda t: t[0])
    return hash_content(canonical_json_bytes(triples))


@dataclass(frozen=True, slots=True)
class ExecutionIdentity:
    """The identity of one node execution; self-verifying against its parts.

    ``value`` is the hash of (spec hash, input hash, predecessor contribution
    per port). Predecessors enter as a port-name map rather than a bare set:
    the same upstream results wired to different ports are different inputs.
    """

    value: ContentHash
    spec_hash: ContentHash
    input_hash: ContentHash
    predecessors: Mapping[str, ContentHash] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "predecessors", dict(self.predecessors))
        expected = self._recompute()
        if expected.digest != self.value.digest:
            raise ValueError(
                "execution identity does not verify: "
                f"stored {self.value.hex[:12]}, recomputed {expected.hex[:12]}"
            )

    def verify(self) -> bool:
        return self._recompute().digest == self.value.digest

    def _recompute(self) -> ContentHash:
        preds = {port: h.hex for port, h in self.predecessors.items()}
        return _identity_value(self.spec_hash.hex, self.input_hash.hex, preds)

    def __str__(self) -> str:
        return self.value.hex


def _identity_document(spec: str, inputs: str, preds: Mapping[str, str]) -> bytes:
    """The identity document of the parts' hex strings, written in its canonical form.

    Equal to ``canonical_json_bytes({"inputs": ..., "preds": {...}, "spec":
    ...})``: the keys are already in order, the ports are sorted, and port
    names get the escaping ``json.dumps(ensure_ascii=False)`` applies. This is
    the one writer of the document, for computing and for checking a value.
    """
    body = ",".join([f'{_json_string(port)}:"{preds[port]}"' for port in sorted(preds)])
    return f'{{"inputs":"{inputs}","preds":{{{body}}},"spec":"{spec}"}}'.encode("utf-8")


def _identity_value(spec: str, inputs: str, preds: Mapping[str, str]) -> ContentHash:
    """Hash the identity document of the parts' hex strings."""
    return hash_content(_identity_document(spec, inputs, preds))


def unchecked(cls: type, *values: Any) -> Any:
    """An instance of the frozen, slotted dataclass ``cls`` with ``values`` in field order.

    ``__post_init__`` is skipped, so a caller uses this only for values it
    has already checked or computed itself.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


def compute_execution_identity(
    spec_hash: ContentHash,
    input_hash: ContentHash,
    predecessors: Mapping[str, ContentHash] | None = None,
) -> ExecutionIdentity:
    """Combine the three identity components into a verified ExecutionIdentity.

    The value is computed here from the parts, so the constructor's
    self-verification, which would hash the same document again, is skipped.
    """
    preds = dict(predecessors or {})
    hexes = {port: h.hex for port, h in preds.items()}
    identity = object.__new__(ExecutionIdentity)
    object.__setattr__(identity, "value", _identity_value(spec_hash.hex, input_hash.hex, hexes))
    object.__setattr__(identity, "spec_hash", spec_hash)
    object.__setattr__(identity, "input_hash", input_hash)
    object.__setattr__(identity, "predecessors", preds)
    return identity


def identity_to_doc(identity: ExecutionIdentity) -> dict:
    """The identity's document, as embedded in ledger entries, sidecars and reports."""
    return {
        "inputs": identity.input_hash.hex,
        "preds": {port: h.hex for port, h in identity.predecessors.items()},
        "spec": identity.spec_hash.hex,
        "value": identity.value.hex,
    }


def verified_value_hex(doc: Mapping[str, Any]) -> str:
    """An identity document's ``value``, checked against its parts' hex strings.

    One SHA-256 of the document, and no ContentHash is built; raises
    ``IntegrityError`` if the value does not verify. Whether each hex string
    is a digest is the caller's check.
    """
    parts = _identity_document(doc["spec"], doc["inputs"], doc["preds"])
    value = hashlib.sha256(parts).hexdigest()
    if value != doc["value"]:
        raise IntegrityError(
            "execution identity fails self-verification: "
            f"stored {str(doc['value'])[:12]}, recomputed {value[:12]}"
        )
    return value


def identity_from_doc(doc: Mapping[str, Any]) -> ExecutionIdentity:
    """Decode an identity document, checking its stored value against its parts."""
    spec, inputs = ContentHash.from_hex(doc["spec"]), ContentHash.from_hex(doc["inputs"])
    preds = {p: ContentHash.from_hex(h) for p, h in doc["preds"].items()}
    value = ContentHash.from_hex(verified_value_hex(doc))
    return unchecked(ExecutionIdentity, value, spec, inputs, preds)


def _plain(value: Any) -> Any:
    """Reject config values that would not round-trip through canonical JSON."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"config values must be JSON-compatible, got {type(value).__name__}")
