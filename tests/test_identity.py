"""Hashing and execution-identity properties."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dagline.errors import DuplicatePortError
from dagline.graph import ContextBinding, NodeSpec, PortDecl
from dagline.identity import (
    ContentHash,
    _identity_value,
    canonical_bytes,
    canonical_json_bytes,
    compute_execution_identity,
    compute_input_hash,
    hash_content,
    hash_spec,
    trusted_hash,
)

# SHA-256 of b"" and b"abc": published test vectors.
EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# Golden values computed by an independent stdlib-only script:
#   sha256(b"[]") and sha256 of the canonical one-binding triple list
#   [["raw","text",sha256(b"hello")]].
EMPTY_CONTEXT_HASH = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
ONE_BINDING_HASH = "74848bb7da483a25c83d1ddd7b62f959c76ea0f6c5af98152003d0bb20a096eb"


class TestHashContent:
    def test_published_vectors(self):
        assert hash_content(b"").hex == EMPTY_SHA
        assert hash_content(b"abc").hex == ABC_SHA

    def test_all_one_byte_inputs_distinct(self):
        digests = {hash_content(bytes([b])).hex for b in range(256)}
        assert len(digests) == 256

    def test_digest_length_enforced(self):
        with pytest.raises(ValueError):
            ContentHash(b"short")

    def test_every_constructor_gives_one_value_held_as_hex(self):
        raw = bytes.fromhex(ABC_SHA)
        built = [
            hash_content(b"abc"), trusted_hash(ABC_SHA), ContentHash(raw),
            ContentHash.from_hex(ABC_SHA), ContentHash.from_hex(ABC_SHA.upper()),
        ]
        assert ContentHash.__slots__ == ("hex",)
        assert all(h == built[0] and hash(h) == hash(built[0]) for h in built)
        assert {h: i for i, h in enumerate(built)} == {built[0]: len(built) - 1}
        assert all(h.hex == ABC_SHA and str(h) == ABC_SHA and h.digest == raw for h in built)
        assert ContentHash.from_hex(EMPTY_SHA) != built[0]


class TestCanonicalBytes:
    def spec(self, **kwargs) -> NodeSpec:
        base = dict(
            node_id="n", executor_kind="synthesis",
            config={"b": "2", "a": "1"},
            input_ports=(
                PortDecl("p1", "text", "context"),
                PortDecl("p2", "text", "context"),
            ),
            output_type="text",
        )
        base.update(kwargs)
        return NodeSpec(**base)

    def test_config_key_order_normalized(self):
        assert canonical_bytes(self.spec(config={"b": "2", "a": "1"})) == \
            canonical_bytes(self.spec(config={"a": "1", "b": "2"}))

    def test_config_value_matters(self):
        assert canonical_bytes(self.spec()) != canonical_bytes(self.spec(config={"a": "1", "b": "9"}))

    def test_port_order_is_semantic(self):
        swapped = self.spec(input_ports=(
            PortDecl("p2", "text", "context"),
            PortDecl("p1", "text", "context"),
        ))
        assert canonical_bytes(self.spec()) != canonical_bytes(swapped)
        # Round-trip: the encoding preserves the declared list order.
        decoded = json.loads(canonical_bytes(swapped))
        assert [p[0] for p in decoded["inputs"]] == ["p2", "p1"]

    def test_rejects_unencodable_config(self):
        with pytest.raises(TypeError):
            canonical_bytes(self.spec(config={"a": object()}))


class TestInputHash:
    def test_empty_context_golden(self):
        assert compute_input_hash([]).hex == EMPTY_CONTEXT_HASH

    def test_one_binding_golden(self):
        binding = ContextBinding("raw", b"hello", "text")
        assert compute_input_hash([binding]).hex == ONE_BINDING_HASH

    def test_order_invariance(self):
        a = ContextBinding("a", b"one", "text")
        b = ContextBinding("b", b"two", "text")
        assert compute_input_hash([a, b]).hex == compute_input_hash([b, a]).hex

    def test_duplicate_port_rejected(self):
        binding = ContextBinding("a", b"one", "text")
        with pytest.raises(DuplicatePortError):
            compute_input_hash([binding, binding])

    def test_every_byte_flip_changes_hash(self):
        content = bytearray(b"stable content with bytes")
        baseline = compute_input_hash([ContextBinding("p", bytes(content), "text")]).hex
        seen = {baseline}
        for i in range(len(content)):
            flipped = bytearray(content)
            flipped[i] ^= 0xFF
            digest = compute_input_hash([ContextBinding("p", bytes(flipped), "text")]).hex
            assert digest != baseline
            seen.add(digest)
        assert len(seen) == len(content) + 1


def random_components(rng: random.Random):
    spec_hash = hash_content(rng.randbytes(rng.randint(0, 40)))
    input_hash = hash_content(rng.randbytes(rng.randint(0, 40)))
    preds = {
        f"port{i}": hash_content(rng.randbytes(8))
        for i in range(rng.randint(0, 4))
    }
    return spec_hash, input_hash, preds


class TestExecutionIdentity:
    def test_zero_predecessors_depend_only_on_spec_and_input(self):
        s, x = hash_content(b"spec"), hash_content(b"input")
        assert compute_execution_identity(s, x).value.hex == \
            compute_execution_identity(s, x, {}).value.hex

    def test_predecessor_map_order_invariance(self):
        s, x = hash_content(b"spec"), hash_content(b"input")
        h1, h2 = hash_content(b"one"), hash_content(b"two")
        forward = compute_execution_identity(s, x, {"x": h1, "y": h2})
        backward = compute_execution_identity(s, x, {"y": h2, "x": h1})
        assert forward.value.hex == backward.value.hex

    def test_port_binding_is_semantic(self):
        s, x = hash_content(b"spec"), hash_content(b"input")
        h1, h2 = hash_content(b"one"), hash_content(b"two")
        assert compute_execution_identity(s, x, {"x": h1, "y": h2}).value.hex != \
            compute_execution_identity(s, x, {"x": h2, "y": h1}).value.hex

    def test_determinism_over_random_components(self):
        rng = random.Random(11)
        for _ in range(1000):
            s, x, preds = random_components(rng)
            first = compute_execution_identity(s, x, preds)
            again = compute_execution_identity(s, x, dict(reversed(list(preds.items()))))
            assert first.value.hex == again.value.hex
            assert first.verify()

    def test_sensitivity_to_each_component(self):
        rng = random.Random(13)
        for _ in range(300):
            s, x, preds = random_components(rng)
            baseline = compute_execution_identity(s, x, preds).value.hex
            assert compute_execution_identity(hash_content(rng.randbytes(9)), x, preds).value.hex != baseline
            assert compute_execution_identity(s, hash_content(rng.randbytes(9)), preds).value.hex != baseline
            if preds:
                port = sorted(preds)[rng.randrange(len(preds))]
                mutated = dict(preds)
                mutated[port] = hash_content(rng.randbytes(9))
                assert compute_execution_identity(s, x, mutated).value.hex != baseline

    def test_self_verification_rejects_tampering(self):
        s, x = hash_content(b"spec"), hash_content(b"input")
        identity = compute_execution_identity(s, x, {"p": hash_content(b"up")})
        assert identity.verify()
        from dagline.identity import ExecutionIdentity

        with pytest.raises(ValueError):
            ExecutionIdentity(
                value=hash_content(b"forged"),
                spec_hash=s,
                input_hash=x,
                predecessors={"p": hash_content(b"up")},
            )

    @given(
        config=st.dictionaries(
            st.text(min_size=1, max_size=6), st.integers(-5, 5), max_size=4
        ),
        content=st.binary(max_size=32),
    )
    @settings(max_examples=80, deadline=None)
    def test_spec_and_context_changes_always_move_identity(self, config, content):
        spec = NodeSpec("n", "synthesis", config, (PortDecl("c", "text", "context"),), "text")
        binding = ContextBinding("c", content, "text")
        identity = compute_execution_identity(
            hash_spec(spec), compute_input_hash([binding])
        )
        bumped_spec = NodeSpec(
            "n", "synthesis", {**config, "extra": 1},
            (PortDecl("c", "text", "context"),), "text",
        )
        bumped = compute_execution_identity(
            hash_spec(bumped_spec), compute_input_hash([binding])
        )
        assert identity.value.hex != bumped.value.hex
        grown = compute_execution_identity(
            hash_spec(spec),
            compute_input_hash([ContextBinding("c", content + b"!", "text")]),
        )
        assert identity.value.hex != grown.value.hex


_hashes = st.binary(min_size=32, max_size=32).map(ContentHash)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(spec=_hashes, inputs=_hashes, preds=st.dictionaries(st.text(), _hashes, max_size=4))
@example(
    spec=ContentHash(bytes(32)), inputs=ContentHash(bytes(32)),
    preds={"é": ContentHash(bytes(32)), '"q"': ContentHash(bytes(32)),
           "\x01\\": ContentHash(bytes(32)), "": ContentHash(bytes(32))},
)
def test_identity_value_is_the_canonical_json_document(spec, inputs, preds):
    doc = {
        "inputs": inputs.hex,
        "preds": {port: h.hex for port, h in preds.items()},
        "spec": spec.hex,
    }
    assert _identity_value(spec, inputs, preds) == hash_content(canonical_json_bytes(doc))
