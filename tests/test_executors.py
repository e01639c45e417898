"""Executor contracts: registry, passthrough, the synthesis transducer."""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dagline.errors import (
    ContractViolationError,
    DuplicateExecutorError,
    ExecutorFailureError,
    UndeclaredInputError,
    UnknownExecutorError,
)
from dagline.executors import (
    MARKER_PATTERN,
    ExecutorRegistry,
    NodeResult,
    ResolvedLocalState,
    config_digest,
    default_registry,
    execute,
    extract_markers,
    synthesize,
)
from dagline.graph import ContextBinding, NodeSpec, PortDecl
from dagline.store import ArtifactRecord, ExecutionStats
from dagline.identity import hash_content

from conftest import ctx_port, dep_port


def ctx_state(**ports: bytes) -> ResolvedLocalState:
    return ResolvedLocalState(context_entries=tuple(
        ContextBinding(name, content, "text") for name, content in ports.items()
    ))


def spec_with_ctx(node_id: str, *ports: str, executor="synthesis", **config) -> NodeSpec:
    return NodeSpec(node_id, executor, dict(config), tuple(ctx_port(p) for p in ports), "text")


class TestRegistry:
    def test_register_and_dispatch(self):
        registry = ExecutorRegistry()
        registry.register("echo", lambda spec, state: NodeResult((b"hi", "text")))
        spec = NodeSpec("n", "echo", {}, (), "text")
        assert execute(spec, ResolvedLocalState(), registry).canonical_output[0] == b"hi"

    def test_duplicate_kind_rejected(self):
        registry = default_registry()
        with pytest.raises(DuplicateExecutorError):
            registry.register("synthesis", synthesize)

    def test_unknown_kind(self):
        with pytest.raises(UnknownExecutorError):
            execute(NodeSpec("n", "ghost", {}, (), "text"), ResolvedLocalState())

    def test_determinism_flag_recorded(self):
        registry = ExecutorRegistry()
        registry.register("wild", lambda spec, state: NodeResult((b"?", "text")), deterministic=False)
        assert registry.is_deterministic("wild") is False
        assert registry.is_deterministic  # flag accessible for runtime decisions


class TestPassthrough:
    def test_echoes_single_context_port(self):
        spec = spec_with_ctx("src", "raw", executor="passthrough")
        result = execute(spec, ctx_state(raw=b"the payload"))
        assert result.canonical_output == (b"the payload", "text")
        assert result.stats.synthesis_calls == 0
        assert result.stats.input_chars == len(b"the payload")

    def test_requires_exactly_one_port(self):
        spec = spec_with_ctx("src", "a", "b", executor="passthrough")
        with pytest.raises(ExecutorFailureError) as err:
            execute(spec, ctx_state(a=b"1", b=b"2"))
        assert err.value.node_id == "src"


class TestSynthesisDocument:
    def test_golden_document(self):
        # Expectation assembled independently from the documented format.
        config = {"instructions": "blend", "work_passes": 1}
        config_digest = hashlib.sha256(json.dumps(
            config, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode()).hexdigest()
        alpha = b"alpha notes MARK:LEFT:0001 end\n"
        beta = b"beta notes MARK:RIGHT:0002 and MARK:LEFT:0001 again\n"
        expected = (
            "synthesis/v1\n"
            "node: blend\n"
            f"instructions: {config_digest}\n"
            f"port: left {hashlib.sha256(alpha).hexdigest()}\n"
            "mark: MARK:LEFT:0001\n"
            f"port: right {hashlib.sha256(beta).hexdigest()}\n"
            "mark: MARK:RIGHT:0002\n"
            "mark: MARK:LEFT:0001\n"
            "body:\n"
            "note: MARK:LEFT:0001\n"
            "note: MARK:RIGHT:0002\n"
        ).encode()
        spec = spec_with_ctx("blend", "left", "right", **config)
        result = synthesize(spec, ctx_state(left=alpha, right=beta))
        assert result.canonical_output == (expected, "text")

    def test_no_inputs_header_only(self):
        spec = NodeSpec("lonely", "synthesis", {}, (), "text")
        output = synthesize(spec, ResolvedLocalState()).canonical_output[0].decode()
        lines = output.splitlines()
        assert lines[0] == "synthesis/v1"
        assert lines[1] == "node: lonely"
        assert lines[2].startswith("instructions: ")
        assert lines[3] == "body:"
        assert len(lines) == 4

    def test_two_segment_marker_propagates(self):
        spec = spec_with_ctx("n", "p")
        output = synthesize(spec, ctx_state(p=b"... MARK:BRANCH-R ...")).canonical_output[0]
        assert b"note: MARK:BRANCH-R" in output

    def test_same_inputs_twice_identical(self):
        spec = spec_with_ctx("n", "p", "q")
        state = ctx_state(p=b"one MARK:A:1", q=b"two")
        assert synthesize(spec, state).canonical_output == \
            synthesize(spec, state).canonical_output

    def test_single_byte_perturbation_changes_output(self):
        spec = spec_with_ctx("n", "p")
        content = b"sensitive content"
        baseline = synthesize(spec, ctx_state(p=content)).canonical_output[0]
        for i in range(len(content)):
            mutated = bytearray(content)
            mutated[i] ^= 0x01
            assert synthesize(spec, ctx_state(p=bytes(mutated))).canonical_output[0] != baseline

    def test_dependency_insertion_order_irrelevant(self, rng):
        spec = NodeSpec(
            "n", "synthesis", {},
            (dep_port("a"), dep_port("b"), dep_port("c")), "text",
        )
        artifacts = {
            name: ArtifactRecord(
                artifact_id=hash_content(content),
                content=content, content_type="text",
                producer=name, produced_under=None,
            )
            for name, content in (("a", b"one"), ("b", b"two"), ("c", b"three"))
        }
        baseline = None
        for _ in range(6):
            items = list(artifacts.items())
            rng.shuffle(items)
            state = ResolvedLocalState(dependency_artifacts=dict(items))
            output = synthesize(spec, state).canonical_output[0]
            baseline = baseline or output
            assert output == baseline

    def test_work_passes_change_cost_not_output(self):
        cheap = synthesize(spec_with_ctx("n", "p", work_passes=1), ctx_state(p=b"data"))
        costly = synthesize(spec_with_ctx("n", "p", work_passes=64), ctx_state(p=b"data"))
        # Only the config digest line may differ (work_passes is in config).
        assert cheap.canonical_output[0].splitlines()[3:] == \
            costly.canonical_output[0].splitlines()[3:]

    def test_purity_empty_working_directory(self, tmp_path, monkeypatch):
        spec = spec_with_ctx("n", "p")
        state = ctx_state(p=b"isolated MARK:X:1")
        before = synthesize(spec, state).canonical_output
        monkeypatch.chdir(tmp_path)
        assert os.listdir(tmp_path) == []
        assert synthesize(spec, state).canonical_output == before


@given(
    planted=st.lists(
        st.sampled_from(["MARK:A:1", "MARK:B:2", "MARK:C-LONG:33", "MARK:D"]),
        unique=True,
    ),
    filler=st.binary(max_size=60).filter(lambda b: b"MARK:" not in b),
)
@settings(max_examples=120, deadline=None)
def test_marker_propagation_closure(planted, filler):
    """A marker appears in the output iff it appears in some input."""
    content = filler + " ".join(planted).encode("ascii") + filler
    spec = spec_with_ctx("n", "p")
    output = synthesize(spec, ctx_state(p=content)).canonical_output[0]
    out_markers = set(extract_markers(output))
    in_markers = set(extract_markers(content))
    assert out_markers == in_markers


class TestExecuteWrapper:
    def test_contract_violation_on_wrong_type(self):
        registry = ExecutorRegistry()
        registry.register("liar", lambda spec, state: NodeResult((b"x", "binary")))
        spec = NodeSpec("n", "liar", {}, (), "text")
        with pytest.raises(ContractViolationError):
            execute(spec, ResolvedLocalState(), registry)

    def test_executor_exception_carries_node_id(self):
        registry = ExecutorRegistry()

        def boom(spec, state):
            raise RuntimeError("inner failure")

        registry.register("boom", boom)
        with pytest.raises(ExecutorFailureError) as err:
            execute(NodeSpec("fragile", "boom", {}, (), "text"), ResolvedLocalState(), registry)
        assert err.value.node_id == "fragile"

    def test_undeclared_ports_rejected(self):
        spec = spec_with_ctx("n", "declared")
        state = ctx_state(declared=b"ok", smuggled=b"nope")
        with pytest.raises(UndeclaredInputError):
            execute(spec, state)

    def test_stats_populated(self):
        spec = spec_with_ctx("n", "p", "q")
        result = execute(spec, ctx_state(p=b"12345", q=b"678"))
        assert result.stats.input_chars == 8
        assert result.stats.output_chars == len(result.canonical_output[0])
        assert result.stats.synthesis_calls == 1
        assert result.stats.elapsed >= 0


def test_stats_reject_negative_counts():
    with pytest.raises(ValueError):
        ExecutionStats(input_chars=-1)


# The marker extraction and synthesis body as they were before one findall
# per input replaced the per-match loop: the reference the rewrite must match.
def _reference_extract_markers(content: bytes) -> list[str]:
    seen: dict[str, None] = {}
    for match in MARKER_PATTERN.finditer(content):
        seen.setdefault(match.group(0).decode("ascii"))
    return list(seen)


def _reference_body(surface) -> list[str]:
    lines = []
    body: dict[str, None] = {}
    for port, content_hash, content in surface:
        lines.append(f"port: {port} {content_hash.hex}")
        for marker in _reference_extract_markers(content):
            lines.append(f"mark: {marker}")
            body.setdefault(marker)
    lines.append("body:")
    lines.extend(f"note: {marker}" for marker in body)
    return lines


_markers = st.from_regex(rb"\AMARK:[A-Z0-9_.-]{1,4}(:[A-Z0-9_.-]{1,4}){0,2}\Z")
_filler = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([b"", b" ", b":", b"MARK", b"MARK:", b"\xc3\xa9", b"\xff", b"\xe2\x82\xac", b"a"]),
)


@st.composite
def planted(draw) -> bytes:
    """Filler with markers planted in it: repeated, adjacent, or next to non-ASCII bytes."""
    pool = draw(st.lists(_markers, min_size=1, max_size=3))
    return b"".join(draw(st.lists(st.one_of(st.sampled_from(pool), _filler), max_size=10)))


@seed(20261022)
@settings(max_examples=300, deadline=None)
@given(content=planted())
@example(content=b"MARK:A:1MARK:B\xc3\xa9MARK:A:1 MARK:A:1:\xffMARK:B")
def test_extract_markers_equals_the_finditer_loop(content):
    assert extract_markers(content) == _reference_extract_markers(content)


@seed(20261022)
@settings(max_examples=100, deadline=None)
@given(contents=st.lists(planted(), min_size=1, max_size=3))
def test_synthesis_body_equals_the_per_marker_loop(contents):
    ports = {f"p{i}": content for i, content in enumerate(contents)}
    state = ctx_state(**ports)
    output, _ = synthesize(spec_with_ctx("n", *ports), state).canonical_output
    body = output.decode().split("\n")[3:-1]  # after the three header lines
    assert body == _reference_body(state.input_surface())


@seed(20261022)
@settings(max_examples=200, deadline=None)
@given(config=st.dictionaries(
    st.text(max_size=5),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    ),
    max_size=4,
))
def test_config_digest_is_the_golden_document_formula(config):
    expected = hashlib.sha256(json.dumps(
        config, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode()).hexdigest()
    assert config_digest(NodeSpec("n", "synthesis", config)) == expected
