"""Tests for the command-line interface and the JSON document format."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttmotifs
from ttmotifs import cli
from ttmotifs.cli import (
    CollectionDocument,
    DocumentError,
    document_from_collection,
    document_from_json,
    document_to_json,
    main,
    motif_to_text,
)
from ttmotifs.constructions import STRATEGIES
from ttmotifs.core import MOTIF_KINDS, Motif, chain, collider, fork
from ttmotifs.oracle import max_packing


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    """Invoke main() the way the console script would, capturing output."""
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- decompose --------------------------------------------------------------


def test_decompose_text_tt8_chain_max(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--n", "8", "--strategy", "chain-max", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14
    assert lines[0] == "v1 -> v7 -> v8"
    assert lines[12] == "v1 -> v8 <- v2"
    assert out.endswith("\n")
    assert err == ""


def test_decompose_trivial_order_json(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--n", "1", "--strategy", "mixed", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema_version": "1",
        "n": 1,
        "kind": "decomposition",
        "motifs": [],
        "unused_arcs": [],
    }


def test_decompose_packing_warns_and_exits_3(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--n", "6", "--strategy", "fork-max", "--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["kind"] == "packing"
    assert payload["unused_arcs"] == [[5, 6]]
    assert "unused" in err


def test_decompose_diagram_format(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--n", "8", "--strategy", "collider-max", "--format", "diagram"])
    assert code == 0
    assert len(out.splitlines()) == 8
    assert out.splitlines()[0].startswith("   2 3 4")


def test_decompose_diagram_rejects_large_order(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--n", "120", "--strategy", "mixed", "--format", "diagram"])
    assert code == 2
    assert "JSON" in err


def test_decompose_diagram_checks_order_before_building(capsys, monkeypatch):
    calls = []

    def build(n):
        calls.append(n)
        raise AssertionError("the construction must not run")

    monkeypatch.setitem(cli.STRATEGIES, "mixed", build)
    code, out, err = run_cli(capsys, ["decompose", "--n", "2000", "--strategy", "mixed", "--format", "diagram"])
    assert (code, out, calls) == (2, "", [])
    assert err == "error: grid rendering supports n <= 99; use the JSON output for larger orders\n"


def test_decompose_rejects_bad_order(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--n", "0", "--strategy", "mixed"])
    assert code == 2
    code, out, err = run_cli(capsys, ["decompose", "--n", "eight"])
    assert code == 2


def test_decompose_rejects_unknown_strategy(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--n", "8", "--strategy", "triangle-max"])
    assert code == 2


def test_decompose_default_strategy_is_mixed(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--n", "8", "--format", "json"])
    assert code == 0
    default_payload = json.loads(out)
    code, out, _ = run_cli(capsys, ["decompose", "--n", "8", "--strategy", "mixed", "--format", "json"])
    assert json.loads(out) == default_payload


# --- counts -----------------------------------------------------------------


def test_counts_text_examples(capsys):
    code, out, _ = run_cli(capsys, ["counts", "--n", "13"])
    assert code == 0
    assert "packing numbers: chain 36, collider 36, fork 36" in out
    assert "mixed counts: chains 6, colliders 3, forks 30" in out

    code, out, _ = run_cli(capsys, ["counts", "--n", "2"])
    assert code == 0
    assert "admissible: no" in out
    assert "packing numbers: chain 0, collider 0, fork 0" in out

    code, out, _ = run_cli(capsys, ["counts", "--n", "8"])
    assert "motif slots: 14" in out


def test_counts_json(capsys):
    code, out, _ = run_cli(capsys, ["counts", "--n", "8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is True
    assert payload["arcs"] == 28
    assert payload["motif_slots"] == 14
    assert payload["packing_numbers"] == {"chain": 12, "collider": 12, "fork": 12}
    assert payload["mixed_counts"] == {"chains": 3, "colliders": 2, "forks": 9}
    assert payload["center_capacities"][0] == {"vertex": 1, "chain": 0, "collider": 0, "fork": 3}

    code, out, _ = run_cli(capsys, ["counts", "--n", "6", "--format", "json"])
    payload = json.loads(out)
    assert payload["admissible"] is False
    assert payload["motif_slots"] is None
    assert payload["mixed_counts"] is None


# --- verify -----------------------------------------------------------------


def _document_text(n, kind, motifs, unused):
    return json.dumps(
        {
            "schema_version": "1",
            "n": n,
            "kind": kind,
            "motifs": motifs,
            "unused_arcs": unused,
        }
    )


def test_verify_valid_decomposition_via_file(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(document_to_json(document_from_collection(STRATEGIES["mixed"](8))))
    code, out, _ = run_cli(capsys, ["verify", "--input", str(path)])
    assert code == 0
    assert "valid: yes" in out and "decomposition: yes" in out


def test_verify_valid_packing_exits_3(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(document_to_json(document_from_collection(STRATEGIES["chain-max"](6))))
    code, out, _ = run_cli(capsys, ["verify", "--input", str(path)])
    assert code == 3
    assert "valid: yes" in out and "decomposition: no" in out


def test_verify_duplicate_motif_document(capsys, monkeypatch):
    text = _document_text(
        8,
        "packing",
        [{"type": "chain", "vertices": [1, 2, 3]}, {"type": "chain", "vertices": [1, 2, 3]}],
        [],
    )
    code, out, _ = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "duplicate arc (1,2)" in out


def test_verify_non_canonical_motif_document(capsys, monkeypatch):
    text = _document_text(8, "packing", [{"type": "fork", "vertices": [2, 1, 3]}], [])
    code, out, _ = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "canonical" in out


def test_verify_malformed_documents(capsys, monkeypatch):
    bad_inputs = [
        "{not json",
        json.dumps({"n": 8}),
        json.dumps({"schema_version": "2", "n": 8, "kind": "packing", "motifs": [], "unused_arcs": []}),
        _document_text(8, "packing", [{"type": "triangle", "vertices": [1, 2, 3]}], []),
        _document_text(8, "packing", [{"type": "chain", "vertices": [1, 2]}], []),
        _document_text(0, "packing", [], []),
        _document_text(8, "socks", [], []),
        json.dumps([1, 2, 3]),
    ]
    for text in bad_inputs:
        code, out, err = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
        assert code == 2, text
        assert "malformed" in err


def test_text_that_is_not_json_is_decoded_once(monkeypatch):
    # Only a payload that fails the document checks is decoded a second
    # time; text that never parsed is not.
    calls = []
    loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args[0])
        return loads(*args, **kwargs)

    monkeypatch.setattr(cli.json, "loads", counting_loads)
    with pytest.raises(DocumentError, match="not valid JSON"):
        document_from_json("{not json")
    assert len(calls) == 1


def test_verify_deeply_nested_document_exits_2(capsys, monkeypatch):
    # Too deep for the JSON decoder: a malformed document, not a crash.
    text = "[" * 200_000 + "]" * 200_000
    code, out, err = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed document: ")


def test_verify_integer_over_the_digit_limit_is_malformed(capsys, monkeypatch):
    # json.loads refuses integer literals over the interpreter's digit
    # limit (4,300 by default) with a plain ValueError.
    text = _document_text(8, "packing", [], []).replace('"n": 8', '"n": ' + "9" * 5000)
    code, out, err = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed document: ")
    with pytest.raises(DocumentError):
        document_from_json(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_order_whose_arc_count_passes_the_digit_limit_is_malformed(capsys, monkeypatch, fmt):
    # n itself fits the 4,300-digit limit, but the report would print
    # n(n-1)/2, which has about 6,000 digits.
    text = _document_text(8, "packing", [], []).replace('"n": 8', '"n": ' + "9" * 3000)
    code, out, err = run_cli(capsys, ["verify", "--format", fmt], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed document: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_order_whose_arc_count_fits_the_digit_limit_is_reported(capsys, monkeypatch, fmt):
    n = int("9" * 2100)
    arcs = n * (n - 1) // 2  # about 4,200 digits
    gap = f"declared unused_arcs disagree with the arcs actually left uncovered (declared 0, actual {arcs})"
    text = _document_text(8, "packing", [], []).replace('"n": 8', f'"n": {n}')
    code, out, err = run_cli(capsys, ["verify", "--format", fmt], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 1
    assert err == ""
    if fmt == "json":
        report = json.loads(out)
        assert (report["n"], report["unused_arcs"], report["valid"]) == (n, arcs, False)
        assert [v["detail"] for v in report["violations"]] == [gap]
    else:
        assert out == "\n".join(
            [
                f"n: {n}",
                "motifs: 0",
                "counts: chains 0, colliders 0, forks 0",
                f"unused arcs: {arcs}",
                "valid: no",
                "decomposition: no",
                "violations:",
                f"  {gap}",
                "",
            ]
        )


BIG_EMPTY_DOCUMENT = '{"schema_version":"1","n":100000,"kind":"decomposition","motifs":[],"unused_arcs":[]}'
BIG_EMPTY_GAPS = [
    "declared unused_arcs disagree with the arcs actually left uncovered (declared 0, actual 4999950000)",
    "document declares a decomposition but the motifs form a packing",
]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_work_is_bounded_by_the_document(capsys, monkeypatch, fmt):
    # TT_100000 has about 5e9 arcs; a verifier that listed them would
    # run out of memory on this small document.
    monkeypatch.setattr(sys, "stdin", io.StringIO(BIG_EMPTY_DOCUMENT))
    tracemalloc.start()
    try:
        code = main(["verify", "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert peak < 1_000_000
    assert code == 1
    assert err == ""
    if fmt == "json":
        report = json.loads(out)
        assert report["unused_arcs"] == 4_999_950_000
        assert [v["detail"] for v in report["violations"]] == BIG_EMPTY_GAPS
    else:
        assert out == "\n".join(
            [
                "n: 100000",
                "motifs: 0",
                "counts: chains 0, colliders 0, forks 0",
                "unused arcs: 4999950000",
                "valid: no",
                "decomposition: no",
                "violations:",
                *(f"  {gap}" for gap in BIG_EMPTY_GAPS),
                "",
            ]
        )


def test_verify_coverage_gap_on_wrong_declared_kind(capsys, monkeypatch):
    # A single chain over TT_3 covers only 2 of 3 arcs yet claims otherwise.
    text = _document_text(3, "decomposition", [{"type": "chain", "vertices": [1, 2, 3]}], [])
    code, out, _ = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "declares a decomposition" in out or "unused_arcs disagree" in out


def test_verify_coverage_gap_on_wrong_unused_list(capsys, monkeypatch):
    text = _document_text(
        3,
        "packing",
        [{"type": "chain", "vertices": [1, 2, 3]}],
        [[1, 2]],  # actually (1, 3) is the uncovered arc
    )
    code, out, _ = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 1
    assert "unused_arcs disagree" in out


def test_verify_missing_file(capsys):
    code, out, err = run_cli(capsys, ["verify", "--input", "/nonexistent/doc.json"])
    assert code == 2


def test_verify_json_report(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(document_to_json(document_from_collection(STRATEGIES["fork-max"](9))))
    code, out, _ = run_cli(capsys, ["verify", "--input", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["is_decomposition"] is True
    assert payload["counts"] == {"chains": 0, "colliders": 2, "forks": 16}


# --- oracle -----------------------------------------------------------------


def test_oracle_match(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--kind", "chain", "--n", "6"])
    assert code == 0
    assert "optimum: 6" in out
    assert "comparison: MATCH" in out


def test_oracle_witness_lines_parse_back(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--kind", "fork", "--n", "5", "--witness"])
    assert code == 0
    lines = out.splitlines()
    start = lines.index("witness:") + 1
    witness = max_packing("fork", 5).witness.motifs
    assert len(witness) == 4
    assert all(m.kind == "fork" for m in witness)
    assert lines[start:] == [f"  {motif_to_text(m)}" for m in witness]


def test_oracle_inconclusive_under_tiny_budget(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--kind", "chain", "--n", "8", "--max-nodes", "3"])
    assert code == 0
    assert "exhausted: no" in out
    assert "INCONCLUSIVE" in out


def test_oracle_json(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--kind", "collider", "--n", "7", "--format", "json", "--witness"])
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 9
    assert payload["exhausted"] is True
    assert payload["comparison"] == "MATCH"
    assert payload["nodes"] > 0
    assert len(payload["witness"]) == 9


def test_oracle_rejects_bad_budget(capsys):
    code, out, err = run_cli(capsys, ["oracle", "--kind", "chain", "--n", "5", "--max-nodes", "0"])
    assert code == 2


# --- document format --------------------------------------------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_json_round_trip_is_byte_identical(strategy):
    for n in range(1, 51):
        emitted = document_to_json(document_from_collection(STRATEGIES[strategy](n)))
        assert document_to_json(document_from_json(emitted)) == emitted
        assert emitted.endswith("\n")


def test_document_declared_fields_survive_parsing():
    text = _document_text(5, "packing", [{"type": "chain", "vertices": [1, 2, 3]}], [[1, 3]])
    document = document_from_json(text)
    assert document.kind == "packing"
    assert document.unused_arcs == ((1, 3),)
    assert document.to_collection().motifs == (chain(1, 2, 3),)


def test_motif_shaped_values_elsewhere_keep_their_messages():
    # The decoder turns motif entries into Motifs while it reads; a
    # motif-shaped value anywhere else must still be quoted as written.
    shaped = {"type": "chain", "vertices": [1, 2, 3]}
    cases = {
        _document_text(shaped, "packing", [], []): f"n must be an integer, got {shaped!r}",
        _document_text(5, [shaped], [], []): f"kind must be 'decomposition' or 'packing', got {[shaped]!r}",
        _document_text(5, "packing", [{"type": shaped, "vertices": [1, 2, 3]}], []): (
            f"motif 0 has unknown type {shaped!r}"
        ),
        _document_text(5, "packing", [shaped], [[1, shaped]]): (
            f"unused arc 0 endpoint must be an integer, got {shaped!r}"
        ),
        _document_text(5, "packing", [shaped], [shaped]): "unused arc 0 must be a [tail, head] pair",
    }
    for text, message in cases.items():
        with pytest.raises(DocumentError) as caught:
            document_from_json(text)
        assert str(caught.value) == message
    extra_key = {"vertices": [1, 2, 4], "type": "fork", "note": shaped}
    document = document_from_json(_document_text(5, "packing", [shaped, extra_key], []))
    assert document.motifs == (chain(1, 2, 3), fork(1, 2, 4))


def test_document_rejects_non_integer_payloads():
    with pytest.raises(DocumentError):
        document_from_json(_document_text(8, "packing", [{"type": "chain", "vertices": [1, 2, "3"]}], []))
    with pytest.raises(DocumentError):
        document_from_json(_document_text(8, "packing", [], [[1, True]]))
    with pytest.raises(DocumentError):
        document_from_json(_document_text("8", "packing", [], []))


# --- codec properties -------------------------------------------------------

vertex_ints = st.integers(min_value=-(10**30), max_value=10**30)
any_motifs = st.builds(Motif, st.sampled_from(MOTIF_KINDS), st.tuples(vertex_ints, vertex_ints, vertex_ints))
documents = st.builds(
    CollectionDocument,
    n=st.integers(min_value=1, max_value=10**30),
    kind=st.sampled_from(("decomposition", "packing")),
    motifs=st.lists(any_motifs, max_size=8).map(tuple),
    unused_arcs=st.lists(st.tuples(vertex_ints, vertex_ints), max_size=5).map(tuple),
)
motif_shaped = st.fixed_dictionaries(
    {"type": st.sampled_from(MOTIF_KINDS), "vertices": st.lists(st.integers(), min_size=3, max_size=3)}
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | motif_shaped,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _json_dumps_encoding(document: CollectionDocument) -> str:
    """The document encoder written with one json.dumps per motif and
    per arc; the f-string encoder must match it byte for byte."""

    def block(key, items, comma):
        if not items:
            return [f'  "{key}": []{comma}']
        return [f'  "{key}": [', *(f"    {item}," for item in items[:-1]), f"    {items[-1]}", f"  ]{comma}"]

    lines = [
        "{",
        '  "schema_version": "1",',
        f'  "n": {document.n},',
        f'  "kind": {json.dumps(document.kind)},',
        *block("motifs", [json.dumps(cli._motif_object(m)) for m in document.motifs], ","),
        *block("unused_arcs", [json.dumps(list(arc)) for arc in document.unused_arcs], ""),
        "}",
    ]
    return "\n".join(lines) + "\n"


def _decode_or_document_error(text: str) -> None:
    try:
        document_from_json(text)
    except DocumentError:
        pass


def _verify_exit_code(text: str) -> int:
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(["verify"])
    finally:
        sys.stdin = saved


@settings(max_examples=300)
@given(documents)
def test_encoder_matches_json_dumps_and_round_trips(document):
    text = document_to_json(document)
    assert text == _json_dumps_encoding(document)
    assert document_from_json(text) == document
    assert document_to_json(document_from_json(text)) == text


@settings(max_examples=300)
@given(st.text(max_size=200))
def test_decoder_raises_only_document_error_on_any_text(text):
    _decode_or_document_error(text)


@settings(max_examples=200, deadline=None)
@given(documents, st.data())
def test_decoder_raises_only_document_error_on_perturbed_documents(document, data):
    payload = json.loads(document_to_json(document))
    # Walk down from the root to some value and replace it.
    parent, key = None, None
    node = payload
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    replacement = data.draw(json_values)
    if parent is None:
        payload = replacement
    else:
        parent[key] = replacement
    text = json.dumps(payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(text)))
    for candidate in (text, text[:cut], text[:cut] + data.draw(st.text(max_size=4)) + text[cut + 1 :]):
        _decode_or_document_error(candidate)
        assert _verify_exit_code(candidate) in (0, 1, 2, 3)


# --- fuzzing the other subcommands ------------------------------------------


def _main_exit_and_stdout(argv: list[str]) -> tuple[int, str]:
    """main(argv) with its output captured.  Only argparse's usage exit
    may escape main, and stdout, when written, ends with a newline."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = exc.code
    assert out.getvalue() == "" or out.getvalue().endswith("\n")
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=120),
    st.sampled_from(sorted(STRATEGIES)),
    st.sampled_from(("json", "text", "diagram")),
)
def test_decompose_exit_codes_on_any_order(n, strategy, fmt):
    argv = ["decompose", "--n", str(n), "--strategy", strategy, "--format", fmt]
    code, _ = _main_exit_and_stdout(argv)
    if fmt == "diagram" and n > 99:
        assert code == 2
    else:
        assert code == (0 if n % 4 in (0, 1) else 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.sampled_from(("json", "text")))
def test_counts_exit_codes_on_any_order(n, fmt):
    code, out = _main_exit_and_stdout(["counts", "--n", str(n), "--format", fmt])
    assert code == 0
    assert out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MOTIF_KINDS),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=50),
    st.booleans(),
    st.sampled_from(("json", "text")),
)
def test_oracle_exit_codes_on_any_budget(kind, n, max_nodes, witness, fmt):
    argv = ["oracle", "--kind", kind, "--n", str(n), "--max-nodes", str(max_nodes), "--format", fmt]
    code, out = _main_exit_and_stdout(argv + ["--witness"] * witness)
    assert code == 0
    assert out


# --- arrow notation ---------------------------------------------------------


def test_motif_text_examples():
    assert motif_to_text(chain(1, 7, 8)) == "v1 -> v7 -> v8"
    assert motif_to_text(collider(3, 4, 8)) == "v3 -> v8 <- v4"
    assert motif_to_text(fork(1, 2, 3)) == "v2 <- v1 -> v3"


# --- end to end through the real interpreter --------------------------------


def test_pipeline_through_subprocess(tmp_path):
    # The children import the same ttmotifs as this process, installed or not.
    package_root = str(Path(ttmotifs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    emit = subprocess.run(
        [sys.executable, "-m", "ttmotifs", "decompose", "--n", "9", "--strategy", "collider-max", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert emit.returncode == 0
    check = subprocess.run(
        [sys.executable, "-m", "ttmotifs", "verify"],
        input=emit.stdout,
        capture_output=True,
        text=True,
        env=env,
    )
    assert check.returncode == 0
    assert "valid: yes" in check.stdout
