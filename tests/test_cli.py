"""Tests for the command-line interface and the JSON document format."""

from __future__ import annotations

import argparse
import hashlib
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
from ttmotifs.constructions import STRATEGIES, MotifCollection
from ttmotifs.core import MOTIF_KINDS, Motif, _PackedMotifs, chain, collider, fork, verify
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


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_decompose_json_warns_of_the_documents_unused_arcs(strategy):
    """Every view reads its warning from the document, so each names the
    arcs that the JSON view's document lists."""
    for n in (n for n in range(2, 41) if n % 4 in (2, 3)):
        runs = {}
        for fmt in ("json", "text", "diagram"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert main(["decompose", "--n", str(n), "--strategy", strategy, "--format", fmt]) == 3
            runs[fmt] = out.getvalue(), err.getvalue()
        document_text, warning = runs["json"]
        assert warning == runs["text"][1] == runs["diagram"][1]
        unused = document_from_json(document_text).unused_arcs
        assert unused
        assert warning == (
            f"warning: n = {n} admits no decomposition; packing leaves {len(unused)} arc(s) unused: "
            + ", ".join(f"({i},{j})" for i, j in unused)
            + "\n"
        )


class _CharCounter(io.TextIOBase):
    """A text stream that counts what it is given and keeps none of it."""

    def __init__(self) -> None:
        super().__init__()
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def test_decompose_drops_the_walk_before_it_encodes():
    # Measured at 2.6 times the output's length: the packed motifs and
    # the encoder's two copies.  A decompose that kept the collection
    # held the walk's arc table through the encoder, and peaked at 3.8.
    sink = _CharCounter()
    tracemalloc.start()
    try:
        with redirect_stdout(sink), redirect_stderr(io.StringIO()):
            code = main(["decompose", "--n", "400", "--strategy", "fork-max", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3.0 * sink.chars


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


def test_decompose_tripwire_prints_the_verify_report(capsys, monkeypatch):
    good = STRATEGIES["mixed"](9)
    broken = MotifCollection(9, (*good.motifs, good.motifs[0]))
    monkeypatch.setattr(cli, "STRATEGIES", {**STRATEGIES, "mixed": lambda n: broken})
    code, out, err = run_cli(capsys, ["decompose", "--n", "9"])
    assert (code, out) == (1, "")
    document = document_to_json(document_from_collection(broken))
    verify_code, report, _ = run_cli(capsys, ["verify", "--format", "text"], stdin_text=document, monkeypatch=monkeypatch)
    assert verify_code == 1 and "duplicate arc" in report
    assert err == "internal error: construction failed verification\n" + report


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


@pytest.mark.parametrize("motif_type", [[1], {"a": 1}], ids=["list", "object"])
def test_an_unhashable_motif_type_is_malformed(capsys, monkeypatch, motif_type):
    text = _document_text(5, "packing", [{"type": motif_type, "vertices": [1, 2, 3]}], [])
    code, out, err = run_cli(capsys, ["verify"], stdin_text=text, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: malformed document: motif 0 has unknown type {motif_type!r}\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("unused_arcs", [[1]], "unused arc 0 must be a [tail, head] pair"),
        ("schema_version", "2", "unsupported schema_version '2'; expected '1'"),
    ],
    ids=["unused-arc", "schema-version"],
)
def test_a_fully_packed_document_is_decoded_once(monkeypatch, field, value, message):
    # Every marker of the packed motifs lies in the motif list, so no
    # message can show one, and a second decode would only repeat work.
    payload = json.loads(document_to_json(document_from_collection(STRATEGIES["mixed"](8))))
    payload[field] = value
    calls = []
    loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args[0])
        return loads(*args, **kwargs)

    monkeypatch.setattr(cli.json, "loads", counting_loads)
    with pytest.raises(DocumentError) as caught:
        document_from_json(json.dumps(payload))
    assert str(caught.value) == message
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


def test_verify_of_a_few_motifs_at_a_huge_order_is_bounded(capsys, monkeypatch):
    # One canonical motif near n, one past it: the walk keeps only the
    # keys they use, never a table of size n**2.
    motifs = [{"type": "chain", "vertices": [99998, 99999, 100000]}, {"type": "fork", "vertices": [1, 2, 10**30]}]
    text = _document_text(100000, "packing", motifs, [])
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    tracemalloc.start()
    try:
        code = main(["verify"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert peak < 1_000_000
    assert code == 1
    assert err == ""
    assert f"  motif 1 vertices (1,2,{10**30}) leave 1..100000: motifs 1\n" in out
    collection = document_from_json(text).to_collection()
    table = collection._arc_walk[0]
    used = len(table)
    assert used == 3  # the chain's two arcs and the fork's (1, 2)
    assert not collection.lists_unused_arcs([])
    assert not collection.lists_unused_arcs([(1, 2)])
    assert len(table) == used


def test_verify_drops_the_document_text_before_the_walk(tmp_path, capsys):
    # Measured at 2.1 times the document's length.  A verify that kept
    # the text through the walk held it next to the packed motifs and
    # the arc table, and peaked at 2.7.
    text = document_to_json(document_from_collection(STRATEGIES["fork-max"](400)))
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["verify", "--input", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().err == ""
    assert peak < 2.3 * len(text)


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


def test_oracle_runs_at_order_99(capsys):
    code, out, err = run_cli(capsys, ["oracle", "--kind", "chain", "--n", "99", "--max-nodes", "1"])
    assert code == 0 and err == ""
    assert "comparison: INCONCLUSIVE (lower bound 1)" in out


def test_oracle_rejects_orders_above_99(capsys):
    code, out, err = run_cli(capsys, ["oracle", "--kind", "chain", "--n", "100", "--max-nodes", "1"])
    assert (code, out) == (2, "")
    assert err == "error: exact search supports n <= 99, got 100\n"


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


def _one_join_encoding(document: CollectionDocument) -> str:
    """The document encoder as one join of per-motif strings; the
    encoder joins its motifs a piece at a time and must match it byte
    for byte."""

    def block(key, items, last=False):
        comma = "" if last else ","
        if not items:
            return f'  "{key}": []{comma}'
        return f'  "{key}": [\n    ' + ",\n    ".join(items) + f"\n  ]{comma}"

    motifs = [f'{{"type": "{kind}", "vertices": [{a}, {b}, {c}]}}' for kind, (a, b, c) in document.motifs]
    unused = [f"[{tail}, {head}]" for tail, head in document.unused_arcs]
    lines = [
        "{",
        f'  "schema_version": {json.dumps("1")},',
        f'  "n": {document.n},',
        f'  "kind": {json.dumps(document.kind)},',
        block("motifs", motifs),
        block("unused_arcs", unused, last=True),
        "}",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("pieces, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_encoder_is_the_one_join_formula_at_every_piece_boundary(pieces, extra):
    count = pieces * cli._MOTIFS_PER_PIECE + extra
    motifs = tuple(Motif(MOTIF_KINDS[i % 3], (i + 1, i + 2, i + 3)) for i in range(count))
    for unused in ((), ((1, 3),), ((1, 3), (2, 5))):
        document = CollectionDocument(n=count + 3, kind="packing", motifs=motifs, unused_arcs=unused)
        text = document_to_json(document)
        assert text == _one_join_encoding(document)
        assert document_from_json(text) == document


def test_encoder_holds_about_two_copies_of_its_output():
    # Measured at 2.0 times the output's length: the joined pieces and
    # the document.  One string per motif and three whole joins took 5.0.
    document = document_from_collection(STRATEGIES["fork-max"](400))
    tracemalloc.start()
    try:
        text = document_to_json(document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


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


# --- the packed decoder -----------------------------------------------------


def test_decoder_peaks_at_a_few_bytes_per_motif():
    # Measured at a peak of 35 bytes a motif besides the document text:
    # the packed motifs and the decoded list of one marker per motif.
    # One `Motif` per entry peaked at 243.
    text = document_to_json(document_from_collection(STRATEGIES["fork-max"](400)))
    tracemalloc.start()
    try:
        document = document_from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * len(document.motifs)


def _reference_document(text: str) -> CollectionDocument:
    """A structurally valid document decoded the plain way: json.loads,
    then one Motif per motif entry."""
    payload = json.loads(text)
    return CollectionDocument(
        n=payload["n"],
        kind=payload["kind"],
        motifs=tuple(Motif(entry["type"], tuple(entry["vertices"])) for entry in payload["motifs"]),
        unused_arcs=tuple(tuple(arc) for arc in payload["unused_arcs"]),
    )


def _verify_output(text: str, fmt: str) -> tuple[int, str, str]:
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--format", fmt])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


_SHAPED = {"type": "fork", "vertices": [1, 4, 5]}
_TT4 = [{"type": kind, "vertices": list(vertices)} for kind, vertices in STRATEGIES["mixed"](4).motifs]
HOSTILE_DOCUMENTS = {
    "shaped-under-an-extra-key": json.dumps(
        {
            "note": [_SHAPED, {"deep": _SHAPED}],
            "schema_version": "1",
            "n": 4,
            "kind": "decomposition",
            "motifs": _TT4,
            "unused_arcs": [],
        }
    ),
    "shaped-after-the-motifs": json.dumps(
        {"schema_version": "1", "n": 4, "kind": "decomposition", "motifs": _TT4, "unused_arcs": [], "x": _SHAPED}
    ),
    "shaped-inside-a-motif-entry": _document_text(
        4, "decomposition", [{**_TT4[0], "note": _SHAPED}, *_TT4[1:]], []
    ),
    "a-duplicate-motifs-key": _document_text(4, "decomposition", [_SHAPED], []).replace(
        '"unused_arcs"', f'"motifs": {json.dumps(_TT4)}, "unused_arcs"'
    ),
    "a-vertex-of-10**30": _document_text(
        5, "packing", [_TT4[0], {"type": "fork", "vertices": [1, 2, 10**30]}], []
    ),
    "a-vertex-of-minus-2**70": _document_text(
        5, "packing", [{"type": "collider", "vertices": [-(2**70), 1, 2]}, _TT4[0]], []
    ),
    "convertible-and-unconvertible": _document_text(
        9,
        "packing",
        [
            {"type": "chain", "vertices": [1, 2, 3]},
            {"type": "fork", "vertices": [2**63 - 1, 2**63, 2**64]},
            {"type": "collider", "vertices": [4, 5, 6]},
            {"type": "fork", "vertices": [1, -(2**63) - 1, 3]},
            {"type": "chain", "vertices": [1, 2, 3]},
        ],
        [[1, 4]],
    ),
}
# (exit code, sha256 of stdout) of `verify --format text` and `--format
# json` on each document, recorded from the decoder that built one Motif
# per entry.
HOSTILE_REPORTS = {
    'a-duplicate-motifs-key': (
        (0, "9265d9ab26c79e8d83ad902d57ab7daee6761501bbbfc598cc4acf4eeed44d61"),
        (0, "1e365dc22c16de2f89811f8695b9e42bcc486ec6deba3ebaf836f5e68dc2a9f4"),
    ),
    'a-vertex-of-10**30': (
        (1, "dee4bf99d65cde5b22ea5d41cd3ef9e0cbf11fd7b5a4e6df19614606755bf1fe"),
        (1, "cfb7a16b5038fa7f807d5779d7ea8a2b2ce751650cff5d58600359eddbb6ae1f"),
    ),
    'a-vertex-of-minus-2**70': (
        (1, "7689d07d90936049b0e290c813d57cc298de0d819544054c17376258d5ce3de2"),
        (1, "49f045194ac3aa4fc0f39bd56b2b374b74cfd1336205c116977127d4641515c1"),
    ),
    'convertible-and-unconvertible': (
        (1, "59ff91527c66e6f3dadef5d42bd712f1af8e2b250ce20df581aab606f080f714"),
        (1, "377a2683ccbfd62168f41677a82d45021adab96b04611fee5a7d7de43d158965"),
    ),
    'shaped-after-the-motifs': (
        (0, "9265d9ab26c79e8d83ad902d57ab7daee6761501bbbfc598cc4acf4eeed44d61"),
        (0, "1e365dc22c16de2f89811f8695b9e42bcc486ec6deba3ebaf836f5e68dc2a9f4"),
    ),
    'shaped-inside-a-motif-entry': (
        (0, "9265d9ab26c79e8d83ad902d57ab7daee6761501bbbfc598cc4acf4eeed44d61"),
        (0, "1e365dc22c16de2f89811f8695b9e42bcc486ec6deba3ebaf836f5e68dc2a9f4"),
    ),
    'shaped-under-an-extra-key': (
        (0, "9265d9ab26c79e8d83ad902d57ab7daee6761501bbbfc598cc4acf4eeed44d61"),
        (0, "1e365dc22c16de2f89811f8695b9e42bcc486ec6deba3ebaf836f5e68dc2a9f4"),
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_hostile_documents_decode_as_one_motif_per_entry(name, monkeypatch):
    text = HOSTILE_DOCUMENTS[name]
    assert document_from_json(text) == _reference_document(text)
    reports = []
    for fmt in ("text", "json"):
        code, out, err = _verify_output(text, fmt)
        assert err == ""
        with monkeypatch.context() as patched:
            patched.setattr(cli, "document_from_json", _reference_document)
            assert _verify_output(text, fmt) == (code, out, err)
        reports.append((code, hashlib.sha256(out.encode()).hexdigest()))
    assert tuple(reports) == HOSTILE_REPORTS[name]


@pytest.mark.parametrize(
    "entries, message",
    [
        ([_TT4[0], {"type": "chain", "vertices": [True, 2, 3]}], "motif 1 vertex must be an integer, got True"),
        (
            [_TT4[0], {"type": "chain", "vertices": [10**30, 2, 3]}, {"type": "fork", "vertices": [1, True, 3]}],
            "motif 2 vertex must be an integer, got True",
        ),
    ],
    ids=["true", "true-after-a-huge-vertex"],
)
def test_a_true_vertex_among_packed_and_huge_ones_is_malformed(entries, message):
    text = _document_text(5, "packing", entries, [])
    with pytest.raises(DocumentError) as caught:
        document_from_json(text)
    assert str(caught.value) == message
    assert _verify_output(text, "text") == (2, "", f"error: malformed document: {message}\n")


_PERTURBATIONS = ("out-of-range", "non-ascending", "duplicate", "retagged")


@settings(max_examples=150, deadline=None)
@given(strategy=st.sampled_from(sorted(STRATEGIES)), n=st.integers(1, 12), data=st.data())
def test_decoded_perturbed_documents_get_the_verdict_of_their_motif_tuple(strategy, n, data):
    payload = json.loads(document_to_json(document_from_collection(STRATEGIES[strategy](n))))
    entries = payload["motifs"]
    for how in data.draw(st.lists(st.sampled_from(_PERTURBATIONS), max_size=4)):
        if not entries:
            break
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        if how == "out-of-range":
            vertex = data.draw(st.sampled_from([0, -1, n + 1, 2**63 - 1, -(2**63)]))
            entry["vertices"][data.draw(st.integers(0, 2))] = vertex
        elif how == "non-ascending":
            entry["vertices"] = data.draw(st.permutations(entry["vertices"]))
        elif how == "duplicate":
            twin = {"type": entry["type"], "vertices": list(entry["vertices"])}
            entries.insert(data.draw(st.integers(0, len(entries))), twin)
        else:
            entry["type"] = data.draw(st.sampled_from(MOTIF_KINDS))
    collection = document_from_json(json.dumps(payload)).to_collection()
    assert type(collection.motifs) is _PackedMotifs
    listed = MotifCollection(n, tuple(collection.motifs))
    assert repr(verify(collection)) == repr(verify(listed))
    assert collection.unused_arcs == listed.unused_arcs
    assert collection.unused_arc_count == listed.unused_arc_count
    unused = sorted(listed.unused_arcs)
    for arcs in (unused, unused[::-1], unused + [(1, 2)], unused[1:], [tuple(a) for a in payload["unused_arcs"]]):
        assert collection.lists_unused_arcs(arcs) == listed.lists_unused_arcs(arcs)


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


DECOMPOSE_ARGS = (
    st.integers(min_value=1, max_value=120),
    st.sampled_from(sorted(STRATEGIES)),
    st.sampled_from(("json", "text", "diagram")),
)
COUNTS_ARGS = (st.integers(min_value=1, max_value=200), st.sampled_from(("json", "text")))
ORACLE_ARGS = (
    st.sampled_from(MOTIF_KINDS),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=50),
    st.booleans(),
    st.sampled_from(("json", "text")),
)


def _decompose_argv(n, strategy, fmt):
    return ["decompose", "--n", str(n), "--strategy", strategy, "--format", fmt]


def _counts_argv(n, fmt):
    return ["counts", "--n", str(n), "--format", fmt]


def _oracle_argv(kind, n, max_nodes, witness, fmt):
    argv = ["oracle", "--kind", kind, "--n", str(n), "--max-nodes", str(max_nodes), "--format", fmt]
    return argv + ["--witness"] * witness


any_argv = st.one_of(
    st.builds(_decompose_argv, *DECOMPOSE_ARGS),
    st.builds(_counts_argv, *COUNTS_ARGS),
    st.builds(_oracle_argv, *ORACLE_ARGS),
)


@settings(max_examples=60, deadline=None)
@given(*DECOMPOSE_ARGS)
def test_decompose_exit_codes_on_any_order(n, strategy, fmt):
    code, _ = _main_exit_and_stdout(_decompose_argv(n, strategy, fmt))
    if fmt == "diagram" and n > 99:
        assert code == 2
    else:
        assert code == (0 if n % 4 in (0, 1) else 3)


@settings(max_examples=60, deadline=None)
@given(*COUNTS_ARGS)
def test_counts_exit_codes_on_any_order(n, fmt):
    code, out = _main_exit_and_stdout(_counts_argv(n, fmt))
    assert code == 0
    assert out


@settings(max_examples=60, deadline=None)
@given(*ORACLE_ARGS)
def test_oracle_exit_codes_on_any_budget(kind, n, max_nodes, witness, fmt):
    code, out = _main_exit_and_stdout(_oracle_argv(kind, n, max_nodes, witness, fmt))
    assert code == 0
    assert out


# --- one parser per process -------------------------------------------------


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cold_outcome(argv: list[str]) -> tuple[int, str, str]:
    cli.build_parser.cache_clear()
    return _outcome(argv)


def test_a_reused_parser_answers_like_a_fresh_one(tmp_path):
    document = tmp_path / "doc.json"
    document.write_text(document_to_json(document_from_collection(STRATEGIES["mixed"](9))))
    argvs = [
        [],
        ["--help"],
        ["decompose", "--help"],
        ["frobnicate"],
        ["decompose", "--n", "0"],
        ["counts", "--n", "x"],
        ["decompose", "--n", "5", "--strategy", "best"],
        ["oracle", "--kind", "star", "--n", "4"],
        ["oracle", "--kind", "chain"],
        ["decompose", "--n", "9", "--format", "text"],
        ["decompose", "--n", "6", "--strategy", "chain-max", "--format", "json"],
        ["decompose", "--n", "8", "--strategy", "fork-max", "--format", "diagram"],
        ["decompose", "--n", "100", "--format", "diagram"],
        ["counts", "--n", "7"],
        ["counts", "--n", "8", "--format", "json"],
        ["verify", "--input", str(document)],
        ["verify", "--input", str(document), "--format", "json"],
        ["verify", "--input", str(tmp_path / "missing.json")],
        ["oracle", "--kind", "fork", "--n", "5", "--witness"],
        ["oracle", "--kind", "chain", "--n", "9", "--max-nodes", "30", "--witness", "--format", "json"],
        ["oracle", "--kind", "collider", "--n", "4", "--max-nodes", "0"],
    ]
    # Every argv runs on one parser that has already served all the others.
    cli.build_parser.cache_clear()
    for argv in argvs:
        _outcome(argv)
    warm = [_outcome(argv) for argv in argvs]
    cold = [_cold_outcome(argv) for argv in argvs]
    for argv, reused, fresh in zip(argvs, warm, cold):
        assert reused == fresh, argv
    assert {code for code, _, _ in warm} == {0, 2, 3}


@settings(max_examples=60, deadline=None)
@given(any_argv)
def test_a_reused_parser_answers_like_a_fresh_one_on_any_argv(argv):
    cli.build_parser()
    reused = _outcome(argv)
    assert reused == _cold_outcome(argv)


def test_fifty_main_calls_build_the_parser_once(monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for n in range(1, 51):
        assert _outcome(["counts", "--n", str(n)])[0] == 0
    assert built.count("ttmotifs") == 1


PARSER_TEXT_ARGVS = (
    ["--help"],
    ["decompose", "--help"],
    ["counts", "--help"],
    ["verify", "--help"],
    ["oracle", "--help"],
    ["counts"],
    ["decompose", "--n", "0"],
    ["verify", "--format", "x"],
    ["oracle", "--n", "3"],
)
# Recorded before the parser declared the shared `--format` in one loop;
# argparse's wording is the interpreter's, so this pins one Python version.
PARSER_TEXT_DIGEST = "618f63a6df7729dccab89c0a78d888987b2d5edb83aef7097ad978da8235c115"


def test_help_and_usage_text_is_unchanged(monkeypatch):
    """The help of the program and of each subcommand, and four usage
    errors, at a fixed terminal width: exit code, stdout and stderr."""
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in PARSER_TEXT_ARGVS:
        code, out, err = _outcome(argv)
        digest.update(f"{argv}\0code={code}\0".encode())
        digest.update(out.encode() + b"\0" + err.encode() + b"\0")
    assert digest.hexdigest() == PARSER_TEXT_DIGEST


# --- text and JSON are two views of one result ------------------------------


def _as_text(value) -> str:
    """How the text view writes a JSON field's value."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, dict):
        return ", ".join(f"{name} {count}" for name, count in value.items())
    return str(value)


def _text_view(out: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Text output split into its `key: value` lines and its sections,
    a `title:` line followed by indented lines."""
    fields: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    for line in out.splitlines():
        if line.startswith("  "):
            sections[title].append(line[2:])
        elif line.endswith(":"):
            title = line[:-1]
            sections[title] = []
        else:
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields, sections


TEXT_KEYS = {"decomposition": "is_decomposition", "center capacities (vertex: chain collider fork)": "center_capacities"}
SECTION_LINES = {
    "center_capacities": lambda row: "{}: {} {} {}".format(*row.values()),
    "witness": lambda motif: motif_to_text(Motif(motif["type"], tuple(motif["vertices"]))),
    "violations": lambda violation: violation["detail"]
    + (f": motifs {', '.join(map(str, violation['motifs']))}" if violation["motifs"] else ""),
}
DUPLICATE_MOTIF_DOCUMENT = _document_text(
    8, "packing", [{"type": "chain", "vertices": [1, 2, 3]}, {"type": "chain", "vertices": [1, 2, 3]}], []
)


@pytest.mark.parametrize(
    "argv, document",
    [
        *((["counts", "--n", str(n)], None) for n in (1, 2, 3, 12, 99)),
        (["oracle", "--kind", "fork", "--n", "5", "--witness"], None),
        (["oracle", "--kind", "chain", "--n", "8", "--witness"], None),
        (["oracle", "--kind", "chain", "--n", "8", "--max-nodes", "30", "--witness"], None),
        (["verify"], document_to_json(document_from_collection(STRATEGIES["mixed"](9)))),
        (["verify"], DUPLICATE_MOTIF_DOCUMENT),
    ],
    ids=["counts-1", "counts-2", "counts-3", "counts-12", "counts-99", "oracle-fork-5", "oracle-chain-8",
         "oracle-chain-8-inconclusive", "verify-clean", "verify-duplicate-motif"],
)
def test_text_and_json_views_agree(capsys, monkeypatch, argv, document):
    code, text, _ = run_cli(capsys, argv + ["--format", "text"], stdin_text=document, monkeypatch=monkeypatch)
    json_code, out, _ = run_cli(capsys, argv + ["--format", "json"], stdin_text=document, monkeypatch=monkeypatch)
    assert code == json_code
    payload = json.loads(out)
    fields, sections = _text_view(text)
    for key, value in fields.items():
        name = TEXT_KEYS.get(key, key.replace(" ", "_"))
        expected = _as_text(payload[name])
        if name == "mixed_counts" and payload[name] is None:
            expected += " (not admissible)"
        if name == "comparison" and payload[name] == "INCONCLUSIVE":
            expected += f" (lower bound {payload['optimum']})"
        assert value == expected, key
    for title, lines in sections.items():
        name = TEXT_KEYS.get(title, title)
        assert lines == [SECTION_LINES[name](item) for item in payload[name]], title
    shown = {TEXT_KEYS.get(key, key.replace(" ", "_")) for key in [*fields, *sections]}
    assert shown == {key for key, value in payload.items() if not (key == "violations" and value == [])}


# --- arrow notation ---------------------------------------------------------


def test_motif_text_examples():
    assert motif_to_text(chain(1, 7, 8)) == "v1 -> v7 -> v8"
    assert motif_to_text(collider(3, 4, 8)) == "v3 -> v8 <- v4"
    assert motif_to_text(fork(1, 2, 3)) == "v2 <- v1 -> v3"


# --- end to end through the real interpreter --------------------------------


def _child_env() -> dict[str, str]:
    """The environment for a child that imports the same ttmotifs as this
    process, installed or not."""
    package_root = str(Path(ttmotifs.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def test_pipeline_through_subprocess(tmp_path):
    env = _child_env()
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


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--n", "9", "--format", "json"],
        ["decompose", "--n", "9", "--format", "text"],
        ["decompose", "--n", "9", "--format", "diagram"],
        ["decompose", "--n", "400", "--format", "text"],
        ["counts", "--n", "9"],
        ["oracle", "--kind", "chain", "--n", "5", "--witness"],
        ["verify", "--input", "DOCUMENT"],
        ["--help"],
        ["decompose", "--help"],
    ],
    ids=["decompose-json", "decompose-text", "decompose-diagram", "decompose-text-n400", "counts",
         "oracle-witness", "verify-input", "help", "decompose-help"],
)
def test_closed_stdout_exits_2_without_a_traceback(tmp_path, argv):
    """A reader that closed its end of the pipe before the child started,
    with the child's stdout buffered (a pipe's default) and unbuffered."""
    document = tmp_path / "doc.json"
    document.write_text(document_to_json(document_from_collection(STRATEGIES["mixed"](9))))
    argv = [str(document) if arg == "DOCUMENT" else arg for arg in argv]
    buffered = {key: value for key, value in _child_env().items() if key != "PYTHONUNBUFFERED"}
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "ttmotifs", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 2, (env.get("PYTHONUNBUFFERED"), child.stderr)
        assert "Traceback" not in child.stderr
