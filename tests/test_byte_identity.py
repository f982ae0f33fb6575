"""Byte-identity of everything the CLI prints for small orders.

Each digest is the sha256 over n = 1..40 of the exit code, stdout and
stderr of one (subcommand, strategy, format) group, so any change in
wording, emission order or exit status shows up as a changed digest.
The expected values were recorded from the implementation before the
constructions, the verifier and the CLI shared their helpers, and a
refactor must leave them untouched.

The oracle groups cover n = 1..12 under a 20,000-node budget with the
witness printed, so they pin the search node for node: its node count,
its optimum, the witness it settles on and the verdict line, both where
it certifies and where the budget runs out.  They were recorded from the
recursive search before it became a loop over an explicit stack.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ttmotifs.analysis import verify
from ttmotifs.cli import main
from ttmotifs.constructions import MotifCollection
from ttmotifs.core import Motif

ORDERS = range(1, 41)
ORACLE_ORDERS = range(1, 13)
ORACLE_MAX_NODES = 20_000
STRATEGY_NAMES = ("chain-max", "collider-max", "fork-max", "mixed")

EXPECTED = {
    ("decompose", "chain-max", "text"): "80f61b9dd1fa600e695edc94f22a7ff46deae73119d1b82bfe710a93d0d8a133",
    ("decompose", "chain-max", "json"): "ace46b1d2601932b27b49a94c99099d88fcaed2109d7764132ad9ebadadc33ab",
    ("decompose", "chain-max", "diagram"): "a9aef58117997ffcff7c0f557883cc6760f1521fc288b4052953fdf4dfbb31c2",
    ("decompose", "collider-max", "text"): "c58457ba57fe9ce4496b5c019b6ef6eb2d31f0a74227948bacf79a01f1af8069",
    ("decompose", "collider-max", "json"): "6bae6c3fb86eaf316ec2d9b7a8e4e1535a790cd9cfc829eecb3152e94ff822e4",
    ("decompose", "collider-max", "diagram"): "49843d1d980dcfbca954100d22006f789e603641ce224f5923505804f923ecfb",
    ("decompose", "fork-max", "text"): "622a4d8a98046eacfa80ee10b9c592d52d06387d061b93c4e9b9942ef1704df8",
    ("decompose", "fork-max", "json"): "ef93d2689bbd8989e01555b4e2759bf109e4eaf7d40396cf06b3803042442860",
    ("decompose", "fork-max", "diagram"): "5673fb67e151b569695f9f4bb01a06c66619f0b92406a9fb7ae31637f81737f9",
    ("decompose", "mixed", "text"): "7821a39dbb7fe2b491ce4b7f6e663c2bb55e427f9e7c2862194f1e1926b8c27c",
    ("decompose", "mixed", "json"): "3a120d38b7af44e51e7f032262f86c9778d9ef89b8068804bd555c5151e27279",
    ("decompose", "mixed", "diagram"): "b9034f7804ce9d27a6e6e9de0ea9cb39b1ab9286a85692ed78b20f32bcaad829",
    ("counts", "text"): "1cfa985d349703416dc39b9f9898cf9691dcde14816e8cd65a509361dd73ff60",
    ("counts", "json"): "a1c8ec1cf0cba1f363d13556ff9104ccda0600a88c27007a641b0f71c3709972",
    ("verify", "chain-max", "text"): "964415b8d78179377dc43d086ebea9cfa89fffb6953d915e1b9b3b002590d495",
    ("verify", "chain-max", "json"): "212f1fa8a3437c8c7d6de575c812943eced3dd6ce1dc2638f779aa414f593d7d",
    ("verify", "collider-max", "text"): "40bc1d59a1cd58fab9f7cfcde26ee0407af511618cb7d4ea7a1c9e301e4a34e4",
    ("verify", "collider-max", "json"): "7421b5a9ac6647f4aa92c803a38df6d28f6de3ede998fa72c5d19141141f158e",
    ("verify", "fork-max", "text"): "4ec6122bb777a1f06f53c15f0ddb8df92c20edafa44e37e7e7ff57aa02587c80",
    ("verify", "fork-max", "json"): "a048038948997214631a5bc622ecd7cd0a93937d408dc51d637dd6e2ee39bf80",
    ("verify", "mixed", "text"): "af358190667aa83644d2e26d56ac466d2af31f01d1bd5442a0d249a64f054cff",
    ("verify", "mixed", "json"): "4d326a4ce6f5923690656c53cc4bb48378ddae620e68a769e8fbdbf236b30390",
    ("oracle", "chain", "text"): "e6fea7e11e52563d06a0c68b3c9328e7398f1c87cfa89d7b5527c4dbaaea4ac2",
    ("oracle", "chain", "json"): "9c9a1e313311d829007c9834c03d552a6d3896c439404e93154239b548b9fde1",
    ("oracle", "collider", "text"): "7c55ef864fa6cd8c934f87811e972d65866682b7fd8ab4469e03c653fec42499",
    ("oracle", "collider", "json"): "95120166ece152c0df76d91d07bcd9fc445f18123e8a86f1d56b2ae88f0acbea",
    ("oracle", "fork", "text"): "ce878c1474686e779cebb1c3e566586e41ccfcf138cf11fa73b0316d732327ea",
    ("oracle", "fork", "json"): "b56fb94a6c192622bf573dad619c7d9b3c276d15ca41a9107c5db625dadccade",
}


def _run(argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def _decompose(strategy: str, fmt: str, n: int) -> tuple[int, str, str]:
    return _run(["decompose", "--n", str(n), "--strategy", strategy, "--format", fmt])


def _group_runs(group: tuple[str, ...]):
    command = group[0]
    if command == "oracle":
        _, kind, fmt = group
        for n in ORACLE_ORDERS:
            budget = ["--max-nodes", str(ORACLE_MAX_NODES)]
            yield n, _run(["oracle", "--kind", kind, "--n", str(n), *budget, "--witness", "--format", fmt])
        return
    for n in ORDERS:
        if command == "decompose":
            _, strategy, fmt = group
            yield n, _decompose(strategy, fmt, n)
        elif command == "counts":
            _, fmt = group
            yield n, _run(["counts", "--n", str(n), "--format", fmt])
        else:
            _, strategy, fmt = group
            _, document, _ = _decompose(strategy, "json", n)
            yield n, _run(["verify", "--format", fmt], stdin_text=document)


def group_digest(group: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    for n, (code, out, err) in _group_runs(group):
        digest.update(f"n={n}\0code={code}\0".encode())
        digest.update(out.encode() + b"\0" + err.encode() + b"\0")
    return digest.hexdigest()


GROUPS = (
    [("decompose", s, f) for s in STRATEGY_NAMES for f in ("text", "json", "diagram")]
    + [("counts", f) for f in ("text", "json")]
    + [("verify", s, f) for s in STRATEGY_NAMES for f in ("text", "json")]
    + [("oracle", k, f) for k in ("chain", "collider", "fork") for f in ("text", "json")]
)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: "-".join(g))
def test_cli_output_is_byte_identical(group):
    assert group_digest(group) == EXPECTED[group]


# --- verify on hostile documents ---------------------------------------------
#
# Recorded from the verifier and codec before they keyed arcs by one
# integer and checked types inline, so these pin every violation line,
# its order, every malformed-document message and every exit code on
# documents the constructions never emit.

HOSTILE_ORDERS = (8, 9, 10, 11)  # every residue mod 4
HOSTILE_SITES = (0.0, 0.5, 0.999)  # first, middle and last motif
CONTENT_MUTATIONS = (
    "retag", "duplicate", "out_of_range", "wrong_kind", "wrong_unused",
    "unused_same_count", "unused_reversed", "unused_foreign", "unused_repeated",
)


def _mutate(document: str, mutation: str, site: float) -> str:
    """One content defect in a decompose JSON document."""
    payload = json.loads(document)
    motifs = payload["motifs"]
    target = motifs[int(site * len(motifs))]
    n = payload["n"]
    unused = payload["unused_arcs"]
    if mutation == "retag":
        kinds = ("chain", "collider", "fork")
        target["type"] = kinds[(kinds.index(target["type"]) + 1) % 3]
    elif mutation == "duplicate":
        motifs.append(dict(target))
    elif mutation == "out_of_range":
        target["vertices"][2] = n + 1
    elif mutation == "wrong_kind":
        payload["kind"] = "packing" if payload["kind"] == "decomposition" else "decomposition"
    elif mutation == "wrong_unused":
        payload["unused_arcs"] = [] if unused else [[1, 2]]
    elif mutation == "unused_same_count":  # a covered arc in place of the free one
        a, b, c = target["vertices"]
        payload["unused_arcs"] = [[a, b] if target["type"] != "collider" else [a, c]] + unused[1:]
    elif mutation == "unused_reversed":
        payload["unused_arcs"] = [[j, i] for i, j in unused] or [[2, 1]]
    elif mutation == "unused_foreign":
        payload["unused_arcs"] = [[0, 1], [n, n + 1], [3, 3]]
    elif mutation == "unused_repeated":
        payload["unused_arcs"] = unused + unused if unused else [[1, 2], [1, 2]]
    return json.dumps(payload)


def _doc(n: int, kind: str, motifs: list, unused: list, **extra) -> str:
    payload = {"schema_version": "1", "n": n, "kind": kind, "motifs": motifs, "unused_arcs": unused}
    payload.update(extra)
    return json.dumps(payload)


def _m(kind: str, *vertices) -> dict:
    return {"type": kind, "vertices": list(vertices)}


def _hostile_documents(group: str):
    if group == "content":
        for strategy in STRATEGY_NAMES:
            for n in HOSTILE_ORDERS:
                _, document, _ = _decompose(strategy, "json", n)
                for mutation in CONTENT_MUTATIONS:
                    for site in HOSTILE_SITES:
                        yield _mutate(document, mutation, site)
    elif group == "shape":
        for strategy in STRATEGY_NAMES:
            for n in (6, 7, 10, 11, 14, 15):  # packings: n = 2, 3 (mod 4)
                _, document, _ = _decompose(strategy, "json", n)
                yield document
                payload = json.loads(document)
                for site in HOSTILE_SITES:
                    swapped = json.loads(document)
                    target = swapped["motifs"][int(site * len(swapped["motifs"]))]
                    target["vertices"] = target["vertices"][::-1]
                    yield json.dumps(swapped)
                    tripled = json.loads(document)
                    target = tripled["motifs"][int(site * len(tripled["motifs"]))]
                    tripled["motifs"] += [dict(target), dict(target)]
                    yield json.dumps(tripled)
                payload["unused_arcs"] = []
                yield json.dumps(payload)
        yield _doc(5, "packing", [_m("chain", 1, 2, 3), _m("fork", 1, 2, 4), _m("fork", 1, 2, 5)], [])
        yield _doc(5, "packing", [_m("fork", 1, 2, 5), _m("chain", 1, 2, 3), _m("fork", 1, 2, 4)], [[3, 4]])
        yield _doc(4, "packing", [_m("collider", 1, 3, 4), _m("chain", 2, 3, 4), _m("fork", 3, 1, 4)], [])
        yield _doc(6, "packing", [_m("chain", 3, 3, 4), _m("collider", 0, 1, 2), _m("fork", 5, 6, 7)], [])
        yield _doc(6, "packing", [_m("chain", 2, 1, 3), _m("collider", 4, 3, 5), _m("fork", 6, 5, 4)], [[1, 2]])
        yield _doc(3, "decomposition", [_m("chain", 1, 2, 3)], [])
        yield _doc(3, "packing", [_m("chain", 1, 2, 3)], [[1, 3]])
        yield _doc(2, "packing", [], [[1, 2]])
        yield _doc(2, "decomposition", [], [])
        yield _doc(1, "decomposition", [], [])
        yield _doc(1, "packing", [], [[1, 1]])
        yield _doc(9, "packing", [_m("chain", 1, 2, 3)] * 4, [[1, 2]] * 3, extra_field=True)
        yield _doc(12, "packing", [_m("fork", -3, 2, 99), _m("collider", 10, 11, 13)], [[13, 14], [-1, 2]])
        yield _doc(600, "packing", [_m("chain", 598, 599, 600)], [])
    else:  # malformed: exit 2 with the decoder's message
        yield "{not json"
        yield ""
        yield "[1, 2, 3]"
        yield "null"
        yield json.dumps({"n": 8})
        yield json.dumps({"schema_version": 1, "n": 8, "kind": "packing", "motifs": [], "unused_arcs": []})
        yield json.dumps({"schema_version": "1", "kind": "packing", "motifs": [], "unused_arcs": []})
        yield json.dumps({"schema_version": "1", "n": 8, "motifs": [], "unused_arcs": []})
        yield json.dumps({"schema_version": "1", "n": 8, "kind": "packing", "unused_arcs": []})
        yield json.dumps({"schema_version": "1", "n": 8, "kind": "packing", "motifs": []})
        for n in ("8", 8.0, True, None, 0, -5):
            yield _doc(n, "packing", [], [])
        for kind in ("socks", None, 3, ["packing"]):
            yield _doc(8, kind, [], [])
        yield _doc(8, "packing", {"0": _m("chain", 1, 2, 3)}, [])
        yield _doc(8, "packing", [_m("chain", 1, 2, 3)], {"0": [1, 3]})
        for entry in (
            [1, 2, 3], "chain", None,
            {"vertices": [1, 2, 3]}, {"type": "triangle", "vertices": [1, 2, 3]},
            {"type": None, "vertices": [1, 2, 3]}, {"type": "chain"},
            {"type": "chain", "vertices": [1, 2]}, {"type": "chain", "vertices": [1, 2, 3, 4]},
            {"type": "chain", "vertices": (1, 2, 3)}, {"type": "chain", "vertices": "123"},
            {"type": "chain", "vertices": [1, 2, "3"]}, {"type": "chain", "vertices": [1, 2.0, 3]},
            {"type": "chain", "vertices": [True, 2, 3]}, {"type": "chain", "vertices": [1, None, 3]},
            {"type": "fork", "vertices": [1, 2, [3]]}, {"type": "collider", "vertices": [1, 2, 3.5]},
        ):
            yield _doc(8, "packing", [_m("chain", 1, 2, 3), entry], [])
        for entry in ([1], [1, 2, 3], (1, 2), "12", None, [1, True], [1.0, 2], ["1", 2], [1, None]):
            yield _doc(8, "packing", [_m("chain", 1, 2, 3)], [[4, 5], entry])
        yield '{"schema_version": "1", "n": 8, "kind": "packing", "motifs": [], "unused_arcs": [], "n": NaN}'
        yield '{"schema_version": "1", "n": 8, "kind": "packing", "motifs": [{"type": "chain", "vertices": [1, 2, Infinity]}], "unused_arcs": []}'
        yield '{"schema_version": "1", "n": 8, "kind": "packing", "motifs": [], "unused_arcs": []} trailing'
        yield "[" * 5000 + "]" * 5000


HOSTILE_GROUPS = ("content", "shape", "malformed")


def hostile_digest(group: str, fmt: str) -> str:
    digest = hashlib.sha256()
    for index, document in enumerate(_hostile_documents(group)):
        code, out, err = _run(["verify", "--format", fmt], stdin_text=document)
        digest.update(f"doc={index}\0code={code}\0".encode())
        digest.update(out.encode() + b"\0" + err.encode() + b"\0")
    return digest.hexdigest()


def _library_collections():
    """Collections only the library can build: the document decoder
    refuses unknown kinds and anything but three integer vertices."""
    base = (Motif("chain", (1, 2, 3)), Motif("fork", (1, 4, 5)))
    for odd in ("triangle", "", None, 7):
        yield MotifCollection(5, base + (Motif(odd, (2, 4, 5)),))
        yield MotifCollection(5, (Motif(odd, (1, 2, 3)),) + base)
    for vertices in ((1, 2), (1, 2, 3, 4), (), None, 5):
        yield MotifCollection(5, base + (Motif("collider", vertices),))
        yield MotifCollection(5, (Motif("chain", vertices),) + base + base)
    yield MotifCollection(6, (
        Motif("triangle", (1, 2, 3)), Motif("chain", (1, 2)), Motif("fork", (2, 1, 3)),
        Motif("chain", (1, 2, 3)), Motif("chain", (1, 2, 3)), Motif("collider", (0, 2, 3)),
        Motif("fork", (1, 2, 3)), Motif("collider", (1, 2, 3)),
    ))


def library_digest() -> str:
    digest = hashlib.sha256()
    for collection in _library_collections():
        digest.update(repr(verify(collection)).encode() + b"\0")
    return digest.hexdigest()


HOSTILE_EXPECTED = {
    ("content", "text"): "50c85ecf7e7dd67aada2658db13c9f16446efe8106cf8ca01cd738313864dcbc",
    ("content", "json"): "b1faf42803fba88f86bf500c6bf66a680040abf9f849e20a458b4bdddfcc14cd",
    ("shape", "text"): "10607ea9aae9ec5cae576e354c48666c64f2a87c990e382d99f5161db726f67a",
    ("shape", "json"): "643a951498ab79f4659e9d82e23ff2add514cc5082f691cf565f9f0224b42a5c",
    ("malformed", "text"): "eefe1c5dc5f2f07fbce1e24305eb041fa22671eb992c821807f47c70257415f4",
    ("malformed", "json"): "708460fb9655b6e51077bbc76e977db86d85f04eeb5e95663449876f9d05590e",
    "library": "a5e1792a40033662661b77b61c5e489dee3f500e5019ef28e55c31bda28f8d10",
}


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("group", HOSTILE_GROUPS)
def test_verify_on_hostile_documents_is_byte_identical(group, fmt):
    assert hostile_digest(group, fmt) == HOSTILE_EXPECTED[group, fmt]


def test_verify_report_on_library_only_collections_is_unchanged():
    assert library_digest() == HOSTILE_EXPECTED["library"]
