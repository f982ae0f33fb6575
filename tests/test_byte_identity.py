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
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ttmotifs.cli import main

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
