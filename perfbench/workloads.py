"""Seeded request sequences for the three workloads, and document mutations.

A workload's requests come in rounds: one round is a fixed list of
requests drawn from the seed, and a run replays that same round until its
time is up.  Every count the traced run reports is per round, so it
repeats exactly for a given seed however many rounds a run completes.

Orders are drawn stratified: each request slot draws its order from its
own narrow window, and the windows together span the workload's range.
Two seeds then give different requests that do comparable work, which
keeps the spread between runs of different seeds small.

This module needs only the standard library, so the runner can import it
without importing ttmotifs.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

WORKLOADS = ("bulk-pipeline", "small-mixed", "oracle-sweep")

STRATEGIES = ("chain-max", "collider-max", "fork-max", "mixed")
ORACLE_KINDS = ("chain", "collider", "fork", "mixed")

# bulk-pipeline: one round is four pipelines, one order per quarter of
# 300..800.  Each order is drawn from a 16-wide window around the
# quarter's centre, so every round covers all four residues mod 4 and all
# four strategies at a comparable amount of work.
BULK_CENTRES = (332, 480, 628, 776)
BULK_HALF_WINDOW = 8

# small-mixed: slots per round for each request type, at orders 4..99.
SMALL_MIN_ORDER = 4
SMALL_MAX_ORDER = 99
SMALL_SLOTS = {"text": 30, "diagram": 20, "counts": 12, "verify": 37}
MUTATION_REPEATS = 3  # each mutation class appears this often per round

# Mutations the benchmark applies to a decompose document before verify,
# with the exit code verify must give.  Content defects leave valid JSON
# with wrong content (exit 1); malformed input does not parse as a
# document (exit 2).
CONTENT_MUTATIONS = ("retag", "duplicate", "out_of_range", "wrong_kind", "wrong_unused")
MALFORMED_MUTATIONS = ("truncated",)
MUTATIONS = CONTENT_MUTATIONS + MALFORMED_MUTATIONS
EXPECTED_MUTATION_EXIT = {
    **{name: 1 for name in CONTENT_MUTATIONS},
    **{name: 2 for name in MALFORMED_MUTATIONS},
}

# Known-defect probe sent once per small-mixed round, outside the measured
# mix: a 200k-deep [[[...]]] document should give exit 2, but the decoder
# raises RecursionError instead.  Its outcome is reported on its own.
DEEP_NESTING_DEPTH = 200_000

# oracle-sweep: every kind at every order in 3..12 under one node budget
# and no time budget, so every result is deterministic.  One request
# certifies one order: the four searches at that n.
ORACLE_ORDERS = range(3, 13)
ORACLE_NODE_BUDGET = 200_000


class Request(NamedTuple):
    """One request of a round.

    op is "pipeline" (bulk decompose | verify), "text", "diagram",
    "counts", "verify" (decompose --format json, then verify) or
    "oracle" (every kind's search at order n).  variant is the strategy
    of a decompose request.  mutation names a MUTATIONS entry applied to
    the document of a verify request ("" for none), and site in [0, 1)
    picks the motif it hits.
    """

    op: str
    n: int
    variant: str = ""
    mutation: str = ""
    site: float = 0.0


def arc_count(n: int) -> int:
    return n * (n - 1) // 2


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _stratified_orders(rng: random.Random, slots: int, low: int, high: int) -> list[int]:
    """One order per slot; slot k draws from the k-th of `slots` equal
    windows of low..high, so the orders cover the range evenly."""
    width = high - low + 1
    return [low + int((k + rng.random()) * width / slots) for k in range(slots)]


def _cyclic(rng: random.Random, values: tuple, count: int) -> list:
    """values[(k + offset) % len(values)] for slot k, with a seeded offset.

    Slots are in ascending order, so each value gets orders spread evenly
    over the range whatever the seed: the pairing of value and order,
    which sets a request's cost, moves by one slot between seeds.
    """
    offset = rng.randrange(len(values))
    return [values[(k + offset) % len(values)] for k in range(count)]


def bulk_round(seed: int) -> list[Request]:
    rng = _rng("bulk-pipeline", seed)
    residues = _cyclic(rng, (0, 1, 2, 3), len(BULK_CENTRES))
    strategies = _cyclic(rng, STRATEGIES, len(BULK_CENTRES))
    requests = []
    for centre, residue, strategy in zip(BULK_CENTRES, residues, strategies):
        low = centre - BULK_HALF_WINDOW
        n = low + (residue - low) % 4 + 4 * rng.randrange(BULK_HALF_WINDOW // 2)
        requests.append(Request("pipeline", n, strategy))
    rng.shuffle(requests)
    return requests


def small_round(seed: int) -> list[Request]:
    rng = _rng("small-mixed", seed)
    requests = []
    for op, slots in SMALL_SLOTS.items():
        orders = _stratified_orders(rng, slots, SMALL_MIN_ORDER, SMALL_MAX_ORDER)
        strategies = _cyclic(rng, STRATEGIES, slots)
        for n, strategy in zip(orders, strategies):
            requests.append(Request(op, n, "" if op == "counts" else strategy))
    mutated = len(MUTATIONS) * MUTATION_REPEATS
    orders = _stratified_orders(rng, mutated, SMALL_MIN_ORDER, SMALL_MAX_ORDER)
    strategies = _cyclic(rng, STRATEGIES, mutated)
    mutations = _cyclic(rng, MUTATIONS, mutated)
    for n, strategy, mutation in zip(orders, strategies, mutations):
        requests.append(Request("verify", n, strategy, mutation, rng.random()))
    rng.shuffle(requests)
    return requests


def oracle_round(seed: int) -> list[Request]:
    rng = _rng("oracle-sweep", seed)
    requests = [Request("oracle", n) for n in ORACLE_ORDERS]
    rng.shuffle(requests)
    return requests


ROUNDS = {
    "bulk-pipeline": bulk_round,
    "small-mixed": small_round,
    "oracle-sweep": oracle_round,
}


def deep_nesting_document() -> str:
    return "[" * DEEP_NESTING_DEPTH + "]" * DEEP_NESTING_DEPTH


def mutate_document(text: str, mutation: str, site: float) -> str:
    """Apply one mutation class to a decompose JSON document."""
    if mutation == "truncated":
        return text[: len(text) // 2]
    payload = json.loads(text)
    motifs = payload["motifs"]
    target = motifs[int(site * len(motifs))]
    n = payload["n"]
    if mutation == "retag":
        kinds = ORACLE_KINDS[:3]
        target["type"] = kinds[(kinds.index(target["type"]) + 1) % len(kinds)]
    elif mutation == "duplicate":
        motifs.append(dict(target))
    elif mutation == "out_of_range":
        target["vertices"][2] = n + 1
    elif mutation == "wrong_kind":
        payload["kind"] = "packing" if payload["kind"] == "decomposition" else "decomposition"
    elif mutation == "wrong_unused":
        payload["unused_arcs"] = [] if payload["unused_arcs"] else [[1, 2]]
    else:
        raise ValueError(f"unknown mutation {mutation!r}")
    return json.dumps(payload)
