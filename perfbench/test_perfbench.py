"""Fast self-tests of the benchmark itself.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import unittest
from collections import Counter

import worker  # first: it puts the repository's src/ on sys.path

import checks
import tracing
import workloads
from ttmotifs import cli
from ttmotifs.analysis import mixed_counts, packing_number
from ttmotifs.constructions import MotifCollection
from ttmotifs.diagram import Diagram
from ttmotifs.oracle import max_p3_packing_undirected, max_packing
from workloads import Request

PLAIN = tracing.plain_layers()


def _document(n: int, strategy: str = "mixed") -> str:
    code, document, _, _ = worker.call_cli(
        cli.main, ["decompose", "--n", str(n), "--strategy", strategy, "--format", "json"]
    )
    assert code == checks.expected_exit(n)
    return document


def _verify_exit(document: str) -> int | None:
    return worker.call_cli(cli.main, ["verify"], document)[0]


class RequestSequenceTest(unittest.TestCase):
    def test_same_seed_same_round_other_seed_other_round(self):
        for name, make_round in workloads.ROUNDS.items():
            with self.subTest(workload=name):
                self.assertEqual(make_round(7), make_round(7))
                self.assertNotEqual(make_round(7), make_round(8))

    def test_bulk_round_covers_residues_and_strategies(self):
        for seed in range(20):
            requests = workloads.bulk_round(seed)
            self.assertEqual(sorted(r.n % 4 for r in requests), [0, 1, 2, 3])
            self.assertEqual(sorted(r.variant for r in requests), sorted(workloads.STRATEGIES))
            for request, centre in zip(sorted(requests), workloads.BULK_CENTRES):
                self.assertLessEqual(abs(request.n - centre), workloads.BULK_HALF_WINDOW)
                self.assertTrue(300 <= request.n <= 800)

    def test_small_round_mix(self):
        requests = workloads.small_round(3)
        ops = Counter(r.op for r in requests)
        mutations = Counter(r.mutation for r in requests if r.mutation)
        self.assertEqual(ops["text"], workloads.SMALL_SLOTS["text"])
        self.assertEqual(ops["diagram"], workloads.SMALL_SLOTS["diagram"])
        self.assertEqual(ops["counts"], workloads.SMALL_SLOTS["counts"])
        self.assertEqual(set(mutations.values()), {workloads.MUTATION_REPEATS})
        self.assertEqual(set(mutations), set(workloads.MUTATIONS))
        self.assertTrue(all(4 <= r.n <= 99 for r in requests))

    def test_oracle_round_is_every_order(self):
        requests = workloads.oracle_round(5)
        self.assertEqual(sorted(r.n for r in requests), list(workloads.ORACLE_ORDERS))


class MutationTest(unittest.TestCase):
    def test_each_mutation_class_gives_its_exit_code(self):
        for n in (8, 9, 10, 11):  # both decompositions and packings
            for mutation in workloads.MUTATIONS:
                for site in (0.0, 0.5, 0.99):
                    with self.subTest(n=n, mutation=mutation, site=site):
                        document = workloads.mutate_document(_document(n), mutation, site)
                        self.assertEqual(_verify_exit(document),
                                         workloads.EXPECTED_MUTATION_EXIT[mutation])

    @unittest.expectedFailure  # the decoder raises RecursionError; the probe tracks it
    def test_deep_nesting_gives_exit_2(self):
        self.assertEqual(_verify_exit(workloads.deep_nesting_document()), 2)

    def test_unmutated_requests_pass_their_checks(self):
        for strategy in workloads.STRATEGIES:
            for n in (4, 9, 14, 23):
                for op in ("text", "diagram", "counts", "verify", "pipeline"):
                    with self.subTest(strategy=strategy, n=n, op=op):
                        outcome = worker.run_cli_request(Request(op, n, strategy), PLAIN)
                        self.assertTrue(outcome.ok, outcome.error)

    def test_checks_reject_wrong_output(self):
        code, report, _, _ = worker.call_cli(cli.main, ["verify"], _document(12, "fork-max"))
        self.assertEqual(code, 0)
        self.assertTrue(checks.check_report(report, "fork-max", 12))
        self.assertFalse(checks.check_report(report, "chain-max", 12))
        self.assertFalse(checks.check_report(report.replace("valid: yes", "valid: no"),
                                             "fork-max", 12))
        code, text, _, _ = worker.call_cli(
            cli.main, ["decompose", "--n", "12", "--strategy", "mixed", "--format", "text"]
        )
        self.assertTrue(checks.check_text(text, "mixed", 12))
        self.assertFalse(checks.check_text(text.split("\n", 1)[1], "mixed", 12))


class OracleReferenceTest(unittest.TestCase):
    def test_references_agree_with_closed_forms(self):
        for n in range(1, 9):
            for kind in ("chain", "collider", "fork"):
                result = max_packing(kind, n)
                self.assertTrue(result.exhausted)
                self.assertEqual(result.optimum, packing_number(kind, n))
            result = max_p3_packing_undirected(n)
            self.assertTrue(result.exhausted)
            self.assertEqual(result.optimum, checks.mixed_reference(n))
            if n % 4 in (0, 1):
                self.assertEqual(sum(mixed_counts(n)), checks.mixed_reference(n))

    def test_oracle_request_checks_every_search(self):
        outcome = worker.run_oracle(Request("oracle", 6), PLAIN)
        self.assertEqual((outcome.operations, outcome.failed, outcome.certified), (4, 0, 4))
        self.assertEqual(outcome.certified_nodes, outcome.nodes)


class TracingTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tracer = tracing.Tracer()
        tracer.spans = [
            (1, "child", 1.0, 3.0, 0, "r"),
            (0, "parent", 0.0, 10.0, None, "r"),
            (2, "child", 4.0, 5.0, 0, "r"),
        ]
        own, total = tracer.self_times()
        self.assertEqual(own["parent"], 7.0)
        self.assertEqual(total["child"], 3.0)

    def test_install_restores_every_layer(self):
        before = {name: getattr(cli, name) for name in tracing.PATCHED_CLI_NAMES}
        render, unused = Diagram.render_ascii, MotifCollection.__dict__["unused_arcs"]
        tracer = tracing.Tracer()
        with tracer.installed("0:0") as layers:
            outcome = worker.run_cli_request(Request("verify", 9, "chain-max", "duplicate", 0.3),
                                             layers)
        self.assertTrue(outcome.ok)
        self.assertEqual({name: getattr(cli, name) for name in tracing.PATCHED_CLI_NAMES}, before)
        self.assertIs(Diagram.render_ascii, render)
        self.assertIs(MotifCollection.__dict__["unused_arcs"], unused)
        names = {span[1] for span in tracer.spans}
        self.assertLessEqual({"cli.main", "constructions.construct", "analysis.verify",
                              "cli.to_json", "cli.from_json", "constructions.unused_arcs"}, names)
        self.assertEqual(tracer.counts["analysis.violations.duplicate_arc"], 2)

    def test_tail_percentile_leaves_ten_samples_per_round(self):
        self.assertEqual(worker.tail_percentile(117), 90.0)
        self.assertEqual(worker.tail_percentile(40), 75.0)
        self.assertIsNone(worker.tail_percentile(4))


if __name__ == "__main__":
    unittest.main()
