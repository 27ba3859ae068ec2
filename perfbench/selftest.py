"""Self-tests of the benchmark itself (not collected by the package's pytest run).

    python3 perfbench/selftest.py

Checks that inputs are a function of the seed, that traced and untraced CLI
runs print byte-identical output, and that every output check rejects a
deliberately corrupted output.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from inputs import Dataset, Spec, write_inputs  # noqa: E402

N = 5
SPECS = [Spec("mbt", "mbt", N), Spec("luce", "luce", N), Spec("qi", "quasi-independence", N)]
DATA = [Dataset("dense", "mbt", N, 5_000), Dataset("sparse", "luce", N, 60, relabel=True)]


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Fixture(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(prefix="selftest-", dir=run.WORK)
        cls.inputs = write_inputs(cls.tmp.name, 3, SPECS, DATA)
        cls.env = run.child_env()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def cli(self, *argv: str, traced: bool = False) -> run.Result:
        op = run.Op("selftest", argv[0], tuple(argv))
        spans = os.path.join(self.tmp.name, "spans.json") if traced else None
        return run.run_op(op, self.inputs["paths"], self.env, self.tmp.name, spans)

    def doc(self, *argv: str) -> dict:
        res = self.cli(*argv)
        self.assertEqual(res.returncode, 0, res.stderr)
        return json.loads(res.stdout)


class TestInputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_differs(self):
        for name, make in run.WORKLOADS.items():
            wl = make()
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b, \
                    tempfile.TemporaryDirectory() as c:
                write_inputs(a, 7, wl.specs, wl.datasets)
                write_inputs(b, 7, wl.specs, wl.datasets)
                write_inputs(c, 8, wl.specs, wl.datasets)
                fa, fb, fc = _files(a), _files(b), _files(c)
                self.assertEqual(fa, fb, name)
                self.assertEqual(sorted(fa), sorted(fc), name)
                for f in fa:
                    self.assertNotEqual(fa[f], fc[f], f"{name}/{f}")


class TestTracedOutput(Fixture):
    def test_traced_and_untraced_outputs_are_identical(self):
        cases = [
            ("fit", "--family", "bi", "--data", "@sparse", "--json"),
            ("fit", "--family", "l'", "--data", "@dense", "--json"),
            ("check", "--spec", "@qi", "--json"),
            ("check", "--data", "@dense", "--as-inverse", "--json"),
            ("search-labels", "--family", "qi", "--side", "right", "--data", "@sparse", "--json"),
            ("dims", "--family", "qi", "--n", "8", "--json"),
        ]
        for argv in cases:
            plain, traced = self.cli(*argv), self.cli(*argv, traced=True)
            self.assertEqual(plain.returncode, traced.returncode, argv)
            self.assertEqual(plain.stdout, traced.stdout, argv)
            with open(os.path.join(self.tmp.name, "spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            self.assertEqual(spans[0]["name"], "cli.main")
            self.assertTrue(all(s["op"] == "selftest" and s["end"] >= s["start"] for s in spans))

    def test_every_binding_is_wrapped_or_the_run_stops(self):
        self.cli("fit", "--family", "l", "--data", "@sparse", "--json", traced=True)
        with open(os.path.join(self.tmp.name, "spans.json"), encoding="utf-8") as fh:
            bindings = json.load(fh)["bindings"]
        self.assertLessEqual(
            {"permll.subspaces.atom_labels", "permll.fit.atom_labels"},
            set(bindings["subspaces.atom_labels"]),
        )
        install = "import tracer; tracer.install(tracer.Tracer('t'))"
        for setup, message in (
            ("import permll.fit as f; f.TABLE = {'k': f.atom_labels}", "still refers"),
            ("import permll.subspaces as s; del s.generators", "is missing"),
        ):
            argv = [sys.executable, "-c", f"{setup}; {install}"]
            env = dict(self.env, PYTHONPATH=os.pathsep.join([run.HERE, self.env["PYTHONPATH"]]))
            _, _, rc, _, err = run.spawn(argv, env, self.tmp.name)
            self.assertNotEqual(rc, 0, setup)
            self.assertIn(message, err, setup)

    def test_layer_metrics_self_time_excludes_children(self):
        self.cli("check", "--spec", "@mbt", "--json", traced=True)
        path = os.path.join(self.tmp.name, "spans.json")
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        metrics = run.layer_metrics([path])
        total = sum(metrics[f"{fn}.self_s"] for fn, st in run.LAYER_STATS.items() if "self_s" in st)
        root = (spans[0]["end"] - spans[0]["start"]) / 1e9
        self.assertLessEqual(total, root * (1 + 1e-9))
        self.assertEqual(metrics["decompose.canonical_lambda.calls"], 12)
        self.assertAlmostEqual(metrics["decompose.canonical_lambda.useful_ratio"], 2 / 12)
        self.assertEqual(metrics["subspaces.atom_labels.calls"], 0)


class TestChecksRejectCorruption(Fixture):
    def counts(self, name):
        return self.inputs["counts"][name]

    def test_fit_checks(self):
        c = self.counts("dense")
        cap = run.FIT_MAX_CYCLES
        docs = {f: self.doc("fit", "--family", f, "--data", "@dense", "--json")
                for f in ("l", "l'", "l_s", "bi", "bi_s", "qi")}
        for fam, doc in docs.items():
            self.assertEqual(checks.check_fit(doc, fam, N, c, cap), [], fam)
        fits = {f: (d["log_likelihood"], d["converged"]) for f, d in docs.items()}
        self.assertEqual(checks.check_fit_nesting(fits, c), [])

        for fam in ("l", "l'"):
            bad = dict(docs[fam], log_likelihood=docs[fam]["log_likelihood"] * (1 + 1e-6))
            self.assertTrue(checks.check_fit(bad, fam, N, c, cap), fam)
        bad = dict(docs["bi"], df=docs["bi"]["df"] + 1)
        self.assertTrue(checks.check_fit(bad, "bi", N, c, cap))
        bi = fits["bi"][0]
        self.assertTrue(checks.check_fit_nesting(dict(fits, bi_s=(bi + 1.0, True)), c))
        self.assertTrue(checks.check_fit_nesting(dict(fits, l=(fits["l"][0] - 1e3, True)), c))

    def test_fit_stopped_at_the_cycle_cap(self):
        c = self.counts("sparse")
        doc = self.doc("fit", "--family", "bi_s", "--data", "@sparse", "--max-cycles", "2", "--json")
        self.assertIs(doc["converged"], False)
        self.assertEqual(checks.check_fit(doc, "bi_s", N, c, 2), [])
        self.assertTrue(checks.check_fit(doc, "bi_s", N, c, 3))
        self.assertTrue(checks.check_fit(dict(doc, converged=True), "bi_s", N, c, 2))
        # an unconverged larger family is not held to the nesting order
        fits = {"bi_s": (-3.0, True), "bi": (-4.0, False)}
        self.assertEqual(checks.check_fit_nesting(fits, np.array([1, 1])), [])
        fits["bi"] = (-4.0, True)
        self.assertTrue(checks.check_fit_nesting(fits, np.array([1, 1])))

    def test_check_verdict_table(self):
        for spec in SPECS:
            doc = self.doc("check", "--spec", f"@{spec.name}", "--json")
            expected = checks.EXPECTED_VERDICTS[spec.kind]
            self.assertEqual(checks.check_check(doc, N, expected, None), [], spec.kind)
            for fam in checks.FAMILIES:
                bad = copy.deepcopy(doc)
                entry = bad["families"][fam]
                entry["verdict"] = not entry["verdict"]
                self.assertTrue(checks.check_check(bad, N, expected, None), (spec.kind, fam))
                # flip the violation too, so only the expected table can catch it
                entry["max_violation"] = 0.0 if entry["verdict"] else 1.0
                self.assertTrue(checks.check_check(bad, N, expected, None), (spec.kind, fam))

    def test_check_on_data_recomputes_round_trip(self):
        c = self.counts("dense")
        doc = self.doc("check", "--data", "@dense", "--json")
        table = c / c.sum()
        self.assertEqual(checks.check_check(doc, N, None, table), [])
        for fam in ("l", "l'"):
            bad = copy.deepcopy(doc)
            bad["families"][fam] = {"verdict": True, "max_violation": 0.0}
            self.assertTrue(checks.check_check(bad, N, None, table), fam)

    def test_search_checks(self):
        c = self.counts("sparse")
        for fam in ("l", "bi", "qi"):
            doc = self.doc("search-labels", "--family", fam, "--side", "right", "--data", "@sparse",
                           "--json")
            self.assertEqual(checks.check_search(doc, fam, N, c), [], fam)
            bad = dict(doc, log_likelihood=doc["log_likelihood"] * (1 + 1e-6))
            self.assertTrue(checks.check_search(bad, fam, N, c), fam)
            sigma = doc["relabelling"]["sigma"]
            ident = list(range(1, N + 1))
            corrupt = [{"sigma": [1] * N, "rho": ident}, {"sigma": sigma, "rho": [2, 1] + ident[2:]}]
            if fam != "qi":  # every position relabelling gives the same QI fit
                moved = sigma[:1] + [sigma[2], sigma[1]] + sigma[3:]
                corrupt.append({"sigma": moved, "rho": ident})
            for relabelling in corrupt:
                bad = dict(doc, relabelling=relabelling)
                self.assertTrue(checks.check_search(bad, fam, N, c), (fam, relabelling))

    def test_failures_are_counted_and_only_the_known_one_is_excused(self):
        op = run.Op("fit:qi", "fit", (), family="qi", input="dense", n=8,
                    known_failure=run.QI_RANK_CAP)
        known = run.Result(op, 0.1, 1.0, 1, b"", f"error: {run.QI_RANK_CAP}, got 8\n")
        other = run.Result(op, 0.1, 1.0, 1, b"", "error: something else\n")
        crash = run.Result(op, 0.1, 1.0, 2, b"", f"internal error: {run.QI_RANK_CAP}\n")
        self.assertEqual(run.check_pass([known], self.inputs), (1, []))
        for res in (other, crash):
            failed, problems = run.check_pass([res], self.inputs)
            self.assertEqual(failed, 1)
            self.assertTrue(problems)


class TestBenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.per_layer_names())


if __name__ == "__main__":
    unittest.main()
