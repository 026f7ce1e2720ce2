"""Self-test of the benchmark: its checks catch wrong answers, tracing changes none.

    python3 perfbench/selftest.py

Runs small requests in-process (a few seconds) in a temporary directory
under ``.perfbench_tmp/``.  The reproduce-table workload is too slow for
this test; its traced and untraced answers are compared by every traced
run (``run.py --trace 1``), which fails the run when they differ.
"""

import collections
import dataclasses
import json
import signal
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the package's src/ on the path)
import check  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
from spans import Timer, Tracer, merge, summarize  # noqa: E402
from workloads import (  # noqa: E402
    ORDERS,
    PLANE_SEARCHES,
    SWEEPS_PER_SET,
    ConstructRequest,
    Inputs,
    construct_kinds,
    construct_requests,
    make_inputs,
    search_requests,
)


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        run.TMP.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.TMP, prefix="selftest-")
        self.tmp = self._tmp.name
        self.oracle = check.Oracle(seed=0)

    def tearDown(self):
        self._tmp.cleanup()
        try:
            run.TMP.rmdir()
        except OSError:
            pass

    def _subdir(self, name: str) -> str:
        path = Path(self.tmp) / name
        path.mkdir()
        return str(path)

    def test_flipped_baer_vertex_is_counted_as_failed(self):
        req = ConstructRequest(9, "baer")
        inputs = Inputs(construct=[req])
        rec = worker.run_construct(Timer(), inputs, self.tmp)[0]
        good = check.check_construct(req, rec, self.tmp, self.oracle)
        self.assertEqual(good.errors, [])

        path = req.files(self.tmp)["json"]
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        label = next(iter(doc["assignment"]))
        doc["assignment"][label] = "B" if doc["assignment"][label] == "A" else "A"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        bad = check.check_construct(req, rec, self.tmp, self.oracle)
        self.assertTrue(bad.errors)
        self.assertEqual(run.tally([[good, bad]]), (2, 1))

    def test_planted_wrong_expected_status_is_counted_as_failed(self):
        req = PLANE_SEARCHES[1]  # PG(2,3) at t=1: no 1-internal partition
        planted = dataclasses.replace(req, allowed=(check.FOUND,))
        inputs = Inputs(search=[req])
        rec = worker.run_search(Timer(), inputs, [])[0]
        good = check.check_search(req, rec, self.oracle)
        bad = check.check_search(planted, rec, self.oracle)
        self.assertEqual(good.errors, [])
        self.assertTrue(bad.errors)
        self.assertEqual(run.tally([[good], [bad]]), (2, 1))

    def test_traced_and_untraced_runs_give_identical_answers(self):
        construct = [
            ConstructRequest(q, kind, opts)
            for q in (3, 4, 5, 7, 8, 9)
            for kind in construct_kinds(q)
            for opts in {
                "combinatorial": [(), ("--drop",)],
                "alg1mod4": [(), ("--erase-units",)],
                "alg3mod4": [(), ("--erase-units",)],
                "oval": [("--variant", "interior_skew"), ("--variant", "exterior_skewtangent")],
            }.get(kind, [()])
        ]
        slow = {"pg5_t1", "pg7_t1"}
        search = [r for r in search_requests(0) if r.id not in slow][:30]
        graphs = worker.random_graph_objects(make_inputs("exact-search", 0).edges)
        answers = {}
        for mode, tracer in (("plain", Timer()), ("traced", Tracer())):
            out = self._subdir(mode)
            # as in a pass: the plain one is interrupted by the clock's samples
            clock = refclock.RefClock(sampling=not tracer.enabled)
            clock.start()
            inputs = Inputs(construct=construct)
            recs = worker.run_construct(tracer, inputs, out)
            outcomes = [check.check_construct(r, x, out, self.oracle)
                        for r, x in zip(construct, recs)]
            inputs = Inputs(search=search)
            recs = worker.run_search(tracer, inputs, graphs)
            outcomes += [check.check_search(r, x, self.oracle) for r, x in zip(search, recs)]
            clock.stop()
            self.assertGreater(len(clock.samples), 2 if mode == "plain" else 1)
            self.assertGreater(clock.wall_s, 0.0)
            self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
            self.assertEqual([o.errors for o in outcomes if o.errors], [])
            answers[mode] = [(o.id, o.answer) for o in outcomes]
            if mode == "traced":
                self.assertTrue(tracer.spans)
                # two passes' spans together: each span keeps its own parent
                summ = summarize(merge([tracer.spans, tracer.spans]))
                self.assertGreaterEqual(min(summ["self_s"].values()), 0.0)
        self.assertEqual(answers["plain"], answers["traced"])

    def test_a_construct_cold_set_makes_every_kind_once(self):
        for seed in (0, 1):
            sweeps = [construct_requests(seed, i) for i in range(SWEEPS_PER_SET)]
            made = collections.Counter((r.q, r.kind) for sweep in sweeps for r in sweep)
            self.assertEqual(made, collections.Counter(
                (q, kind) for q in ORDERS for kind in construct_kinds(q)))
            for sweep in sweeps:
                orders = [r.q for r in sweep]
                self.assertEqual(len(orders), len(set(orders)))
                self.assertEqual(orders[0], max(orders))
            self.assertEqual(sweeps, [construct_requests(seed, i)
                                      for i in range(SWEEPS_PER_SET)])

    def test_clock_scales_by_the_kernel_and_leaves_it_out(self):
        clock = refclock.RefClock()
        clock.start()
        t_end = refclock.time.perf_counter() + 0.3
        while refclock.time.perf_counter() < t_end:
            pass
        clock.stop()
        self.assertGreater(len(clock.samples), 3)
        self.assertLess(clock.raw_s, 0.3)  # the samples' own time is left out
        speeds = [1 / s for s in clock.samples]
        self.assertGreaterEqual(clock.wall_s, clock.raw_s * refclock.REF_S * min(speeds) * 0.999)
        self.assertLessEqual(clock.wall_s, clock.raw_s * refclock.REF_S * max(speeds) * 1.001)


if __name__ == "__main__":
    unittest.main()
