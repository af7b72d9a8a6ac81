"""Tests of tools/bench_gate.py's verdicts on synthetic runs; no benchmark
runs. Run from anywhere:

    python3 tools/test_bench_gate.py
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_gate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def runs_of(values):
    """One run per value: every end-to-end metric reads that value."""
    return [{m["name"]: v for m in SPEC["end_to_end"]} for v in values]


class Verdict(unittest.TestCase):
    def test_higher_is_better_regresses_downward(self):
        rate = {"name": "rate", "better": "higher", "bound": 0.1}
        self.assertEqual(bench_gate.verdict(rate, [10, 11, 10], [8, 8, 7]),
                         "regressed")
        self.assertEqual(bench_gate.verdict(rate, [10, 11, 10], [12, 13, 14]),
                         "ok")


class RunOnce(unittest.TestCase):
    """A run's result line decides whether it failed."""

    def result(self, code, line):
        script = f"print('table'); print({line!r}); raise SystemExit({code})"
        spec = dict(SPEC, command=[sys.executable, "-c", script])
        return bench_gate.run_once(ROOT, spec, "suite_interp")

    def line(self, failed=0, value=1.5):
        return json.dumps({"correct": failed == 0, "attempted": 65,
                           "failed": failed, "metrics": {
                               m["name"]: {"value": value, "unit": m["unit"]}
                               for m in SPEC["end_to_end"]}})

    def test_a_clean_run_gives_its_metrics(self):
        self.assertEqual(self.result(0, self.line()), runs_of([1.5])[0])

    def test_failed_cells_nonzero_exit_nan_or_no_line_fail_the_run(self):
        self.assertIsNone(self.result(1, self.line(failed=3)))
        self.assertIsNone(self.result(1, self.line()))
        self.assertIsNone(self.result(0, self.line(value=float("nan"))))
        self.assertIsNone(self.result(1, "perfbench: build failed"))


class Gate(unittest.TestCase):
    """main() with a fake runner that serves each tree its runs in turn, the
    same runs for every workload."""

    def gate(self, base_runs, head_runs, with_perfbench=True):
        calls = []
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            if with_perfbench:
                (base / "perfbench").mkdir()
                (base / "perfbench" / "run.py").write_text("")
            n = len(SPEC["workloads"])
            feeds = {base: iter(base_runs * n), ROOT: iter(head_runs * n)}

            def fake_run(tree, spec, workload):
                calls.append(tree)
                return next(feeds[tree])

            out, report = io.StringIO(), base / "gate.json"
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = bench_gate.main(["--base", str(base), "--head",
                                        str(ROOT), "--out", str(report)],
                                       run=fake_run)
            verdicts = [r[4] for r in json.loads(report.read_text())["rows"]]
        return code, verdicts, calls, out.getvalue()

    def test_regressed_fails(self):
        code, verdicts, _, table = self.gate(
            runs_of([1.0, 1.1, 0.9, 1.0, 1.0]),
            runs_of([2.0, 2.1, 1.9, 2.0, 2.2]))
        self.assertEqual(code, 1)
        self.assertEqual(set(verdicts), {"regressed"})
        self.assertIn(
            "| suite_interp | wall_s | 1 | 2 | +100.0% | regressed |", table)

    def test_unresolved_passes(self):
        code, verdicts, _, _ = self.gate(
            runs_of([1.0, 1.1, 0.9, 1.0, 1.0]),
            runs_of([2.0, 2.1, 1.0, 2.0, 2.2]))
        self.assertEqual(code, 0)
        self.assertEqual(set(verdicts), {"unresolved"})

    def test_ok_passes_and_alternates_the_trees(self):
        code, verdicts, calls, _ = self.gate(runs_of([1.0] * 5),
                                             runs_of([1.05] * 5))
        self.assertEqual(code, 0)
        self.assertEqual(set(verdicts), {"ok"})
        self.assertEqual(len(calls),
                         len(SPEC["workloads"]) * bench_gate.PAIRS * 2)
        self.assertNotEqual(calls[0], calls[2])

    def test_failed_head_run_fails(self):
        head = runs_of([1.0] * 5)
        head[3] = None
        code, verdicts, _, _ = self.gate(runs_of([1.0] * 5), head)
        self.assertEqual(code, 1)
        self.assertTrue(all(v == "FAILED: 1 head run(s) failed"
                            for v in verdicts))

    def test_base_without_perfbench_skips_the_bounds(self):
        code, verdicts, calls, _ = self.gate([], runs_of([9.0] * 5),
                                             with_perfbench=False)
        self.assertEqual(code, 0)
        self.assertEqual(set(calls), {ROOT})
        self.assertTrue(all(v.startswith("skipped: no perfbench")
                            for v in verdicts))

    def test_failed_base_run_skips_the_bounds(self):
        rows, passed = bench_gate.judge(
            SPEC, {"axis_memlat": {"base": [None] + runs_of([1.0] * 4),
                                   "head": runs_of([9.0] * 5)}})
        self.assertTrue(passed)
        self.assertTrue(all(r[4] == "skipped: a base run failed"
                            for r in rows))


if __name__ == "__main__":
    unittest.main()
