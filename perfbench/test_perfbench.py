"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The EndToEnd tests build perfbench and simulate the suite (about a minute).
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(sid, parent, name, start, end, cell=""):
    return {"id": sid, "parent": parent, "name": name, "cell": cell,
            "start_ns": start, "end_ns": end}


def traced_counts(**overrides):
    counts = {k: 1 for k in (
        "cells", "ops", "accesses", "tape_bytes", "tape_data_accesses",
        "l1d_hits", "l1d_misses", "l2_hits", "l2_misses", "mat_touches",
        "sldt_notes", "victim_hits", "toggles", "store_hits", "store_misses",
        "store_bytes_read", "tapes_preloaded", "tapes_replayed")}
    counts.update(threads=4, parallel_wall_s=1.0, trace_overhead_s=0.5)
    counts.update(overrides)
    return counts


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        s = 1_000_000_000
        spans = [
            span(1, 0, "pass", 0, 100 * s),
            span(2, 1, "a.x", 10 * s, 40 * s),
            span(3, 2, "b.y", 15 * s, 20 * s),
            span(4, 2, "b.z", 18 * s, 30 * s),  # overlaps its sibling
            span(5, 1, "c.w", 50 * s, 90 * s),
            span(6, 5, "d.v", 80 * s, 95 * s),  # runs past its parent
        ]
        own = run.self_times(spans)
        self.assertEqual(own, {1: 30.0, 2: 15.0, 3: 5.0, 4: 12.0, 5: 30.0,
                               6: 15.0})

    def test_layer_self_times_sum_to_traced_wall(self):
        s = 1_000_000_000
        spans = [
            span(1, 0, "pass", 0, 10 * s),
            span(2, 1, "core.run_version", 0, 9 * s, "Swim/base"),
            span(3, 0, "layers", 10 * s, 30 * s),
            span(4, 3, "cell", 10 * s, 29 * s, "Swim/base"),
            span(5, 4, "codegen.interpret", 10 * s, 12 * s, "Swim/base"),
            span(6, 4, "tape.record", 12 * s, 15 * s, "Swim/base"),
            span(7, 4, "tape.decode", 15 * s, 16 * s, "Swim/base"),
            span(8, 4, "memsys.access", 16 * s, 20 * s, "Swim/base"),
            span(9, 4, "core.replay_tape", 20 * s, 28 * s, "Swim/base"),
        ]
        metrics, table, wall = run.layer_metrics("suite_interp", spans,
                                                 traced_counts())
        self.assertAlmostEqual(wall, 30.0)
        self.assertAlmostEqual(sum(table.values()), wall)
        self.assertAlmostEqual(table["untraced"], 3.0)  # 1 + 1 + 1 s of glue
        self.assertAlmostEqual(metrics["trace.coverage"], 27.0 / 30.0)
        self.assertAlmostEqual(metrics["tape.record_extra_s"], 1.0)
        self.assertAlmostEqual(metrics["cpu.timing_s"], 8.0 - 1.0 - 4.0)
        self.assertAlmostEqual(metrics["core.cell_s_sum"], 9.0)
        self.assertAlmostEqual(metrics["core.parallel_eff"], 9.0 / 4.0)


class MetricNames(unittest.TestCase):
    def test_names_match_the_benchmark_file(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]])

    def test_every_emitted_name_is_well_formed(self):
        spans = [span(1, 0, "pass", 0, 10),
                 span(2, 1, "core.run_version", 0, 9, "Swim/base")]
        metrics, _, _ = run.layer_metrics("suite_interp", spans,
                                          traced_counts())
        self.assertEqual(list(metrics), list(run.PER_LAYER))
        for name in [*metrics, *run.END_TO_END, *run.WORKLOADS,
                     *run.EXTRA_WORKLOADS]:
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(), name)


class EndToEnd(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(4)

    def digests(self, mode, threads, extra=()):
        out = subprocess.run(
            [str(self.binary), mode, "--workload", "suite_interp", "--seed",
             "7", "--threads", str(threads), *extra],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        return (result["passes"][0]["digests"] if mode == "measure"
                else result["digests"])

    def test_digest_stable_across_thread_counts(self):
        with tempfile.TemporaryDirectory() as work:
            measure = ["--work", work, "--seconds", "0"]
            serial = self.digests("measure", 1, measure)
            self.assertEqual(len(serial), 65)
            self.assertEqual(self.digests("measure", 4, measure), serial)
            self.assertEqual(self.digests("reference", 3), serial)

    def test_corrupted_digest_exits_nonzero(self):
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            digests = Path(tmp) / "digests.txt"
            digests.write_text("suite_interp 7 0123456789abcdef\n")
            with mock.patch.object(run, "DIGESTS", digests), \
                    contextlib.redirect_stdout(out):
                code = run.main(["--workload", "suite_interp", "--seed", "7",
                                 "--seconds", "0"])
        self.assertNotEqual(code, 0)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "suite_interp", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
