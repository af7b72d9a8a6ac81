#!/usr/bin/env python3
"""Gate a change on the repository's benchmark (BENCHMARK.json).

    tools/bench_gate.py --base DIR --head DIR --out FILE

DIR are two checkouts: the commit the change is based on, and the change.
For each workload BENCHMARK.json lists, the gate runs the benchmark command
in both trees, alternating which tree goes first, at the default seed, so
every cell of every run is checked against perfbench/digests.txt. For each
end-to-end metric it compares the median of the head runs with the median
of the base runs:

  regressed   the head median is worse by more than the metric's bound and
              every head run is worse than every base run;
  unresolved  the head median is worse by more than the bound, but the runs
              overlap, so host noise cannot be told from a change;
  ok          otherwise.

It prints a table of medians and verdicts and writes every run and verdict
to FILE as JSON. A head run fails when it exits nonzero, reports failed
cells, or lacks a finite value for a metric. Without perfbench/run.py in
the base tree, or when a base run fails, the workload's bounds are skipped
and the table says so; its head runs are still checked.

Exit codes: 0 pass (unresolved and skipped rows included), 1 a head run
failed or a metric regressed, 2 bad arguments.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# Alternating base/head pairs per workload. With no real change, the five
# head runs all read worse than the five base runs with probability
# 1/C(10, 5) = 1/252, so a "regressed" verdict is rarely noise; more pairs
# would not fit two workloads of ~50 s runs into a CI job.
PAIRS = 5


def run_once(tree, spec, workload):
    """The end-to-end metrics of one run in `tree`, or None if it failed."""
    done = subprocess.run(
        [*spec["command"], "--workload", workload,
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = {m["name"]: float(result["metrics"][m["name"]]["value"])
                   for m in spec["end_to_end"]}
    except (IndexError, KeyError, TypeError, ValueError):
        return None
    ok = (done.returncode == 0 and result.get("failed") == 0
          and all(math.isfinite(v) for v in metrics.values()))
    return metrics if ok else None


def verdict(metric, base, head):
    """'ok', 'unresolved' or 'regressed' for one metric's base/head runs."""
    sign = 1 if metric["better"] == "lower" else -1
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(head) - base_median)
    if worse_by <= metric["bound"] * abs(base_median):
        return "ok"
    if all(sign * (h - b) > 0 for h in head for b in base):
        return "regressed"
    return "unresolved"


def judge(spec, runs):
    """(rows, passed) for runs[workload][side]: lists of run metrics, None
    for a failed run; an empty base list means the base has no benchmark."""
    rows, passed = [], True
    for workload, sides in runs.items():
        base, head = sides["base"], sides["head"]
        if None in head:
            passed = False
            rows.append([workload, "*", None, None,
                         f"FAILED: {head.count(None)} head run(s) failed"])
            continue
        skip = ("skipped: no perfbench/run.py in base" if not base else
                "skipped: a base run failed" if None in base else None)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            h = [r[name] for r in head]
            b = None if skip else [r[name] for r in base]
            v = skip or verdict(metric, b, h)
            passed = passed and v != "regressed"
            rows.append([workload, name, b and statistics.median(b),
                         statistics.median(h), v])
    return rows, passed


def main(argv=None, run=run_once):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    has_base = (args.base / "perfbench" / "run.py").is_file()

    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {"base": [], "head": []}
        for i in range(PAIRS):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                if side == "base" and not has_base:
                    continue
                result = run(args.base if side == "base" else args.head,
                             spec, workload)
                print(f"{workload} pair {i + 1}/{PAIRS} {side}: {result}",
                      file=sys.stderr, flush=True)
                runs[workload][side].append(result)

    rows, passed = judge(spec, runs)
    print("| workload | metric | base median | head median | change "
          "| verdict |\n|---|---|---|---|---|---|")
    for workload, name, b, h, v in rows:
        change = f"{(h - b) / b:+.1%}" if b and h is not None else "-"
        print(f"| {workload} | {name} | "
              f"{'-' if b is None else f'{b:.4g}'} | "
              f"{'-' if h is None else f'{h:.4g}'} | {change} | {v} |")
    print("bench gate:", "pass" if passed else "FAIL")
    args.out.write_text(json.dumps(
        {"passed": passed, "pairs": PAIRS, "runs": runs,
         "rows": rows}, indent=1) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
