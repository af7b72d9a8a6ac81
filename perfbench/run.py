#!/usr/bin/env python3
"""The selcache benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite_interp --seed 7 --seconds 10 --trace 0

It builds the `perfbench` binary from source under .bench_build/, prepares
the workload's inputs, runs closed-loop passes of the workload for
--seconds, checks every simulated cell against a reference digest, and
prints a table followed by one JSON object as the last line of stdout.
With --trace 1 it makes the traced run instead and reports the per-layer
metrics. perfbench/README.md describes the workloads and metrics.

Exit codes: 0 ok, 1 a cell failed its check or a step failed (no result
line is printed when no result exists), 2 bad arguments.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "perfbench" / "perfbench"
DIGESTS = HERE / "digests.txt"
# Sweep workers of every workload.
THREADS = min(4, len(os.sched_getaffinity(0)))

WORKLOADS = ("suite_interp", "axis_memlat")
# Runnable by hand but not listed in BENCHMARK.json: their set-ups and
# references would leave no time for the listed workloads' long runs within
# the benchmark's time budget (README.md).
EXTRA_WORKLOADS = ("suite_replay_victim", "store_warm_axis")
# RunOptions::data_seed's default: the seed every figure of the repo uses.
DEFAULT_SEED = 0x5E1C4C4E
# Set-ups per run; setup_s is their median. The interpreted workloads'
# set-up takes milliseconds, so it repeats more often to be steady.
SETUP_REPEATS = {"suite_interp": 51, "axis_memlat": 51,
                 "suite_replay_victim": 3, "store_warm_axis": 3}
# Workloads that simulate the same cells share one reference.
REFERENCE_KIND = {"suite_interp": "bypass-base",
                  "axis_memlat": "bypass-memlat4",
                  "suite_replay_victim": "victim-base",
                  "store_warm_axis": "bypass-memlat4"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "core.cells": "count",
    "core.cell_s_sum": "s",
    "core.cell_s_max": "s",
    "core.parallel_eff": "ratio",
    "workloads.build_s": "s",
    "transform.prepare_s": "s",
    "codegen.interpret_s": "s",
    "codegen.ops": "count",
    "tape.record_extra_s": "s",
    "tape.decode_s": "s",
    "tape.bytes_per_access": "B/access",
    "tape.load_s": "s",
    "tape.preload_used_ratio": "ratio",
    "cpu.timing_s": "s",
    "memsys.access_s": "s",
    "memsys.accesses": "count",
    "memsys.l1d_miss_ratio": "ratio",
    "memsys.l2_miss_ratio": "ratio",
    "hw.bypass_s": "s",
    "hw.victim_s": "s",
    "hw.mat_touches": "count",
    "hw.sldt_notes": "count",
    "hw.victim_hits": "count",
    "hw.toggles": "count",
    "store.load_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.bytes_read": "bytes",
    "store.preload_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
# Share of the traced wall time the layer spans must account for.
COVERAGE_TOLERANCE = 0.02

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(jobs):
    """Configure (once) and build the perfbench binary; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no selcache sources under {ROOT / 'src'}")
    build_dir = BIN.parent
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return BIN


def call(binary, mode, args):
    """Run one perfbench mode to completion and parse its JSON output."""
    done = subprocess.run([str(binary), mode, *args], stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise BenchError(f"perfbench {mode} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def workload_digest(cells):
    """FNV-1a over a pass's cell digests: the one recorded per workload."""
    h = FNV_OFFSET
    for cell in cells:
        for byte in int(cell, 16).to_bytes(8, "little"):
            h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def load_recorded(path):
    """{(workload, seed): digest} from lines `workload seed digest`."""
    recorded = {}
    for line in Path(path).read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            recorded[(fields[0], int(fields[1]))] = fields[2]
    return recorded


def reference_cells(binary, workload, seed):
    """Per-cell digests of the interpreted reference, cached per build."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:12]
    cache = BUILD / "refs" / f"{REFERENCE_KIND[workload]}-{seed}-{build_id}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    log(f"computing the interpreted reference for seed {seed}")
    cells = call(binary, "reference", ["--workload", workload, "--seed",
                                       str(seed), "--threads", str(THREADS)])
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(cells["digests"]))
    return cells["digests"]


def check(passes, workload, seed, recorded, binary):
    """(attempted, failed) cells over all passes.

    A seed with a recorded digest is checked against it; a pass that does
    not match fails every cell, since the recorded digest cannot say which.
    Any other seed is checked cell by cell against the reference.
    """
    attempted = sum(len(p) for p in passes)
    expected = recorded.get((workload, seed))
    if expected is not None:
        bad = [p for p in passes if workload_digest(p) != expected]
        for p in bad:
            log(f"{workload} seed {seed}: digest {workload_digest(p)}, "
                f"recorded {expected}")
        return attempted, sum(len(p) for p in bad)
    ref = reference_cells(binary, workload, seed)
    failed = 0
    for p in passes:
        failed += sum(1 for a, b in zip(p, ref) if a != b)
        failed += abs(len(p) - len(ref))
    return attempted, failed


def self_times(spans):
    """{span id: self seconds}: duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for c in sorted(children[s["id"]], key=lambda c: c["start_ns"]):
            a = max(c["start_ns"], s["start_ns"])
            b = min(c["end_ns"], s["end_ns"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end_ns"] - s["start_ns"] - covered) / 1e9
    return out


def layer_of(name):
    """The module a span's name starts with; None for root and cell glue."""
    return name.split(".", 1)[0] if "." in name else None


def layer_metrics(workload, spans, counts):
    """(per-layer metrics, per-layer self-time table, traced wall)."""
    own = self_times(spans)
    by_name = defaultdict(float)
    table = defaultdict(float)
    for s in spans:
        by_name[s["name"]] += own[s["id"]]
        table[layer_of(s["name"]) or "untraced"] += own[s["id"]]
    traced_wall = sum((s["end_ns"] - s["start_ns"]) / 1e9
                      for s in spans if s["parent"] == 0)
    roots = {s["id"]: s["name"] for s in spans if s["parent"] == 0}

    # Per-cell time of the task's own calls (children of the "pass" root).
    cell_s = defaultdict(float)
    for s in spans:
        if roots.get(s["parent"]) == "pass" and s["cell"]:
            cell_s[s["cell"]] += (s["end_ns"] - s["start_ns"]) / 1e9

    # cpu: a full replay less its decode and its hierarchy (the drive that
    # matches the version: no scheme for base/puresw, else the workload's
    # scheme, forced on or toggled as the version runs it).
    scheme = "hw.victim" if workload == "suite_replay_victim" else "hw.bypass"
    per_cell = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s["cell"] and roots.get(s["parent"]) != "pass":
            per_cell[s["cell"]][s["name"]] += own[s["id"]]
    timing = 0.0
    for cell, t in per_cell.items():
        plain = cell.rsplit("/", 1)[1] in ("base", "puresw")
        timing += (t["core.replay_tape"] - t["tape.decode"]
                   - t["memsys.access" if plain else scheme])

    def ratio(a, b):
        return a / b if b else 0.0

    n = counts
    metrics = {
        "core.cells": n["cells"],
        "core.cell_s_sum": sum(cell_s.values()),
        "core.cell_s_max": max(cell_s.values()),
        "core.parallel_eff": ratio(sum(cell_s.values()),
                                   n["threads"] * n["parallel_wall_s"]),
        "workloads.build_s": by_name["workloads.build"],
        "transform.prepare_s": by_name["transform.prepare"],
        "codegen.interpret_s": by_name["codegen.interpret"],
        "codegen.ops": n["ops"],
        "tape.record_extra_s": by_name["tape.record"]
                               - by_name["codegen.interpret"],
        "tape.decode_s": by_name["tape.decode"],
        "tape.bytes_per_access": ratio(n["tape_bytes"],
                                       n["tape_data_accesses"]),
        "tape.load_s": by_name["tape.load"],
        "tape.preload_used_ratio": ratio(n["tapes_replayed"],
                                         n["tapes_preloaded"]),
        "cpu.timing_s": timing,
        "memsys.access_s": by_name["memsys.access"],
        "memsys.accesses": n["accesses"],
        "memsys.l1d_miss_ratio": ratio(n["l1d_misses"],
                                       n["l1d_hits"] + n["l1d_misses"]),
        "memsys.l2_miss_ratio": ratio(n["l2_misses"],
                                      n["l2_hits"] + n["l2_misses"]),
        "hw.bypass_s": by_name["hw.bypass"] - by_name["memsys.access"],
        "hw.victim_s": by_name["hw.victim"] - by_name["memsys.access"],
        "hw.mat_touches": n["mat_touches"],
        "hw.sldt_notes": n["sldt_notes"],
        "hw.victim_hits": n["victim_hits"],
        "hw.toggles": n["toggles"],
        "store.load_s": by_name["store.load"],
        "store.hits": n["store_hits"],
        "store.misses": n["store_misses"],
        "store.hit_ratio": ratio(n["store_hits"],
                                 n["store_hits"] + n["store_misses"]),
        "store.bytes_read": n["store_bytes_read"],
        "store.preload_s": by_name["store.preload_tapes"],
        "trace.overhead_s": n["trace_overhead_s"],
        "trace.coverage": ratio(traced_wall - table["untraced"], traced_wall),
    }
    return metrics, dict(table), traced_wall


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}})


def run_measured(binary, args, common, work, recorded):
    setup = call(binary, "setup", common + [
        "--work", str(work), "--repeat", str(SETUP_REPEATS[args.workload])])
    measured = call(binary, "measure", common + [
        "--work", str(work), "--seconds", str(args.seconds)])
    passes = measured["passes"]
    attempted, failed = check([p["digests"] for p in passes], args.workload,
                              args.seed, recorded, binary)
    # The first pass of a process runs measurably slower (cold allocator and
    # caches); it warms up and is checked but not timed.
    timed = passes[1:]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    print(f"{args.workload}: seed {args.seed}, {THREADS} threads, "
          f"{len(passes)} passes (median of {len(timed)} after warm-up), "
          f"{len(setup['setup_s'])} set-ups (median)")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:14.6f} {END_TO_END[name]}")
    print(f"  {'error_rate':<12} {failed / attempted:14.6f} "
          f"({failed} of {attempted} cells)")
    return attempted, failed, metrics, END_TO_END


def run_traced(binary, args, common, work, recorded):
    call(binary, "setup", common + ["--work", str(work), "--repeat", "1"])
    spans_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    traced = call(binary, "trace", common + [
        "--work", str(work), "--spans", str(spans_path)])
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    metrics, table, traced_wall = layer_metrics(args.workload, spans,
                                                traced["counts"])
    attempted, failed = check([traced["digests"]], args.workload, args.seed,
                              recorded, binary)
    print(f"{args.workload}: traced run, seed {args.seed}, "
          f"{len(spans)} spans -> {spans_path}")
    print(f"  {'layer':<12} {'self s':>10} {'share':>8}")
    for layer, secs in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {secs:10.3f} {secs / traced_wall:8.2%}")
    print(f"  {'traced wall':<12} {traced_wall:10.3f}")
    coverage = metrics["trace.coverage"]
    print(f"  layer spans cover {coverage:.2%} of the traced wall "
          f"(tolerance {COVERAGE_TOLERANCE:.0%}); tracing overhead "
          f"{metrics['trace.overhead_s']:+.6f} s (traced minus untraced "
          f"wall of {len(spans)} empty spans)")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:18.6f} {PER_LAYER[name]}")
    print(f"  {'error_rate':<24} {failed / attempted:18.6f} "
          f"({failed} of {attempted} cells)")
    if coverage < 1 - COVERAGE_TOLERANCE:
        raise BenchError(f"layer spans cover only {coverage:.2%} of the "
                         "traced wall time")
    return attempted, failed, metrics, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds < 0:
        parser.error("--seed or --seconds out of range")

    work = BUILD / "work" / args.workload
    try:
        binary = build(THREADS)
        recorded = load_recorded(DIGESTS)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--threads", str(THREADS)]
        run = run_traced if args.trace else run_measured
        attempted, failed, metrics, units = run(binary, args, common, work,
                                                recorded)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
