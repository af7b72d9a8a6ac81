#!/usr/bin/env python3
"""Compare a fresh bench_throughput JSON against the committed baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--tolerance 0.15]
    check_bench_regression.py --self-test

Fails (exit 1) when:
  * either file is missing expected schema keys (a truncated or stale
    bench_throughput run would otherwise sail through the ratio checks),
  * a compared metric is zero, negative, NaN, infinite, or non-numeric in
    either file — a zero baseline means the baseline itself is broken and
    must never silently disable the check,
  * the fresh run is not deterministic (parallel rows differed from serial),
  * the fresh run's warm-store suite was not faster than its cold-fill one
    (the store served nothing — incremental sweeps are broken),
  * serial accesses/sec dropped more than --tolerance below the baseline
    (same direction-aware check for the batched multi-config replay
    throughput),
  * the shared-decode figure sweep was slower than the per-point sweep of
    the SAME run by more than --tolerance (both times come from one
    process, so this is host-independent),
  * parallel speedup dropped more than --tolerance below the baseline —
    only checked when both hosts have more than one hardware thread, since
    a single-core host cannot exhibit parallel speedup. The multi-replay
    throughput comparison is likewise skipped when the two runs fanned out
    over different thread counts (multi_replay_threads_used).

Absolute wall-clock is NOT compared (hosts differ); throughput ratios are.

`--self-test` exercises the comparison logic against synthetic fixtures
(zero baselines, flipped better-direction, schema gaps) and exits non-zero
if any scenario misbehaves; CI runs it so the checker cannot rot.
"""
import argparse
import json
import math
import os
import sys
import tempfile


# Every key bench_throughput emits; a result file missing any of them is
# malformed (truncated write, or produced by an older binary).
EXPECTED_KEYS = frozenset({
    "benchmark",
    "deterministic",
    "fig5_per_point_seconds",
    "fig5_shared_decode_seconds",
    "fig5_shared_decode_speedup",
    "hardware_threads",
    "multi_replay_accesses_per_sec",
    "multi_replay_points",
    "multi_replay_threads_used",
    "parallel_accesses_per_sec",
    "parallel_seconds",
    "parallel_threads_used",
    "scheme",
    "serial_accesses_per_sec",
    "serial_seconds",
    "serial_threads_used",
    "simulated_accesses",
    "speedup",
    "store_cold_suite_seconds",
    "store_warm_suite_seconds",
    "tape_bytes_per_access",
    "tape_record_accesses_per_sec",
    "tape_replay_accesses_per_sec",
    "threads",
    "workloads",
})


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"error: {path}: expected a JSON object, got "
              f"{type(data).__name__}", file=sys.stderr)
        sys.exit(2)
    return data


def check_schema(path, data):
    missing = sorted(EXPECTED_KEYS - data.keys())
    if missing:
        return [f"{path}: missing expected keys: {', '.join(missing)}"]
    return []


def _positive_number(value):
    """True for FINITE int/float > 0; bools are not numbers here.

    NaN and Infinity must be rejected explicitly: ``float("inf") > 0`` is
    True, so without the isfinite() gate an Inf metric (a zero-time divide
    in the bench) would sail through every ratio check.
    """
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def check_ratio(failures, log, name, baseline, fresh, tolerance,
                higher_is_better=True):
    """Compare one strictly-positive metric between baseline and fresh.

    A zero / negative / non-numeric value on EITHER side is a hard failure:
    the old behavior of skipping the comparison when the baseline was 0 let
    a corrupt baseline (or a fresh run reporting 0) pass silently.
    `higher_is_better` selects the regression direction: throughput-style
    metrics regress downward, latency-style metrics regress upward.
    """
    if not _positive_number(baseline):
        failures.append(f"{name}: baseline value {baseline!r} is not a "
                        f"positive number (rebuild the baseline)")
        return
    if not _positive_number(fresh):
        failures.append(f"{name}: fresh value {fresh!r} is not a "
                        f"positive number")
        return
    ratio = fresh / baseline
    log.append(f"{name}: baseline {baseline:.2f}, fresh {fresh:.2f} "
               f"({ratio:.2f}x)")
    if higher_is_better:
        floor = 1.0 - tolerance
        if ratio < floor:
            failures.append(f"{name} regressed: {ratio:.2f}x of baseline "
                            f"(floor {floor:.2f}x)")
    else:
        ceiling = 1.0 + tolerance
        if ratio > ceiling:
            failures.append(f"{name} regressed: {ratio:.2f}x of baseline "
                            f"(ceiling {ceiling:.2f}x)")


def evaluate(base, fresh, tolerance, base_path="baseline",
             fresh_path="fresh"):
    """Pure comparison: returns (failures, log_lines)."""
    failures = []
    log = []

    failures += check_schema(base_path, base)
    failures += check_schema(fresh_path, fresh)
    if failures:
        return failures, log

    if not fresh.get("deterministic", False):
        failures.append("fresh run was NOT deterministic "
                        "(parallel rows differed from serial)")

    # Intra-file direction check: the warm-store pass serves every cell from
    # disk, so it must beat the cold fill OF THE SAME RUN. This is
    # host-independent (both times come from one process), so no tolerance —
    # warm >= cold means the store served nothing.
    for path, data in ((fresh_path, fresh), (base_path, base)):
        cold = data.get("store_cold_suite_seconds")
        warm = data.get("store_warm_suite_seconds")
        if not _positive_number(cold) or not _positive_number(warm):
            failures.append(f"{path}: store suite seconds not positive "
                            f"finite numbers (cold={cold!r}, warm={warm!r})")
        elif warm >= cold:
            failures.append(f"{path}: warm store suite ({warm:.3f}s) not "
                            f"faster than cold fill ({cold:.3f}s) — the "
                            f"result store served nothing")
        else:
            log.append(f"{path}: store warm {warm:.3f}s vs cold {cold:.3f}s "
                       f"({cold / warm:.1f}x)")

    # Intra-file direction check: the shared-decode figure sweep decodes
    # each cell's tape once instead of once per machine point, so it must
    # not lose to the per-point sweep OF THE SAME RUN by more than the
    # tolerance (the decode saving is a few percent of an S-dominated
    # sweep, so noise can eat it — but a big loss means the fan-out engine
    # itself regressed).
    for path, data in ((fresh_path, fresh), (base_path, base)):
        per_point = data.get("fig5_per_point_seconds")
        shared = data.get("fig5_shared_decode_seconds")
        if not _positive_number(per_point) or not _positive_number(shared):
            failures.append(f"{path}: fig5 sweep seconds not positive finite "
                            f"numbers (per_point={per_point!r}, "
                            f"shared={shared!r})")
        elif shared > per_point * (1.0 + tolerance):
            failures.append(f"{path}: shared-decode fig5 sweep "
                            f"({shared:.3f}s) slower than per-point "
                            f"({per_point:.3f}s) beyond tolerance — the "
                            f"batched fan-out engine regressed")
        else:
            log.append(f"{path}: fig5 shared-decode {shared:.3f}s vs "
                       f"per-point {per_point:.3f}s "
                       f"({per_point / shared:.2f}x)")

    check_ratio(failures, log, "serial accesses/sec",
                base.get("serial_accesses_per_sec"),
                fresh.get("serial_accesses_per_sec"), tolerance,
                higher_is_better=True)

    check_ratio(failures, log, "tape record accesses/sec",
                base.get("tape_record_accesses_per_sec"),
                fresh.get("tape_record_accesses_per_sec"), tolerance,
                higher_is_better=True)

    check_ratio(failures, log, "tape replay accesses/sec",
                base.get("tape_replay_accesses_per_sec"),
                fresh.get("tape_replay_accesses_per_sec"), tolerance,
                higher_is_better=True)

    # Tape density is a size metric, not a timing one: it regresses UPWARD
    # (a fatter encoding), and it is host-independent so the same tolerance
    # is conservative for it.
    check_ratio(failures, log, "tape bytes/access",
                base.get("tape_bytes_per_access"),
                fresh.get("tape_bytes_per_access"), tolerance,
                higher_is_better=False)

    b_threads = base.get("hardware_threads", 1)
    f_threads = fresh.get("hardware_threads", 1)
    if b_threads > 1 and f_threads > 1:
        check_ratio(failures, log, "parallel speedup",
                    base.get("speedup"), fresh.get("speedup"), tolerance,
                    higher_is_better=True)
    else:
        log.append(f"parallel speedup check skipped "
                   f"(hardware_threads: baseline={b_threads}, "
                   f"fresh={f_threads})")

    # Multi-replay throughput scales with how many threads the fan-out
    # used, so the cross-file ratio only means something when both runs
    # fanned out the same way.
    b_mrt = base.get("multi_replay_threads_used")
    f_mrt = fresh.get("multi_replay_threads_used")
    if b_mrt == f_mrt:
        check_ratio(failures, log, "multi-replay accesses/sec",
                    base.get("multi_replay_accesses_per_sec"),
                    fresh.get("multi_replay_accesses_per_sec"), tolerance,
                    higher_is_better=True)
    else:
        log.append(f"multi-replay throughput check skipped "
                   f"(threads used: baseline={b_mrt}, fresh={f_mrt})")

    return failures, log


def _fixture(**overrides):
    base = {
        "benchmark": "bench_throughput",
        "deterministic": True,
        "fig5_per_point_seconds": 22.8,
        "fig5_shared_decode_seconds": 22.0,
        "fig5_shared_decode_speedup": 1.04,
        "hardware_threads": 8,
        "multi_replay_accesses_per_sec": 2.9e7,
        "multi_replay_points": 4,
        "multi_replay_threads_used": 8,
        "parallel_accesses_per_sec": 8.0e7,
        "parallel_seconds": 1.0,
        "parallel_threads_used": 8,
        "scheme": "bypass",
        "serial_accesses_per_sec": 2.0e7,
        "serial_seconds": 4.0,
        "serial_threads_used": 1,
        "simulated_accesses": 80000000,
        "speedup": 4.0,
        "store_cold_suite_seconds": 4.2,
        "store_warm_suite_seconds": 0.3,
        "tape_bytes_per_access": 2.5,
        "tape_record_accesses_per_sec": 1.8e7,
        "tape_replay_accesses_per_sec": 2.6e7,
        "threads": 8,
        "workloads": 13,
    }
    base.update(overrides)
    return base


def self_test():
    """Fixture-driven regression tests for the comparison logic itself."""
    # (name, base overrides, fresh overrides, tolerance, expect_failures)
    scenarios = [
        ("identical runs pass", {}, {}, 0.15, False),
        ("drop within tolerance passes",
         {}, {"serial_accesses_per_sec": 1.8e7}, 0.15, False),
        ("serial throughput regression fails",
         {}, {"serial_accesses_per_sec": 1.0e7}, 0.15, True),
        ("zero BASELINE throughput fails (was silently skipped)",
         {"serial_accesses_per_sec": 0}, {}, 0.15, True),
        ("zero fresh throughput fails",
         {}, {"serial_accesses_per_sec": 0}, 0.15, True),
        ("negative baseline fails",
         {"serial_accesses_per_sec": -5.0}, {}, 0.15, True),
        ("boolean metric value fails",
         {"serial_accesses_per_sec": True}, {}, 0.15, True),
        ("nondeterministic fresh run fails",
         {}, {"deterministic": False}, 0.15, True),
        ("zero baseline speedup on multicore fails (was silently skipped)",
         {"speedup": 0}, {}, 0.15, True),
        ("speedup regression fails",
         {}, {"speedup": 2.0}, 0.15, True),
        ("tape replay throughput regression fails",
         {}, {"tape_replay_accesses_per_sec": 1.0e7}, 0.15, True),
        ("tape record throughput regression fails",
         {}, {"tape_record_accesses_per_sec": 1.0e7}, 0.15, True),
        ("tape encoding bloat fails (lower-is-better direction)",
         {}, {"tape_bytes_per_access": 4.0}, 0.15, True),
        ("tape encoding shrink passes",
         {}, {"tape_bytes_per_access": 1.0}, 0.15, False),
        ("zero tape bytes/access fails",
         {}, {"tape_bytes_per_access": 0}, 0.15, True),
        ("single-core host skips speedup without failing",
         {"hardware_threads": 1, "speedup": 0},
         {"hardware_threads": 1, "speedup": 0}, 0.15, False),
        ("missing schema key fails",
         {}, "drop-speedup", 0.15, True),
        ("NaN baseline metric fails",
         {"serial_accesses_per_sec": float("nan")}, {}, 0.15, True),
        ("Inf fresh metric fails (inf > 0 would pass a naive check)",
         {}, {"tape_replay_accesses_per_sec": float("inf")}, 0.15, True),
        ("Inf store cold seconds fails",
         {}, {"store_cold_suite_seconds": float("inf")}, 0.15, True),
        ("warm store slower than cold fill fails",
         {}, {"store_warm_suite_seconds": 5.0}, 0.15, True),
        ("warm store equal to cold fill fails",
         {}, {"store_warm_suite_seconds": 4.2}, 0.15, True),
        ("zero warm store seconds fails",
         {}, {"store_warm_suite_seconds": 0}, 0.15, True),
        ("missing store keys fails (schema drift)",
         {}, "drop-store-keys", 0.15, True),
        ("multi-replay throughput regression fails",
         {}, {"multi_replay_accesses_per_sec": 1.0e7}, 0.15, True),
        ("zero multi-replay throughput fails",
         {}, {"multi_replay_accesses_per_sec": 0}, 0.15, True),
        ("NaN multi-replay throughput fails",
         {}, {"multi_replay_accesses_per_sec": float("nan")}, 0.15, True),
        ("missing multi-replay key fails (schema drift)",
         {}, "drop-multi-replay", 0.15, True),
        ("different fan-out thread counts skip multi-replay without failing",
         {"multi_replay_threads_used": 8, "multi_replay_accesses_per_sec":
          2.9e7},
         {"multi_replay_threads_used": 1, "multi_replay_accesses_per_sec":
          9.0e6}, 0.15, False),
        ("shared decode slower than per-point beyond tolerance fails",
         {}, {"fig5_shared_decode_seconds": 30.0}, 0.15, True),
        ("shared decode slightly slower than per-point passes (noise)",
         {}, {"fig5_shared_decode_seconds": 23.5}, 0.15, False),
        ("NaN fig5 seconds fails",
         {}, {"fig5_per_point_seconds": float("nan")}, 0.15, True),
        ("Inf fig5 shared seconds fails",
         {}, {"fig5_shared_decode_seconds": float("inf")}, 0.15, True),
    ]
    problems = []
    for name, b_over, f_over, tol, expect_fail in scenarios:
        base = _fixture(**b_over) if isinstance(b_over, dict) else _fixture()
        if isinstance(f_over, dict):
            fresh = _fixture(**f_over)
        elif f_over == "drop-store-keys":
            fresh = _fixture()
            del fresh["store_cold_suite_seconds"]
            del fresh["store_warm_suite_seconds"]
        elif f_over == "drop-multi-replay":
            fresh = _fixture()
            del fresh["multi_replay_accesses_per_sec"]
        else:  # "drop-speedup": remove a key to trigger the schema check
            fresh = _fixture()
            del fresh["speedup"]
        failures, _ = evaluate(base, fresh, tol)
        if bool(failures) != expect_fail:
            problems.append(f"scenario '{name}': expected "
                            f"{'failures' if expect_fail else 'no failures'},"
                            f" got {failures!r}")

    # Direction flip: a latency-style metric regresses UPWARD.
    failures, _ = [], []
    check_ratio(failures, [], "latency-style metric", 100.0, 130.0, 0.15,
                higher_is_better=False)
    if not failures:
        problems.append("lower-is-better metric increase was not flagged")
    failures = []
    check_ratio(failures, [], "latency-style metric", 100.0, 80.0, 0.15,
                higher_is_better=False)
    if failures:
        problems.append(f"lower-is-better improvement was flagged: "
                        f"{failures!r}")

    # Truncated result files must hard-fail at load (exit 2). A crash-killed
    # bench run used to leave partial JSON; the writers are atomic now, but
    # the checker is the last line of defense against any truncated file.
    def expect_load_exit2(name, content):
        fd, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(content)
            try:
                load(path)
                problems.append(f"{name}: load() accepted the file")
            except SystemExit as e:
                if e.code != 2:
                    problems.append(f"{name}: exit {e.code}, want 2")
        finally:
            os.unlink(path)

    expect_load_exit2("truncated JSON (cut mid-key)",
                      '{"benchmark": "bench_throughput", "serial_acc')
    expect_load_exit2("empty file", "")
    expect_load_exit2("valid JSON but not an object", "[1, 2, 3]")

    if problems:
        for p in problems:
            print(f"SELF-TEST FAIL: {p}", file=sys.stderr)
        return 1
    print(f"self-test OK ({len(scenarios) + 5} scenarios)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional drop (default 0.15 = 15%%)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checker's own fixture tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.fresh is None:
        ap.error("BASELINE and FRESH are required unless --self-test")

    base = load(args.baseline)
    fresh = load(args.fresh)
    failures, log = evaluate(base, fresh, args.tolerance,
                             args.baseline, args.fresh)
    for line in log:
        print(line)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("OK: no benchmark regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
