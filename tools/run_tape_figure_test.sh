#!/bin/sh
# End-to-end tape smoke: a figure sweep's published output must be
# byte-identical whether the machine points are interpreted directly,
# replayed from the tape recorded at the first point (--batch 0), or priced
# by the default engine's one simulation per cell. The two fig5 points
# differ only in memory latency and no store keeps a tape, so the default
# engine records none. Any drift here means the record/replay or pricing
# contract broke somewhere between the IR walker and the stats printer.
# Truncated to 2 machine points so the test stays fast. Malformed numeric
# values and unknown flags must exit 2 first, and a SIGTERM during a sweep
# must exit 143 without printing the tables the sweep would have produced.
set -eu

BENCH="${1:?usage: run_tape_figure_test.sh PATH_TO_bench_fig5_memlat}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Malformed numbers and unknown flags (there is no --no-simd: the build
# target picks the probe kernel) exit 2 before any simulation runs.
expect_usage_error() {
  status=0
  "$BENCH" "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: '$BENCH $*' exited $status, expected 2" >&2
    exit 1
  fi
}
expect_usage_error --max-points abc
expect_usage_error --max-points -3
expect_usage_error --threads x
expect_usage_error --no-simd

# SIGTERM 1 s into a run lands during its only sweep: the default engine's
# one axis sweep, or the only point of a single-point run. The run must
# report the interruption, print no table and exit 128+15.
expect_sigterm_exit() {
  "$BENCH" "$@" > "$TMP/term_out.txt" 2> "$TMP/term_err.txt" &
  pid=$!
  sleep 1
  kill -TERM "$pid" 2> /dev/null || true
  status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 143 ] || [ -s "$TMP/term_out.txt" ] ||
     ! grep -q '^interrupted after 0 of ' "$TMP/term_err.txt"; then
    echo "FAIL: SIGTERM to '$BENCH $*': exit $status, expected 143" \
         "with no stdout and an interruption notice" >&2
    head -5 "$TMP/term_out.txt" "$TMP/term_err.txt" >&2
    exit 1
  fi
}
expect_sigterm_exit --max-points 2 --threads 1
expect_sigterm_exit --max-points 1

# Wall-clock footers ("simulated in Ns, ..., replayed" / "axis total: ...")
# legitimately differ between the two modes; everything else must not.
strip_timing() {
  grep -v -e '^(simulated in ' -e '^axis total: ' "$1" > "$2"
}

# Default mode: one interpreted simulation per cell, priced at both
# latencies; nothing replays, so no tape is recorded.
"$BENCH" --max-points 2 --threads 1 > "$TMP/tape_raw.txt"
# SELCACHE_THREADS is not a setting (--threads is the only thread knob), so
# this leg runs serially whatever the variable holds.
SELCACHE_THREADS=-1 "$BENCH" --max-points 2 --no-reuse-tape \
  > "$TMP/interp_raw.txt"
# Classic per-point replay (the pre-batching engine).
"$BENCH" --max-points 2 --threads 1 --batch 0 > "$TMP/perpoint_raw.txt"
for mode in tape interp perpoint; do
  strip_timing "$TMP/${mode}_raw.txt" "$TMP/${mode}.txt"
done

for mode in tape perpoint; do
  if ! cmp -s "$TMP/interp.txt" "$TMP/$mode.txt"; then
    echo "FAIL: $mode figure output differs from interpreted output" >&2
    diff -u "$TMP/interp.txt" "$TMP/$mode.txt" | head -40 >&2
    exit 1
  fi
done

echo "tape_figure_smoke OK: fig5 (2 points) byte-identical across" \
     "interpreted / per-point replay / shared-decode"
