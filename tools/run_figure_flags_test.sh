#!/bin/sh
# The figure benches' shared flags: malformed numbers, unknown flags and
# the removed engine flags exit 2 before any simulation runs, a SIGTERM
# during a sweep exits 143 without printing the tables the sweep would
# have produced, and SELCACHE_CSV_DIR keeps one CSV per machine point. The
# benches without flags exit 2 on any argument.
#
#   tools/run_figure_flags_test.sh BENCH_FIG5 BENCH_FIG6 BENCH_TABLE3 \
#       BENCH_TABLE2 BENCH_ABLATION_SCHEMES
set -eu

FIG5="${1:?usage: run_figure_flags_test.sh bench_fig5_memlat bench_fig6_l2size bench_table3 bench_table2 bench_ablation_schemes}"
FIG6="${2:?missing bench_fig6_l2size}"
TABLE3="${3:?missing bench_table3}"
TABLE2="${4:?missing bench_table2}"
ABLATION_SCHEMES="${5:?missing bench_ablation_schemes}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

expect_usage_error() {
  status=0
  "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: '$*' exited $status, expected 2" >&2
    exit 1
  fi
}
expect_usage_error "$FIG5" --max-points abc
expect_usage_error "$FIG5" --max-points -3
expect_usage_error "$FIG5" --threads x
# There is no kernel switch (the build target picks the probe kernel) and
# no second engine (every axis runs on ride groups).
expect_usage_error "$FIG5" --no-simd
expect_usage_error "$FIG5" --no-reuse-tape
expect_usage_error "$FIG5" --batch 0
expect_usage_error "$TABLE3" --bogus
expect_usage_error "$TABLE3" --threads x
# A bench without flags refuses them instead of running serially.
expect_usage_error "$TABLE2" --threads 4
expect_usage_error "$ABLATION_SCHEMES" --bogus

# SIGTERM 1 s into a run lands during its only sweep. The sweep starts no
# further unit, so the run reports the interruption, prints no table and
# exits 128+15 within 15 s of its start.
expect_sigterm_exit() {
  t0=$(date +%s)
  "$@" > "$TMP/term_out.txt" 2> "$TMP/term_err.txt" &
  pid=$!
  sleep 1
  kill -TERM "$pid" 2> /dev/null || true
  status=0
  wait "$pid" || status=$?
  elapsed=$(($(date +%s) - t0))
  if [ "$status" -ne 143 ] || [ -s "$TMP/term_out.txt" ] ||
     ! grep -q '^interrupted after 0 of ' "$TMP/term_err.txt" ||
     [ "$elapsed" -gt 15 ]; then
    echo "FAIL: SIGTERM to '$*': exit $status after ${elapsed}s, expected" \
         "143 within 15 s with no stdout and an interruption notice" >&2
    head -5 "$TMP/term_out.txt" "$TMP/term_err.txt" >&2
    exit 1
  fi
}
expect_sigterm_exit "$FIG5" --max-points 2 --threads 1
expect_sigterm_exit "$FIG5" --max-points 1
expect_sigterm_exit "$FIG6" --threads 1

# SELCACHE_CSV_DIR names each point's CSV after its machine as well as its
# figure: two memory-latency points leave two files, whose rows differ.
mkdir "$TMP/csv"
SELCACHE_CSV_DIR="$TMP/csv" "$FIG5" --max-points 2 --threads 4 > /dev/null
set -- "$TMP"/csv/*.csv
if [ "$#" -ne 2 ] || [ ! -f "$1" ] || cmp -s "$1" "$2"; then
  echo "FAIL: SELCACHE_CSV_DIR with two points left $# file(s), expected" \
       "two with different rows:" "$@" >&2
  exit 1
fi

echo "figure_flags OK: usage errors exit 2, SIGTERM exits 143 with no" \
     "table, one CSV per point, flagless benches refuse arguments"
