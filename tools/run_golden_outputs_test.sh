#!/bin/sh
# Golden outputs: each bench's stdout at --threads 4 must match its section
# of the published bench run (results/full_bench_run.txt), the
# "(simulated in ...)" timing footer aside. The other equivalence tests
# compare the engine with itself; this one compares it with the recorded
# results, so a change to a simulated result has to regenerate that file
# on purpose.
#
#   tools/run_golden_outputs_test.sh GOLDEN_FILE BENCH...
set -eu

GOLDEN="${1:?usage: run_golden_outputs_test.sh full_bench_run.txt bench...}"
shift

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

status=0
for bench in "$@"; do
  name="$(basename "$bench")"
  # The section runs from its "### name" header to the next header; its
  # last line is the blank one that separates it from that header.
  awk -v h="### $name" '$0 == h { on = 1; next } /^### / { on = 0 }
      on && !/^\(simulated in / { print }' "$GOLDEN" |
    sed '${/^$/d;}' > "$TMP/want"
  if [ ! -s "$TMP/want" ]; then
    echo "FAIL: no '### $name' section in $GOLDEN" >&2
    status=1
    continue
  fi
  "$bench" --threads 4 | grep -v '^(simulated in ' > "$TMP/got" || true
  if ! cmp -s "$TMP/want" "$TMP/got"; then
    echo "FAIL: $name differs from its section of $GOLDEN:" >&2
    diff "$TMP/want" "$TMP/got" | head -40 >&2 || true
    status=1
  fi
done
exit "$status"
