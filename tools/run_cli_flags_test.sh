#!/usr/bin/env bash
# CLI contract for the predict subcommands plus the removed tape engine
# (--batch, --reuse-tape, tape), checkpointed sweeps (--run-dir, without
# per-cell retry or deadline flags), sweep/suite flags that need another
# flag's mode or that it refuses (the store flags), and run-file's loop-step
# check: unknown flags, unknown commands and malformed invocations must exit
# 2 (same as every other subcommand), good runs 0, and a failed cross-check
# 1.
#
#   tools/run_cli_flags_test.sh path/to/selcache
set -u

cli="$1"
fails=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

expect() {
  local want="$1"; shift
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$*' exited $got, expected $want"
    fails=$((fails + 1))
  fi
}

# Unknown flags exit 2 before any work happens.
expect 2 "$cli" predict Vpenta base --bogus
expect 2 "$cli" predict Vpenta base --machine        # value flag, no value
expect 2 "$cli" predict-matrix --bogus
expect 2 "$cli" predict-matrix --workload            # value flag, no value

# Malformed positionals / values also exit 2.
expect 2 "$cli" predict Vpenta                       # missing VERSION
expect 2 "$cli" predict NoSuchWorkload base
expect 2 "$cli" predict Vpenta nosuchversion
expect 2 "$cli" predict Vpenta base --threshold abc
expect 2 "$cli" predict Vpenta base --capacity-fraction -1

# Healthy invocations exit 0 (static-only is fast; --check simulates).
expect 0 "$cli" predict Vpenta base
expect 0 "$cli" predict Vpenta base --csv
expect 0 "$cli" predict Perl base                    # non-analyzable is not an error
expect 0 "$cli" predict Vpenta base --check
expect 0 "$cli" predict Vpenta base --check --predict-classify

# A workload name with a comma is one quoted CSV field: each of the five
# predict-matrix --csv rows of TPC-D,Q6 starts with it quoted.
"$cli" predict-matrix --workload TPC-D,Q6 --csv > "$tmp/matrix.csv" 2>&1
if [ "$(grep -c '^"TPC-D,Q6",' "$tmp/matrix.csv")" -ne 5 ] ||
   grep -q '^TPC-D' "$tmp/matrix.csv"; then
  echo "FAIL: predict-matrix --csv does not quote the workload TPC-D,Q6"
  fails=$((fails + 1))
fi

# No command reaches the tape engine: --batch and --reuse-tape are unknown
# flags and tape is an unknown command.
expect 2 "$cli" sweep --workload Perl --batch abc
expect 2 "$cli" sweep --workload Perl --batch -1
expect 2 "$cli" sweep --workload Perl --batch            # value flag, no value
expect 2 "$cli" suite --batch 1e9
expect 2 "$cli" suite --batch 512
expect 2 "$cli" tape Perl base --stat --bogus
expect 2 "$cli" sweep --workload Perl --reuse-tape --batch 512
expect 2 "$cli" sweep --workload Perl --reuse-tape
expect 2 "$cli" tape Perl base --stat
expect 2 "$cli" tape Perl base

# A checkpointed sweep parses its flags like every other sweep: a malformed
# value exits 2 before the run directory is touched.
expect 2 "$cli" sweep --workload Chaos --run-dir "$tmp/run" --batch abc
expect 2 "$cli" sweep --workload Chaos --run-dir "$tmp/run" --epoch 0

# A checkpointed run has no per-cell retry, backoff or deadline: its cells
# share ride units, and the only wall-clock bound is the whole run's
# --deadline-ms. The three flags are unknown.
expect 2 "$cli" sweep --workload Chaos --run-dir "$tmp/run" --cell-retries 1
expect 2 "$cli" suite --run-dir "$tmp/run" --cell-deadline-ms 5
expect 2 "$cli" suite --run-dir "$tmp/run" --retry-backoff-ms 10
expect 2 "$cli" resume "$tmp/run" --cell-retries 1

# A flag that only another flag's mode reads exits 2 instead of being
# ignored: --deadline-ms needs --run-dir, --epoch needs --trace-dir, and the
# resilient sweep's flags need --inject-faults or --watchdog-accesses (a
# zero watchdog arms nothing).
expect 2 "$cli" suite --deadline-ms 1 --threads 4
expect 2 "$cli" sweep --workload TPC-D,Q6 --epoch 500
expect 2 "$cli" sweep --workload TPC-D,Q6 --run-dir "$tmp/epoch_run" --epoch 500
expect 2 "$cli" sweep --workload TPC-D,Q6 --max-retries 3 \
  --failures-out "$tmp/ignored.csv"
expect 2 "$cli" sweep --workload TPC-D,Q6 --failures-jsonl "$tmp/ignored.jsonl"
expect 2 "$cli" sweep --workload TPC-D,Q6 --fault-budget 5
expect 2 "$cli" sweep --workload TPC-D,Q6 --integrity-checks
expect 2 "$cli" sweep --workload TPC-D,Q6 --watchdog-accesses 0 --max-retries 1
# --fault-rate shapes only an injected campaign; --fault-seed also seeds a
# watchdog's per-attempt report, so it needs one of the two.
expect 2 "$cli" sweep --workload TPC-D,Q6 --fault-rate 0.5 --fault-seed 9
expect 2 "$cli" sweep --workload TPC-D,Q6 --fault-seed 9
expect 2 "$cli" sweep --workload TPC-D,Q6 \
  --watchdog-accesses 18446744073709551615 --fault-rate 0.5
if [ -e "$tmp/ignored.csv" ] || [ -e "$tmp/epoch_run" ]; then
  echo "FAIL: a refused sweep wrote its output"
  fails=$((fails + 1))
fi
# A watchdog that never trips selects the resilient engine, which reads them.
expect 0 "$cli" sweep --workload TPC-D,Q6 \
  --watchdog-accesses 18446744073709551615 --max-retries 0 \
  --failures-out "$tmp/watchdog.csv"
if [ ! -s "$tmp/watchdog.csv" ]; then
  echo "FAIL: the resilient sweep wrote no --failures-out file"
  fails=$((fails + 1))
fi
expect 0 "$cli" sweep --workload TPC-D,Q6 \
  --watchdog-accesses 18446744073709551615 --fault-seed 9

# Traced and resilient sweeps never touch a store: the store flags exit 2
# before the store directory is created.
expect 2 "$cli" sweep --workload Compress --trace-dir "$tmp/traces" \
  --store "$tmp/store_traced"
expect 2 "$cli" sweep --workload TPC-D,Q6 --watchdog-accesses 100000000000 \
  --store "$tmp/store_watchdog"
expect 2 "$cli" sweep --workload TPC-D,Q6 --inject-faults \
  --fault-kind toggle-drop --store "$tmp/store_faults" --store-clear
expect 2 "$cli" sweep --workload TPC-D,Q6 --trace-dir "$tmp/traces" \
  --store-readonly
for d in traces store_traced store_watchdog store_faults; do
  if [ -e "$tmp/$d" ]; then
    echo "FAIL: a refused sweep created $d"
    fails=$((fails + 1))
  fi
done

# A loop step that is not positive would never reach its bound: run-file
# rejects it with a diagnostic instead of running forever (`timeout` turns
# a hang into exit 124, which fails the expectation).
printf 'program neg\narray A 16\nfor i = 0 .. 16 step -1 {\n  load A[i]\n}\n' \
  > "$tmp/neg_step.loop"
expect 2 timeout 10 "$cli" run-file "$tmp/neg_step.loop"

# No kernel switch (the build target picks the probe kernel) and no stream
# recording commands: a usage error and unknown commands.
expect 2 "$cli" sweep --workload Perl --no-simd
expect 2 "$cli" suite --no-simd
expect 2 "$cli" trace-record --workload Perl --out "$tmp/perl.trace"
expect 2 "$cli" trace-replay "$tmp/perl.trace"

if [ "$fails" -ne 0 ]; then
  echo "cli flag contract: $fails failure(s)"
  exit 1
fi
echo "cli flag contract: all exit codes as specified"
