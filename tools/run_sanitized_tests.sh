#!/usr/bin/env bash
# Configure, build, and run the full test suite under ASan+UBSan, then
# exercise one traced sweep serial vs. parallel and diff the trace output
# (the observability layer's determinism contract, under sanitizers).
#
#   tools/run_sanitized_tests.sh [extra ctest args...]
#
# Uses the `asan-ubsan` CMake preset (build-asan/). Any extra arguments are
# forwarded to ctest, e.g. `tools/run_sanitized_tests.sh -R verify` to run
# only the verification tests.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"
ctest --preset asan-ubsan -j "$(nproc)" "$@"

# Traced serial-vs-parallel sweep: the JSONL/CSV trace directories must be
# byte-identical regardless of thread count.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
cli="build-asan/tools/selcache"
"$cli" sweep --workload Compress --threads 1 --trace-dir "$tracedir/serial"
"$cli" sweep --workload Compress --threads 4 --trace-dir "$tracedir/parallel"
diff -r "$tracedir/serial" "$tracedir/parallel"
echo "traced sweep: serial and parallel outputs identical"

# Shared interpretation under sanitizers: the 4-thread suite runs ride
# groups, where one interpretation fans out to up to three simulations and
# copies fill the versions whose code equals Base's. The checkpoint engine
# (--run-dir) journals the same ride units and must print the same table.
# The independent reference is the resilient engine with a watchdog that
# never trips: it runs run_version once per cell, and its fault report,
# which follows the table, is cut off. (The ctest run above includes the
# same_code, reference-count and ride-planner unit tests.)
"$cli" suite --threads 4 > "$tracedir/shared.txt"
"$cli" suite --threads 4 --run-dir "$tracedir/run_dir" \
  > "$tracedir/run_dir.txt"
"$cli" suite --threads 4 --watchdog-accesses 18446744073709551615 \
  | sed '/^fault report:/,$d' > "$tracedir/per_version.txt"
diff "$tracedir/shared.txt" "$tracedir/run_dir.txt"
diff "$tracedir/shared.txt" "$tracedir/per_version.txt"
# Selective's forks from a twin copy its machine, and under the victim
# scheme that includes the victim caches' LRU lists and the indexes into
# them: the victim suite's rides against its per-version cells.
"$cli" suite --scheme victim --threads 4 > "$tracedir/shared_victim.txt"
"$cli" suite --scheme victim --threads 4 \
  --watchdog-accesses 18446744073709551615 \
  | sed '/^fault report:/,$d' > "$tracedir/per_version_victim.txt"
diff "$tracedir/shared_victim.txt" "$tracedir/per_version_victim.txt"
echo "shared suite: ride groups, checkpointed and per-version cells identical"

# Same contract under fault injection: a faulted sweep's figure output,
# FailureReport, and captured traces must not depend on the thread count —
# diffed here under the sanitizers so races in the resilient fan-out or the
# injector hooks cannot hide.
fault_flags=(--inject-faults --fault-kind toggle-drop --fault-rate 0.5
             --fault-seed 2026 --integrity-checks --fault-budget 64)
"$cli" sweep --workload Compress --threads 1 "${fault_flags[@]}" \
  --trace-dir "$tracedir/fserial" --failures-out "$tracedir/fserial.csv" \
  | sed "s|$tracedir/fserial|TRACEDIR|" > "$tracedir/fserial.txt"
"$cli" sweep --workload Compress --threads 4 "${fault_flags[@]}" \
  --trace-dir "$tracedir/fparallel" --failures-out "$tracedir/fparallel.csv" \
  | sed "s|$tracedir/fparallel|TRACEDIR|" > "$tracedir/fparallel.txt"
diff -r "$tracedir/fserial" "$tracedir/fparallel"
diff "$tracedir/fserial.csv" "$tracedir/fparallel.csv"
diff "$tracedir/fserial.txt" "$tracedir/fparallel.txt"
echo "faulted sweep: serial and parallel outputs identical"

# Persistent-store round trip under sanitizers: a warm sweep served from
# the store must be byte-identical to the cold run that filled it, and a
# truncated cell must degrade to a miss (re-simulated, healed, same rows).
storedir="$tracedir/store"
"$cli" sweep --workload Compress --threads 1 --store "$storedir" \
  > "$tracedir/store_cold.txt"
"$cli" sweep --workload Compress --threads 4 --store "$storedir" \
  > "$tracedir/store_warm.txt"
diff "$tracedir/store_cold.txt" "$tracedir/store_warm.txt"
victim="$(ls "$storedir/cells" | head -1)"
head -c 10 "$storedir/cells/$victim" > "$storedir/trunc.tmp"
mv "$storedir/trunc.tmp" "$storedir/cells/$victim"
"$cli" sweep --workload Compress --threads 1 --store "$storedir" \
  > "$tracedir/store_healed.txt"
diff "$tracedir/store_cold.txt" "$tracedir/store_healed.txt"
echo "stored sweep: cold, warm, and healed outputs identical"

# End-to-end failure isolation (injected crashes quarantine only their
# cells), also under sanitizers.
tools/run_crash_sweep_test.sh "$cli"

# Crash-safe checkpointing (SIGKILL / SIGINT / deadline + resume) under
# sanitizers: the journal writer, signal path, and pool drain are exactly
# where a latent race or lifetime bug would hide.
tools/run_kill_resume_test.sh "$cli"
