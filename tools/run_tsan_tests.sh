#!/usr/bin/env bash
# Build and run the multi-threaded portions of the suite under
# ThreadSanitizer: the parallel sweep runner, traced ride sweeps, the thread
# pool and the run_cells executor, tape record/replay under concurrency, the
# fault-resilient sweep, and the checkpoint engine.
#
#   tools/run_tsan_tests.sh [extra ctest args...]
#
# Uses the `tsan` CMake preset (build-tsan/). Skips with exit 0 and a clear
# message when the toolchain cannot link -fsanitize=thread (some container
# images ship gcc without libtsan) so CI lanes without TSan stay green.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

# Probe: can this toolchain actually produce a TSan binary?
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cc" <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
cxx="${CXX:-c++}"
if ! "$cxx" -fsanitize=thread -o "$probe_dir/probe" "$probe_dir/probe.cc" \
    > "$probe_dir/probe.log" 2>&1 || ! "$probe_dir/probe"; then
  echo "run_tsan_tests: toolchain cannot build/run -fsanitize=thread" \
       "binaries; skipping (see $probe_dir/probe.log if still present)"
  exit 0
fi

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target \
  parallel_runner_test axis_test shadow_fork_test trace_test \
  thread_pool_test tape_test tape_equivalence_test multi_replay_test \
  fault_test run_ledger_test memsys_hierarchy_test cpu_test selcache

# The concurrency-heavy tests: parallel sweep determinism (the shared
# ride-group legs at 1, 4 and 8 threads against solo runs on a pool; a
# ride's simulations all run on one task), traced ride sweeps (each unit
# records into its own cells' recordings, and copies read their sources'
# after every unit has finished), the axis engine (units of
# several structural groups on one pool, saving store cells as they
# finish, and a noted signal stopping them; run_units calling a caller's
# hooks from every worker), Selective's shadow and fork against solo runs
# on a pool, the stream side one ride's simulations share (several
# hierarchies and models on one StreamSide and one predictor, against
# standalone ones), the pool itself,
# tape record/replay equivalence (workers racing on the shared tape cache's
# once-per-key claims), the shared-decode axis's cell tasks at --threads 4
# (they share the result store and the tape cache), the resilient sweep's
# failure isolation, and the checkpoint engine (its units' hooks share the
# journal writer, and their cells the run-dir store). Excluded: the two
# suite-scale MultiReplay cases (full 13x5 matrix, shared-decode axis at
# 1/4/8 threads), minutes each under TSan, which run in the plain and ASan
# lanes; and the batch-size and grouping cases, whose multi-config fan-out
# runs on the calling thread.
ctest --preset tsan -j 2 \
  -R 'SweepDeterminism|Traced|SweepAxis|RunUnits|SelectiveShadow|SharedStreamSide|SharedPredictor|ParallelSweep|ThreadPool|RunCells|Tape|MultiReplay|Resilient|FaultSweep|Checkpoint|parallel' \
  -E 'MultiReplay.FullMatrix|MultiReplay.SharedDecode|MultiReplay.BatchSize|MultiReplay.Grouping' "$@"

# A real multi-threaded traced sweep end to end (4 workers over one
# workload's ride units, recording side by side), plus an untraced sweep
# under fault injection, whose cell tasks share the failure report.
tsan_traces="$(mktemp -d)"
trap 'rm -rf "$probe_dir" "$tsan_traces"' EXIT
build-tsan/tools/selcache sweep --workload Compress --threads 4 \
  --trace-dir "$tsan_traces" > /dev/null
build-tsan/tools/selcache sweep --workload Compress --threads 4 \
  --inject-faults --fault-kind toggle-drop --fault-rate 0.5 \
  --fault-seed 2026 --fault-budget 64 > /dev/null
echo "run_tsan_tests: all thread-sanitized tests passed"
