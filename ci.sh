#!/usr/bin/env bash
# CI entry point: four configurations, all deterministic (every experiment
# binary and test is seeded; see CLAUDE.md).
#
#   1. RelWithDebInfo with -Werror           (the performance configuration)
#      + trajectory-hash differential gate   (DESIGN.md §10)
#      + fidelity gate over the smoke
#        snapshot and the default-scale
#        sweeps the catalogue reads          (DESIGN.md §13)
#      + perfbench self-tests and one traced
#        run per workload                    (perfbench/README.md)
#   2. Debug with ASan+UBSan, full ctest     (the memory/UB configuration)
#   3. TSan on the sweep worker pool         (the data-race configuration)
#   4. Convention + determinism lint (+ clang-tidy when available)
#
# Usage: ./ci.sh [--skip-asan] [--skip-tsan]   # sanitizer passes add wall time
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 2)
skip_asan=0
skip_tsan=0
for arg in "$@"; do
  [[ "$arg" == "--skip-asan" ]] && skip_asan=1
  [[ "$arg" == "--skip-tsan" ]] && skip_tsan=1
done

# Smoke sweep (2 schemes x 2 seeds, --jobs 2): exercises the src/sweep
# worker pool end to end under the sanitizers, where it doubles as a
# data-race shakeout. Its sweep JSON, written to <build-dir>, must equal the
# committed BENCH_sweep.json byte for byte in every build type and for any
# --jobs; ctest reruns it in each build (bench_sweep_snapshot_*).
smoke_sweep() {  # smoke_sweep <build-dir> [extra flags...]
  local build="$1"
  shift
  "$build/bench/fig08_fct_non_ecn" --schemes=DynaQ,BestEffort --seeds=1,2 \
      --loads=0.5 --flows=200 --jobs=2 --json "$build" "$@" > /dev/null
  cmp "$build/fig08_fct_non_ecn.json" BENCH_sweep.json
}

echo "==> [1/4] RelWithDebInfo + -Werror"
cmake -B build-ci -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDYNAQ_WERROR=ON > /dev/null
cmake --build build-ci -j "$jobs"
ctest --test-dir build-ci -j "$jobs" --output-on-failure
echo "==> [1/4] telemetry fast-path budget (micro_telemetry)"
# Disabled-hub overhead must stay a single guarded branch (DESIGN.md §8);
# the budget is generous vs. the ~1ns branch cost to keep CI noise-proof.
build-ci/bench/micro_telemetry --ops=300000 --reps=3 --assert-budget-ns=25
echo "==> [1/4] event-engine perf regression (micro_simulator)"
# Soft ns/event budgets (DESIGN.md §9). Allocation-freedom needs no gate
# here: a callable too big for an event slot fails the build above.
build-ci/bench/micro_simulator --reps=5 --assert-budget
echo "==> [1/4] trajectory-hash differential gate (DESIGN.md §10)"
# Same seed twice and --jobs 1 vs 4 must hash identically; different seeds
# must diverge. Catches nondeterminism the unit tests' small runs may miss.
tools/check_determinism.sh build-ci
echo "==> [1/4] fidelity report gate (report_gen, DESIGN.md §13)"
# Evaluate the expectation catalogue over the committed smoke snapshot
# (ctest checked it against a fresh run); any failed expectation fails CI.
build-ci/tools/report_gen --gate --sweep BENCH_sweep.json --out results/REPORT.md
echo "==> [1/4] catalogue gate over the default-scale sweeps (DESIGN.md §13)"
# The smoke snapshot feeds 3 of the catalogue's 17 entries; the eight
# sweeps the catalogue reads, at default scale, feed all of them, so every
# shape claim is judged (ctest's report_gate_results_* rows prove a
# violating sweep fails this gate).
rm -rf build-ci/gate
mkdir -p build-ci/gate/json
for sweep in fig08_fct_non_ecn fig09_fct_ecn fig12_many_flows fig13_leaf_spine \
             abl_competitive rob_link_flap rob_weight_churn rob_controller; do
  "build-ci/bench/$sweep" --jobs "$jobs" --json build-ci/gate/json > /dev/null
done
build-ci/tools/report_gen --gate --results build-ci/gate --out build-ci/gate/REPORT.md
echo "==> [1/4] perfbench self-tests (GTest + run.py)"
# The repo benchmark compiles src/ through its own CMake package, so a
# library change can break it without breaking the root build; its traced ==
# untraced and replay-exactness cases run here.
cmake -S perfbench -B build-ci/perfbench -G Ninja > /dev/null
cmake --build build-ci/perfbench -j "$jobs" --target perfbench_test
build-ci/perfbench/perfbench_test
python3 perfbench/tests/test_run.py
echo "==> [1/4] perfbench: one short traced run per workload"
# At full workload size: run.py exits 1 unless the traced run's
# trajectory_hash equals the untraced run's and the port replays reproduce
# every admission decision.
python3 perfbench/run.py --workload all --seconds 3 --trace 1

if [[ $skip_asan -eq 0 ]]; then
  echo "==> [2/4] ASan+UBSan ctest"
  cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=Debug -DDYNAQ_WERROR=ON \
        "-DDYNAQ_SANITIZE=address;undefined" > /dev/null
  cmake --build build-asan -j "$jobs"
  ASAN_OPTIONS=detect_leaks=1 ctest --test-dir build-asan -j "$jobs" --output-on-failure
  echo "==> [2/4] ASan+UBSan smoke sweep (--jobs 2)"
  ASAN_OPTIONS=detect_leaks=1 smoke_sweep build-asan
  echo "==> [2/4] ASan+UBSan scenario smoke (rob_link_flap, DESIGN.md §11)"
  # Mid-run link flaps + weight churn under the sanitizers: timer
  # cancellation and handle mutation must be clean of UB and leaks.
  ASAN_OPTIONS=detect_leaks=1 build-asan/bench/rob_link_flap --duration-s=1 \
      --schemes=DynaQ --seeds=1 > /dev/null
  ASAN_OPTIONS=detect_leaks=1 build-asan/bench/rob_weight_churn --duration-s=1 \
      --scenario=mixed --schemes=DynaQ --seeds=1 > /dev/null
  echo "==> [2/4] ASan+UBSan control-plane smoke (rob_controller, DESIGN.md §14)"
  # Async threshold commits, watchdog failover to DT and the reliable
  # re-sync under the sanitizers: the shim's timer closures and the
  # RecoveryInstrument subscription must be clean of UB and leaks.
  ASAN_OPTIONS=detect_leaks=1 build-asan/bench/rob_controller --duration-s=1 \
      --scenario=controller_crash --schemes=DynaQ --seeds=1 > /dev/null
  echo "==> [2/4] ASan+UBSan baseline smoke (abl_competitive, DESIGN.md §12)"
  # The LQD push-out and Harmonic policies under audit, on the Fig. 8
  # workload, under the sanitizers.
  ASAN_OPTIONS=detect_leaks=1 build-asan/bench/abl_competitive --flows=120 \
      --seeds=1 --schemes=DynaQ,LQD,Harmonic > /dev/null
else
  echo "==> [2/4] ASan+UBSan ctest (skipped)"
fi

if [[ $skip_tsan -eq 0 ]]; then
  echo "==> [3/4] TSan sweep worker pool"
  # Threads live only in src/sweep (CLAUDE.md), so TSan needs just the sweep
  # tests and one sweep-driving bench — build those targets, not the world.
  cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=Debug -DDYNAQ_WERROR=ON \
        "-DDYNAQ_SANITIZE=thread" > /dev/null
  cmake --build build-tsan -j "$jobs" --target sweep_test fig08_fct_non_ecn
  TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/sweep_test
  echo "==> [3/4] TSan smoke sweep (--jobs 4)"
  TSAN_OPTIONS=halt_on_error=1 smoke_sweep build-tsan --jobs=4
else
  echo "==> [3/4] TSan sweep worker pool (skipped)"
fi

echo "==> [4/4] convention + determinism lint"
tools/detlint --self-test
tools/check_conventions.sh
if command -v clang-tidy > /dev/null 2>&1; then
  cmake -B build-ci -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  # Library sources only; tests/benches follow looser patterns.
  find src -name '*.cpp' -print0 | xargs -0 clang-tidy -p build-ci --quiet
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

echo "CI: all configurations passed"
