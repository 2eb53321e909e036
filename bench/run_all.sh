#!/usr/bin/env bash
# Regenerates every paper figure, ablation and micro-benchmark.
#
#   bench/run_all.sh [build-dir] [output-dir] [--full] [--jobs N]
#
# Text reports land in <output-dir>/<bench>.txt, per-window series
# (fig03, fig10-12) in <output-dir>/csv/, and sweep results (per-job records
# with their telemetry summaries + seed aggregates, DESIGN.md §7, §8) in
# <output-dir>/json/. Pass --full for paper-scale parameters:
# it reaches the benches with a scaled default (fig01, fig05, fig07, fig08,
# fig09, fig13, abl_competitive and the rob_* sweeps), since a bench exits 2
# on a flag it does not read. --jobs N fans the sweep-driven figures (8, 9,
# 12, 13) and the rob_* robustness sweeps out over N worker threads
# (default: all hardware threads).
set -euo pipefail

BUILD_DIR="build"
OUT_DIR="results"
if [[ $# -ge 1 && "$1" != --* ]]; then BUILD_DIR="$1"; fi
if [[ $# -ge 2 && "$2" != --* ]]; then OUT_DIR="$2"; fi
FULL_FLAG=""
JOBS=""
args=("$@")
for i in "${!args[@]}"; do
  case "${args[$i]}" in
    --full) FULL_FLAG="--full" ;;
    --jobs) JOBS="${args[$((i + 1))]:-}" ;;
    --jobs=*) JOBS="${args[$i]#--jobs=}" ;;
  esac
done
JOBS_FLAG="--jobs=${JOBS:-$(nproc 2>/dev/null || echo 2)}"

mkdir -p "$OUT_DIR/csv" "$OUT_DIR/json"

run() {
  local bin="$1"
  shift
  local name
  name="$(basename "$bin")"
  echo "=== $name $* ==="
  # `set -o pipefail` alone would abort without saying which binary died;
  # catch the pipe status so the failing bench is named before we stop.
  if ! "$bin" "$@" | tee "$OUT_DIR/$name.txt"; then
    echo "error: $name failed (exit ${PIPESTATUS[0]}); report in $OUT_DIR/$name.txt" >&2
    exit 1
  fi
  echo
}

run "$BUILD_DIR/bench/fig01_motivation" $FULL_FLAG
run "$BUILD_DIR/bench/fig02_workloads"
run "$BUILD_DIR/bench/fig05_fair_sharing" $FULL_FLAG
run "$BUILD_DIR/bench/fig06_weights"
run "$BUILD_DIR/bench/fig07_protocols" $FULL_FLAG
run "$BUILD_DIR/bench/fig04_queue_evolution"
run "$BUILD_DIR/bench/fig03_convergence" --csv "$OUT_DIR/csv"
for fig in fig10_10g fig11_100g; do
  run "$BUILD_DIR/bench/$fig" --csv "$OUT_DIR/csv"
done
run "$BUILD_DIR/bench/fig12_many_flows" --csv "$OUT_DIR/csv" "$JOBS_FLAG" \
    --json "$OUT_DIR/json"
for fig in fig08_fct_non_ecn fig09_fct_ecn; do
  run "$BUILD_DIR/bench/$fig" $FULL_FLAG "$JOBS_FLAG" --json "$OUT_DIR/json"
done
run "$BUILD_DIR/bench/fig13_leaf_spine" $FULL_FLAG "$JOBS_FLAG" --json "$OUT_DIR/json"

for abl in abl_victim_selection abl_satisfaction abl_dt_baseline abl_eviction \
           abl_tna_staleness abl_shared_pool abl_generic_ecn abl_delay_based; do
  run "$BUILD_DIR/bench/$abl"
done

# DynaQ vs the shared-buffer baselines DT, LQD and Harmonic on the Fig. 8
# workload (DESIGN.md §12); abl.dynaq_fct_vs_dt reads its JSON.
run "$BUILD_DIR/bench/abl_competitive" $FULL_FLAG "$JOBS_FLAG" --json "$OUT_DIR/json"

# Robustness sweeps under mid-run scenarios (DESIGN.md §11): weight churn
# and bottleneck link flaps, DynaQ vs DT vs shared-pool baselines.
for rob in rob_weight_churn rob_link_flap; do
  run "$BUILD_DIR/bench/$rob" $FULL_FLAG "$JOBS_FLAG" --json "$OUT_DIR/json"
done

# Degraded control plane (DESIGN.md §14): DynaQ behind the asynchronous
# shim through a controller crash, vs the DT failover target; emits the
# recovery-time / throughput-retention telemetry judged by the §14
# expectations.
run "$BUILD_DIR/bench/rob_controller" $FULL_FLAG "$JOBS_FLAG" --json "$OUT_DIR/json"

run "$BUILD_DIR/bench/micro_dynaq_ops"
run "$BUILD_DIR/bench/micro_simulator"
run "$BUILD_DIR/bench/micro_telemetry"

# Fidelity report (DESIGN.md §13): evaluate the expectation catalogue over
# every sweep JSON produced above and render <output-dir>/REPORT.md. Not
# gated here — run_all.sh regenerates artifacts; ci.sh enforces the gate.
run "$BUILD_DIR/tools/report_gen" --results "$OUT_DIR"

echo "all reports in $OUT_DIR/ (fidelity summary: $OUT_DIR/REPORT.md)"
