#!/usr/bin/env bash
# Trajectory-hash differential gate (DESIGN.md §10). Runs five sweep
# benches and asserts, for each one:
#
#   1. repeat: the same seeds twice write byte-identical sweep JSON;
#   2. jobs:   --jobs 1 and --jobs 4 write byte-identical sweep JSON (the
#              worker count must not leak into any trajectory or metric);
#   3. seed:   seeds 3,4 share no per-job trajectory_hash with seeds 1,2
#              (the oracle actually discriminates — it is not a constant);
#   4. count:  every run carries at least 4 hashes.
#
# The benches: the Fig. 8 smoke sweep; rob_weight_churn (mid-run audited
# weight rebalances, DESIGN.md §11); abl_competitive over DynaQ and the LQD
# push-out baseline (eviction, §12); rob_controller with the
# controller_crash timeline (async threshold updates, update loss, watchdog
# failover to DT and the re-sync, §14), which must also fail over at least
# once; and a 3x3 fig13_leaf_spine fabric (ECMP, PIAS, all-to-all traffic).
#
# Usage: check_determinism.sh <build-dir>
set -eu

build=${1:?usage: check_determinism.sh <build-dir>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail=0

failed() {  # failed <label> <what> [detail lines]
  echo "check_determinism: FAILED ($1: $2)"
  [[ -n "${3:-}" ]] && printf '%s\n' "$3" | sed 's/^/  /'
  fail=1
}

sweep() {  # sweep <label> <outdir> <bench> <flags...>: writes <outdir>/<bench>.json
  local label="$1" out="$work/$2" bench="$3"
  shift 3
  mkdir -p "$out"
  "$build/bench/$bench" --json "$out" "$@" > /dev/null || failed "$label" "$bench $* exited non-zero"
}

same() {  # same <label> <what> <json> <json>
  local diff
  diff=$(cmp "$3" "$4" 2>&1) || failed "$1" "$2" "$diff"
}

hashes() {  # hashes <json>: the run's sorted hash set
  grep -o '"trajectory_hash":"0x[0-9a-f]*"' "$1" | sort
}

check() {  # check <label> <bench> <flags...>
  local label="$1" bench="$2"
  shift 2
  [[ -x "$build/bench/$bench" ]] || { echo "check_determinism: $bench not built" >&2; exit 1; }
  sweep "$label" "${label}_a" "$bench" --seeds=1,2 --jobs=1 "$@"
  sweep "$label" "${label}_b" "$bench" --seeds=1,2 --jobs=1 "$@"
  sweep "$label" "${label}_j4" "$bench" --seeds=1,2 --jobs=4 "$@"
  sweep "$label" "${label}_seed" "$bench" --seeds=3,4 --jobs=2 "$@"
  local a="$work/${label}_a/$bench.json" other="$work/${label}_seed/$bench.json"
  same "$label" "same seeds, repeated run" "$a" "$work/${label}_b/$bench.json"
  same "$label" "--jobs 1 vs --jobs 4" "$a" "$work/${label}_j4/$bench.json"
  local shared json
  shared=$(comm -12 <(hashes "$a") <(hashes "$other"))
  [[ -z "$shared" ]] || failed "$label" "different seeds produced a shared hash" "$shared"
  for json in "$a" "$other"; do
    [[ $(hashes "$json" | wc -l) -ge 4 ]] ||
      failed "$label" "fewer than 4 trajectory_hash fields in a run"
  done
}

check fig08 fig08_fct_non_ecn --schemes=DynaQ,BestEffort --loads=0.5 --flows=200
check scenario rob_weight_churn --duration-s=1 --schemes=DynaQ,BestEffort
check baselines abl_competitive --flows=120 --schemes=DynaQ,LQD
check ctrlplane rob_controller --duration-s=1 --scenario=controller_crash --schemes=DynaQ,DT
check leaf-spine fig13_leaf_spine --leaves=3 --flows=200 --loads=0.5 --schemes=DynaQ,BestEffort

# The crash scenario must actually degrade the run: the JSON carries the
# telemetry control block with at least one failover.
grep -q '"failovers":[1-9]' "$work/ctrlplane_a/rob_controller.json" ||
  failed ctrlplane "controller_crash produced no failover"

if [[ $fail -eq 0 ]]; then
  echo "check_determinism: OK (repeat, --jobs 1 vs 4, seed sensitivity: fig08, scenario, baselines, ctrlplane, leaf-spine runs)"
fi
exit $fail
