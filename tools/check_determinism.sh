#!/usr/bin/env bash
# Trajectory-hash differential gate (DESIGN.md §10). Runs five sweep
# benches and asserts, via the per-job trajectory_hash fields of their
# sweep JSON (schema_version 3 and later), for each one:
#
#   1. repeat: the same seeds twice yield identical hash sets;
#   2. jobs:   --jobs 1 and --jobs 4 yield identical hash sets (worker count
#              must not leak into any trajectory);
#   3. seed:   seeds 3,4 share no hash with seeds 1,2 (the oracle actually
#              discriminates — it is not a constant);
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

hashes() {  # hashes <outdir> <bench> <flags...>: the run's sorted hash set
  local out="$work/$1" bench="$2"
  shift 2
  mkdir -p "$out"
  "$build/bench/$bench" --strict --json "$out" "$@" > /dev/null
  grep -o '"trajectory_hash":"0x[0-9a-f]*"' "$out/$bench.json" | sort
}

check() {  # check <label> <bench> <flags...>
  local label="$1" bench="$2"
  shift 2
  [[ -x "$build/bench/$bench" ]] || { echo "check_determinism: $bench not built" >&2; exit 1; }
  local a b j4 other
  a=$(hashes "${label}_a" "$bench" --seeds=1,2 --jobs=1 "$@")
  b=$(hashes "${label}_b" "$bench" --seeds=1,2 --jobs=1 "$@")
  j4=$(hashes "${label}_j4" "$bench" --seeds=1,2 --jobs=4 "$@")
  other=$(hashes "${label}_seed" "$bench" --seeds=3,4 --jobs=2 "$@")
  [[ "$a" == "$b" ]] || failed "$label" "same seeds, repeated run" "$(diff <(echo "$a") <(echo "$b"))"
  [[ "$a" == "$j4" ]] || failed "$label" "--jobs 1 vs --jobs 4" "$(diff <(echo "$a") <(echo "$j4"))"
  local shared
  shared=$(comm -12 <(echo "$a") <(echo "$other"))
  [[ -z "$shared" ]] || failed "$label" "different seeds produced a shared hash" "$shared"
  for run in "$a" "$other"; do
    [[ $(grep -c trajectory_hash <<< "$run") -ge 4 ]] ||
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
