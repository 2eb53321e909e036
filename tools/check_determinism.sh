#!/usr/bin/env bash
# Trajectory-hash differential gate (DESIGN.md §10). Runs the Fig. 8 smoke
# sweep through bench/fig08_fct_non_ecn and asserts, via the per-job
# trajectory_hash fields in the sweep JSON (schema_version 3 and later):
#
#   1. repeat:   the same command twice yields identical hash sets;
#   2. jobs:     --jobs 1 and --jobs 4 yield identical hash sets (worker
#                count must not leak into any trajectory);
#   3. seed:     a different --seeds set yields disjoint hashes (the oracle
#                actually discriminates — it is not a constant);
#   4. scenario: the rob_weight_churn timeline (mid-run audited weight
#                rebalances, DESIGN.md §11) satisfies the same properties —
#                scenario actions are part of the trajectory, not a source
#                of nondeterminism.
#   5. baselines: a bench/abl_competitive run over DynaQ and the LQD
#                push-out baseline (DESIGN.md §12) satisfies the same
#                properties — eviction is part of the trajectory too.
#   6. ctrlplane: a degraded-control-plane run (bench/rob_controller with
#                the controller_crash timeline, DESIGN.md §14) satisfies the
#                same properties — asynchronous threshold updates (period >
#                0), Bernoulli update loss, watchdog failover to DT and the
#                re-sync restore are all part of the trajectory, for any
#                worker count.
#   7. leaf-spine: a small bench/fig13_leaf_spine run (3x3 fabric, 200
#                flows) satisfies the same properties, so the leaf-spine
#                run builder (ECMP, PIAS, all-to-all Poisson traffic) is
#                under the gate as well as the star builders.
#
# Usage: check_determinism.sh <build-dir>
set -eu

build=${1:?usage: check_determinism.sh <build-dir>}
bin="$build/bench/fig08_fct_non_ecn"
[[ -x "$bin" ]] || { echo "check_determinism: $bin not built" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run() {  # run <outdir> <extra flags...>
  local out="$work/$1"
  shift
  mkdir -p "$out"
  "$bin" --schemes=DynaQ,BestEffort --loads=0.5 --flows=200 --strict \
    --json "$out" "$@" > /dev/null
  grep -o '"trajectory_hash":"0x[0-9a-f]*"' "$out/fig08_fct_non_ecn.json" | sort
}

fail=0
expect_equal() {  # expect_equal <label> <a> <b>
  if [[ "$2" != "$3" ]]; then
    echo "check_determinism: FAILED ($1): hash sets differ"
    diff <(printf '%s\n' "$2") <(printf '%s\n' "$3") | sed 's/^/  /'
    fail=1
  fi
}

a=$(run repeat_a --seeds=1,2 --jobs=2)
b=$(run repeat_b --seeds=1,2 --jobs=2)
expect_equal "same seed, repeated run" "$a" "$b"

j1=$(run jobs_1 --seeds=1,2 --jobs=1)
j4=$(run jobs_4 --seeds=1,2 --jobs=4)
expect_equal "--jobs 1 vs --jobs 4" "$j1" "$j4"

other=$(run seed_b --seeds=3,4 --jobs=2)
if [[ -n "$(comm -12 <(printf '%s\n' "$a") <(printf '%s\n' "$other"))" ]]; then
  echo "check_determinism: FAILED (different seeds produced a shared hash):"
  comm -12 <(printf '%s\n' "$a") <(printf '%s\n' "$other") | sed 's/^/  /'
  fail=1
fi

if [[ $(printf '%s\n' "$a" | wc -l) -lt 2 || "$a" != *trajectory_hash* ]]; then
  echo "check_determinism: FAILED (no trajectory_hash fields in sweep JSON)"
  fail=1
fi

# -- scenario runs (DESIGN.md §11) ------------------------------------------
rbin="$build/bench/rob_weight_churn"
[[ -x "$rbin" ]] || { echo "check_determinism: $rbin not built" >&2; exit 1; }

run_scn() {  # run_scn <outdir> <extra flags...>
  local out="$work/$1"
  shift
  mkdir -p "$out"
  "$rbin" --duration-s=1 --schemes=DynaQ,BestEffort --strict \
    --json "$out" "$@" > /dev/null
  grep -o '"trajectory_hash":"0x[0-9a-f]*"' "$out/rob_weight_churn.json" | sort
}

sa=$(run_scn scn_repeat_a --seeds=1,2 --jobs=1)
sb=$(run_scn scn_repeat_b --seeds=1,2 --jobs=1)
expect_equal "scenario: same seed, repeated run" "$sa" "$sb"
sj=$(run_scn scn_jobs_4 --seeds=1,2 --jobs=4)
expect_equal "scenario: --jobs 1 vs --jobs 4" "$sa" "$sj"
ss=$(run_scn scn_seed_b --seeds=3,4 --jobs=2)
if [[ -n "$(comm -12 <(printf '%s\n' "$sa") <(printf '%s\n' "$ss"))" ]]; then
  echo "check_determinism: FAILED (scenario: different seeds produced a shared hash):"
  comm -12 <(printf '%s\n' "$sa") <(printf '%s\n' "$ss") | sed 's/^/  /'
  fail=1
fi

# -- shared-buffer baselines (DESIGN.md §12) ----------------------------------
obin="$build/bench/abl_competitive"
[[ -x "$obin" ]] || { echo "check_determinism: $obin not built" >&2; exit 1; }

run_abl() {  # run_abl <outdir> <extra flags...>
  local out="$work/$1"
  shift
  mkdir -p "$out"
  "$obin" --flows=120 --schemes=DynaQ,LQD --strict \
    --json "$out" "$@" > /dev/null
  grep -o '"trajectory_hash":"0x[0-9a-f]*"' "$out/abl_competitive.json" | sort
}

oa=$(run_abl abl_repeat_a --seeds=1,2 --jobs=1)
ob=$(run_abl abl_repeat_b --seeds=1,2 --jobs=1)
expect_equal "baselines: same seed, repeated run" "$oa" "$ob"
oj=$(run_abl abl_jobs_4 --seeds=1,2 --jobs=4)
expect_equal "baselines: --jobs 1 vs --jobs 4" "$oa" "$oj"
os=$(run_abl abl_seed_b --seeds=3,4 --jobs=2)
if [[ -n "$(comm -12 <(printf '%s\n' "$oa") <(printf '%s\n' "$os"))" ]]; then
  echo "check_determinism: FAILED (baselines: different seeds produced a shared hash):"
  comm -12 <(printf '%s\n' "$oa") <(printf '%s\n' "$os") | sed 's/^/  /'
  fail=1
fi

# -- degraded-control-plane runs (DESIGN.md §14) ------------------------------
cbin="$build/bench/rob_controller"
[[ -x "$cbin" ]] || { echo "check_determinism: $cbin not built" >&2; exit 1; }

run_ctrl() {  # run_ctrl <outdir> <extra flags...>
  local out="$work/$1"
  shift
  mkdir -p "$out"
  # The bench always runs DynaQ behind the shim with update period 5 ms >
  # 0 (async staleness + per-update loss draws are on the differential).
  "$cbin" --duration-s=1 --scenario=controller_crash --schemes=DynaQ,DT --strict \
    --json "$out" "$@" > /dev/null
  grep -o '"trajectory_hash":"0x[0-9a-f]*"' "$out/rob_controller.json" | sort
}

ca=$(run_ctrl ctrl_repeat_a --seeds=1,2 --jobs=1)
cb=$(run_ctrl ctrl_repeat_b --seeds=1,2 --jobs=1)
expect_equal "ctrlplane: same seed, repeated run" "$ca" "$cb"
cj=$(run_ctrl ctrl_jobs_4 --seeds=1,2 --jobs=4)
expect_equal "ctrlplane: --jobs 1 vs --jobs 4" "$ca" "$cj"
cs=$(run_ctrl ctrl_seed_b --seeds=3,4 --jobs=2)
if [[ -n "$(comm -12 <(printf '%s\n' "$ca") <(printf '%s\n' "$cs"))" ]]; then
  echo "check_determinism: FAILED (ctrlplane: different seeds produced a shared hash):"
  comm -12 <(printf '%s\n' "$ca") <(printf '%s\n' "$cs") | sed 's/^/  /'
  fail=1
fi
# The crash scenario must actually degrade the run: the JSON carries the
# telemetry control block with at least one failover.
if ! grep -q '"failovers":[1-9]' "$work/ctrl_repeat_a/rob_controller.json"; then
  echo "check_determinism: FAILED (ctrlplane: controller_crash produced no failover)"
  fail=1
fi

# -- leaf-spine fabric runs ---------------------------------------------------
lbin="$build/bench/fig13_leaf_spine"
[[ -x "$lbin" ]] || { echo "check_determinism: $lbin not built" >&2; exit 1; }

run_fabric() {  # run_fabric <outdir> <extra flags...>
  local out="$work/$1"
  shift
  mkdir -p "$out"
  "$lbin" --leaves=3 --flows=200 --loads=0.5 --schemes=DynaQ,BestEffort --strict \
    --json "$out" "$@" > /dev/null
  grep -o '"trajectory_hash":"0x[0-9a-f]*"' "$out/fig13_leaf_spine.json" | sort
}

la=$(run_fabric fabric_repeat_a --seeds=1,2 --jobs=1)
lb=$(run_fabric fabric_repeat_b --seeds=1,2 --jobs=1)
expect_equal "leaf-spine: same seed, repeated run" "$la" "$lb"
lj=$(run_fabric fabric_jobs_4 --seeds=1,2 --jobs=4)
expect_equal "leaf-spine: --jobs 1 vs --jobs 4" "$la" "$lj"
lo=$(run_fabric fabric_seed_b --seeds=3,4 --jobs=2)
if [[ -n "$(comm -12 <(printf '%s\n' "$la") <(printf '%s\n' "$lo"))" ]]; then
  echo "check_determinism: FAILED (leaf-spine: different seeds produced a shared hash):"
  comm -12 <(printf '%s\n' "$la") <(printf '%s\n' "$lo") | sed 's/^/  /'
  fail=1
fi
if [[ $(printf '%s\n' "$la" | grep -c trajectory_hash) -lt 4 ]]; then
  echo "check_determinism: FAILED (leaf-spine: no trajectory_hash fields in sweep JSON)"
  fail=1
fi

if [[ $fail -eq 0 ]]; then
  echo "check_determinism: OK (repeat, --jobs 1 vs 4, seed sensitivity, scenario runs, baseline runs, ctrlplane runs, leaf-spine runs)"
fi
exit $fail
