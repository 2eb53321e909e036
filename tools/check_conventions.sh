#!/usr/bin/env bash
# Repo-convention lint (CLAUDE.md / DESIGN.md §6). Exits non-zero with
# file:line diagnostics when a rule is broken; CI runs this as its third
# configuration, next to the -Werror build and the ASan+UBSan ctest pass.
#
#   1. Time is dynaq::Time (int64 picoseconds): no double/float variables or
#      functions holding "seconds" inside model code (src/sim, src/net,
#      src/core, src/transport, src/topo). The declared conversion boundary
#      (src/sim/time.hpp) is exempt.
#   2. No float anywhere in src/ (byte/time math must be int64 or double).
#   3. No global simulator: no static/extern sim::Simulator — every
#      component takes sim::Simulator& (CLAUDE.md).
#   4. Namespaces mirror directories: every file in src/<dir>/ declares
#      namespace dynaq::<dir> (src/sim/time.hpp declares repo-wide dynaq::).
#   5. Every core::SchemeKind enumerator is registered in scheme.cpp
#      (scheme_name + parse_scheme) and covered by Scheme.NamesRoundTrip in
#      tests/core_test.cpp.
#   6. Every header is include-guarded with #pragma once.
#   7. Threads live only in src/sweep (dynaq::sweep, the experiment-sweep
#      worker pool, DESIGN.md §7): simulators are single-threaded by design,
#      so no other src/ directory may use std::thread/mutex/atomic — a sweep
#      job parallelizes whole simulator instances, never their internals.
#   9. Event scheduling is allocation-free (DESIGN.md §9): the engine
#      (src/sim) stores callables in sim::EventFn inline slots, so no
#      std::function may appear inside src/sim, and no caller may wrap a
#      schedule_at/schedule_in callable in std::function (the type-erased
#      indirection defeats the inline-storage fast path).
#  10. Determinism hazards (DESIGN.md §10) are delegated to tools/detlint:
#      unordered-container iteration, wall-clock/raw-rand use in models,
#      pointer-keyed ordering, unordered reductions, and controller
#      mutations that bypass the ctrlplane shim (DESIGN.md §14).
#  11. Scenario actions mutate components only via registered handle methods
#      (set_weights, resize_buffer, set_link_down/up, set_rate,
#      pause/resume, control-plane fault handles — DESIGN.md §11):
#      src/scenario must never reach into buffer state (MqState,
#      ServiceQueue, packet deques), so every mutation stays inside the
#      audited component APIs.
#  13. The report subsystem reads serialized artifacts only (DESIGN.md
#      §13): src/report evaluates sweep results JSON, so src/report and
#      tools/report_gen.cpp include only report/ headers and json/, the
#      leaf JSON module — never a
#      model/runtime header (sim, net, core, transport, topo, harness,
#      telemetry, sweep, scenario, check, stats, workload): expectations
#      judge runs from their artifacts, never from simulator internals.
#  15. One JSON module (DESIGN.md §2): every artifact is built as a
#      json::Value and written by its dump(), the only number formatter and
#      string escaper, so no C++ string literal in src/, bench/ or tools/
#      outside src/json may spell JSON syntax ({\" or \":). src/json is a
#      leaf: it includes no other repo header.
#   8. Instrumentation goes through telemetry::Hub (DESIGN.md §8), the one
#      observation channel: its event bus plus its wire taps. The
#      last-writer-wins Port callbacks (on_transmit_start/on_deliver) and
#      the MultiQueueQdisc measurement hooks (on_*_hook) were replaced by
#      the hub and must not be reintroduced anywhere.
set -u
cd "$(dirname "$0")/.."

fail=0
complain() {  # complain <rule> <message lines...>
  echo "CONVENTION VIOLATION [$1]:"
  shift
  local arg line
  for arg in "$@"; do
    while IFS= read -r line; do printf '  %s\n' "$line"; done <<< "$arg"
  done
  fail=1
}

model_dirs=(src/sim src/net src/core src/transport src/topo)

# -- 1. no raw double/float seconds in models ------------------------------
hits=$(grep -rnE '\b(double|float)\s+[A-Za-z_]*(seconds|_sec)\b' "${model_dirs[@]}" \
  | grep -v '^src/sim/time.hpp:' || true)
if [[ -n "$hits" ]]; then
  complain "time-as-int64-ps" "model code must use dynaq::Time, not double seconds:" "$hits"
fi

# -- 2. no float in src/ ----------------------------------------------------
hits=$(grep -rnE '\bfloat\b' src/ | grep -vE '^\S+:\s*//' || true)
if [[ -n "$hits" ]]; then
  complain "no-float" "use double or std::int64_t, not float:" "$hits"
fi

# -- 3. no global simulator -------------------------------------------------
hits=$(grep -rnE '(static|extern)\s+(dynaq::)?(sim::)?Simulator\b' src/ || true)
if [[ -n "$hits" ]]; then
  complain "no-global-simulator" "every component takes sim::Simulator&:" "$hits"
fi

# -- 4. namespaces mirror directories --------------------------------------
for f in src/*/*.hpp src/*/*.cpp; do
  [[ "$f" == src/sim/time.hpp ]] && continue  # repo-wide dynaq::Time
  dir=$(basename "$(dirname "$f")")
  if ! grep -q "namespace dynaq::$dir" "$f"; then
    complain "namespace-mirrors-directory" "$f must declare namespace dynaq::$dir"
  fi
done

# -- 5. SchemeKind registration coverage ------------------------------------
enumerators=$(sed -n '/^enum class SchemeKind {/,/^};/p' src/core/scheme.hpp \
  | grep -oE '^\s+k[A-Za-z0-9]+' | tr -d ' ')
if [[ -z "$enumerators" ]]; then
  complain "schemekind-coverage" "could not extract SchemeKind enumerators from src/core/scheme.hpp"
fi
for e in $enumerators; do
  if [[ $(grep -c "SchemeKind::$e\b" src/core/scheme.cpp) -lt 2 ]]; then
    complain "schemekind-coverage" \
      "SchemeKind::$e must appear in both scheme_name() and parse_scheme() in src/core/scheme.cpp"
  fi
  if ! grep -q "SchemeKind::$e\b" tests/core_test.cpp; then
    complain "schemekind-coverage" \
      "SchemeKind::$e lacks Scheme.NamesRoundTrip coverage in tests/core_test.cpp"
  fi
done

# -- 7. threading primitives confined to src/sweep --------------------------
hits=$(grep -rnE 'std::(thread|jthread|mutex|atomic|condition_variable|future|async)\b' src/ \
  | grep -v '^src/sweep/' | grep -vE '^\S+:\s*//' || true)
if [[ -n "$hits" ]]; then
  complain "threads-only-in-sweep" \
    "only src/sweep (dynaq::sweep worker pool) may use threading primitives:" "$hits"
fi

# -- 8. instrumentation via telemetry::Hub ----------------------------------
hits=$(grep -rnE '\.on_(transmit_start|deliver)\s*=' src/ tests/ bench/ examples/ \
  2>/dev/null || true)
if [[ -n "$hits" ]]; then
  complain "telemetry-hub-instrumentation" \
    "per-port wire callbacks were replaced by telemetry::Hub wire taps (DESIGN.md §8):" "$hits"
fi
hits=$(grep -rnE '\bon_[a-z_]+_hook\b' src/ tests/ bench/ examples/ 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  complain "telemetry-hub-instrumentation" \
    "qdisc measurement hooks were replaced by telemetry::Hub subscribers and wire taps:" "$hits"
fi

# -- 9. allocation-free event scheduling (DESIGN.md §9) ----------------------
hits=$(grep -rnE 'std::function' src/sim/ | grep -vE '^\S+:\s*//' || true)
if [[ -n "$hits" ]]; then
  complain "eventfn-not-stdfunction" \
    "the event engine stores callables in sim::EventFn inline slots; src/sim must not use std::function:" \
    "$hits"
fi
hits=$(grep -rnE 'schedule_(at|in)[^;]*std::function' src/ bench/ examples/ tests/ \
  | grep -vE '^\S+:\s*//' || true)
if [[ -n "$hits" ]]; then
  complain "eventfn-not-stdfunction" \
    "pass lambdas/functors to schedule_at/schedule_in directly (std::function defeats inline event storage):" \
    "$hits"
fi

# -- 11. scenario mutates only via registered handles (DESIGN.md §11) --------
hits=$(grep -rnE '\bMqState\b|\bServiceQueue\b|\.packets\b|->packets\b' src/scenario/ \
  | grep -vE '^\S+:\s*//' || true)
if [[ -n "$hits" ]]; then
  complain "scenario-via-handles" \
    "src/scenario mutates components only through registered handle methods, never raw buffer/queue state:" \
    "$hits"
fi

# -- 13. report reads serialized artifacts only (DESIGN.md §13) ---------------
hits=$(grep -rnE '#include "' src/report/ tools/report_gen.cpp | grep -vE '#include "(report|json)/' \
  | grep -vE '^\S+:\s*//' || true)
if [[ -n "$hits" ]]; then
  complain "report-via-artifacts" \
    "src/report judges runs from serialized artifacts (sweep JSON); it may include only report/ and json/ headers:" \
    "$hits"
fi

# -- 15. one JSON module (src/json) -------------------------------------------
hits=$(grep -rnF --include='*.cpp' --include='*.hpp' -e '{\"' -e '\":' src/ bench/ tools/ \
  | grep -v '^src/json/' | grep -vE '^\S+:\s*//' || true)
if [[ -n "$hits" ]]; then
  complain "one-json-module" \
    "build artifacts as a json::Value and write them with dump(); no hand-spelled JSON outside src/json:" \
    "$hits"
fi
hits=$(grep -rnE '#include "' src/json/ | grep -vE '#include "json/' || true)
if [[ -n "$hits" ]]; then
  complain "one-json-module" "src/json is a leaf library; it must not include other repo headers:" \
    "$hits"
fi

# -- 10. determinism lint (tools/detlint, DESIGN.md §10) ---------------------
if ! tools/detlint > /tmp/detlint.$$ 2>&1; then
  complain "determinism" "tools/detlint found nondeterminism hazards:" "$(cat /tmp/detlint.$$)"
fi
rm -f /tmp/detlint.$$

# -- 6. pragma once in headers ----------------------------------------------
for f in src/*/*.hpp bench/*.hpp; do
  if ! grep -q '#pragma once' "$f"; then
    complain "pragma-once" "$f is missing #pragma once"
  fi
done

if [[ $fail -eq 0 ]]; then
  echo "check_conventions: OK"
fi
exit $fail
