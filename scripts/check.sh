#!/usr/bin/env bash
# Tier-1 verification plus the hardening wall, as one command:
#
#   ./scripts/check.sh            # or: cmake --build build --target check
#
# 1. configure + build the default tree (build/) — all first-party code
#    compiles under -Wall -Wextra -Werror -Wshadow -Wold-style-cast
# 2. run the full ctest suite (graph verifier included: NETCUT_VERIFY
#    defaults to static mode, so every builder/cut/plan self-checks)
# 3. chaos run: the full suite again under a standard NETCUT_FAULTS
#    schedule (spikes, drops, interference bursts) — the self-healing
#    measurement path must keep every result inside its tolerances
# 4. serving layer (ctest -L serve): the batched-serving suite on its own,
#    clean, again under the chaos schedule, and a third time under the
#    failover chaos schedule (worker crash + hang + flaky dispatch + a
#    throttle window, so replica death and mere slowness coexist); every
#    fleet test pins its own FaultModel, so the env schedule proves the
#    pinning rather than perturbing the assertions; then a --label-summary
#    line with per-label pass counts. Before the suites, a fresh
#    `serve_snapshot --json` run must match the committed BENCH_serve.json
#    in every field but the wall-clock queue_take row
# 5. kernel backends: the kernel library (netcut_tensor) builds in
#    build-noisa/ as RelWithDebInfo, with no -march flag, so every SIMD
#    kernel must carry its own target attribute (runtime dispatch, DESIGN
#    §11); then the numerics-sensitive suites (ctest -L
#    "kernels|layers|quant") once under NETCUT_BACKEND=scalar and once
#    under NETCUT_BACKEND=simd — both dispatch tables must hold the same
#    contracts on this machine
# 6. AddressSanitizer (build-asan/): thread pool, memory planner and graph
#    verifier tests — the subsystems that juggle raw lifetimes — then the
#    kernel, layer and quantization suites (ctest -L "kernels|layers|quant"):
#    the AVX2/FMA microkernels read weights in place (rows past a short
#    tile clamp to its last row) and int8 panels packed once, 1x1
#    convolutions hand their input to the GEMM directly, depthwise
#    channel blocks write their own scratch regions (fp32 and int8), and
#    the int8 pass's dequantize/float fallback nodes (BatchNorm, average
#    pools, Concat, Softmax) run through Layer::forward, its only caller
#    in src/
# 7. model checker (ctest -L sched): the schedule-exploration campaigns —
#    every serve protocol under >= 200 seeded schedules plus
#    bounded-exhaustive prefixes — clean, under the chaos schedule, and the
#    serve suite once more with the runtime lock-discipline analyzer armed
#    (NETCUT_LOCKCHECK=1: any rank inversion or held-while-blocking aborts)
# 8. negative tests (tests/negative/): prove the guards can still see —
#    the schedule explorer must catch a seeded lost wakeup + handlock, and
#    TSan must report a seeded data race; a "pass" from a blind analyzer
#    fails here
# 9. ThreadSanitizer (build-tsan/): the serving layer and the model-checker
#    suites (ctest -L "serve|sched"), clean and again under the chaos
#    schedule — the sharded queue, work stealing, fleet loop and the
#    scheduler's own handoff protocol are the lock-heavy surface; a final
#    serve pass runs under the failover chaos schedule with the runtime
#    lock-discipline analyzer armed (NETCUT_LOCKCHECK=1), so drain +
#    re-queue + recovery interleavings face TSan and the rank checker at
#    the same time
# 10. UndefinedBehaviorSanitizer (build-ubsan/): full tier-1 suite with
#    -fno-sanitize-recover=all, so any UB aborts the run
# 11. clang-tidy over src/ (scripts/tidy.sh; skips cleanly when the host
#    has no clang-tidy; any finding exits nonzero)
# 12. clang -Wthread-safety over the annotated concurrency surface
#    (scripts/threadsafety.sh; skips cleanly when the host has no clang++)
# 13. cascade (ctest -L cascade): the input-adaptive two-stage suite, clean
#    and under the chaos schedule; with NETCUT_COVERAGE=1 also runs
#    scripts/coverage.sh — a gcov-instrumented build (build-cov/) that fails
#    if line coverage of src/core/cascade.cpp drops below 80%
set -euo pipefail
set -f  # ctest selectors below hold regex metacharacters; never glob them

cd "$(dirname "$0")/.."

NETCUT_CHAOS_SCHEDULE="spike=0.02x2.5,drop=0.002,burst=0.01x6x1.5,seed=20260806"

# Failover chaos: worker-scoped failures (a crash, a transient hang, flaky
# dispatch) layered on a throttle window, so detection has to separate dead
# replicas from slow ones. Fleet tests pin their own FaultModel; this run
# proves that pinning holds even when the environment says "kill worker 1".
NETCUT_FAILOVER_SCHEDULE="crash=1@700,hang=2@350~40,flaky=3x0.05,throttle=2.0@100~400,seed=20260808"

CHAOS="NETCUT_FAULTS=$NETCUT_CHAOS_SCHEDULE"
FAILOVER="NETCUT_FAULTS=$NETCUT_FAILOVER_SCHEDULE"

# Every ctest invocation, in run order, one row each:
#   step;build dir;ctest selector;env
# An empty selector runs the whole suite. Selector and env are word lists.
CTEST_RUNS=(
  "2;build;;"
  "3;build;;$CHAOS"
  "4;build;-L serve;"
  "4;build;-L serve;$CHAOS"
  "4;build;-L serve;$FAILOVER"
  "5;build;-L kernels|layers|quant;NETCUT_BACKEND=scalar"
  "5;build;-L kernels|layers|quant;NETCUT_BACKEND=simd"
  "6;build-asan;-R ThreadPool|ThreadDeterminism|MemPlan|NnVerify;"
  "6;build-asan;-L kernels|layers|quant;"
  "7;build;-L sched;"
  "7;build;-L sched;$CHAOS"
  "7;build;-L serve;NETCUT_LOCKCHECK=1"
  "9;build-tsan;-L serve|sched;"
  "9;build-tsan;-L serve|sched;$CHAOS"
  "9;build-tsan;-L serve;$FAILOVER NETCUT_LOCKCHECK=1"
  "10;build-ubsan;;"
  "13;build;-L cascade;"
  "13;build;-L cascade;$CHAOS"
)

# step N TITLE [CMD...]: prints the banner, runs CMD (a build, if any), then
# every CTEST_RUNS row of step N.
step() {
  local n=$1 title=$2
  shift 2
  echo "==> [$n/13] $title"
  "$@"
  local row step_n dir sel envs
  for row in "${CTEST_RUNS[@]}"; do
    IFS=';' read -r step_n dir sel envs <<<"$row"
    [ "$step_n" = "$n" ] || continue
    # shellcheck disable=SC2086  # selector and env split into words on purpose
    env $envs ctest --test-dir "$dir" $sel --output-on-failure -j "$(nproc)"
  done
}

# build_tree DIR SANITIZER [TARGET...]: configures and builds one tree, all
# targets unless some are named. An empty SANITIZER leaves the cache as is.
build_tree() {
  local dir=$1 sanitizer=$2
  shift 2
  cmake -B "$dir" -S . ${sanitizer:+-DNETCUT_SANITIZE=$sanitizer} >/dev/null
  local targets=()
  [ $# -gt 0 ] && targets=(--target "$@")
  cmake --build "$dir" -j "$(nproc)" "${targets[@]}"
}

# build_noisa: the kernel library without the Release -march=native flags.
build_noisa() {
  cmake -B build-noisa -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-noisa -j "$(nproc)" --target netcut_tensor
}

# serve_snapshot_pinned: the simulated serving rows are a pure function of
# (config, seed), so a fresh serve_snapshot run reproduces the committed
# BENCH_serve.json field for field. Only the wall-clock queue_take row may
# differ; every other differing field is printed and fails the step.
serve_snapshot_pinned() {
  local fresh rc=0
  fresh=$(mktemp)
  build/bench/serve_snapshot --json "$fresh" >/dev/null || rc=$?
  if [ "$rc" -eq 0 ]; then
    python3 - BENCH_serve.json "$fresh" <<'PY' || rc=$?
import json, sys

def flat(node, path, out):
    if isinstance(node, dict):
        for k, v in node.items():
            flat(v, f"{path}.{k}" if path else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            flat(v, f"{path}[{i}]", out)
    else:
        out[path] = node
    return out

committed, fresh = (flat(json.load(open(p)), "", {}) for p in sys.argv[1:])
differ = sorted(k for k in committed.keys() | fresh.keys()
                if not k.startswith("queue_take") and committed.get(k) != fresh.get(k))
for k in differ:
    print(f"    {k}: committed {committed.get(k)!r}, fresh {fresh.get(k)!r}")
sys.exit(1 if differ else 0)
PY
  fi
  rm -f "$fresh"
  if [ "$rc" -ne 0 ]; then
    echo "    serve_snapshot differs from BENCH_serve.json (see above)"
    return "$rc"
  fi
  echo "    serve_snapshot matches BENCH_serve.json (queue_take excluded)"
}

# Per-label pass counts from dedicated `ctest -L <label>` runs (ctest has no
# built-in pass-count-per-label report; the label suites are small).
label_summary() {
  echo "--label-summary (per-label pass counts, clean run):"
  while read -r label; do
    [ -z "$label" ] && continue
    local line total failed
    line=$(ctest --test-dir build -L "^${label}\$" -j "$(nproc)" 2>/dev/null \
             | grep -E '^[0-9]+% tests passed' || true)
    if [ -z "$line" ]; then
      echo "    ${label}: no results"
      continue
    fi
    total=$(echo "$line" | sed -E 's/.*out of ([0-9]+).*/\1/')
    failed=$(echo "$line" | sed -E 's/.*, ([0-9]+) tests failed.*/\1/')
    echo "    ${label}: $((total - failed))/${total} passed"
  done < <(ctest --test-dir build --print-labels | sed -n 's/^  //p')
}

step 1 "configure + build (build/, -Werror)" build_tree build ""
step 2 "ctest (full tier-1 suite)"
step 3 "ctest under fault injection (NETCUT_FAULTS chaos schedule)"
step 4 "serving layer (serve_snapshot pin, ctest -L serve, clean + chaos + failover chaos)" \
  serve_snapshot_pinned
label_summary
step 5 "kernel backends (flag-free netcut_tensor, ctest -L kernels|layers|quant, scalar + simd)" \
  build_noisa
step 6 "ASan: thread pool + memory planner + verifier + kernels + layers + quant" \
  build_tree build-asan address test_util_threadpool test_nn_memplan test_nn_verify \
  test_tensor test_tensor_backends test_nn_layers test_quant
step 7 "model checker (ctest -L sched, clean + chaos + lockcheck)"
step 8 "negative tests (seeded bugs must be caught)"
./tests/negative/sched_catches_lost_wakeup.sh build/tests/test_sched
./tests/negative/tsan_catches_race.sh
step 9 "TSan: serve + sched (ctest -L serve|sched, clean + chaos + failover)" \
  build_tree build-tsan thread test_serve test_sched test_serve_failover
step 10 "UBSan: full tier-1 suite" build_tree build-ubsan undefined
step 11 "clang-tidy" ./scripts/tidy.sh
step 12 "clang thread-safety analysis" ./scripts/threadsafety.sh
step 13 "cascade (ctest -L cascade, clean + chaos; coverage behind NETCUT_COVERAGE=1)"
# Line-coverage gate for the cascade module (gcov build in build-cov/) — the
# expensive instrumented rebuild only runs when explicitly requested.
if [ "${NETCUT_COVERAGE:-0}" = "1" ]; then
  ./scripts/coverage.sh
else
  echo "    coverage gate skipped (set NETCUT_COVERAGE=1 to run scripts/coverage.sh)"
fi

echo "==> check passed"
