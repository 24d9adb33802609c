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
#    line with per-label pass counts
# 5. kernel backends: the numerics-sensitive suites (ctest -L
#    "kernels|layers|quant") once under NETCUT_BACKEND=scalar and once
#    under NETCUT_BACKEND=simd — both dispatch tables must hold the same
#    contracts on this machine
# 6. AddressSanitizer (build-asan/): thread pool, memory planner and graph
#    verifier tests — the subsystems that juggle raw lifetimes — then the
#    kernel, layer and quantization suites (ctest -L "kernels|layers|quant"):
#    the AVX2/FMA microkernels read weights in place (rows past a short
#    tile clamp to its last row) and int8 panels packed once, every layer's
#    forward() and the int8 dequantize/float fallback nodes run through the
#    shared Layer::forward helper, and 1x1 convolutions hand their input to
#    the GEMM directly
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

cd "$(dirname "$0")/.."

NETCUT_CHAOS_SCHEDULE="spike=0.02x2.5,drop=0.002,burst=0.01x6x1.5,seed=20260806"

# Failover chaos: worker-scoped failures (a crash, a transient hang, flaky
# dispatch) layered on a throttle window, so detection has to separate dead
# replicas from slow ones. Fleet tests pin their own FaultModel; this run
# proves that pinning holds even when the environment says "kill worker 1".
NETCUT_FAILOVER_SCHEDULE="crash=1@700,hang=2@350~40,flaky=3x0.05,throttle=2.0@100~400,seed=20260808"

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

echo "==> [1/13] configure + build (build/, -Werror)"
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"

echo "==> [2/13] ctest (full tier-1 suite)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==> [3/13] ctest under fault injection (NETCUT_FAULTS chaos schedule)"
NETCUT_FAULTS="$NETCUT_CHAOS_SCHEDULE" \
  ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==> [4/13] serving layer (ctest -L serve, clean + chaos + failover chaos)"
ctest --test-dir build -L serve --output-on-failure -j "$(nproc)"
NETCUT_FAULTS="$NETCUT_CHAOS_SCHEDULE" \
  ctest --test-dir build -L serve --output-on-failure -j "$(nproc)"
NETCUT_FAULTS="$NETCUT_FAILOVER_SCHEDULE" \
  ctest --test-dir build -L serve --output-on-failure -j "$(nproc)"
label_summary

echo "==> [5/13] kernel backends (ctest -L kernels|layers|quant, scalar + simd)"
NETCUT_BACKEND=scalar \
  ctest --test-dir build -L 'kernels|layers|quant' --output-on-failure -j "$(nproc)"
NETCUT_BACKEND=simd \
  ctest --test-dir build -L 'kernels|layers|quant' --output-on-failure -j "$(nproc)"

echo "==> [6/13] ASan: thread pool + memory planner + verifier + kernels + layers + quant"
cmake -B build-asan -S . -DNETCUT_SANITIZE=address >/dev/null
cmake --build build-asan -j "$(nproc)" \
  --target test_util_threadpool test_nn_memplan test_nn_verify test_tensor \
  test_tensor_backends test_nn_layers test_quant
ctest --test-dir build-asan -R 'ThreadPool|ThreadDeterminism|MemPlan|NnVerify' \
  --output-on-failure -j "$(nproc)"
ctest --test-dir build-asan -L 'kernels|layers|quant' --output-on-failure -j "$(nproc)"

echo "==> [7/13] model checker (ctest -L sched, clean + chaos + lockcheck)"
ctest --test-dir build -L sched --output-on-failure -j "$(nproc)"
NETCUT_FAULTS="$NETCUT_CHAOS_SCHEDULE" \
  ctest --test-dir build -L sched --output-on-failure -j "$(nproc)"
# Live lock-discipline pass: the whole serving suite with the runtime
# rank analyzer armed — any order inversion or held-while-blocking aborts.
NETCUT_LOCKCHECK=1 \
  ctest --test-dir build -L serve --output-on-failure -j "$(nproc)"

echo "==> [8/13] negative tests (seeded bugs must be caught)"
./tests/negative/sched_catches_lost_wakeup.sh build/tests/test_sched
./tests/negative/tsan_catches_race.sh

echo "==> [9/13] TSan: serve + sched (ctest -L serve|sched, clean + chaos + failover)"
cmake -B build-tsan -S . -DNETCUT_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" --target test_serve test_sched test_serve_failover
ctest --test-dir build-tsan -L 'serve|sched' --output-on-failure -j "$(nproc)"
NETCUT_FAULTS="$NETCUT_CHAOS_SCHEDULE" \
  ctest --test-dir build-tsan -L 'serve|sched' --output-on-failure -j "$(nproc)"
# Failover chaos under TSan with the runtime lock analyzer armed: shard
# drain, orphan re-queue and warm-up stealing are exactly the paths where a
# rank inversion or a lock held across a blocking call would hide.
NETCUT_FAULTS="$NETCUT_FAILOVER_SCHEDULE" NETCUT_LOCKCHECK=1 \
  ctest --test-dir build-tsan -L serve --output-on-failure -j "$(nproc)"

echo "==> [10/13] UBSan: full tier-1 suite"
cmake -B build-ubsan -S . -DNETCUT_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$(nproc)"
ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)"

echo "==> [11/13] clang-tidy"
./scripts/tidy.sh

echo "==> [12/13] clang thread-safety analysis"
./scripts/threadsafety.sh

echo "==> [13/13] cascade (ctest -L cascade, clean + chaos; coverage behind NETCUT_COVERAGE=1)"
ctest --test-dir build -L cascade --output-on-failure -j "$(nproc)"
NETCUT_FAULTS="$NETCUT_CHAOS_SCHEDULE" \
  ctest --test-dir build -L cascade --output-on-failure -j "$(nproc)"
# Line-coverage gate for the cascade module (gcov build in build-cov/) — the
# expensive instrumented rebuild only runs when explicitly requested.
if [ "${NETCUT_COVERAGE:-0}" = "1" ]; then
  ./scripts/coverage.sh
else
  echo "    coverage gate skipped (set NETCUT_COVERAGE=1 to run scripts/coverage.sh)"
fi

echo "==> check passed"
