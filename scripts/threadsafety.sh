#!/usr/bin/env bash
# Clang thread-safety analysis over the annotated concurrency surface.
#
#   ./scripts/threadsafety.sh
#
# Runs clang's -Wthread-safety static analysis (the Capability/GUARDED_BY
# family behind src/util/thread_annotations.hpp) as a syntax-only pass, with
# every thread-safety diagnostic promoted to an error. This is the
# compile-time half of the concurrency wall: it proves every GUARDED_BY
# field is only touched with its mutex held and every REQUIRES contract is
# met at each call site, on every path, without running anything.
#
# On hosts without clang++ (the gcc-only container) this is a no-op that
# exits 0, mirroring scripts/tidy.sh, so scripts/check.sh stays runnable
# everywhere; install clang >= 14 to activate the pass. The annotations
# themselves compile away under gcc (see thread_annotations.hpp).
set -euo pipefail

cd "$(dirname "$0")/.."

CXX=""
for cand in clang++ clang++-19 clang++-18 clang++-17 clang++-16 clang++-15 \
            clang++-14; do
  if command -v "$cand" >/dev/null 2>&1; then
    CXX="$cand"
    break
  fi
done
if [[ -z "$CXX" ]]; then
  echo "threadsafety: clang++ not found on PATH — skipping (install clang to enable)"
  exit 0
fi

# The annotated translation units: everything that owns a RankedMutex or a
# GUARDED_BY field. Kept explicit (not a glob) so kernel TUs with
# ISA-specific intrinsics never enter a syntax-only pass that lacks the
# build tree's -march flags.
sources=(
  src/util/ranked_mutex.cpp
  src/util/schedule.cpp
  src/util/thread_pool.cpp
  src/app/watchdog.cpp
  src/serve/queue.cpp
  src/serve/shard.cpp
  src/serve/server.cpp
  src/serve/fleet.cpp
  src/core/evaluator.cpp
)

echo "threadsafety: $CXX -Wthread-safety over ${#sources[@]} translation units"
for tu in "${sources[@]}"; do
  "$CXX" -fsyntax-only -std=c++20 -Isrc \
    -Wthread-safety -Wthread-safety-beta -Werror=thread-safety \
    -Wno-unknown-warning-option "$tu"
done
echo "threadsafety: clean"
