#!/usr/bin/env bash
# Full check, four legs:
#   1. regular build + complete test suite + the lint gate (scripts/lint.sh:
#      the lock-discipline, GUARDED_BY coverage, critical-section scope and
#      docs rules always; the clang -Wthread-safety build, clang-tidy and
#      clang-query passes only where clang is on PATH);
#   2. an AddressSanitizer+UBSan build running the complete test suite
#      (memory errors and UB anywhere, not just in concurrency hot spots);
#   3. a ThreadSanitizer build running the concurrency-heavy tests (metrics
#      registry, SimNet edge tables, lock manager, the held-lock record and
#      the three checkers that read it from many threads — lock-order
#      tracker, race detector, critical-section scope auditor — workload
#      harness, the sharded dentry cache, the Renamer, whose validation
#      reads and invalidation broadcast run as SimNet::FanOut rounds on
#      SimNet's worker pool, the KV store, whose batches readers must see
#      whole, TafDB's raft-backed shards read while they apply, raft itself,
#      whose proposing threads carry AppendEntries beside the replicator
#      threads, and its failover paths, and the cross-engine
#      cache-coherence tests — the code most exposed to the multi-threaded
#      client loops).
#
# Usage: scripts/check.sh [--tsan-only|--asan-only]
set -euo pipefail
cd "$(dirname "$0")/.."

TSAN_TESTS=(metrics_test trace_event_test simnet_test lock_manager_test
            common_test lock_order_test race_detector_test cs_scope_test
            workload_test dentry_cache_test renamer_test kv_test tafdb_test
            raft_test failover_test)

if [[ "${1:-}" == "" ]]; then
  echo "== regular build + full test suite =="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j "$(nproc)"

  echo "== lint =="
  scripts/lint.sh
fi

if [[ "${1:-}" != "--tsan-only" ]]; then
  echo "== ASan+UBSan build + full test suite =="
  cmake -B build-asan -S . -DCFS_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
fi

if [[ "${1:-}" != "--asan-only" ]]; then
  echo "== ThreadSanitizer build + concurrency tests =="
  cmake -B build-tsan -S . -DCFS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target "${TSAN_TESTS[@]}" cfs_core_test
  for t in "${TSAN_TESTS[@]}"; do
    echo "-- $t (tsan)"
    if [[ "$t" == lock_order_test ]]; then
      # The tracker tests execute lock inversions on purpose; TSan's own
      # lockdep would flag exactly those. Race detection stays on.
      TSAN_OPTIONS="detect_deadlocks=0" ./build-tsan/tests/"$t"
    else
      ./build-tsan/tests/"$t"
    fi
  done
  echo "-- cfs_core_test coherence suite (tsan)"
  ./build-tsan/tests/cfs_core_test --gtest_filter='*Coherence*'
fi

echo "== all checks passed =="
