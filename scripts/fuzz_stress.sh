#!/usr/bin/env bash
# Stress for the namespace-invariant fuzz (tests/fuzz_invariants_test.cc).
# Each round runs PROCS fuzz_invariants_test processes at once, so every
# seed's op storm runs under the CPU contention of the others; failures a
# lone ctest run rarely hits show up here. Prints the failed processes, then
# the failures per seed and per invariant (I1-I4, from the tag each
# invariant's failure message starts with). Failed processes' logs are
# kept in a temporary directory, whose path is printed.
#
# Usage: scripts/fuzz_stress.sh [rounds] [procs]   (defaults: 100 rounds,
#        4 processes; procs may not exceed nproc). Build first. Exits 1 if
#        any process failed.
set -euo pipefail
cd "$(dirname "$0")/.."

ROUNDS="${1:-100}"
PROCS="${2:-4}"
BIN=build/tests/fuzz_invariants_test
CPUS="$(nproc)"

[[ "$ROUNDS" =~ ^[1-9][0-9]*$ ]] || {
  echo "fuzz_stress: rounds must be a positive integer" >&2
  exit 2
}
[[ "$PROCS" =~ ^[1-9][0-9]*$ ]] && ((PROCS <= CPUS)) || {
  echo "fuzz_stress: procs must be between 1 and nproc ($CPUS)" >&2
  exit 2
}
[[ -x "$BIN" ]] || {
  echo "fuzz_stress: $BIN missing; build first" >&2
  exit 2
}

OUT="$(mktemp -d "${TMPDIR:-/tmp}/fuzz_stress.XXXXXX")"
failed=0
for ((r = 1; r <= ROUNDS; r++)); do
  pids=()
  for ((p = 1; p <= PROCS; p++)); do
    "$BIN" >"$OUT/r${r}_p${p}.log" 2>&1 &
    pids+=($!)
  done
  for ((p = 1; p <= PROCS; p++)); do
    if wait "${pids[p - 1]}"; then
      rm -f "$OUT/r${r}_p${p}.log"
    else
      failed=$((failed + 1))
      echo "round $r process $p failed: $OUT/r${r}_p${p}.log"
    fi
  done
done

echo "fuzz_stress: $failed of $((ROUNDS * PROCS)) processes failed" \
  "($ROUNDS rounds x $PROCS)"
((failed == 0)) && { rmdir "$OUT"; exit 0; }

# One count per failed test per invariant, however many paths it names; a
# failure outside the four invariants (setup, audit reads) is "other".
awk '
  /^\[ RUN      \]/ { delete seen; tagged = 0 }
  /^I[1-4] / && !seen[$1]++ { inv[$1]++; tagged = 1 }
  /^\[  FAILED  \] .* \([0-9]+ ms\)$/ {
    t = $4; sub(/.*\//, "", t); sub(/,$/, "", t); seed[t]++
    if (!tagged) inv["other"]++
  }
  END {
    print "failures by seed:"
    for (s in seed) printf "  %-14s %d\n", s, seed[s]
    print "failures by invariant:"
    for (i in inv) printf "  %-14s %d\n", i, inv[i]
  }
' "$OUT"/*.log
exit 1
