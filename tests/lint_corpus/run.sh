#!/usr/bin/env bash
# The lint scanner's self-test: runs scripts/lint.sh --grep-only on a copy of
# this planted-violation corpus and requires exit status 1 and exactly the
# findings in expected.txt.
#
# Usage: tests/lint_corpus/run.sh <source root> <scratch dir>
set -euo pipefail
src=$1 work=$2
rm -rf "$work"
cp -r "$src/tests/lint_corpus" "$work"
cp "$src/scripts/lint.sh" "$work/scripts/"
status=0
"$work/scripts/lint.sh" --grep-only > "$work/actual.txt" || status=$?
diff -u "$src/tests/lint_corpus/expected.txt" "$work/actual.txt"
if [[ "$status" -ne 1 ]]; then
  echo "lint.sh exited $status on the corpus; expected 1" >&2
  exit 1
fi
