#!/usr/bin/env bash
# Lint gate. One awk scanner reads every C++ file of the tree once (comments
# and string/char literals blanked, brace depth and class/struct scopes
# tracked) and enforces every lock-discipline, critical-section scope,
# GUARDED_BY coverage and docs-consistency rule below. It prints every
# finding of every rule as `path:line: <rule>: message`, then exits 1 if
# there was any. Where clang is on PATH, a -Wthread-safety build, clang-tidy
# and two clang-query passes follow; without clang they are skipped with one
# notice, so the gate runs everywhere.
#
# Rules:
#   allowlist      scripts/lint_allowlist.txt names a file that does not exist.
#   no-tsa         NO_THREAD_SAFETY_ANALYSIS in src/ or tests/ outside the
#                  allowlist (marker no-tsa): the escape hatch for code the
#                  thread-safety analysis cannot model.
#   raw-std-sync   std::mutex / shared_mutex / condition_variable in src/
#                  outside the allowlist (marker raw-std-sync). They are
#                  invisible to the analysis and the lock-order tracker; use
#                  cfs::Mutex / SharedMutex / CondVar.
#   escape         a `tsa-coverage: allow` or `cs-scope: allow` escape in src/
#                  or tests/ without a parenthesized reason.
#   bare-assert    assert() in src/ code: it compiles out under NDEBUG; use
#                  CFS_CHECK / CFS_DCHECK (src/common/check.h).
#   unnamed-mutex  a Mutex / SharedMutex in src/ not constructed on one line
#                  as  Mutex mu_{"subsystem.name", rank};  (the docs rule
#                  reads names and ranks from that form).
#   raw-sleep      a sleep_for of microseconds or nanoseconds in src/ outside
#                  src/common/simtime.cc: a modelled delay (RTT, service
#                  time, fsync) must go through simtime::SleepUs, which runs
#                  at 1 ns timer slack. Millisecond backoffs and tickers are
#                  real waits and stay legal.
#   nodiscard      Status / StatusOr lost [[nodiscard]], or CMakeLists.txt
#                  lost -Werror=unused-result (a dropped status is a
#                  swallowed error).
#   guarded-by     a data member of a mutex-owning class in src/ has neither
#                  GUARDED_BY / PT_GUARDED_BY nor a `tsa-coverage:
#                  allow(<reason>)` on its line or the line above. Exempt:
#                  static / constexpr / const members, references, Mutex /
#                  SharedMutex / CondVar, std::atomic, and files under the
#                  allowlist marker no-guard-lint. The static twin of the
#                  race detector (src/common/race_detector.h).
#   cs-scope       a SimNet RPC (Call / FanOut / BeginCall / LockPhaseCall)
#                  issued while a MutexLock / ReaderMutexLock /
#                  WriterMutexLock guard is live, in CS_DIRS: the static twin
#                  of the runtime RpcHoldPolicy (src/common/lock_order.h).
#                  `<guard>.Unlock()` / `<guard>.Lock()` drop and retake the
#                  guard; `cs-scope: allow(<reason>)` on the line or the line
#                  above exempts a site.
#   docs           code and docs disagree. Each check compares a set taken
#                  from the code with a set taken from the docs: CfsOptions
#                  fields, CFS_SIM* knobs (bench/) and race-audit knobs
#                  (src/common/) must be in README.md; mutex classes must be
#                  never-across-rpc rows of DESIGN.md's rank table; the
#                  allowed-across-rpc rows must equal the `cs-policy:
#                  allowed-across-rpc` markers; §10's phase and category rows
#                  must equal PhaseName / CategoryName; LatencyMode
#                  enumerators must be in §11 and race-audit knobs in §12.
#
# Usage: scripts/lint.sh [--grep-only]   (--grep-only skips the clang legs)
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=scripts/lint_allowlist.txt
# The CFS paths. src/baselines/ is left out on purpose: HopsFS/InfiniFS-style
# systems hold transaction row locks across RPCs, the behaviour the paper
# measures against (and those are lock-manager scopes, not mutex guards).
CS_DIRS=(src/core src/tafdb src/txn src/kv src/wal src/filestore src/renamer)
cs_re="^($(IFS='|'; echo "${CS_DIRS[*]}"))/"

[[ -f "$ALLOWLIST" ]] || { echo "lint: missing $ALLOWLIST" >&2; exit 1; }
# tests/lint_corpus holds the planted violations of the scanner's own test.
mapfile -t files < <(find src tests bench -path tests/lint_corpus -prune -o \
  -type f \( -name '*.h' -o -name '*.cc' -o -path 'bench/*' \) -print |
  LC_ALL=C sort)

findings=$(awk -v allowlist="$ALLOWLIST" -v cs_re="$cs_re" '
function finding(path, ln, rule, msg) {
  printf "%s:%d: %s: %s\n", path, ln, rule, msg
}
function blank(s) { gsub(/./, " ", s); return s }

# Blanks comments and the insides of string/char literals, keeping every
# other character in its column; /* */ state carries across lines.
function strip(s,   out, q) {
  out = ""
  while (s != "") {
    if (in_block) {
      if (!match(s, /\*\//)) return out blank(s)
      out = out blank(substr(s, 1, RSTART + 1))
      s = substr(s, RSTART + 2)
      in_block = 0
      continue
    }
    if (!match(s, /\/[\/*]|["\047]/)) return out s
    out = out substr(s, 1, RSTART - 1)
    q = substr(s, RSTART, RLENGTH)
    s = substr(s, RSTART + RLENGTH)
    if (q == "//") return out blank(q s)
    if (q == "/*") { out = out "  "; in_block = 1; continue }
    if (!match(s, q == "\"" ? "^([^\"\\\\]|\\\\.)*\"" : "^([^\047\\\\]|\\\\.)*\047"))
      return out q blank(s)
    out = out q blank(substr(s, 1, RLENGTH - 1)) q
    s = substr(s, RLENGTH + 1)
  }
  return out
}

# The one Mutex / SharedMutex declaration recognizer: 0 = none, 1 = declared
# without a name and rank, 2 = declared as mu_{"subsystem.name", rank} (sets
# mu_key), 3 = declared some other way.
function mutex_decl(   lit, f) {
  if (!match(code, /(^|[ \t])(mutable[ \t]+)?(cfs::)?(Mutex|SharedMutex)[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*/))
    return 0
  if (substr(code, RSTART + RLENGTH, 1) == ";") return 1
  lit = substr(raw, RSTART + RLENGTH)
  if (!match(lit, /^\{"[a-z._]+",[ \t]*[0-9]+\}/)) return 3
  split(substr(lit, 3, RLENGTH - 3), f, /",[ \t]*/)
  mu_key = f[1] " (rank " f[2] ")"
  return 2
}

# A justified escape on this line or the line above.
function escaped(marker,   here, above) {
  here = raw ~ (marker ": allow\\([^)]+\\)")
  above = prev[marker]
  prev[marker] = here
  return here || above
}

# Docs facts: the first place each key appears, per code kind or doc set.
function fact(kind, key) {
  if (!((kind, key) in code_at)) code_at[kind, key] = FILENAME ":" FNR
}
function doc(set, key) {
  if (!((set, key) in doc_at)) doc_at[set, key] = FILENAME ":" FNR
}
function facts(kind, re, from, len,   s) {
  for (s = raw; match(s, re); s = substr(s, RSTART + RLENGTH))
    fact(kind, substr(s, RSTART + from, RLENGTH - from - len))
}
# The kind of docs fact the line may hold, if it is inside the block of its file.
function block_kind(   inside) {
  if (!(FILENAME in bkind)) return ""
  if (raw ~ bstart[FILENAME]) in_bl = 1
  inside = in_bl
  if (raw ~ bstop[FILENAME]) in_bl = 0
  return inside ? bkind[FILENAME] : ""
}

# Compares the code set `kind` with the doc set `set`: a code key missing
# from the docs is reported where the code has it; with `both`, a doc key
# missing from the code is reported where the docs have it.
function compare(kind, home, set, both,   k, p, n) {
  n = 0
  for (k in code_at) {
    split(k, p, SUBSEP)
    if (p[1] != kind) continue
    n++
    if (!((set, p[2]) in doc_at))
      report(code_at[k], kind " " p[2] " is missing from " set)
  }
  if (n == 0) finding(home, 1, "docs", "found no " kind " (the extraction no longer matches the code)")
  if (both) for (k in doc_at) {
    split(k, p, SUBSEP)
    if (p[1] == set && !((kind, p[2]) in code_at))
      report(doc_at[k], set " lists " kind " " p[2] ", which the code does not have")
  }
}
function report(at, msg,   p) {
  split(at, p, ":")
  finding(p[1], p[2], "docs", msg)
}

# Class/struct scopes; members of a mutex-owning class are reported when
# its scope closes.
function push(name) {
  ns++; sname[ns] = name; sdepth[ns] = depth; shas_mu[ns] = 0; sfirst[ns] = nm + 1
}
function pop(   i) {
  if (shas_mu[ns]) for (i = sfirst[ns]; i <= nm; i++) if (mscope[i] == ns) print mmsg[i]
  nm = sfirst[ns] - 1
  ns--
}

BEGIN {
  bkind["src/core/cfs.h"] = "CfsOptions field"
  bstart["src/core/cfs.h"] = "^struct CfsOptions \\{"; bstop["src/core/cfs.h"] = "^\\};"
  bkind["src/common/metrics.cc"] = "OpTrace phase"
  bstart["src/common/metrics.cc"] = "^std::string_view PhaseName"; bstop["src/common/metrics.cc"] = "^}"
  bkind["src/common/trace_event.cc"] = "trace category"
  bstart["src/common/trace_event.cc"] = "CategoryName\\(Category"; bstop["src/common/trace_event.cc"] = "^}"
  bkind["src/net/simnet.h"] = "LatencyMode"
  bstart["src/net/simnet.h"] = "^enum class LatencyMode \\{"; bstop["src/net/simnet.h"] = "^\\};"
}

FILENAME == allowlist {
  if ($0 ~ /^[ \t]*(#|$)/) next
  allowed[$1, $2] = 1
  if ((getline tmp < $2) < 0)
    finding(FILENAME, FNR, "allowlist", "lists missing file " $2 " (marker " $1 ")")
  else close($2)
  next
}
FILENAME == "CMakeLists.txt" { if (index($0, "-Werror=unused-result")) werror = 1; next }
FILENAME ~ /^bench\// { raw = $0; facts("CFS_SIM* knob", "CFS_SIM[A-Z0-9_]*", 0, 0); next }
FILENAME ~ /\.md$/ {
  raw = $0
  if (FNR == 1) section = 0
  if (raw ~ /^## /) section = substr(raw, 4, 3) + 0
  set = FILENAME == "README.md" ? "README.md" : "DESIGN.md §" section
  n = split(raw, part, "`")
  for (i = 2; i < n; i += 2) doc(set, part[i])
  if (FILENAME != "DESIGN.md" || raw !~ /^\|[ \t]*`[a-z0-9._]+`[ \t]*\|/) next
  split(raw, cell, "|")
  for (i = 2; i <= 4; i++) gsub(/^[ \t`]+|[ \t`]+$/, "", cell[i])
  if (cell[3] ~ /^[0-9]+$/ && cell[4] == "never-across-rpc")
    doc("DESIGN.md rank table (never-across-rpc)", cell[2] " (rank " cell[3] ")")
  else if (cell[3] ~ /^[0-9]+$/ && cell[4] == "allowed-across-rpc")
    doc("DESIGN.md rank table (allowed-across-rpc)", cell[2])
  else if (cell[3] == "phase" || cell[3] == "category")
    doc("DESIGN.md §10 " cell[3] " rows", cell[2])
  next
}

FNR == 1 {
  while (ns > 0) pop()
  depth = 0; ns = 0; nm = 0; ng = 0; pending = ""; in_bl = 0
  in_block = 0; prev["tsa-coverage"] = 0; prev["cs-scope"] = 0
  in_src = FILENAME ~ /^src\//
  in_tests = FILENAME ~ /^tests\//
  guard_scan = in_src && !(("no-guard-lint", FILENAME) in allowed)
  cs_scan = FILENAME ~ cs_re
}
{
  raw = $0
  code = strip(raw)
  opens = gsub(/\{/, "{", code)
  closes = gsub(/\}/, "}", code)
  tsa_ok = escaped("tsa-coverage")
  cs_ok = escaped("cs-scope")
  mu = mutex_decl()

  if ((in_src || in_tests) && raw ~ /NO_THREAD_SAFETY_ANALYSIS/ && !(("no-tsa", FILENAME) in allowed))
    finding(FILENAME, FNR, "no-tsa", "NO_THREAD_SAFETY_ANALYSIS outside the allowlist (marker no-tsa)")
  if ((in_src || in_tests) && raw ~ /(tsa-coverage|cs-scope): allow([^(]|\(\)|$)/)
    finding(FILENAME, FNR, "escape", "escape marker without a justification: write allow(<reason>)")
  if (in_src && raw ~ /std::(mutex|shared_mutex|condition_variable)/ && !(("raw-std-sync", FILENAME) in allowed))
    finding(FILENAME, FNR, "raw-std-sync", "raw std synchronization type (use the cfs:: wrappers)")
  if (in_src && code ~ /(^|[^_A-Za-z0-9])assert\(/)
    finding(FILENAME, FNR, "bare-assert", "bare assert() (use CFS_CHECK / CFS_DCHECK from src/common/check.h)")
  if (in_src && FILENAME != "src/common/simtime.cc" &&
      code ~ /sleep_for[ \t]*\([ \t]*(std::)?(chrono::)?(micro|nano)seconds/)
    finding(FILENAME, FNR, "raw-sleep", "modelled delay sleeps outside simtime::SleepUs (src/common/simtime.cc)")
  if (in_src && mu == 1)
    finding(FILENAME, FNR, "unnamed-mutex", "unnamed mutex (construct as Mutex mu_{\"subsystem.name\", rank};)")
  if (in_src && mu == 2) fact("mutex class", mu_key)
  if (FILENAME == "src/common/status.h") {
    if (code ~ /class \[\[nodiscard\]\] Status([^A-Za-z0-9_]|$)/) nodiscard["Status"] = 1
    if (code ~ /class \[\[nodiscard\]\] StatusOr([^A-Za-z0-9_]|$)/) nodiscard["StatusOr"] = 1
  }

  # Docs facts.
  if (in_src) facts("allowed-across-rpc class", "cs-policy: allowed-across-rpc [a-z._]+", 30, 0)
  if (FILENAME ~ /^src\/common\//) facts("race-audit knob", "\"CFS_(RACE|SIM_FUZZ)[A-Z0-9_]*\"", 1, 1)
  kind = block_kind()
  if (kind == "CfsOptions field" &&
      raw ~ /^[ \t]+[A-Za-z_][A-Za-z0-9_:<>]*[ \t]+[a-z_]+([ \t]*=.*)?;[ \t]*(\/\/.*)?$/) {
    k = raw
    sub(/^[ \t]*[A-Za-z_][A-Za-z0-9_:<>]*[ \t]+/, "", k)
    fact(kind, substr(k, 1, match(k, /[^a-z_]/) - 1))
  }
  if (kind == "LatencyMode" && raw ~ /^[ \t]*k[A-Za-z]/ && match(raw, /k[A-Za-z]+/))
    fact(kind, substr(raw, RSTART, RLENGTH))
  if ((kind == "OpTrace phase" || kind == "trace category") && match(raw, /return "[a-z0-9_]+"/) &&
      substr(raw, RSTART + 8, RLENGTH - 9) != "unknown")
    fact(kind, substr(raw, RSTART + 8, RLENGTH - 9))

  # cs-scope: live guards, their Unlock()/Lock() toggles, and RPC sites.
  if (cs_scan) {
    if (match(code, /(MutexLock|ReaderMutexLock|WriterMutexLock)[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*\(/)) {
      g = substr(code, RSTART, RLENGTH)
      sub(/^[A-Za-z]+[ \t]+/, "", g)
      sub(/[ \t]*\($/, "", g)
      ng++; gname[ng] = g; gon[ng] = 1; gline[ng] = FNR; gdepth[ng] = -1
    }
    for (i = 1; i <= ng; i++) {
      if (index(code, gname[i] ".Unlock()")) gon[i] = 0
      else if (index(code, gname[i] ".Lock()")) gon[i] = 1
    }
    if (!cs_ok && (code ~ /(^|[^A-Za-z0-9_])(LockPhaseCall|BeginCall|FanOut)[ \t]*\(/ || code ~ /[.>]Call[ \t]*\(/))
      for (i = 1; i <= ng; i++) if (gon[i])
        finding(FILENAME, FNR, "cs-scope", "RPC issued while mutex guard \047" gname[i] "\047 (declared line " gline[i] ") is held")
  }

  # guarded-by: a class header (forward declarations end in ";", enum
  # classes are not records) opens a scope at its brace; members are the
  # declarations at that depth (method bodies nest deeper).
  header = code ~ /(^|[ \t])(class|struct)[ \t]+[A-Za-z_]/ && code !~ /enum[ \t]+(class|struct)/ && code !~ /;[ \t]*$/
  if (header) {
    pending = code
    sub(/.*(class|struct)[ \t]+/, "", pending)
    sub(/[^A-Za-z0-9_].*/, "", pending)
  } else if (pending != "" && opens > 0) header = 1
  else if (pending != "" && code ~ /;[ \t]*$/) pending = ""
  if (guard_scan && !header && ns > 0 && depth == sdepth[ns]) {
    if (mu) shas_mu[ns] = 1
    if (!tsa_ok && code ~ /;[ \t]*$/ &&
        code !~ /(^|[ \t])(public|private|protected)[ \t]*:/ &&
        code !~ /(^|[ \t])(static|constexpr|using|typedef|friend|template|return|explicit|virtual|operator|enum|class|struct)([ \t]|$)/ &&
        code !~ /(^|[ \t])(mutable[ \t]+)?const[ \t]/ &&
        code !~ /\)[ \t]*(const)?[ \t]*(noexcept)?[ \t]*(override|final)?[ \t]*;[ \t]*$/ &&
        code !~ /=[ \t]*(0|default|delete)[ \t]*;[ \t]*$/ &&
        code !~ /&[ \t]*[A-Za-z_][A-Za-z0-9_]*[ \t]*;[ \t]*$/ &&
        !mu && code !~ /(^|[ \t])(mutable[ \t]+)?(cfs::)?CondVar[ \t]/ && code !~ /std::atomic[<_]/ &&
        code !~ /GUARDED_BY/ &&
        code ~ /[A-Za-z_][A-Za-z0-9_]*[ \t]*([=({[][^;]*)?;[ \t]*$/) {
      m = raw
      sub(/^[ \t]+/, "", m)
      nm++; mscope[nm] = ns
      mmsg[nm] = sprintf("%s:%d: guarded-by: member of mutex-owning class %s lacks GUARDED_BY/PT_GUARDED_BY (or tsa-coverage: allow(<reason>)): %s", FILENAME, FNR, sname[ns], m)
    }
  }

  # Brace depth, shared by every rule: close scopes and expire guards.
  depth += opens - closes
  if (depth < 0) depth = 0
  if (header && opens > 0) { push(pending); pending = "" }
  while (ns > 0 && depth < sdepth[ns]) pop()
  kept = 0
  for (i = 1; i <= ng; i++) {
    if (gdepth[i] == -1) gdepth[i] = depth
    if (depth >= gdepth[i] && depth > 0) {
      kept++; gname[kept] = gname[i]; gdepth[kept] = gdepth[i]; gon[kept] = gon[i]; gline[kept] = gline[i]
    }
  }
  ng = kept
}

END {
  while (ns > 0) pop()
  if (!werror) finding("CMakeLists.txt", 1, "nodiscard", "the build no longer promotes discarded results to errors (-Werror=unused-result)")
  if (!nodiscard["Status"]) finding("src/common/status.h", 1, "nodiscard", "Status lost its [[nodiscard]] attribute")
  if (!nodiscard["StatusOr"]) finding("src/common/status.h", 1, "nodiscard", "StatusOr lost its [[nodiscard]] attribute")
  compare("CfsOptions field", "src/core/cfs.h", "README.md", 0)
  compare("CFS_SIM* knob", "bench", "README.md", 0)
  compare("race-audit knob", "src/common", "README.md", 0)
  compare("race-audit knob", "src/common", "DESIGN.md §12", 0)
  compare("mutex class", "src", "DESIGN.md rank table (never-across-rpc)", 0)
  compare("allowed-across-rpc class", "src", "DESIGN.md rank table (allowed-across-rpc)", 1)
  compare("OpTrace phase", "src/common/metrics.cc", "DESIGN.md §10 phase rows", 1)
  compare("trace category", "src/common/trace_event.cc", "DESIGN.md §10 category rows", 1)
  compare("LatencyMode", "src/net/simnet.h", "DESIGN.md §11", 0)
}
' "$ALLOWLIST" CMakeLists.txt "${files[@]}" README.md DESIGN.md |
  LC_ALL=C sort -t: -k1,1 -k2,2n)

fail=0
if [[ -n "$findings" ]]; then
  echo "$findings"
  echo "lint: FAILED, $(wc -l <<<"$findings") finding(s)" >&2
  fail=1
else
  echo "lint: clean (${#files[@]} files scanned)" >&2
fi
[[ "${1:-}" == "--grep-only" ]] && exit "$fail"

# ---------------------------------------------------------------------------
# Clang legs: the -Wthread-safety build (the compile-time proof), clang-tidy
# (bugprone-*, concurrency-*, performance-* per .clang-tidy) and two
# clang-query AST passes over one build-tsa configuration.
CLANGXX="${CLANGXX:-clang++}"
if ! command -v "$CLANGXX" >/dev/null 2>&1; then
  echo "lint: NOTICE: $CLANGXX not found; skipping the -Wthread-safety build," \
       "clang-tidy and clang-query (the scanner above is the gate)" >&2
  exit "$fail"
fi
cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER="$CLANGXX" -DCFS_WERROR_TSA=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
echo "== lint: clang -Wthread-safety build (CFS_WERROR_TSA) ==" >&2
cmake --build build-tsa -j || fail=1
mapfile -t src_cc < <(printf '%s\n' "${files[@]}" | grep -E '^src/.*\.cc$')
mapfile -t cs_cc < <(printf '%s\n' "${src_cc[@]}" | grep -E "$cs_re")

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== lint: clang-tidy ==" >&2
  clang-tidy -p build-tsa --quiet "${src_cc[@]}" || fail=1
else
  echo "lint: NOTICE: clang-tidy not found; skipping the tidy pass" >&2
fi

if ! command -v clang-query >/dev/null 2>&1; then
  echo "lint: NOTICE: clang-query not found; skipping the AST passes" >&2
  exit "$fail"
fi
# guarded-by cross-check (advisory): fields of mutex-owning records without
# a guarded_by attribute, as the AST sees them.
out=$(clang-query -p build-tsa "${src_cc[@]}" \
  -c 'match fieldDecl(unless(anyOf(hasType(hasCanonicalType(referenceType())), hasType(namedDecl(hasAnyName("Mutex","SharedMutex","CondVar"))), hasAttr("attr::GuardedBy"))), hasParent(cxxRecordDecl(has(fieldDecl(hasType(namedDecl(hasAnyName("Mutex","SharedMutex"))))))))' \
  2>/dev/null || true)
echo "lint: clang-query reported $(grep -c '^Match #' <<<"$out" || true) guarded-by candidate field(s)" >&2
grep -A2 '^Match #' <<<"$out" | head -60 >&2 || true

# cs-scope AST pass (required): SimNet RPCs lexically inside a compound
# statement that declares a MutexLock-family guard. The matcher cannot model
# Unlock()/Lock() toggles, so each match must be resolved by a `.Unlock()`
# or a justified cs-scope escape within the 40 lines above it.
out=$(clang-query -p build-tsa "${cs_cc[@]}" \
  -c 'match callExpr(callee(cxxMethodDecl(hasAnyName("Call","FanOut","BeginCall"), ofClass(hasName("::cfs::SimNet")))), hasAncestor(compoundStmt(hasDescendant(declStmt(containsDeclaration(0, varDecl(hasType(namedDecl(hasAnyName("MutexLock","ReaderMutexLock","WriterMutexLock"))))))))))' \
  2>/dev/null || true)
while IFS=: read -r f ln; do
  ctx=$(sed -n "$(( ln > 40 ? ln - 40 : 1 )),${ln}p" "$f")
  if ! grep -qE 'cs-scope: allow\([^)]+\)|\.Unlock\(\)' <<<"$ctx"; then
    echo "$f:$ln: cs-scope: clang-query: RPC under a mutex guard with no .Unlock() or cs-scope: allow(<reason>) above it"
    fail=1
  fi
done < <(sed -n 's/^\([^ :]*\.cc\):\([0-9][0-9]*\):[0-9][0-9]*: note: .*binds here.*/\1:\2/p' <<<"$out" | sort -u)
exit "$fail"
