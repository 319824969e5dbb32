#!/usr/bin/env bash
# bench.sh — run the full benchmark suite and emit a dated JSON record so
# the performance trajectory is tracked per PR.
#
# Usage: scripts/bench.sh [output.json]
#
# The E1–E18 experiment benchmarks each run a whole harness, so they run
# once (-benchtime 1x); the substrate micro-benchmarks (sim engine, cell
# switching, codec, ...) run time-based for stable ns/op. Override with
# E_BENCHTIME / MICRO_BENCHTIME.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_$(date +%Y-%m-%d).json}
e_benchtime=${E_BENCHTIME:-1x}
micro_benchtime=${MICRO_BENCHTIME:-1s}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run_suite runs one benchmark suite, tee-ing its output for the JSON
# extraction. A suite that fails (a panic mid-run kills the test binary
# and silently drops every benchmark after it) aborts the whole script
# with the offending suite named — partial records must never be
# mistaken for a full run.
run_suite() {
    local label=$1 capture=$2
    shift 2
    local rc=0
    "$@" 2>&1 | tee "$capture" >&2 || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "bench.sh: suite '$label' failed (exit $rc); benchmarks after the" >&2
        echo "bench.sh: failure never ran — no JSON record written" >&2
        exit "$rc"
    fi
    if grep -q -e '--- FAIL' -e '^panic:' "$capture"; then
        echo "bench.sh: suite '$label' reported failures; no JSON record written" >&2
        exit 1
    fi
}

echo "== experiment suite (E1-E18, -benchtime $e_benchtime)" >&2
run_suite "experiments (E1-E18)" "$tmp/e.txt" \
    go test -run '^$' -bench '^BenchmarkE[0-9]+' -benchtime "$e_benchtime" \
    -benchmem -timeout 30m .

echo "== substrate micro-benchmarks (-benchtime $micro_benchtime)" >&2
run_suite "substrate micro-benchmarks" "$tmp/micro.txt" \
    go test -run '^$' -bench '^Benchmark[^E]' -benchtime "$micro_benchtime" \
    -benchmem -timeout 30m .

awk '
/^Benchmark/ {
    n = split($0, f, /[ \t]+/)
    name = f[1]; sub(/-[0-9]+$/, "", name)
    printf "%s{\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", sep, name, f[2]
    msep = ""
    for (i = 3; i + 1 <= n; i += 2) {
        printf "%s\"%s\":%s", msep, f[i+1], f[i]
        msep = ","
    }
    printf "}}"
    sep = ",\n    "
}
' "$tmp/e.txt" "$tmp/micro.txt" > "$tmp/rows.json"

# Stamp what was measured, not what it was built on: a record is usually
# taken before the change is committed, so HEAD alone names the parent.
# "source" fingerprints the Go files as they are in the working tree (docs
# and the record itself do not move it); "commit" is HEAD, marked -dirty
# when HEAD's sources are not these. The commit a record belongs to is
# the one where `source_of` below, run on that commit, prints its "source".
source_of() { # tree-ish, or nothing for the working files
    GIT_INDEX_FILE="$tmp/index" sh -c 'git read-tree "${1:-HEAD}" && { [ -n "$1" ] || git add -A; } &&
        git ls-files -s -- "*.go" go.mod go.sum | git hash-object --stdin' sh "${1:-}"
}
commit=unknown src=unknown
if head=$(git rev-parse --short HEAD 2>/dev/null); then
    src=$(source_of)
    commit=$head
    [ "$src" = "$(source_of HEAD)" ] || commit=$head-dirty
fi

cat > "$out" <<EOF
{
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "go": "$(go env GOVERSION)",
  "commit": "$commit",
  "source": "$src",
  "benchmarks": [
    $(cat "$tmp/rows.json")
  ]
}
EOF
echo "wrote $out" >&2
