#!/usr/bin/env bash
# loc.sh — the tracked size number: code-only lines (non-test .go files,
# blank lines and //-only lines excluded) per internal/ package and in
# total, plus cmd/pegload and the loadgen+pegload sum (the scenario
# harness, tracked on its own since ROADMAP's "scenarios as data"), the
# other commands, the examples and the root package — so a deletion
# outside internal/ shows up too. Informational; ROADMAP wants the
# numbers to go down.
#
# Usage: scripts/loc.sh [CHECKOUT]   (default: this tree)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # dir [find predicates...]
    local dir=$1
    shift
    find "$dir" "$@" -name '*.go' ! -name '*_test.go' -print0 |
        xargs -0 cat | grep -v '^\s*//' | grep -cv '^\s*$' || true
}

total=0
for pkg in internal/*/; do
    n=$(count "$pkg")
    printf '%-24s %6d\n' "${pkg%/}" "$n"
    total=$((total + n))
done
printf '%-24s %6d\n' "internal (total)" "$total"
pegload=$(count cmd/pegload)
printf '%-24s %6d\n' "cmd/pegload" "$pegload"
printf '%-24s %6d\n' "loadgen+pegload" "$(($(count internal/loadgen) + pegload))"
printf '%-24s %6d\n' "cmd (excl. pegload)" "$(count cmd -not -path 'cmd/pegload/*')"
printf '%-24s %6d\n' "examples" "$(count examples)"
printf '%-24s %6d\n' "root package" "$(count . -maxdepth 1)"
