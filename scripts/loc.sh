#!/usr/bin/env bash
# loc.sh — the tracked size number: code-only lines (non-test .go files,
# blank lines and //-only lines excluded) per internal/ package and in
# total, plus cmd/pegload and the loadgen+pegload sum (the scenario
# harness, tracked on its own since ROADMAP's "scenarios as data").
# Informational; ROADMAP wants the numbers to go down.
#
# Usage: scripts/loc.sh [CHECKOUT]   (default: this tree)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.go' ! -name '*_test.go' -print0 |
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
