#!/usr/bin/env bash
# loc.sh — the tracked size number: code-only lines (non-test .go files,
# blank lines and //-only lines excluded) per internal/ package and in
# total. Informational; ROADMAP wants the total to go down.
#
# Usage: scripts/loc.sh [CHECKOUT]   (default: this tree)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for pkg in internal/*/; do
    n=$(find "$pkg" -name '*.go' ! -name '*_test.go' -print0 |
        xargs -0 cat | grep -v '^\s*//' | grep -cv '^\s*$' || true)
    printf '%-24s %6d\n' "${pkg%/}" "$n"
    total=$((total + n))
done
printf '%-24s %6d\n' "internal (total)" "$total"
