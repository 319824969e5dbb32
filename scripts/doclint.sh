#!/usr/bin/env bash
# doclint.sh — the docs half of the CI short lane.
#
#  1. Every exported top-level identifier (func, method, type, and
#     single-declaration var/const) in the stream-plane packages
#     (internal/core, internal/sched, internal/vodsite) and the
#     kernel packages (internal/sim, internal/fabric,
#     internal/loadgen) must carry a doc comment. This is a grep-grade
#     check, not go/doc: it looks at the line immediately above each
#     exported declaration.
#  2. Every local markdown link in README.md, ARCHITECTURE.md and
#     CHANGES.md must point at a file that exists.
#
# Exit non-zero listing every violation; print nothing on success.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- exported identifiers need doc comments --------------------------------
for pkg in internal/core internal/sched internal/vodsite \
           internal/sim internal/fabric internal/loadgen internal/mcache \
           internal/telemetry internal/metro internal/netsig; do
    for f in "$pkg"/*.go; do
        case "$f" in
        *_test.go) continue ;;
        esac
        awk -v file="$f" '
            /^func [A-Z]/ || /^func \([^)]*\) [A-Z]/ || /^type [A-Z]/ ||
            /^var [A-Z]/ || /^const [A-Z]/ {
                if (prev !~ /^\/\//) {
                    printf "%s:%d: exported declaration lacks a doc comment: %s\n",
                           file, FNR, $0
                    bad = 1
                }
            }
            { prev = $0 }
            END { exit bad }
        ' "$f" || fail=1
    done
done

# --- markdown links must resolve -------------------------------------------
for md in README.md ARCHITECTURE.md CHANGES.md; do
    [ -f "$md" ] || { echo "doclint: $md missing"; fail=1; continue; }
    # Extract ](target) link targets; keep local paths only. (No link
    # target in these docs contains whitespace.)
    for target in $(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://* | https://* | "#"* | mailto:*) continue ;;
        esac
        path=${target%%#*}
        [ -z "$path" ] && continue
        if [ ! -e "$path" ]; then
            echo "doclint: $md links to missing file: $target"
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "doclint: failures above" >&2
    exit 1
fi
