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
#  3. Every NAME.md a Go comment names must exist, beside the .go file
#     or at the repo root.
#  4. Every backquoted `pkg.Name` or `Type.Name` in README.md and
#     ARCHITECTURE.md whose qualifier is a repo package or a capitalised
#     identifier must name things some .go file declares.
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

# --- markdown files named in Go comments must exist --------------------------
# The awk prints "file:line:NAME.md" for every NAME.md after a // on a
# line of a .go file outside dot-directories.
while IFS=: read -r file line name; do
    if [ ! -e "$(dirname "$file")/$name" ] && [ ! -e "$name" ]; then
        echo "doclint: $file:$line: comment names missing $name"
        fail=1
    fi
done < <(find . -name '*.go' -not -path './.*' -print0 | xargs -0 awk '
    (i = index($0, "//")) {
        rest = substr($0, i)
        while (match(rest, /[A-Za-z0-9_-]+\.md/)) {
            print FILENAME ":" FNR ":" substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
        }
    }')

# --- backquoted Go names in the docs must be declared -----------------------
# Every backquoted dotted name in README.md and ARCHITECTURE.md (`a.B`,
# `a.B.C`, a trailing call's parentheses ignored) is read pairwise; a
# pair whose qualifier is a repo package (a directory under internal/)
# or a capitalised identifier needs both halves declared in some .go
# file. Grep-grade again: a name counts as declared when it is a func,
# method, type, const, var or struct field at the head of a line.
# Backquoted file names (`ROADMAP.md`) are not Go names.
while IFS= read -r msg; do
    echo "doclint: $msg"
    fail=1
done < <({
    find . -name '*.go' -not -path './.*' -print0 | xargs -0 awk '
        function name(s) {
            return match(s, /^[A-Za-z_][A-Za-z0-9_]*/) ? substr(s, 1, RLENGTH) : ""
        }
        /^func / { s = $0; sub(/^func (\([^)]*\) )?/, "", s); print "decl", name(s); next }
        /^[ \t]*(type|const|var)[ \t]/ {
            s = $0; sub(/^[ \t]*(type|const|var)[ \t]+/, "", s); print "decl", name(s); next
        }
        /^[ \t]+[A-Za-z_]/ {
            s = $0; sub(/^[ \t]+/, "", s)
            n = 0
            do {
                sub(/^[ \t]*,[ \t]*/, "", s)
                a[++n] = name(s); s = substr(s, length(a[n]) + 1)
            } while (s ~ /^[ \t]*,[ \t]*[A-Za-z_]/)
            if (s !~ /^([ \t]+[^-+\/%&|^<>!=:,. \t]|[ \t]*=[^=]|[ \t]*\(|[ \t]*$)/) next
            for (i = 1; i <= n; i++) print "decl", a[i]
        }'
    for d in internal/*/; do d=${d%/}; echo "pkg ${d#internal/}"; done
    for md in README.md ARCHITECTURE.md; do
        grep -o '`[^`]*`' "$md" | tr -d '`' | sed 's/(.*)$//' |
            grep -E '^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+$' |
            while IFS= read -r tok; do
                [ -e "$tok" ] || echo "doc $md $tok"
            done || true
    done
} | awk '
    $1 == "decl" { decl[$2] = 1; next }
    $1 == "pkg" { pkg[$2] = 1; next }
    {
        n = split($3, p, ".")
        for (i = 1; i < n; i++) {
            q = p[i]
            if (!(q in pkg) && q !~ /^[A-Z]/) continue
            if (!(q in pkg) && !(q in decl)) print $2 ": `" $3 "` names undeclared " q
            else if (!(p[i+1] in decl)) print $2 ": `" $3 "` names undeclared " q "." p[i+1]
        }
    }' | sort -u)

if [ "$fail" -ne 0 ]; then
    echo "doclint: failures above" >&2
    exit 1
fi
