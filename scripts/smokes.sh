#!/usr/bin/env bash
# smokes.sh — the one home of the CI pegload smoke scenarios: what each
# run is and which scoreboard assertions it must pass live in the table
# below, and nowhere else.
#
#   scripts/smokes.sh NAME [pegload flags...]  run one smoke the way CI does
#   scripts/smokes.sh --list                   print the smoke names
#   scripts/smokes.sh --digest [CHECKOUT]      behaviour fingerprint of a tree
#
# --digest builds pegload from CHECKOUT (default: this tree), runs every
# smoke with -json, and prints "name sha256" of each scoreboard minus
# its host-time columns (wall_seconds, events_per_sec, cells_per_sec);
# the telemetry, metro and live smokes also print "name.trace sha256"
# of their -trace-out artifact. Each run keeps its -check/-expect-*
# assertions: a smoke that fails them stops the digest with "smoke
# NAME: pegload exited N" and a non-zero exit. Two trees behave the same
# on the smokes iff their --digest outputs are identical, so
# "scoreboards byte-identical to the parent" is
#
#   diff <(scripts/smokes.sh --digest ../parent) <(scripts/smokes.sh --digest)
set -euo pipefail
cd "$(dirname "$0")/.."

# name|pegload flags. CI runs every row once, in its behaviour-digest
# step.
smokes() {
    cat <<'TABLE'
cluster|-cluster -ws 24 -streams 2 -servers 4 -titles 8 -zipf 1.6 -bytes 4800 -round 0.5 -title-rounds 2 -seconds 8 -check -min-active-nodes 3 -expect-replication
interval-cache|-cluster -servers 2 -ws 16 -streams 8 -no-replication -cache-mb 64 -cache-ablation -seconds 10 -check -expect-storage-refusals -min-cache-ratio 2
telemetry|-cluster -servers 2 -ws 16 -streams 8 -no-replication -cache-mb 64 -seconds 10 -check -expect-storage-refusals
failover|-cluster -ws 12 -streams 2 -servers 4 -titles 8 -zipf 1.1 -base-replicas 2 -bytes 4800 -round 0.5 -title-rounds 2 -seconds 8 -fail-node-at 3 -fail-node 0 -check -expect-recovered
metro|-metro -sites 3 -ws 18 -streams 2 -servers 1 -titles 6 -site-replicas 2 -bytes 4800 -round 0.5 -title-rounds 2 -seconds 8 -fail-site-at 4 -fail-site 1 -spill-ablation -check -expect-spilled -expect-site-recovered -min-active-sites 2
live|-live -seconds 2 -ws 6 -streams 8 -channels 5 -bytes 4800 -rate 30000000 -vod-streams 4 -hold-mean 1.5 -unicast-ablation -check -expect-joins -expect-subtree-degraded -min-fanout-ratio 1.5
adaptive|-adaptive -ws 6 -streams 2 -servers 1 -seconds 4 -check -expect-degraded -expect-restored
cpu-bound|-cpu-bound -ws 4 -streams 4 -servers 1 -seconds 4 -check -expect-cpu-refusals
cpu-bound-adaptive|-cpu-bound -adaptive -ws 4 -streams 4 -servers 1 -seconds 4 -check -expect-degraded -expect-restored -expect-cpu-refusals
site-scale|-ws 50 -streams 10 -seconds 10 -check
storage|-from-storage -ws 100 -streams 25 -servers 4 -seconds 6 -check -min-storage-streams 100
storage-oversubscribed|-from-storage -ws 50 -streams 40 -servers 1 -bytes 4800 -linkrate 1000000000 -seconds 4 -check -expect-storage-refusals
TABLE
}

flags_of() {
    local flags
    flags=$(smokes | awk -F'|' -v n="$1" '$1 == n { print $2 }')
    [ -n "$flags" ] || { echo "smokes.sh: no smoke named '$1' (try --list)" >&2; exit 2; }
    echo "$flags"
}

digest() {
    local src=${1:-.} name flags
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    go build -C "$src" -o "$tmp/pegload" ./cmd/pegload
    one() { # name flags...
        local n=$1 status=0
        shift
        "$tmp/pegload" "$@" -json -trace-out "$tmp/trace" >"$tmp/board" || status=$?
        if [ "$status" -ne 0 ]; then
            echo "smoke $n: pegload exited $status" >&2
            exit 1
        fi
        jq -cS 'del(.wall_seconds, .events_per_sec, .cells_per_sec)' <"$tmp/board" |
            sha256sum | awk -v n="$n" '{ print n, $1 }'
        case $n in
        telemetry | metro | live) sha256sum <"$tmp/trace" | awk -v n="$n.trace" '{ print n, $1 }' ;;
        esac
    }
    while IFS='|' read -r name flags; do
        # shellcheck disable=SC2086 # the flag string is a word list
        one "$name" $flags
    done < <(smokes)
}

case ${1:-} in
--list) smokes | cut -d'|' -f1 ;;
--digest) digest "${2:-}" ;;
"" | -*)
    sed -n '2,22s/^# \{0,1\}//p' "$0" >&2
    exit 2
    ;;
*)
    name=$1
    shift
    flags=$(flags_of "$name")
    case $name in
    telemetry)
        # The observability plane on: both artifacts must be schema-valid
        # and show a cache-served stream and a leg-attributed refusal.
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        # shellcheck disable=SC2086
        go run ./cmd/pegload $flags -metrics-out "$tmp/m.json" -trace-out "$tmp/t.jsonl" "$@"
        go run ./scripts/telemetrycheck -metrics "$tmp/m.json" -trace "$tmp/t.jsonl" \
            -expect-cache-served -expect-refused
        ;;
    *)
        # shellcheck disable=SC2086
        exec go run ./cmd/pegload $flags "$@"
        ;;
    esac
    ;;
esac
