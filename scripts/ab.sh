#!/usr/bin/env bash
# ab.sh — paired A/B of the scenario benchmark: this tree against a parent
# revision, on one workload, by the rule a claimed gain is judged by.
#
#   scripts/ab.sh PARENT-REV WORKLOAD [-pairs N] [-metric NAME] [-seed N]
#
# Unpacks PARENT-REV (git archive) into .bench_build/ab/parent, then runs
# `bash bench/run.sh -workload WORKLOAD -trace 0` N times (default 10) in
# each checkout, alternating which side goes first — on a small box the
# second run of a pair can read several per cent off the first whichever
# binary it is. Each checkout is measured by its own bench/, so the
# benchmark must not differ between the two. Prints, per end-to-end metric
# of BENCHMARK.json, both medians (of the runs' own medians), both
# quartile ranges, the change in per cent and how many pairs this tree won
# (a tie counts for neither side).
#
# With -metric NAME the exit status is the verdict on that metric: zero iff
# this tree wins at least nine pairs in ten and the medians lie further
# apart than the parent's own quartiles do. -seed is passed to bench/run.sh
# on both sides (a claim must also hold on a seed it was not tuned on).
# Every run is kept in .bench_build/ab/{parent,change}.jsonl (and .log).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,22s/^# \{0,1\}//p' "$0"; }

pairs=10 metric="" seed=1 args=()
while [ $# -gt 0 ]; do
    case $1 in
    -h | --help) usage && exit 0 ;;
    -pairs | --pairs) pairs=$2 && shift 2 ;;
    -metric | --metric) metric=$2 && shift 2 ;;
    -seed | --seed) seed=$2 && shift 2 ;;
    -*) echo "ab.sh: unknown option $1 (try --help)" >&2 && exit 2 ;;
    *) args+=("$1") && shift ;;
    esac
done
if [ ${#args[@]} -ne 2 ] || ! [ "$pairs" -ge 1 ] 2>/dev/null; then
    usage >&2
    exit 2
fi
rev=${args[0]} workload=${args[1]}
if [ -n "$metric" ] && ! jq -e --arg m "$metric" 'any(.end_to_end[]; .name == $m)' BENCHMARK.json >/dev/null; then
    echo "ab.sh: $metric is not an end-to-end metric of BENCHMARK.json" >&2
    exit 2
fi

ab=$PWD/.bench_build/ab
rm -rf "$ab/parent" "$ab"/*.jsonl "$ab"/*.log
mkdir -p "$ab/parent"
git archive "$rev" | tar -x -C "$ab/parent"

measure() { # side checkout
    bash "$2/bench/run.sh" -workload "$workload" -trace 0 -seed "$seed" 2>>"$ab/$1.log" |
        tail -n 1 | jq -c . >>"$ab/$1.jsonl"
}
for ((i = 1; i <= pairs; i++)); do
    echo "ab.sh: pair $i of $pairs" >&2
    if ((i % 2)); then
        measure parent "$ab/parent" && measure change "$PWD"
    else
        measure change "$PWD" && measure parent "$ab/parent"
    fi
done

jq -rn --arg claimed "$metric" --slurpfile spec BENCHMARK.json \
    --slurpfile parent "$ab/parent.jsonl" --slurpfile change "$ab/change.jsonl" '
def quantile(p): sort as $s | ((($s | length) - 1) * p) as $h | ($h | floor) as $i
    | $s[$i] + ($s[[$i + 1, ($s | length) - 1] | min] - $s[$i]) * ($h - $i);
def num(p): quantile(p) | if fabs >= 1000 then round else . * 10000 | round / 10000 end;
def spread: "\(num(0.5)) [\(num(0.25))..\(num(0.75))]";
def pad(n): tostring | if length < n then . + " " * (n - length) else . end;
($parent + $change | all(.correct)) as $correct
| [$spec[0].end_to_end[] | .name as $m | (if .better == "lower" then -1 else 1 end) as $sign
   | [$parent[] | .metrics[$m].value] as $p | [$change[] | .metrics[$m].value] as $c
   | ([range($p | length) | select(($c[.] - $p[.]) * $sign > 0)] | length) as $wins
   | (($c | quantile(0.5)) - ($p | quantile(0.5))) as $d
   | {name: $m, unit, parent: ($p | spread), change: ($c | spread), wins: "\($wins)/\($p | length)",
      delta: (if ($p | quantile(0.5)) == 0 then "n/a" else "\($d / ($p | quantile(0.5)) * 1000 | round / 10)%" end),
      gain: ($correct and $wins * 10 >= ($p | length) * 9
             and $d * $sign > ($p | quantile(0.75)) - ($p | quantile(0.25)))}] as $rows
| (["metric", "parent median [q1..q3]", "change median [q1..q3]", "change", "wins", "verdict"],
   ($rows[] | ["\(.name) (\(.unit))", .parent, .change, .delta, .wins,
               (if .gain then "gain" else "-" end) + (if .name == $claimed then " (claimed)" else "" end)])
   | [.[0] | pad(30)] + [.[1:3][] | pad(36)] + [.[3:5][] | pad(8)] + [.[5]] | join(" ")),
  ($rows[] | select(.name == $claimed and (.gain | not))
   | "ab.sh: \(.name): fewer than nine wins in ten, medians within the parent'"'"'s quartile range, or a failed run\n"
   | halt_error(1))'
