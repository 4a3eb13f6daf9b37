#!/usr/bin/env bash
# Parent/change comparison of benchmark workloads, the way PERF.md's
# ground rules ask for it: each side built once into its own
# CARGO_TARGET_DIR, then run as alternating pairs with identical
# arguments: within a pair every listed workload runs on both sides, the
# parent first in odd pairs and the change first in even ones. Prints,
# per workload and end-to-end metric, each side's sorted values, median
# and quartiles, the change/parent ratio of the medians, the pairs the
# change won (ties count for neither), the median and range of the
# change/parent ratio within each pair (robust to host periods that slow
# both sides of a pair alike), and whether sim_us_per_op repeated on each
# side and agreed between the sides (or, for a deliberate simulated-clock
# change, moved parent → change); then each side's failed-operation
# share (`failed` / `attempted` over all its runs), flagged when the
# change's is higher. Each metric ends in PERF.md's verdict: `gain` (the
# change won at least 9 in 10 pairs and its median beats the parent's by
# more than the parent's q3 - q1), `regressed` (the change's median is
# worse than the parent's by more than the metric's bound in
# BENCHMARK.json), `unresolved` (within the bound, but a side's quartiles
# span more than the bound and not every change run beats every parent
# run), or `no change`. The report ends with one line per (workload,
# metric) giving its verdict, the failed-operation share among them. It
# reports; it is not a gate.
#
#   scripts/ab.sh <parent-checkout> <change-checkout> <w1,w2,…|all> [pairs=10] [seed=42]
#
# `all` is every workload the change's BENCHMARK.json declares. Build
# products and the raw result lines go to $AB_DIR (default target/ab in
# the repo this script lives in).
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,29p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
if [ "$3" = all ]; then
    workloads=$(grep -o '"name": *"[a-z_]*", *"why"' "$change/BENCHMARK.json" |
        sed -E 's/"name": *"([a-z_]*)".*/\1/')
else
    workloads=${3//,/ }
fi
pairs=${4:-10}
seed=${5:-42}
out=${AB_DIR:-$(cd "$(dirname "$0")/.." && pwd)/target/ab}
mkdir -p "$out"

# run <side> <checkout>: one benchmark run of $workload, its final JSON
# line appended to the side's result file.
run() {
    (cd "$2" && CARGO_TARGET_DIR="$out/$1" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds 8 --trace 0) |
        tail -n 1 >> "$out/$workload.$1.jsonl"
}

for side in parent change; do
    echo "==> building $side" >&2
    CARGO_TARGET_DIR="$out/$side" cargo build --quiet --release --offline --locked \
        --manifest-path "${!side}/benchmark/Cargo.toml"
    for workload in $workloads; do
        : > "$out/$workload.$side.jsonl"
    done
done

for ((i = 1; i <= pairs; i++)); do
    for workload in $workloads; do
        echo "==> pair $i/$pairs, $workload" >&2
        if ((i % 2)); then
            run parent "$parent" && run change "$change"
        else
            run change "$change" && run parent "$parent"
        fi
    done
done

# values <side> <metric>: the metric's value in every run of $workload,
# in run order.
values() {
    sed -E "s/.*\"$2\":\\{\"value\":([^,}]+).*/\\1/" "$out/$workload.$1.jsonl"
}

# failed_share <side>: failed / attempted operations over every run of
# $workload.
failed_share() {
    sed -E 's/.*"attempted":([^,}]+),"failed":([^,}]+).*/\2 \1/' "$out/$workload.$1.jsonl" |
        awk '{ f += $1; a += $2 } END { printf "%.6g\n", a ? f / a : 0 }'
}

# q(p): the p-quantile of the sorted v[1..NR] (linear interpolation).
quantile='function q(p,    h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }'

# summary: sorted values, then median and quartiles.
summary() {
    sort -g | awk "$quantile"'
        { v[NR] = $1; printf " %.6g", $1 }
        END { printf "\n      median %.6g  quartiles %.6g .. %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

# median: the median of the values on stdin, unrounded.
median() {
    sort -g | awk "$quantile"' { v[NR] = $1 } END { printf "%.17g\n", q(0.5) }'
}

# verdict <metric> <better>: the metric's verdict under PERF.md's rules,
# its bound read from the change's BENCHMARK.json.
verdict() {
    local bound
    bound=$(grep "\"name\": \"$1\"" "$change/BENCHMARK.json" | grep -o '"bound": *[0-9.eE+-]*' |
        awk '{ print $NF }')
    paste <(values parent "$1") <(values change "$1") | awk -v better="$2" -v bound="${bound:-0}" '
        function sort(v, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        function q(v, n, p,    h, lo) { h = 1 + (n - 1) * p; lo = int(h); return v[lo] + (h - lo) * (v[lo < n ? lo + 1 : lo] - v[lo]) }
        function abs(x) { return x < 0 ? -x : x }
        BEGIN { s = better == "higher" ? 1 : -1 }
        { p[NR] = $1; c[NR] = $2; if (s * ($2 - $1) > 0) won++ }
        END {
            n = NR; sort(p, n); sort(c, n)
            pm = q(p, n, 0.5); cm = q(c, n, 0.5)
            piqr = q(p, n, 0.75) - q(p, n, 0.25); ciqr = q(c, n, 0.75) - q(c, n, 0.25)
            # How far the change median is better than the parent median.
            ahead = s * (cm - pm)
            apart = s > 0 ? c[1] > p[n] : c[n] < p[1]
            if (won >= 0.9 * n && ahead > piqr) v = "gain"
            else if (pm != 0 && -ahead > bound * abs(pm)) v = "regressed"
            else if ((pm != 0 && piqr > bound * abs(pm) || cm != 0 && ciqr > bound * abs(cm)) && !apart)
                v = "unresolved"
            else v = "no change"
            printf "%s (bound %s)\n", v, bound
        }'
}

table=()
for workload in $workloads; do
    echo "$workload, seed $seed, $pairs pairs (parent $parent, change $change)"
    for spec in host_ops_per_s:higher setup_s:lower peak_rss_mb:lower sim_us_per_op:lower; do
        metric=${spec%:*}
        echo "$metric (${spec#*:} is better)"
        for side in parent change; do
            printf '  %-6s' "$side"
            values "$side" "$metric" | summary
        done
        awk -v p="$(values parent "$metric" | median)" -v c="$(values change "$metric" | median)" '
            BEGIN { if (p == 0) print "  change/parent median n/a"; else printf "  change/parent median %.4g\n", c / p }'
        paste <(values parent "$metric") <(values change "$metric") | awk -v better="${spec#*:}" '
            $1 != $2 { if ((better == "higher") == ($2 > $1)) won++; else lost++ }
            END { printf "  change won %d, lost %d of %d pairs\n", won, lost, NR }'
        paste <(values parent "$metric") <(values change "$metric") | awk '$1 != 0 { print $2 / $1 }' |
            sort -g | awk "$quantile"'
            { v[NR] = $1 }
            END { if (NR) printf "  change/parent per pair: median %.4g  min %.4g .. max %.4g\n", q(0.5), v[1], v[NR] }'
        v=$(verdict "$metric" "${spec#*:}")
        echo "  verdict: $v"
        table+=("$(printf '%-14s %-16s %s' "$workload" "$metric" "$v")")
    done
    if [ "$(cat "$out/$workload".{parent,change}.jsonl | grep -c '"correct":true')" -ne $((2 * pairs)) ]; then
        echo "NOT every run ended in \"correct\":true"
    fi
    # Each side's simulated clock is deterministic; only the sides may differ.
    p=$(values parent sim_us_per_op | sort -u)
    c=$(values change sim_us_per_op | sort -u)
    if [[ $p == *$'\n'* || $c == *$'\n'* ]]; then
        echo "sim_us_per_op DIFFERS between runs of one side"
    elif [ "$p" = "$c" ]; then
        echo "every sim_us_per_op agreed"
    else
        echo "sim_us_per_op parent → change: $p → $c"
    fi
    p=$(failed_share parent)
    c=$(failed_share change)
    v=$(awk -v p="$p" -v c="$c" 'BEGIN { print (c > p ? "HIGHER on the change" : "not higher") }')
    echo "failed-operation share: parent $p, change $c ($v)"
    table+=("$(printf '%-14s %-16s %s' "$workload" failed_share "$v (parent $p, change $c)")")
    echo
done

echo "verdicts"
printf '%s\n' "${table[@]}"
