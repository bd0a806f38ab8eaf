#!/usr/bin/env bash
# Check of a change against its parent: alternating pairs of the
# benchmark's contract command on one workload.
#
# Usage: scripts/wall_pairs.sh PARENT_REV CHANGE_REV WORKLOAD[,WORKLOAD...] [N]
#
# Each revision's committed files are unpacked (git archive, so nothing
# uncommitted leaks in and the repository's worktree list is untouched)
# into a directory of its own under a temporary directory, and the
# benchmark is built there with its own CARGO_TARGET_DIR. Then N pairs
# (default 10) of
#
#   cumulo-benchmark --workload WORKLOAD --seed i --seconds 10 --trace 0
#
# run one after the other, pair i at seed i (but see LAYOUTS below), the
# parent first in odd pairs and the change first in even ones, so drift
# of the machine's
# speed falls on both sides alike. Several comma-separated workloads
# share the two builds: each pair runs every workload, in the order
# given. Per workload, for the host-time metrics wall_us_per_txn and
# setup_s and the sim-clock ones txn_p50_ms and txn_p99_ms it prints
# every pair, then each side's median and quartiles, the change's median
# delta and how many pairs the change won (lower is better for all
# four), and then the gate's verdict on the metric, with its bound (a
# fraction of the parent's median) read from the change's
# BENCHMARK.json, end_to_end:
#
#   gain        the change won at least 9 in 10 of the pairs, and its
#               median is below the parent's by more than the parent's IQR
#   worse       the change's median is above the parent's by more than
#               the bound
#   unresolved  the parent's IQR is wider than the bound, and not every
#               change run is below every parent run
#   no worse    otherwise
#
# A host-time gain (wall_us_per_txn, setup_s) whose median moved less
# than 3 % reads "gain (under 3 %: confirm with an A/A run)": two builds
# of the same code can differ by that much through code layout or the
# machine's drift alone. The A/A run is the control: give the same
# revision twice, as in
#
#   scripts/wall_pairs.sh REV REV WORKLOAD
#
# which builds that one commit twice, in separate directories, and runs
# the two builds against each other exactly as above. A gain is real
# only if it stands clear of what the A/A run of the parent reads.
#
# Code layout moves host time as much as many changes do: relinking
# one tree with its sections shuffled has moved read_zipf's
# wall_us_per_txn by 9 %. LAYOUTS=K (K >= 2) makes layout a controlled
# variable: each side is built K times, build S (S = 1..K) with
#
#   RUSTFLAGS="-C link-arg=-Wl,--shuffle-sections=.text*=S"
#
# (the same seeds S on both sides), and pair i runs build
# S = ((i - 1) mod K) + 1 of each side at seed ceil(i / K): the first K
# pairs run seed 1 on every layout, the next K seed 2, and so on, so
# every layout's median covers the same seeds and the spread between
# them is layout, not seed. N must then be a multiple of K (LAYOUTS=3
# takes 12 pairs), and an N that is not is refused before anything is
# built. The parent runs first where seed + S is even, so each layout
# alternates which side goes first from one seed to the next, whatever
# K's parity. For each host-time metric it then also prints each side's
# median per layout and their spread (max - min), and a host-time
# "gain" whose median moved no more than the parent's layout spread
# reads "within layout noise". Unset or 1, each side is built once,
# unshuffled, and pair i runs seed i, as before.
#
# The sim-clock metrics are exact for a seed, so one run of each
# side says all there is about them at that seed: last, it prints every
# WORKLOAD.metric line of pair 1 (seed 1) whose value differs between
# the sides, the two host-time ones and cells_checked left out. That
# list is empty for a change that moves no simulated number.
#
# Run from anywhere inside the repository, on an otherwise idle machine.
# The temporary directory is removed on exit; set KEEP=1 to keep it.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_REV CHANGE_REV WORKLOAD[,WORKLOAD...] [N=10]" >&2
    exit 2
fi
parent_rev=$1
change_rev=$2
workloads=$(echo "$3" | tr , ' ')
pairs=${4:-10}
layouts=${LAYOUTS:-1}
case $layouts in
'' | *[!0-9]* | 0)
    echo "LAYOUTS must be a positive integer, not '$layouts'" >&2
    exit 2
    ;;
esac
case $pairs in
'' | *[!0-9]* | 0)
    echo "N must be a positive integer, not '$pairs'" >&2
    exit 2
    ;;
esac
if [ $((pairs % layouts)) != 0 ]; then
    echo "LAYOUTS=$layouts needs a multiple of $layouts pairs, so every layout runs the same seeds; not $pairs" >&2
    exit 2
fi
host_metrics="wall_us_per_txn setup_s"
metrics="$host_metrics txn_p50_ms txn_p99_ms"

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/wall_pairs.XXXXXX")
if [ "${KEEP:-0}" = 1 ]; then
    echo "keeping $tmp" >&2
else
    trap 'rm -rf "$tmp"' EXIT
fi

# The target directory of a side's build of layout S (0: unshuffled).
target_of() {
    if [ "$2" = 0 ]; then echo "$tmp/$1/target"; else echo "$tmp/$1/target.$2"; fi
}

# The layout pair $1 runs: 0 (unshuffled) with one layout, else the
# shuffle seed ((pair - 1) mod K) + 1.
layout_of() {
    if [ "$layouts" = 1 ]; then echo 0; else echo $((($1 - 1) % layouts + 1)); fi
}

# The seed pair $1 runs: the pair itself with one layout, else
# ceil(pair / K), shared by the K consecutive pairs that run each layout once.
seed_of() {
    echo $((($1 + layouts - 1) / layouts))
}

# Whether the parent runs first in pair $1: in odd pairs with one
# layout, else where seed + layout is even.
parent_first() {
    if [ "$layouts" = 1 ]; then
        [ $(($1 % 2)) = 1 ]
    else
        [ $((($(seed_of "$1") + $(layout_of "$1")) % 2)) = 0 ]
    fi
}

# Unpacks one side and builds it once per layout; a build's binary is
# $(target_of side S)/release/cumulo-benchmark.
build() {
    local side=$1 rev=$2 layout flags
    mkdir -p "$tmp/$side"
    git -C "$repo" archive --format=tar "$rev" | tar -x -C "$tmp/$side"
    for layout in $(if [ "$layouts" = 1 ]; then echo 0; else seq 1 "$layouts"; fi); do
        echo "building $side ($(git -C "$repo" rev-parse --short "$rev")), layout $layout" >&2
        if [ "$layout" = 0 ]; then
            flags=${RUSTFLAGS:-}
        else
            flags="${RUSTFLAGS:+$RUSTFLAGS }-C link-arg=-Wl,--shuffle-sections=.text*=$layout"
        fi
        RUSTFLAGS=$flags CARGO_TARGET_DIR=$(target_of "$side" "$layout") \
            cargo build --release --offline --quiet --manifest-path "$tmp/$side/benchmark/Cargo.toml"
    done
}

# Runs one side once on one workload and appends "<pair> <metric> <value>"
# lines to that side's results for the workload.
run() {
    local side=$1 workload=$2 pair=$3 out
    out=$(env -u CARGO_MANIFEST_DIR "$(target_of "$side" "$(layout_of "$pair")")/release/cumulo-benchmark" \
        --workload "$workload" --seed "$(seed_of "$pair")" --seconds 10 --trace 0 2>"$tmp/$side.log")
    if [ "$pair" = 1 ]; then
        echo "$out" >"$tmp/$side.$workload.pair1"
    fi
    for metric in $metrics; do
        value=$(echo "$out" | awk -v key="$workload.$metric" '$1 == key { print $2 }')
        if [ -z "$value" ]; then
            echo "$side printed no $workload.$metric (see $tmp/$side.log)" >&2
            exit 1
        fi
        echo "$pair $metric $value" >>"$tmp/$side.$workload.results"
    done
}

build parent "$parent_rev"
build change "$change_rev"
for pair in $(seq 1 "$pairs"); do
    for workload in $workloads; do
        if parent_first "$pair"; then
            run parent "$workload" "$pair"
            run change "$workload" "$pair"
        else
            run change "$workload" "$pair"
            run parent "$workload" "$pair"
        fi
    done
    echo "pair $pair of $pairs done" >&2
done

# Median and quartiles by linear interpolation between order statistics.
quartiles() {
    sort -g | awk '{ x[NR] = $1 }
        function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h)
            return i >= NR ? x[NR] : x[i] + (h - i) * (x[i + 1] - x[i]) }
        END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

# The gate's bound of an end-to-end metric, from the change's BENCHMARK.json.
bound_of() {
    awk -v name="\"name\": \"$1\"" '
        /"end_to_end"/ { in_list = 1 }
        in_list && /\]/ { exit }
        in_list && index($0, name) && match($0, /"bound": *[0-9.eE+-]+/) {
            bound = substr($0, RSTART, RLENGTH); sub(/.*: */, "", bound); print bound; exit
        }' "$tmp/change/BENCHMARK.json"
}

# "<metric> <value>" for every WORKLOAD.metric line of a side's pair 1
# but the host-time ones, sorted for join. cells_checked is left out
# with them: the benchmark sums it over every repetition it ran, and how
# many fit into --seconds depends on host speed, so two builds that
# simulate identically print different counts.
sim_metrics() {
    awk -v prefix="$2." -v host="$host_metrics cells_checked" '
        BEGIN { n = split(host, h, " "); for (i = 1; i <= n; i++) skip[prefix h[i]] = 1 }
        index($1, prefix) == 1 && !($1 in skip) { print $1, $2 }' "$tmp/$1.$2.pair1" | sort -k1,1
}

for workload in $workloads; do
    echo "workload $workload, $pairs alternating pairs, $layouts layout(s), parent $(git -C "$repo" rev-parse --short "$parent_rev"), change $(git -C "$repo" rev-parse --short "$change_rev")"
    for metric in $metrics; do
        echo "$metric (pair: parent change)"
        join <(awk -v m="$metric" '$2 == m { print $1, $3 }' "$tmp/parent.$workload.results" | sort -k1,1) \
            <(awk -v m="$metric" '$2 == m { print $1, $3 }' "$tmp/change.$workload.results" | sort -k1,1) |
            sort -n >"$tmp/$metric.pairs"
        awk '{ printf "  %s: %s %s\n", $1, $2, $3 }' "$tmp/$metric.pairs"
        read -r p_med p_q1 p_q3 < <(awk '{ print $2 }' "$tmp/$metric.pairs" | quartiles)
        read -r c_med c_q1 c_q3 < <(awk '{ print $3 }' "$tmp/$metric.pairs" | quartiles)
        wins=$(awk '$3 < $2 { n++ } END { print n + 0 }' "$tmp/$metric.pairs")
        # The parent's layout spread: how far apart its per-layout medians lie.
        spread=0
        if [ "$layouts" != 1 ] && [[ " $host_metrics " == *" $metric "* ]]; then
            for col in 2 3; do
                side=$([ "$col" = 2 ] && echo parent || echo change)
                medians=$(for layout in $(seq 1 "$layouts"); do
                    awk -v c="$col" -v k="$layouts" -v l="$layout" \
                        '($1 - 1) % k + 1 == l { print $c }' "$tmp/$metric.pairs" | quartiles |
                        awk '{ print $1 }'
                done)
                range=$(echo "$medians" | sort -g | awk 'NR == 1 { lo = $1 } { hi = $1 } END { printf "%.6g\n", hi - lo }')
                echo "  $metric $side median per layout 1..$layouts: $(echo $medians), spread $range"
                if [ "$side" = parent ]; then spread=$range; fi
            done
        fi
        # Whether every change run is below every parent run.
        apart=$(awk 'NR == 1 || $2 < p { p = $2 } NR == 1 || $3 > c { c = $3 } END { print (c < p) }' "$tmp/$metric.pairs")
        bound=$(bound_of "$metric")
        if [ -z "$bound" ]; then
            echo "no bound for $metric in the change's BENCHMARK.json" >&2
            exit 1
        fi
        awk -v m="$metric" -v pm="$p_med" -v p1="$p_q1" -v p3="$p_q3" \
            -v cm="$c_med" -v c1="$c_q1" -v c3="$c_q3" -v wins="$wins" -v n="$pairs" \
            -v bound="$bound" -v apart="$apart" -v host=" $host_metrics " -v spread="$spread" 'BEGIN {
            printf "  %s parent median %s [q1 %s, q3 %s], change median %s [q1 %s, q3 %s]\n", m, pm, p1, p3, cm, c1, c3
            printf "  %s change %+.2f %% of the parent median, parent IQR %s, change lower in %d of %d pairs\n", m, (cm - pm) / pm * 100, p3 - p1, wins, n
            if (wins * 10 >= 9 * n && pm - cm > p3 - p1) {
                verdict = "gain"
                if (index(host, " " m " ") && pm - cm <= spread)
                    verdict = "within layout noise (the parent'"'"'s layout spread is " spread ")"
                else if (index(host, " " m " ") && pm - cm < 0.03 * pm)
                    verdict = "gain (under 3 %: confirm with an A/A run)"
            } else if (cm - pm > bound * pm) verdict = "worse"
            else if (p3 - p1 > bound * pm && !apart) verdict = "unresolved"
            else verdict = "no worse"
            printf "  %s verdict: %s (bound %s of the parent median)\n", m, verdict, bound
        }'
    done
    echo "sim-clock metrics that differ in pair 1 (parent change)"
    join -a 1 -a 2 -e - -o 0,1.2,2.2 <(sim_metrics parent "$workload") <(sim_metrics change "$workload") |
        awk '$2 != $3 { printf "  %s: %s %s\n", $1, $2, $3 }'
done
