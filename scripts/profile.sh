#!/usr/bin/env bash
# Where host time goes in the benchmark: a sampling profile that needs
# no perf or valgrind, only cc and binutils.
#
# Usage: scripts/profile.sh WORKLOAD [SEED[,SEED...]=1]
#
# Builds the benchmark with frame pointers and line tables into its own
# target directory (target/profile; benchmark/ is not touched), builds
# scripts/profile/sampler.c, runs one untraced repetition per seed
#
#   cumulo-benchmark rep WORKLOAD SEED 0 DIR
#
# with the sampler preloaded, symbolizes the samples with addr2line and
# prints the top self and inclusive frames, as shares of the samples,
# of the measured phases (the samples under Stepper::run_to) and of
# set-up (under Cluster::build or Cluster::load_rows). A sample's
# inclusive frames are those from its innermost one up to the frame
# that put it in the phase, and inlined functions count as frames of
# their own. The simulator's dispatch frames, which nearly every sample
# of a phase passes through ({closure#N}, call_once<...> and
# FnOnce::call_once{{vtable.shim}}), are left out of the inclusive list
# so that it shows the functions doing the work; the self list keeps
# every frame.
#
# The sampler asks for a SIGPROF every 0.5 ms of CPU time, but the
# kernel delivers at most one per scheduler tick (every 4 ms at 250 Hz),
# so one repetition gives a few hundred samples: pass several seeds for
# a steadier profile. Standard-library code that was not built with
# frame pointers can cut a frame walk short; the header of each phase
# says how many samples that happened to.
#
# Run from anywhere inside the repository, on an otherwise idle machine.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 WORKLOAD [SEED[,SEED...]=1]" >&2
    exit 2
fi
workload=$1
seeds=${2:-1}
top=15

repo=$(git rev-parse --show-toplevel)
target=$repo/target/profile
tmp=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

echo "building the benchmark with frame pointers into $target" >&2
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$repo/benchmark/Cargo.toml"
bin=$(readlink -f "$target/release/cumulo-benchmark")
cc -O2 -shared -fPIC -o "$tmp/sampler.so" "$repo/scripts/profile/sampler.c"

# One "sample, frame number, address" line per frame of every sample;
# "offset" addresses are the binary's own, as addr2line takes them (a
# return address steps back one byte, into its call).
for seed in $(echo "$seeds" | tr , ' '); do
    echo "running $workload, seed $seed, under the sampler" >&2
    PROFILE_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" env -u CARGO_MANIFEST_DIR \
        "$bin" rep "$workload" "$seed" 0 "$tmp" >/dev/null
    awk -v bin="$bin" -v run="$seed" '
        function hex(s,    i, n) {
            n = 0
            for (i = 1; i <= length(s); i++)
                n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
            return n
        }
        $1 == "maps" { in_maps = 1; if ($2 > 0) print "sampler dropped " $2 " samples" > "/dev/stderr"; next }
        !in_maps { sample[++samples] = $0; next }
        $6 == bin && $3 == "00000000" { split($1, range, "-"); base = hex(range[1]) }
        $6 != "" { split($1, range, "-"); lo[++maps] = hex(range[1]); hi[maps] = hex(range[2])
                   name[maps] = ($6 == bin) ? "" : $6 }
        END {
            for (s = 1; s <= samples; s++) {
                n = split(sample[s], addr, " ")
                for (f = 1; f <= n; f++) {
                    a = hex(addr[f]) - (f > 1)
                    label = "[unknown]"
                    for (m = 1; m <= maps; m++)
                        if (a >= lo[m] && a < hi[m]) {
                            label = name[m] == "" ? sprintf("offset %x", a - base) : "[" name[m] "]"
                            break
                        }
                    print run ":" s, f, label
                }
            }
        }' "$tmp/samples" >>"$tmp/frames"
done

# Every binary offset once, through addr2line; each becomes its inline
# chain of function names, innermost first, joined by tabs.
awk '$3 == "offset" { print $4 }' "$tmp/frames" | sort -u >"$tmp/offsets"
addr2line -a -f -C -i -e "$bin" <"$tmp/offsets" | awk '
    /^0x[0-9a-f]+$/ { if (chain != "") print chain; chain = ""; odd = 1; next }
    odd { sub(/::h[0-9a-f]+$/, ""); chain = chain == "" ? $0 : chain "\t" $0 }
    { odd = !odd }
    END { if (chain != "") print chain }' >"$tmp/chains"
paste "$tmp/offsets" "$tmp/chains" >"$tmp/symbols"

report() {
    local title=$1 pattern=$2
    awk -F '\t' -v title="$title" -v pattern="$pattern" -v top="$top" '
        FILENAME == ARGV[1] { sym[$1] = $0; sub(/^[^\t]*\t/, "", sym[$1]); next }
        {
            split($0, w, " ")
            key = w[3] == "offset" ? sym[w[4]] : w[3]
            if (w[1] != current) { flush(); current = w[1]; stack = "" }
            stack = stack == "" ? key : stack "\t" key
        }
        # A sample counts if a frame matches pattern; its frames from
        # the innermost up to that one are what it is charged to.
        function flush(    n, i, seen, frame) {
            if (stack == "") return
            total++
            if (stack !~ /\tmain(\t|$)/) broken++
            n = split(stack, frame, "\t")
            for (i = 1; i <= n && frame[i] !~ pattern; i++) {}
            if (i > n) return
            n = i
            taken++
            self[frame[1]]++
            for (i = 1; i <= n; i++)
                if (!(frame[i] in seen)) { seen[frame[i]] = 1; incl[frame[i]]++ }
        }
        END {
            flush()
            printf "\n== %s: %d of %d samples (the frame walk of %d of all samples stopped short of main)\n", \
                title, taken, total, broken
            if (taken == 0) exit
            for (f in self) printf "self %6.1f%%  %s\n", 100 * self[f] / taken, f | "sort -k2 -rn | head -" top
            close("sort -k2 -rn | head -" top)
            for (f in incl)
                if (f !~ /(^|::)[{]closure#[0-9]+[}](<.*)?$|^call_once<|FnOnce::call_once[{][{]vtable[.]shim[}][}]$/)
                    printf "incl %6.1f%%  %s\n", 100 * incl[f] / taken, f | "sort -k2 -rn | head -" top
            close("sort -k2 -rn | head -" top)
        }' "$tmp/symbols" "$tmp/frames"
}

echo "$workload, seeds $seeds:"
report "measured phases (under Stepper::run_to)" "Stepper::run_to"
report "set-up (under Cluster::build or Cluster::load_rows)" "Cluster::(build|load_rows)"
