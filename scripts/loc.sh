#!/bin/sh
# Non-test lines of the workspace's library and binary sources.
#
# Counts the lines of every .rs file under crates/*/src that come before
# the file's first `#[cfg(test)]` at column 0 (all of them if it has
# none), so a unit-test module at the end of a file is not counted.
# Prints one line per crate and then the total, which is the number
# ROADMAP's line counts quote.
#
# Run from the repository root: sh scripts/loc.sh
set -eu
total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    lines=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { counting = 1 }
            /^#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')
    printf '%-6s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-6s %6d\n' total "$total"
