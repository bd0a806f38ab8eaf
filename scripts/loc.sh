#!/bin/sh
# Non-test lines of the workspace's library and binary sources.
#
# Counts the lines of every .rs file under crates/*/src that come before
# the `#[cfg(test)]` at column 0 that opens the file's test module (the
# next line starts with `mod `; all lines if there is none), so a
# unit-test module at the end of a file is not counted but a test-only
# item above production code is.
# Prints one line per crate and then the total, which is the number
# ROADMAP's line counts quote; then, outside that total, a `tests` line:
# every line of the .rs files under tests/ and crates/*/tests, so a
# change that deletes test scaffolding shows in a count too.
#
# With a revision argument it prints that revision's count beside the
# working tree's, per crate and in total, so a change's "parent ->
# change" count is one command (sh scripts/loc.sh HEAD~1). The
# revision's committed files are unpacked with git archive into a
# temporary directory, as scripts/wall_pairs.sh does.
#
# Run from the repository root: sh scripts/loc.sh [REV]
set -eu

# Prints "<crate> <lines>" for every crate under $1, then "total <lines>",
# then "tests <lines>".
count() {
    total=0
    for dir in "$1"/crates/*/src; do
        crate=$(basename "$(dirname "$dir")")
        lines=$(find "$dir" -name '*.rs' -print0 | sort -z |
            xargs -0 awk 'FNR == 1 { n += held; held = 0; counting = 1 }
                held { held = 0; if (/^mod /) counting = 0; else n++ }
                counting && /^#\[cfg\(test\)\]/ { held = 1; next }
                counting { n++ }
                END { print n + held }' | awk '{ s += $1 } END { print s + 0 }')
        echo "$crate $lines"
        total=$((total + lines))
    done
    echo "total $total"
    tests=$(find "$1"/tests "$1"/crates/*/tests -name '*.rs' -print0 | sort -z |
        xargs -0 cat | wc -l)
    echo "tests $tests"
}

if [ $# -eq 0 ]; then
    count . | while read -r crate lines; do
        printf '%-6s %6d\n' "$crate" "$lines"
    done
    exit 0
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
git archive --format=tar "$1" | tar -x -C "$tmp"
count "$tmp" >"$tmp/rev.counts"
count . >"$tmp/tree.counts"
printf '%-6s %8s %8s\n' "" "$(git rev-parse --short "$1")" tree
# The working tree's crates, then any only REV has (0 on the side that
# lacks it), then the total and the tests.
{
    cut -d ' ' -f 1 "$tmp/tree.counts" "$tmp/rev.counts" |
        awk '$1 != "total" && $1 != "tests" && !seen[$1]++'
    echo total
    echo tests
} | while read -r crate; do
    rev=$(awk -v c="$crate" '$1 == c { print $2 }' "$tmp/rev.counts")
    tree=$(awk -v c="$crate" '$1 == c { print $2 }' "$tmp/tree.counts")
    printf '%-6s %8d %8d\n' "$crate" "${rev:-0}" "${tree:-0}"
done
