#!/bin/sh
# Ignored tests stay honest.
#
# Every `#[ignore` under tests/, crates/*/tests and crates/*/src must read
# `#[ignore = "ROADMAP item N"]`, with item N open (not struck through) in
# ROADMAP.md. And every such test, run alone in release with
# `--ignored --exact`, must still fail: a fix that lands without
# un-ignoring its test fails this check.
#
# Run from the repository root: sh scripts/check_ignored_tests.sh
set -u
status=0
for hit in $(grep -rn '#\[ignore' tests crates/*/tests crates/*/src | cut -d: -f1,2); do
    file=${hit%%:*}
    line=${hit##*:}
    attr=$(sed -n "${line}p" "$file")
    item=$(echo "$attr" | sed -n 's/^ *#\[ignore = "ROADMAP item \([0-9][0-9]*\)"\] *$/\1/p')
    if [ -z "$item" ]; then
        echo "$hit: an ignore must read #[ignore = \"ROADMAP item N\"]: $attr"
        status=1
        continue
    fi
    if ! grep -Eq "^- \*\*$item\. " ROADMAP.md; then
        echo "$hit: ROADMAP item $item is not an open item"
        status=1
    fi
    name=$(tail -n "+$((line + 1))" "$file" | grep -m1 -oE 'fn [A-Za-z0-9_]+' | cut -d' ' -f2)
    crate=$(echo "$file" | sed -n 's|^crates/\([^/]*\)/.*|\1|p')
    case "$file" in
        tests/*) target="--test $(basename "$file" .rs)" ;;
        crates/*/tests/*) target="--manifest-path crates/$crate/Cargo.toml --test $(basename "$file" .rs)" ;;
        *) target="--manifest-path crates/$crate/Cargo.toml --lib" ;;
    esac
    # The full path of a unit test includes its module: take it from the
    # target's own list of ignored tests.
    # shellcheck disable=SC2086
    full=$(cargo test -q --release $target -- --ignored --list 2>/dev/null |
        sed -n "s/^\(\(.*::\)\{0,1\}$name\): test\$/\1/p" | head -n 1)
    if [ -z "$full" ]; then
        echo "$hit: no ignored test named $name in $file"
        status=1
        continue
    fi
    # shellcheck disable=SC2086
    if cargo test -q --release $target -- --ignored --exact "$full" > /dev/null 2>&1; then
        echo "$hit: $full passes: un-ignore it and strike ROADMAP item $item if it is done"
        status=1
    else
        echo "$hit: $full still fails (ROADMAP item $item)"
    fi
done
exit $status
