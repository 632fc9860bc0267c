#!/usr/bin/env bash
# Print the line counts ROADMAP.md and CHANGES.md track, as a markdown
# table: the engine's Rust lines (the number ROADMAP item 6 is judged
# on), each crate's src/, and all Rust under crates/ + src/ (tests and
# benches included). Run from anywhere.
#
#   loc.sh                 count the working tree
#   loc.sh <ref>           count that commit's tree
#   loc.sh <base> <head>   count both and print the delta (head may be
#                          "." for the working tree)
set -euo pipefail
cd "$(dirname "$0")/.."

# lines <ref|.> <path>...: Rust lines under the paths, in the working tree
# (".") or in a commit's tree.
lines() {
    local ref=$1
    shift
    if [ "$ref" = . ]; then
        find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l
    else
        git ls-tree -r --name-only "$ref" -- "$@" | grep '\.rs$' |
            while read -r f; do git show "$ref:$f"; done | wc -l
    fi
}

# crates <ref|.>: the crate directories, without a trailing slash.
crates() {
    if [ "$1" = . ]; then
        for c in crates/*/; do echo "${c%/}"; done
    else
        git ls-tree -d --name-only "$1" crates/
    fi
}

if [ $# -le 1 ]; then
    ref=${1:-.}
    echo "Tracked: crates/ivm-engine/src = $(lines "$ref" crates/ivm-engine/src) lines of Rust"
    echo
    echo "| tree | .rs lines |"
    echo "|---|---:|"
    for crate in $(crates "$ref"); do
        echo "| $crate/src | $(lines "$ref" "$crate/src") |"
    done
    echo "| crates/ + src/ | $(lines "$ref" crates src) |"
else
    base=$1 head=$2
    row() {
        local b h
        b=$(lines "$base" "${@:2}") h=$(lines "$head" "${@:2}")
        echo "| $1 | $b | $h | $((h - b)) |"
    }
    echo "| tree | $base | $head | delta |"
    echo "|---|---:|---:|---:|"
    for crate in $(crates "$head"); do
        row "$crate/src" "$crate/src"
    done
    row "crates/ + src/" crates src
fi
