#!/usr/bin/env bash
# Print the line counts ROADMAP.md and CHANGES.md track, as a markdown
# table: the engine's Rust lines (the number ROADMAP item 6 is judged
# on), each crate's src/, the engine's storage/ layer, and all Rust under
# crates/ + src/ (tests and benches included). Each row also counts its
# product lines: the same files without tests/ directories and without
# the trailing `#[cfg(test)] mod tests` block a source file may end with.
# Run from anywhere.
#
#   loc.sh                 count the working tree
#   loc.sh <ref>           count that commit's tree
#   loc.sh <base> <head>   count both and print the delta (head may be
#                          "." for the working tree)
set -euo pipefail
cd "$(dirname "$0")/.."

# files <ref|.> <path>...: the Rust files under the paths, in the working
# tree (".") or in a commit's tree.
files() {
    local ref=$1
    shift
    if [ "$ref" = . ]; then
        find "$@" -name '*.rs'
    else
        git ls-tree -r --name-only "$ref" -- "$@" | grep '\.rs$'
    fi
}

# show <ref|.> <file>: the file's text.
show() {
    if [ "$1" = . ]; then cat "$2"; else git show "$1:$2"; fi
}

# lines <ref|.> <path>...: Rust lines under the paths.
lines() {
    local ref=$1
    shift
    files "$ref" "$@" | while read -r f; do show "$ref" "$f"; done | wc -l
}

# product <ref|.> <path>...: lines() without tests/ directories and
# without each file's lines from its `#[cfg(test)]` + `mod tests {` on.
# No product code follows such a block in this repository, so cutting
# there drops only tests.
product() {
    local ref=$1
    shift
    files "$ref" "$@" | { grep -v '/tests/' || true; } | while read -r f; do
        show "$ref" "$f" | awk '
            /^#\[cfg\(test\)\]$/ { pending++; next }
            /^mod tests \{/ && pending { exit }
            { n += pending + 1; pending = 0 }
            END { print n + 0 }'
    done | awk '{ s += $1 } END { print s + 0 }'
}

# crates <ref|.>: the crate directories, without a trailing slash.
crates() {
    if [ "$1" = . ]; then
        for c in crates/*/; do echo "${c%/}"; done
    else
        git ls-tree -d --name-only "$1" crates/
    fi
}

storage=crates/ivm-engine/src/storage

if [ $# -le 1 ]; then
    ref=${1:-.}
    engine=crates/ivm-engine/src
    echo "Tracked: $engine = $(lines "$ref" $engine) lines of Rust, $(product "$ref" $engine) of product"
    echo
    echo "| tree | .rs lines | product |"
    echo "|---|---:|---:|"
    row() {
        echo "| $1 | $(lines "$ref" "${@:2}") | $(product "$ref" "${@:2}") |"
    }
    for crate in $(crates "$ref"); do
        row "$crate/src" "$crate/src"
    done
    row "$storage" "$storage"
    row "crates/ + src/" crates src
else
    base=$1 head=$2
    row() {
        local b h pb ph
        b=$(lines "$base" "${@:2}") h=$(lines "$head" "${@:2}")
        pb=$(product "$base" "${@:2}") ph=$(product "$head" "${@:2}")
        echo "| $1 | $b | $h | $((h - b)) | $pb | $ph | $((ph - pb)) |"
    }
    echo "| tree | $base | $head | delta | product $base | product $head | product delta |"
    echo "|---|---:|---:|---:|---:|---:|---:|"
    for crate in $(crates "$head"); do
        row "$crate/src" "$crate/src"
    done
    row "$storage" "$storage"
    row "crates/ + src/" crates src
fi
