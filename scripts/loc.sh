#!/usr/bin/env bash
# Print the line counts ROADMAP.md and CHANGES.md track, as a markdown
# table: the engine's Rust lines (the number ROADMAP item 3 is judged
# on), each crate's src/, and all Rust under crates/ + src/ (tests and
# benches included). Counts the working tree; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

echo "Tracked: crates/ivm-engine/src = $(lines crates/ivm-engine/src) lines of Rust"
echo
echo "| tree | .rs lines |"
echo "|---|---:|"
for crate in crates/*/; do
    echo "| ${crate}src | $(lines "${crate}src") |"
done
echo "| crates/ + src/ | $(lines crates src) |"
