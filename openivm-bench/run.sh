#!/usr/bin/env bash
# Build the system under test (the `openivm` server binary) and the
# benchmark from source, then run the benchmark with the given arguments.
# Run from the repository root: `bash openivm-bench/run.sh --workload trickle ...`.
set -euo pipefail
here="$(dirname "$0")"
root="$here/.."
if [ ! -f "$root/Cargo.toml" ]; then
    echo "openivm-bench: no Cargo.toml beside openivm-bench/: the benchmark builds the repository it sits in" >&2
    exit 1
fi
# The bench is a package of its own, so its manifest carries the release
# profile its in-process workloads are built with. It must be the root's,
# which the server child is built with: refuse to measure two builds.
release_profile() {
    awk '/^\[/ { on = ($0 == "[profile.release]") } on && /=/ { gsub(/[ \t]/, ""); print }' "$1" | sort
}
if [ "$(release_profile "$root/Cargo.toml")" != "$(release_profile "$here/Cargo.toml")" ]; then
    echo "openivm-bench: [profile.release] of openivm-bench/Cargo.toml differs from the root Cargo.toml's; copy the root's" >&2
    exit 1
fi
# One target directory for both builds, so `openivm` lands beside
# `openivm-bench` (the bench locates the server next to its own executable).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin openivm
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/openivm-bench" "$@"
