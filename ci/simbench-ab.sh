#!/usr/bin/env bash
# simbench-ab.sh — the wall-clock gate: simbench at a base revision vs the
# checkout, on the same machine, in both orders.
#
# Usage:
#   ci/simbench-ab.sh BASE_REV
#
# Builds simbench twice: at BASE_REV in a temporary `git worktree` (with its
# own benchmark/target, so the two builds share nothing) and at the
# checkout. Runs the default suite (the four BENCHMARK.json workloads,
# round-robin) four times in the order base, head, head, base, each writing
# its results file with --out, and runs the head's `simbench compare` on
# each pair: the first base against the first head, and the second base
# against the second head. Drift on the machine during the run (a noisy
# neighbour, thermal throttling) favours the base in one pair and the head
# in the other, so the script fails only when both pairs fail.
#
# Exit status: 0 when either pair has every workload x end-to-end metric
# within its BENCHMARK.json bound, 1 when both pairs have one outside, 2 on
# a usage error.
#
# The results files land in results/simbench-ab. The worktree lives under
# $TMPDIR and is removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
out="$root/results/simbench-ab"
mkdir -p "$out"

tree=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$tree"
    git worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$tree" "$base_rev"
if [ ! -f "$tree/benchmark/Cargo.toml" ]; then
    echo "simbench-ab: $base_rev has no benchmark/ package" >&2
    exit 2
fi

build() { # build ROOT: simbench from ROOT's sources into ROOT/benchmark/target
    echo "simbench-ab: building simbench in $1"
    CARGO_TARGET_DIR="$1/benchmark/target" \
        cargo build --release --offline --locked --manifest-path "$1/benchmark/Cargo.toml"
}
build "$tree"
build "$root"

suite() { # suite ROOT NAME: the default suite from ROOT's build into $out/NAME.json
    echo "simbench-ab: suite $2"
    (cd "$1" && benchmark/target/release/simbench --out "$out/$2.json")
}
suite "$tree" base1
suite "$root" head1
suite "$root" head2
suite "$tree" base2

# Not `exec`: the EXIT trap must still remove the worktree.
pair() { # pair N: compare baseN -> headN, print its status
    echo "simbench-ab: compare base$1 -> head$1" >&2
    local status=0
    benchmark/target/release/simbench compare "$out/base$1.json" "$out/head$1.json" >&2 ||
        status=$?
    echo "$status"
}
first=$(pair 1)
second=$(pair 2)
echo "simbench-ab: base1 -> head1 exited $first; base2 -> head2 exited $second"
if [ "$first" -eq 0 ] || [ "$second" -eq 0 ]; then
    exit 0
fi
exit $((first > second ? first : second))
