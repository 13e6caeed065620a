#!/usr/bin/env bash
# Count the workspace's non-test Rust lines.
#
# Counts every .rs file under crates/ and src/, skipping any tests/,
# benches/ or target/ directory, up to the file's first column-0
# `#[cfg(test)]` (the unit-test module and everything after it). Prints two
# numbers: all those lines, and the code-only lines among them (neither
# blank nor a `//` comment line, doc comments included).
#
# Usage: ci/loc.sh [REPO_DIR]   (default: the repository holding this script)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

find crates src -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' \
    -print0 | sort -z | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting {
            lines++
            if ($0 !~ /^[ \t]*$/ && $0 !~ /^[ \t]*\/\//) code++
        }
        END {
            printf "non-test Rust lines: %d\n", lines
            printf "code-only lines:     %d\n", code
        }'
