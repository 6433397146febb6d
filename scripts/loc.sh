#!/usr/bin/env bash
# Non-test line count per crate: for each `.rs` file under `crates/*/src`
# and `src/`, the lines before its first `#[cfg(test)]` (all of its lines
# when it has none), doc comments and blank lines included. Prints one
# `<dir> <lines>` row per crate, sorted, then the total. It reports and
# gates nothing; `scripts/loc_baseline.txt` holds a checked-in run to
# compare against.
#
# Usage: scripts/loc.sh [ROOT]    (ROOT defaults to this repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Non-test lines of every `.rs` file under directory $1.
count() {
    find "$1" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 -r awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for src in crates/*/src src; do
    [ -d "$src" ] || continue
    n=$(count "$src")
    printf '%-16s %6d\n' "${src%/src}" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"
