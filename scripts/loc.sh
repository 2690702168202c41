#!/usr/bin/env bash
# Product lines of code per crate — the "least code" metric ROADMAP tracks.
#
# Counts, for every file under crates/*/src, the lines before the first
# module-level (unindented) `#[cfg(test)]`, excluding blank lines and lines that
# are only a `//` comment (doc comments included). Prints one row per crate and
# the total.
#
#   scripts/loc.sh [ROOT]      # ROOT defaults to the repository this script is in

set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

total=0
for crate in crates/*/; do
  name=$(basename "$crate")
  lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }')
  printf '%-10s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
