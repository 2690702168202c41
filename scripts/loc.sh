#!/usr/bin/env bash
# Product lines of code per crate — the "least code" metric ROADMAP tracks.
#
# Counts, for every file under crates/*/src, the lines before the first
# module-level (unindented) `#[cfg(test)]`, excluding blank lines and lines that
# are only a `//` comment (doc comments included). Prints one row per crate and
# the total.
#
# With --check it also gates the shape CI keeps: the total may not exceed
# MAX_TOTAL (a ratchet — lower it whenever a PR brings the total down), and no
# module of the engine (crates/node/src/engine/*.rs) may exceed
# MAX_ENGINE_MODULE_LINES product lines, counted the same way (its tests do not
# count against it).
#
#   scripts/loc.sh [--check] [ROOT]   # ROOT defaults to the repository this script is in

set -euo pipefail
MAX_TOTAL=17069
MAX_ENGINE_MODULE_LINES=500

check=0
if [ "${1:-}" = "--check" ]; then
  check=1
  shift
fi
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Product lines of the files named on stdin (NUL-separated), summed.
product_lines() {
  xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }'
}

total=0
for crate in crates/*/; do
  name=$(basename "$crate")
  lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z | product_lines)
  printf '%-10s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"

if [ "$check" = 1 ]; then
  status=0
  if [ "$total" -gt "$MAX_TOTAL" ]; then
    echo "loc: total $total exceeds the recorded $MAX_TOTAL" >&2
    status=1
  fi
  for file in crates/node/src/engine/*.rs; do
    lines=$(printf '%s\0' "$file" | product_lines)
    if [ "$lines" -gt "$MAX_ENGINE_MODULE_LINES" ]; then
      echo "loc: $file has $lines product lines (limit $MAX_ENGINE_MODULE_LINES)" >&2
      status=1
    fi
  done
  exit "$status"
fi
