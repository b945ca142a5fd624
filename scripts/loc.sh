#!/usr/bin/env bash
# Non-test Rust lines per crate: for every .rs file under crates/*/src,
# the lines before its first `#[cfg(test)]` (the whole file when it has
# none). The one counter simplicity PRs quote. `loc.sh -v` also lists
# each file.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
  sum=0
  while IFS= read -r f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    [ "${1:-}" = "-v" ] && printf '  %6d  %s\n' "$n" "$f"
    sum=$((sum + n))
  done < <(find "${crate}src" -name '*.rs' | sort)
  printf '%6d  %s\n' "$sum" "${crate}src"
  total=$((total + sum))
done
printf '%6d  total\n' "$total"
