#!/usr/bin/env bash
# First-party Rust line counts, per crate and in total: every `*.rs` file
# git tracks outside vendor/. The root `bolt-repro` package (src/, tests/,
# examples/) counts as `root`.
#
#   scripts/loc.sh         # the index (stage new files first: untracked ones are not counted)
#   scripts/loc.sh REV     # any commit, e.g. the parent, for a before/after pair
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:-}
if [ -n "$rev" ]; then
  git ls-tree -r --name-only "$rev" | grep '\.rs$' | grep -v '^vendor/' |
    while read -r f; do echo "$(git show "$rev:$f" | wc -l) $f"; done
else
  git ls-files -z -- '*.rs' ':!vendor' | xargs -0 wc -l | grep -v ' total$'
fi | awk '
  {
    split($2, part, "/")
    name = part[1] == "crates" ? part[2] : "root"
    lines[name] += $1
    total += $1
  }
  END {
    for (name in lines) printf "%8d  %s\n", lines[name], name | "sort -k2"
    close("sort -k2")
    printf "%8d  total\n", total
  }'
