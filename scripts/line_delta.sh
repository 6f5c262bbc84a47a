#!/usr/bin/env bash
# Line delta of the working tree against BASE (default HEAD~1), per source
# directory, from `git diff --numstat`. Binary files are skipped; new files
# count once they are tracked (`git add`).
#
#   scripts/line_delta.sh            # vs the previous commit
#   scripts/line_delta.sh main       # vs any revision
#
# Prints added / removed / net lines for src, tests, examples, fuzz, bench
# and docs, then the two totals a change reports: src alone, and
# src+tests+examples+fuzz+bench (code, without docs).
set -euo pipefail

base="${1:-HEAD~1}"
cd "$(git rev-parse --show-toplevel)"

git diff --numstat --no-renames "$base" -- src tests examples fuzz bench docs |
  awk -F'\t' '
  $1 == "-" { next }  # binary file
  {
    split($3, parts, "/")
    dir = parts[1]
    add[dir] += $1
    del[dir] += $2
  }
  function row(name, a, d) {
    printf "%-36s +%-6d -%-6d %+d\n", name, a, d, a - d
  }
  END {
    n = split("src tests examples fuzz bench docs", dirs, " ")
    for (i = 1; i <= n; ++i) row(dirs[i], add[dirs[i]], del[dirs[i]])
    print ""
    row("total src", add["src"], del["src"])
    ca = 0; cd = 0
    n = split("src tests examples fuzz bench", code, " ")
    for (i = 1; i <= n; ++i) { ca += add[code[i]]; cd += del[code[i]] }
    row("total src+tests+examples+fuzz+bench", ca, cd)
  }'
