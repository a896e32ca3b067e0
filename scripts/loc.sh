#!/usr/bin/env bash
# Code-line count, the recipe simplicity PRs quote: non-test Go (*.go, not
# _test.go, not under testdata/), comment-only and blank lines dropped,
# per package directory and in total. Report-only; CI prints it so a PR's
# "net lines" claim can be read off two runs.
#
#   scripts/loc.sh [tree]     # tree defaults to this repo
set -euo pipefail
cd "${1:-"$(dirname "$0")/.."}"

find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' |
	xargs grep -cvE '^\s*(//|$)' |
	awk -F: '
		{ dir = $1; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir); if (dir == "") dir = "."; n[dir] += $2; total += $2 }
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
