#!/usr/bin/env bash
# Code-line count, the recipe simplicity PRs quote: non-test Go (*.go, not
# _test.go, not under testdata/), comment-only and blank lines dropped,
# per package directory and in total. Report-only; CI prints it, and the
# delta against the PR base, so a PR's "net lines" claim is produced, not
# typed.
#
#   scripts/loc.sh [tree]            # tree defaults to this repo
#   scripts/loc.sh --against <ref>   # per-package and total delta of this
#                                    # tree versus a git ref (the ref is
#                                    # counted from a `git archive` in a
#                                    # temp dir; nothing is checked out)
set -euo pipefail

count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' |
		xargs grep -cvE '^\s*(//|$)' |
		awk -F: '
			{ dir = $1; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir); if (dir == "") dir = "."; n[dir] += $2; total += $2 }
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }')
}

repo="$(cd "$(dirname "$0")/.." && pwd)"
if [ "${1:-}" != "--against" ]; then
	count "${1:-$repo}"
	exit
fi
ref="${2:?usage: scripts/loc.sh --against <git-ref>}"
base="$(mktemp -d)"
trap 'rm -rf "$base"' EXIT
git -C "$repo" archive "$ref" | tar -x -C "$base"
# Two "count  package" listings joined on the package name; a package on
# one side only counts as 0 on the other.
awk -v ref="$ref" '
	NR == FNR { was[$2] = $1; seen[$2]; next }
	{ now[$2] = $1; seen[$2] }
	END {
		printf "%7s %7s %7s  %s\n", ref, "tree", "delta", "package"
		for (p in seen) if (p != "total") printf "%7d %7d %+7d  %s\n", was[p], now[p], now[p] - was[p], p | "sort -k4"
		close("sort -k4")
		printf "%7d %7d %+7d  total\n", was["total"], now["total"], now["total"] - was["total"]
	}' <(count "$base") <(count "$repo")
