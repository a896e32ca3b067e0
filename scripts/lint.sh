#!/usr/bin/env bash
# Repo lint gate: go vet plus the niidlint analysis suite
# (codeccheck, poolcheck, detercheck, leakcheck), over the root module
# and the nested benchmark module.
# CI runs this on every push; run it locally before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
go run ./cmd/niidlint ./...
(cd benchmark && go vet ./... && go run github.com/niid-bench/niidbench/cmd/niidlint ./...)
