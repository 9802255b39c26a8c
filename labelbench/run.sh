#!/usr/bin/env bash
# Builds and runs labelbench from the repository root. Build products, the
# Go build cache, the go command's own config and telemetry files, and
# labeld's temporary data dirs all stay under .bench_build in the current
# directory.
#
#   bash labelbench/run.sh --workload table2-cold --seed 1 --seconds 15 --trace 0
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/labeld || ! -d labelbench ]]; then
	echo "labelbench: run from the repository root (go.mod, cmd/labeld and labelbench are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$out/labelbench" ./labelbench
exec "$out/labelbench" "$@"
