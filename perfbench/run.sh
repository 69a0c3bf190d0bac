#!/usr/bin/env bash
# Builds the anonymizer server and the benchmark driver from source, then
# runs the driver with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload cloak-write --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and every file a run writes live under
# .bench_build/ in the repository root; nothing is written elsewhere.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/anonymizer ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/anonymizer and perfbench/)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/anonymizer" ./cmd/anonymizer >&2
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -server "$out/anonymizer" -workdir "$out" "$@"
