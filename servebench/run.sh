#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it:
#
#   bash servebench/run.sh --workload jobs-cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache
# stay under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/server || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the subwarpsim repository root (go.mod, internal/ and servebench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

# Stamp the commit when the tree is a git checkout; build without the
# stamp when it is not (or git cannot read it).
(cd servebench && { go build -o "$out/servebench" . 2>/dev/null || go build -buildvcs=false -o "$out/servebench" .; })
exec "$out/servebench" "$@"
