#!/usr/bin/env bash
# Builds riskdbench from source and runs it with the arguments given, e.g.
#
#	bash riskdbench/run.sh --workload retail_hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary) and the spans a traced run saves stay
# under .bench_build/ in that directory.
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/riskdbench/go.mod" ]; then
	echo "riskdbench: run from the repository root: go.mod or riskdbench/go.mod missing" >&2
	exit 2
fi
build=$root/.bench_build/riskdbench
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if [ ! -f "$build/config/go/telemetry/mode" ]; then
	go telemetry off
fi
go -C "$root/riskdbench" build -o "$build/riskdbench" .
exec "$build/riskdbench" "$@"
