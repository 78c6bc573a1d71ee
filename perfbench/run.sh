#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the repository root:
#
#	bash perfbench/run.sh --workload host-batch --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the trace files all stay under
# .bench_build at the root, and the Go tool is kept offline.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
