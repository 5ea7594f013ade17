#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload kv-crash --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, GOPATH and the Go
# command's own config and telemetry files) stays under .bench_build/ in
# the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
