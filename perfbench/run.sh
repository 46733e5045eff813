#!/usr/bin/env bash
# Builds netfi's benchmark and the netfi CLI from the source in the current
# directory (the repository root), then runs the benchmark:
#
#   bash perfbench/run.sh --workload fabric-flood --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands in .bench_build/ under the
# root: the Go build cache, temporary files, both binaries and the traced
# run's span files. Build output goes to standard error; standard output
# carries only the benchmark's report, whose last line is the result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)

mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

go -C perfbench build -o "$build/perfbench" . >&2
go build -o "$build/netfi" ./cmd/netfi >&2

exec "$build/perfbench" -root "$root" -netfi "$build/netfi" -commit "$commit" -trace-dir "$build" "$@"
