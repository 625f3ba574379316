#!/usr/bin/env bash
# Builds the benchmark program from the repository's source and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload repro32 --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), including the Go
# build cache and temporary files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -build-dir "$build" "$@"
