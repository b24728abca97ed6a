#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-window --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory: the binary, the Go build cache, the data
# directories of write-mix and the span dumps of traced runs.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	TMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
