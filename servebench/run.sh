#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it
# from the checkout's root, wherever it is called from:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash servebench/run.sh compare <result.json> <result.json>
#
# Everything the build and the runs leave
# behind (Go build cache, binary, result records) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$root/servebench" build -o "$build/servebench" .
if [ "${1:-}" = compare ] && [ $# -eq 3 ]; then
	# The records to compare are named relative to the caller's directory.
	set -- compare "$(realpath -m -- "$2")" "$(realpath -m -- "$3")"
fi
cd "$root"
exec "$build/servebench" "$@"
