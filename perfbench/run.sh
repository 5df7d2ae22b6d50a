#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-gpu-sweep --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary, span dumps and the
# per-seed determinism record all stay under .bench_build/ in the
# current directory.
set -euo pipefail

if ! grep -qs '^module energyprop$' go.mod || [ ! -d internal/service ]; then
	echo "perfbench: run from the root of the energyprop module" >&2
	exit 2
fi
out=.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/gotmp" GOPATH="$PWD/$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/perfbench" ./perfbench >&2
exec "$out/bin/perfbench" "$@"
