#!/usr/bin/env bash
# Builds ombbench from this checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash ombbench/run.sh --workload fold_huge --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temp files, binary, spans)
# stays under .bench_build/ in the checkout. The build needs the repository's own
# module one directory up; without it the script fails before running.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/ombbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C "$here" build -o "$out/ombbench" .
cd "$root"
exec "$out/ombbench" "$@"
