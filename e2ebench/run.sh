#!/usr/bin/env bash
# Builds qagviewd and the e2ebench binary from this checkout into
# .bench_build/, then runs e2ebench with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload open --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, WAL
# directories, span dumps) stays under .bench_build/ in the checkout. The
# module has no external dependencies, so the build never needs a network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/qagviewd" ]]; then
	echo "e2ebench: $root holds no qagview module with cmd/qagviewd to benchmark" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME moves the go command's telemetry directory in as well.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Telemetry off: in its default local mode the go command starts a detached
# sidecar process that outlives the build and this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/qagviewd" ./cmd/qagviewd)
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" -qagviewd "$out/qagviewd" -workdir "$out" "$@"
