#!/usr/bin/env bash
# Builds the loopback benchmark from the checkout it sits in and runs it;
# every argument is passed through. Run from the checkout root:
#
#   bash loopbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache included, stay under .bench_build in
# the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/loopbench" .)
exec "$out/loopbench" "$@"
