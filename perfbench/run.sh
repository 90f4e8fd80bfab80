#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-emulated --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write lands under .bench_build/ at the
# checkout root; the Go toolchain is kept offline and local.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"

(
	cd "$root/perfbench"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off \
		go build -buildvcs=false -o "$build/perfbench" .
)
exec "$build/perfbench" --root "$root" "$@"
