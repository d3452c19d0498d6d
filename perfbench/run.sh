#!/bin/sh
# Builds the benchmark from source into .bench_build and runs it with the
# given flags. Run it from the repository root:
#
#	sh perfbench/run.sh --workload point-cold --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build;
# module downloads and toolchain switches are off, so an incomplete checkout
# fails the build (exit code 1) instead of reaching out.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS=-buildvcs=false
cd "$root/perfbench"
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
