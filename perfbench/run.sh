#!/usr/bin/env bash
# Builds rwdserve and the perfbench program from this checkout, then runs
# the program with the given arguments:
#
#   bash perfbench/run.sh --workload decide-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under $CARGO_TARGET_DIR (default .bench_build), including the Go
# build cache, so a fresh checkout builds once and later runs reuse it.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
out=$out/perfbench
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off

go build -o "$out/rwdserve" ./cmd/rwdserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/rwdserve" -workdir "$out/run" "$@"
