#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload lexer-ho --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# including the Go build cache, temporary files and the span files of
# traced runs.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
# The go command and the benchmark keep their temporary files there too.
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0
# Turn Go telemetry off for this configuration directory before the first go
# command: otherwise the go command starts a detached telemetry process that
# can outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/perfbench-bin" ./perfbench
exec "$out/perfbench-bin" -out "$out/perfbench" "$@"
