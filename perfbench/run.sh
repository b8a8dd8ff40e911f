#!/usr/bin/env bash
# Builds the MIDAS benchmark and cmd/midas-serve from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload seq-path --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: binaries, the Go build cache, server stores,
# and the Chrome trace files of traced runs (.bench_build/traces/).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gotmp"

# Offline, self-contained builds: no module downloads, no toolchain
# switch, and no cache, config, telemetry or temp files outside the
# checkout (the go command keeps its config and telemetry under
# XDG_CONFIG_HOME).
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

# Telemetry off: otherwise the go command starts a detached upload
# process that outlives the build (and this script).
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/midas-serve" ./cmd/midas-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -serve-bin "$out/bin/midas-serve" -workdir "$out" "$@"
