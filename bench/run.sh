#!/usr/bin/env bash
# The benchmark's one command: build mpjbench from source and run it.
#
#   bash bench/run.sh                                   all five workloads
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench/run.sh compare A.json B.json
#
# Everything the build and the run write stays under bench/ (.build/ and
# results/): the Go build and module caches and the toolchain's own
# per-user files (XDG_CONFIG_HOME: telemetry counters) are pointed
# there, and nothing is fetched — the module needs only the repository
# it sits in (replace mpj => ../) and the installed toolchain.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .build
export GOCACHE="$PWD/.build/gocache" GOMODCACHE="$PWD/.build/gomodcache" XDG_CONFIG_HOME="$PWD/.build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o .build/mpjbench ./cmd/mpjbench
exec .build/mpjbench "$@"
