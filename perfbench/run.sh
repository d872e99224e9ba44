#!/usr/bin/env bash
# Builds the wall-clock engine benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload edit --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the go
# command's other state live under .bench_build/ so that building writes
# nothing outside the checkout. The benchmark module points at the
# repository module with a relative replace directive, so it cannot build
# (and exits non-zero) without the repository.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOTMPDIR="${out}/tmp"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOWORK=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" "$@"
