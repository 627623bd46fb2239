#!/usr/bin/env bash
# Builds the EffiCSense benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The toolchain cache, the binary and
# every scratch file (the daemon's write-ahead log) stay under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp" "${build}/gopath" "${build}/work"

export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/tmp"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off GOFLAGS=

(cd "${here}" && go build -o "${build}/perfbench" .) >&2

exec "${build}/perfbench" -workdir "${build}/work" -source "${root}" "$@"
