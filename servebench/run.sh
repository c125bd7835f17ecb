#!/usr/bin/env bash
# Builds the served benchmark from this checkout's sources and runs it, e.g.
#
#   bash servebench/run.sh --workload jni-handout --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, run records and span files all stay under
# .bench_build/ at the checkout root. Without the repository's sources next
# to servebench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/servebench" && go build -o "$out/bin/servebench" .)
cd "$root"
exec "$out/bin/servebench" "$@"
