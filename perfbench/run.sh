#!/usr/bin/env bash
# Builds cmd/mbserve and the perfbench program from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload analyze-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: binaries, the Go build cache, server logs and traces.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mbserve" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the root of a multibus checkout (go.mod, cmd/mbserve and perfbench/ must exist)" >&2
    exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
mkdir -p "$out/bin"

go build -o "$out/bin/mbserve" ./cmd/mbserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -mbserve "$out/bin/mbserve" "$@"
