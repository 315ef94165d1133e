#!/usr/bin/env bash
# Builds scand and the benchmark from the sources of this checkout (once per
# source state) and makes one benchmark run. Run it from the checkout root:
#
#   bash scandbench/run.sh --workload hot-sessions --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/scand" ] || [ ! -d "$root/internal" ]; then
	echo "scandbench: run from the root of a checkout with go.mod, cmd/scand and internal/" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
mkdir -p "$out/tmp"

stamp=$(find go.mod cmd internal scandbench -type f \( -name '*.go' -o -name go.mod \) -print0 |
	sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
bin="$out/bin"
if [ "$(cat "$bin/stamp" 2>/dev/null || true)" != "$stamp" ]; then
	mkdir -p "$bin"
	go build -o "$bin/scand" ./cmd/scand
	(cd scandbench && go build -o "$bin/scandbench" .)
	echo "$stamp" >"$bin/stamp"
fi

commit=$(git rev-parse HEAD 2>/dev/null || echo none)
exec "$bin/scandbench" --scand "$bin/scand" --out "$out" --stamp "$stamp" --commit "$commit" "$@"
