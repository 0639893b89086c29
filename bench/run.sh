#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. The Go build cache, module
# cache and the toolchain's own config directory (its telemetry counters)
# live there too, so a run reads and writes nothing outside the checkout. A
# directory without the simulator's sources fails the build and exits
# non-zero before printing a result. Inside a git checkout the program is
# stamped with the commit (and "+dirty" beside uncommitted changes), so two
# commits' results can be told apart; elsewhere it says "unknown".
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || true)"
if [ -n "$commit" ] && [ -n "$(git -C "$here" status --porcelain 2>/dev/null)" ]; then
	commit="$commit+dirty"
fi
(
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOFLAGS=
	cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/adapcc-bench" .
)
exec "$build/adapcc-bench" "$@"
