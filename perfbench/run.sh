#!/usr/bin/env bash
# Builds the segdb benchmark (perfbench/) and runs it from the repository
# root. Build products, the Go build cache and temporary files stay under
# .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload point-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
