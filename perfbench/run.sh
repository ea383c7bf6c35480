#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary,
# traces) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || true)"
PERFBENCH_COMMIT="${commit:-unknown}" exec "$out/perfbench" "$@"
