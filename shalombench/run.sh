#!/usr/bin/env bash
# Builds the benchmark against the libshalom sources of the checkout it sits
# in, then runs it. Every build and run artefact (Go build cache, binary,
# result records, span files) goes under .bench_build/ at the checkout root.
#
#   bash shalombench/run.sh --workload small-calls --seed 1 --seconds 10 --trace 0
#
# Workloads: small-calls, irregular, serve. --trace 1 prints the per-layer
# metrics instead of the end-to-end ones and writes a span file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

# The build stays offline and inside the checkout: no module downloads, no
# toolchain switch, and a build cache, temporary and config dir of its own.
(
	cd "$here"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
		GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/shalombench" .
) >&2

exec "$out/shalombench" -root "$root" -out "$out" "$@"
