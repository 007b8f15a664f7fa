#!/usr/bin/env bash
# Builds the benchmark and the programs it drives from the sources of the
# checkout it runs in, then runs it. Run from the repository root:
#
#   bash _perfbench/run.sh --workload sweep|service|lint --seed N --seconds S --trace 0|1
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), including the Go build
# cache, so a fresh checkout builds from scratch on its first run.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hetbench" || ! -f "$root/_perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a hetbench checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/bin" "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
# The benchmark pins every worker count itself; an inherited value must
# not change the schedule it measures.
unset HETBENCH_JOBS

go build -o "$out/bin/hetbench" ./cmd/hetbench >&2
go build -o "$out/bin/hetlint" ./cmd/hetlint >&2
(cd "$root/_perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -out "$out" "$@"
