#!/usr/bin/env bash
# Runs one perfbench run from the root of a ctxsearch checkout:
#
#   bash perfbench/run.sh --workload page10 --seed 1 --seconds 20 --trace 0
#
# The ctxsearch binary and the harness are built from the checkout's own
# source, once per source hash, under .bench_build/perfbench. The Go build
# cache lives there too, so a run reads and writes only inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ctxsearch || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a ctxsearch checkout" >&2
	exit 2
fi

work=.bench_build/perfbench
mkdir -p "$work/tmp"
export GOCACHE="$PWD/$work/gocache" GOPATH="$PWD/$work/gopath" GOTMPDIR="$PWD/$work/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

src=$(find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	-type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
bin="$work/bin/$src"
if [[ ! -x "$bin/harness" ]]; then
	mkdir -p "$bin"
	go build -trimpath -o "$bin/ctxsearch" ./cmd/ctxsearch
	(cd perfbench && go build -trimpath -o "../$bin/harness" .)
fi
exec "$bin/harness" -bin "$bin/ctxsearch" -work "$work" -source "$src" "$@"
