#!/usr/bin/env bash
# Builds perfbench and the daemons it drives (cmd/mfserved, cmd/mfproxy)
# from the checkout this script sits in, then runs one measurement:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build product, cache and trace stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mfserved" ]]; then
	echo "perfbench: $root is not a multifloats checkout (no go.mod or cmd/mfserved)" >&2
	exit 2
fi
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/mfserved ./cmd/mfproxy
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" "$@"
