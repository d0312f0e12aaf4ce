#!/usr/bin/env bash
# Builds the harness from source inside the checkout (build cache and binary
# under benchmark/.build/) and runs it with the arguments given. The build is
# not part of any reported time.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export GOCACHE="$PWD/.build/gocache" GOTOOLCHAIN=local
go build -o .build/spg-benchmark . 1>&2
exec .build/spg-benchmark "$@"
