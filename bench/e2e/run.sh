#!/usr/bin/env bash
# Builds r3bench from source and runs it. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload table2 --seed 1 --seconds 12 --trace 0
#
# Build output goes to standard error, so the last line of standard
# output is r3bench's result. Fails (non-zero, no result) when the
# library sources are missing. The shared dune cache is disabled so the
# build writes only under ./_build.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/r3bench.exe 1>&2
exec ./_build/default/bench/e2e/r3bench.exe "$@"
