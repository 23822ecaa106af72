#!/usr/bin/env bash
# Build the served benchmark from source and run it from the root of
# the checkout. Arguments go to servebench/main.exe, e.g.
#   bash servebench/run.sh --workload tpcc --seed 3 --seconds 10 --trace 0
# Build output goes to standard error, so the last line of standard
# output is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . servebench/main.exe >&2
exec ./_build/default/servebench/main.exe "$@"
