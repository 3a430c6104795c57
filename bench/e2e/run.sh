#!/usr/bin/env bash
# Builds tip_serve and tipbench from source, then runs tipbench from the
# root of the checkout with the given arguments, for example
#   bash bench/e2e/run.sh --workload point_lookup --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout stays tipbench's
# JSON result. The dune cache is off so the build stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
DUNE_CACHE=disabled dune build --root . bin/tip_serve.exe bench/e2e/tipbench.exe 1>&2
exec ./_build/default/bench/e2e/tipbench.exe "$@"
