#!/bin/sh
# Builds the benchmark from this checkout's sources, then runs it:
#   sh perfbench/run.sh --workload gather --seed 3 --seconds 15 --trace 0
# Run it from the root of the checkout. Arguments go to suite.exe
# unchanged; see perfbench/README.md.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a portals_repro checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . ./perfbench/suite.exe >&2
exec ./_build/default/perfbench/suite.exe "$@"
