#!/bin/sh
# Build the end-to-end benchmark from source, then run it.  Run it from
# the root of the repository; every argument goes to run.exe:
#
#   bash bench/e2e/run.sh --workload hairpin-64b --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# result object.  See bench/e2e/README.md.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: dune-project or lib/ missing: run from the root of a full checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . bench/e2e/run.exe 1>&2
exec ./_build/default/bench/e2e/run.exe "$@"
