#!/usr/bin/env bash
# Build the WALI workload benchmark from source and run it.
#   bash walibench/run.sh --workload compute|kv|shell|kv-record \
#        --seed N --seconds S --trace 0|1
# Run it from the root of a checkout of the repository.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "walibench: not the root of a repository checkout" >&2
  exit 2
fi
dune build --root . ./walibench/main.exe >&2
exec ./_build/default/walibench/main.exe "$@"
