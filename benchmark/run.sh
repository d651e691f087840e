#!/usr/bin/env bash
# Build the code under test and the benchmark, then run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's `command` is invoked; the last
#       line of stdout is the result
#   benchmark/run.sh check | spec | repeat [--sets N] [--seed N] [--vary-seed]
#       the other noc-benchmark subcommands
#   benchmark/run.sh
#       every workload once, traced and untraced (`repeat --sets 1`)
#
# Both builds go to one target directory (CARGO_TARGET_DIR, else the
# root workspace's already-ignored target/), so `noc-serve` ends up next
# to `noc-benchmark`, which is where the serve workloads look for it.
# Runs from the repository root: everything the benchmark writes goes
# under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates/noc-serve ]; then
  echo "run.sh: benchmark/ is not inside a checkout of the repository (no Cargo.toml and crates/ beside it)" >&2
  exit 3
fi

target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# the real binary users run, from the root workspace and its lock file
cargo build --release --offline --quiet -p noc-serve
# the benchmark: a workspace of its own, so the root Cargo.lock is untouched
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

bin="$target/release/noc-benchmark"
case "${1:-}" in
  "") exec "$bin" repeat --sets 1 ;;
  --*) exec "$bin" run "$@" ;;
  *) exec "$bin" "$@" ;;
esac
