#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
#
# Builds the benchmark package (release, offline, no external crates) and
# runs it. Without --workload it first lints the package (it sits outside
# the root workspace, so scripts/check.sh never sees it), then runs each
# of the four workloads in a fresh process of its own and writes
# benchmark/out/results.json. With --workload it runs that one workload
# and prints its one-line JSON result last, which is the form
# BENCHMARK.json's `command` uses. Exits non-zero when a check fails.
set -euo pipefail
cd "$(dirname "$0")/.."

# A relative CARGO_TARGET_DIR is relative to the checkout root, where
# cargo and the binary both run from.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Switches that change what the program does are not part of the benchmark.
unset TCMP_SIM_THREADS TCMP_SANITIZE TCMP_PROFILE TCMP_FS_FAULTS
# One malloc arena: otherwise peak RSS depends on which thread's arena a
# rep's worker happens to be handed (6.7 vs 9.0 MB on fig6_sweep).
export MALLOC_ARENA_MAX=1

manifest=benchmark/Cargo.toml
single=0
for arg in "$@"; do
    case "$arg" in --workload | --compare) single=1 ;; esac
done
if [ "$single" = 0 ]; then
    echo "== cargo fmt --check (benchmark package)" >&2
    cargo fmt --check --manifest-path "$manifest"
    echo "== cargo clippy -- -D warnings (benchmark package)" >&2
    cargo clippy --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
fi
cargo build --release --offline --quiet --manifest-path "$manifest"
exec "$CARGO_TARGET_DIR/release/tcmp-benchmark" "$@"
