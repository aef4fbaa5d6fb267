#!/usr/bin/env bash
# Run the full suite twice back to back and print, per workload and
# end-to-end metric, both medians, their relative difference and the
# metric's bound. A metric whose run-to-run spread exceeds its bound is
# marked unresolved, not unchanged. Exits non-zero when two runs of the
# same code differ by more than a bound: the benchmark is then not
# steady enough to judge a change with.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."
for i in 1 2; do
    bash benchmark/run.sh "$@" --out "benchmark/out/repeat$i"
done
exec bash benchmark/run.sh --compare benchmark/out/repeat1/results.json benchmark/out/repeat2/results.json
