#!/usr/bin/env bash
# The one command of the benchmark. From the repository root:
#
#   bench/run.sh [--seed N] [--out DIR]        all five workloads, every metric by name
#   bench/run.sh trace [--seed N] [--out DIR]  the traced pass: per-layer metrics and span files
#   bench/run.sh smoke                         tiny sizes, one rep: plumbing only, no results
#   bench/run.sh compare A B                   result set B judged against A by BENCHMARK.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one run, as BENCHMARK.json's command (the driver)
#
# Builds the release binary first; every workload runs in its own process.
# Exits nonzero when a build, a check or a pin fails.
set -euo pipefail

cd "$(dirname "$0")/.."

# Build output goes to stderr so that the result stays the last line of stdout.
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-bench/target}/release/muse-perf"

MUSE_PERF_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
MUSE_PERF_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export MUSE_PERF_RUSTC MUSE_PERF_GIT_REV

workloads="relay cluster multiquery relay_ckpt synth_plan"

case "${1:-}" in
--workload | compare)
    exec "$bin" "$@"
    ;;
smoke)
    for w in $workloads; do
        "$bin" --workload "$w" --smoke
    done
    ;;
trace | "" | --seed | --out)
    trace=0
    if [ "${1:-}" = trace ]; then
        trace=1
        shift
    fi
    started=$SECONDS
    for w in $workloads; do
        t=$SECONDS
        "$bin" --workload "$w" --trace "$trace" "$@"
        echo "   $w took $((SECONDS - t)) s"
    done
    echo "total wall time: $((SECONDS - started)) s"
    ;;
*)
    sed -n '2,11p' "$0" >&2
    exit 2
    ;;
esac
