#!/usr/bin/env sh
# Tier-1 CI gate: release build, workspace test suite, lint gates (fmt,
# clippy, rustdoc with warnings denied), static verification of the example queries/plans and a
# `muse-verify migrate` smoke over them (the certified pair must exit 0,
# the narrowed pair must be refused — no test runs the binary) and a
# hostile `.net` file that `muse-verify plan` must reject with exit 2, the loom
# concurrency lane (the inject-clock handoff and the executor's drain barrier), the driver-parity suites once more in the release
# profile (thread interleavings there are the ones bench/ measures, far
# less tame than the dev profile's; shared join inputs, snapshot restore,
# muse-runtime's crash-and-resume and snapshot-codec lib tests and
# muse-bench's two crash tests included), the set-up scaling guards
# of multi-query planning and of selectivity estimation (release only), the pinned benchmark under bench/ (its own workspace: unit tests plus the smoke run, so a public-API
# removal cannot break BENCHMARK.json's command unnoticed; then one short
# full-size `cluster` run for its exit code — pins, and the case study's
# reference matches against simulator and `Evaluator` — one of `relay`,
# 60 850 matches through a receiver that works while parked at the barrier,
# one of `multiquery`, whose pins and threaded-vs-simulator digest no
# other lane exercises at full size, and a traced one of `relay_ckpt`,
# which decodes and re-encodes the checkpointed run's final snapshot),
# and two harness smokes: `table3` with the telemetry export under out/, and the
# `explain` witness-closure replay. Correctness is gated by the test suite and performance is
# judged by bench/ alone; no lane here reads a number. Exits nonzero on
# the first failure, and at the end if any lane wrote a tracked file.
#
# Opt-in slow lanes (need a nightly toolchain, skipped by default so the
# tier-1 gate stays fast):
#   MUSE_CI_TSAN=1  ./scripts/ci.sh   # ThreadSanitizer over muse-runtime
#   MUSE_CI_MIRI=1  ./scripts/ci.sh   # Miri over muse-core
set -eu

cd "$(dirname "$0")/.."

# Checksum of the working tree's tracked changes, compared at the end: it
# is the same at both ends unless a lane wrote a tracked file (and trivially
# so outside a git checkout, where `git diff` prints nothing).
tracked_changes() { git diff 2>/dev/null | cksum; }
changes_at_start=$(tracked_changes)

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test --workspace -q =="
cargo test --workspace -q

echo "== lint: cargo fmt --check =="
cargo fmt --check

echo "== lint: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== lint: cargo clippy --all-targets (first-party packages) -- -D warnings =="
# Tests and examples too, but only of the root package and every crates/*
# member: the vendored crates are implicit workspace members whose own
# tests are not held to this lint set (their libs are, by the lane above).
first_party=""
for manifest in Cargo.toml crates/*/Cargo.toml; do
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)
    first_party="$first_party -p $name"
done
# shellcheck disable=SC2086 # one word per package flag
cargo clippy --all-targets $first_party -- -D warnings

echo "== lint: cargo doc (first-party packages) -- -D warnings =="
# Only rustdoc evaluates doc links: without this lane a deleted public type
# leaves its [`links`] dangling unnoticed, and a public doc that links a
# private item renders a dead link. Every rustdoc warning fails the lane.
# The vendored crates stay outside it: crossbeam has a broken link of its
# own.
# shellcheck disable=SC2086 # one word per package flag
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps $first_party

echo "== verify: muse-verify over examples/queries =="
cargo run -q -p muse-verify --release --bin muse-verify -- \
    query examples/queries/*.sase
cargo run -q -p muse-verify --release --bin muse-verify -- \
    plan examples/queries/factory_robots.sase --network examples/queries/factory.net

echo "== verify: muse-verify plan refuses a hostile network file =="
# A `.net` line out of the parser's range must be an input error (exit 2),
# not a panic (exit 101).
hostile_net="$(mktemp)"
printf 'node 200 X\nrate X NaN\n' >"$hostile_net"
status=0
cargo run -q -p muse-verify --release --bin muse-verify -- \
    plan examples/queries/factory_robots.sase --network "$hostile_net" || status=$?
rm -f "$hostile_net"
if [ "$status" -ne 2 ]; then
    echo "ci.sh: muse-verify plan on a hostile network exited $status, expected 2" >&2
    exit 1
fi

echo "== verify: muse-verify migrate over examples/queries =="
# The certified pair (append-only edit) must exit 0 …
cargo run -q -p muse-verify --release --bin muse-verify -- \
    migrate examples/queries/factory_robots.sase examples/queries/factory_robots_v2.sase \
    --network examples/queries/factory.net
# … and the narrowed-window pair must be refused (nonzero exit).
if cargo run -q -p muse-verify --release --bin muse-verify -- \
    migrate examples/queries/factory_robots.sase examples/queries/factory_robots_v2_unsafe.sase \
    --network examples/queries/factory.net; then
    echo "ci.sh: migrate smoke: narrowed-window migration was certified" >&2
    exit 1
fi

echo "== loom: model-checked inject-clock handoff and drain barrier =="
RUSTFLAGS="--cfg loom" cargo test --release -p muse-runtime --test loom_handoff -q
# The threaded executor's `DrainBarrier`, built on the vendored loom's
# atomics in this configuration: every schedule of two threads through two
# rounds. That is 491 149 executions, so the bound is raised above loom's
# default of 100 000, which would end the exploration early.
LOOM_MAX_ITER=1000000 RUSTFLAGS="--cfg loom" cargo test --release -p muse-runtime --lib -q \
    drain_barrier_model_checked

echo "== release: driver-parity suites under optimized interleavings =="
cargo test --release -q -p muse-runtime \
    --test executor_parity --test fault_recovery --test provenance \
    --test shared_parity --test migration
cargo test --release -q --test end_to_end
# Crash recovery depends on thread interleaving too: muse-runtime's own
# test whose node threads crash and resume, and the snapshot codec's
# tests, which resume the threaded executor, so that the rollback's rewind
# runs under optimized interleavings; then the two crash tests of
# muse-bench's full-size transport and telemetry paths.
cargo test --release -q -p muse-runtime --lib -- \
    threaded::tests::crash_and_resume_keep_counting_local_events checkpoint::tests
cargo test --release -q -p muse-bench --lib -- \
    relay_crash_is_lossless_in_the_enlarged_chunk_regime \
    crashed_run_exports_the_rolled_back_account
# Set-up stays linear: multi-query planning and deployment in the number of
# queries, selectivity estimation in the number of events. A join input
# costs the same in a 1k- and a 64k-entry live window. Timing guards,
# meaningful only optimized, so they are ignored outside this lane.
cargo test --release -q -p muse-runtime --test setup_scale -- --ignored
cargo test --release -q -p muse-sim --test estimate_scale -- --ignored
cargo test --release -q -p muse-runtime --test store_scale -- --ignored

if [ "${MUSE_CI_TSAN:-0}" = "1" ]; then
    echo "== tsan: cargo +nightly test -Zsanitizer=thread (opt-in) =="
    if rustc +nightly --version >/dev/null 2>&1; then
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -p muse-runtime -q \
            -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')"
    else
        echo "MUSE_CI_TSAN=1 but no nightly toolchain installed" >&2
        exit 1
    fi
fi

if [ "${MUSE_CI_MIRI:-0}" = "1" ]; then
    echo "== miri: cargo +nightly miri test (opt-in) =="
    if cargo +nightly miri --version >/dev/null 2>&1; then
        cargo +nightly miri test -p muse-core -q
    else
        echo "MUSE_CI_MIRI=1 but no nightly miri installed" >&2
        exit 1
    fi
fi

echo "== bench/: the pinned benchmark builds, its tests pass, smoke run =="
cargo test --offline --manifest-path bench/Cargo.toml
bash bench/run.sh smoke
bash bench/run.sh --workload cluster --seed 1 --seconds 3 --trace 0 --out "$(mktemp -d)"
bash bench/run.sh --workload relay --seed 1 --seconds 3 --trace 0 --out "$(mktemp -d)"
bash bench/run.sh --workload multiquery --seed 1 --seconds 3 --trace 0 --out "$(mktemp -d)"
# The checkpointed relay at full size, traced: its simulator-vs-threaded
# digest, and `checkpoint::decode` / `encode` on the executor's own
# `final_snapshot`.
bash bench/run.sh --workload relay_ckpt --seed 1 --seconds 3 --trace 1 --out "$(mktemp -d)"

echo "== smoke: harness table3 with the telemetry export =="
cargo run -p muse-bench --release --bin harness -- table3 --quick --telemetry out

echo "== smoke: harness explain (witness-closure replay) =="
cargo run -p muse-bench --release --bin harness -- explain all --quick

echo "== clean tree: no lane wrote a tracked file =="
[ "$(tracked_changes)" = "$changes_at_start" ] || {
    echo "ci.sh: a lane modified tracked files:" >&2
    git status --short >&2
    exit 1
}

echo "ci.sh: all checks passed"
