#!/usr/bin/env sh
# Tier-1 CI gate: release build, workspace test suite, lint gates (fmt,
# clippy, rustdoc), static verification of the example queries/plans and a
# `muse-verify migrate` smoke over them (the certified pair must exit 0,
# the narrowed pair must be refused — no test runs the binary), the loom
# concurrency lane, the driver-parity suites once more in the release
# profile (thread interleavings there are the ones bench/ measures, far
# less tame than the dev profile's), the pinned benchmark under bench/
# (its own workspace: unit tests plus the smoke run, so a public-API
# removal cannot break BENCHMARK.json's command unnoticed; then one short
# full-size `cluster` run for its exit code — pins, and the case study's
# reference matches against simulator and `Evaluator` — one of `relay`,
# 60 850 matches through a receiver that works while parked at the barrier,
# and one of `multiquery`, whose pins and threaded-vs-simulator digest no
# other lane exercises at full size),
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

echo "== lint: cargo doc (intra-doc links of the library crates) =="
# Every library crate denies rustdoc::broken_intra_doc_links, which only
# rustdoc evaluates: without this lane a deleted public type leaves its
# [`links`] dangling unnoticed.
cargo doc --offline --workspace --no-deps

echo "== verify: muse-verify over examples/queries =="
cargo run -q -p muse-verify --release --bin muse-verify -- \
    query examples/queries/*.sase
cargo run -q -p muse-verify --release --bin muse-verify -- \
    plan examples/queries/factory_robots.sase --network examples/queries/factory.net

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

echo "== loom: model-checked worker/watermark handoff =="
RUSTFLAGS="--cfg loom" cargo test --release -p muse-runtime --test loom_handoff -q

echo "== release: driver-parity suites under optimized interleavings =="
cargo test --release -q -p muse-runtime \
    --test executor_parity --test fault_recovery --test provenance
cargo test --release -q --test end_to_end

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
