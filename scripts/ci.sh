#!/usr/bin/env sh
# Tier-1 CI gate: release build, workspace test suite, lint gates (fmt,
# clippy, rustdoc), static verification of the example queries/plans, the
# loom concurrency lane, the pinned benchmark under bench/ (its own
# workspace: unit tests plus the
# smoke run, so a public-API removal cannot break BENCHMARK.json's command
# unnoticed), and smoke runs of the matcher join bench, the fault-recovery
# bench, the shared multi-query bench, and the observability bench (emitting
# BENCH_matcher.json, BENCH_faults.json, BENCH_multiquery.json,
# BENCH_observe.json, and BENCH_migrate.json at the repo root plus telemetry
# exports under out/). The fault smoke gates on the crashed run
# reproducing the uninterrupted run's match sets; the multiquery smoke
# gates on shared-plan evaluation reproducing independent per-query
# evaluation and on sublinear wall-time growth in the query count; the
# observe smoke gates on provenance-on/off match parity, witness-closure
# reproduction (including one `harness explain` invocation), near-zero
# cost-model drift on a stationary trace, and drift detection on a
# rate-shifted trace; the migrate lane (BENCH_migrate.json) gates on
# certified plan migrations restoring fingerprint-identical in both
# executors and on rejected migrations failing the restore, plus a
# `muse-verify migrate` smoke over the example query files (the certified
# pair must exit 0, the narrowed pair must be refused). Exits nonzero on
# the first failure.
#
# Opt-in slow lanes (need a nightly toolchain, skipped by default so the
# tier-1 gate stays fast):
#   MUSE_CI_TSAN=1  ./scripts/ci.sh   # ThreadSanitizer over muse-runtime
#   MUSE_CI_MIRI=1  ./scripts/ci.sh   # Miri over muse-core
set -eu

cd "$(dirname "$0")/.."

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

echo "== smoke: matcher join bench (with telemetry) =="
cargo run -p muse-bench --release --bin harness -- matcher --quick --out . --telemetry out

echo "== smoke: fault-recovery bench (with telemetry) =="
cargo run -p muse-bench --release --bin harness -- faults --quick --out . --telemetry out
grep -q '"fingerprints_equal": true' BENCH_faults.json || {
    echo "ci.sh: fault smoke: crash recovery lost or duplicated matches" >&2
    exit 1
}

echo "== smoke: live-migration bench =="
cargo run -p muse-bench --release --bin harness -- migrate --quick --out .
grep -q '"certified_identical": true' BENCH_migrate.json || {
    echo "ci.sh: migrate smoke: certified migration did not restore fingerprint-identical" >&2
    exit 1
}
grep -q '"widened_certified_with_replay": true' BENCH_migrate.json || {
    echo "ci.sh: migrate smoke: widened-window migration failed to certify or restore" >&2
    exit 1
}
grep -q '"rejected_fails": true' BENCH_migrate.json || {
    echo "ci.sh: migrate smoke: rejected migration did not fail the restore" >&2
    exit 1
}

echo "== smoke: shared multi-query bench (with telemetry) =="
cargo run -p muse-bench --release --bin harness -- multiquery --quick --out . --telemetry out
# Every sweep point and the top-level summary carry a fingerprints_equal
# flag; a single false means shared evaluation diverged from independent
# per-query evaluation.
if grep -q '"fingerprints_equal": false' BENCH_multiquery.json; then
    echo "ci.sh: multiquery smoke: shared and independent evaluation diverged" >&2
    exit 1
fi
grep -q '"fingerprints_equal": true' BENCH_multiquery.json || {
    echo "ci.sh: multiquery smoke: no fingerprint gate found in output" >&2
    exit 1
}
grep -q '"sublinear": true' BENCH_multiquery.json || {
    echo "ci.sh: multiquery smoke: wall time grew superlinearly in query count" >&2
    exit 1
}

echo "== smoke: observability bench (with telemetry) =="
cargo run -p muse-bench --release --bin harness -- observe --quick --out . --telemetry out
grep -q '"fingerprints_equal": true' BENCH_observe.json || {
    echo "ci.sh: observe smoke: provenance tracing perturbed the match sets" >&2
    exit 1
}
grep -q '"witnesses_reproduce": true' BENCH_observe.json || {
    echo "ci.sh: observe smoke: a witness replay failed to reproduce its match" >&2
    exit 1
}
grep -q '"stationary_ok": true' BENCH_observe.json || {
    echo "ci.sh: observe smoke: stationary workload drifted from the cost model" >&2
    exit 1
}
grep -q '"shifted_detected": true' BENCH_observe.json || {
    echo "ci.sh: observe smoke: 3x rate shift not flagged by the drift monitor" >&2
    exit 1
}
# Overhead gates (disabled < 5%, 1-in-64 sampling < 15%) are computed in
# the same run; surface them without failing CI on wall-clock noise alone
# unless the disabled path regressed.
grep -q '"disabled_ok": true' BENCH_observe.json || {
    echo "ci.sh: observe smoke: disabled provenance costs >= 5% on transport_stress" >&2
    exit 1
}
grep -q '"sampled_ok": true' BENCH_observe.json || {
    echo "ci.sh: observe smoke: 1-in-64 provenance sampling costs >= 15%" >&2
    exit 1
}

echo "== smoke: harness explain (witness-closure replay) =="
cargo run -p muse-bench --release --bin harness -- explain all --quick

echo "ci.sh: all checks passed"
