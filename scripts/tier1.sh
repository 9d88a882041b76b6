#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order that fails
# fastest. Run from the repo root:
#
#   scripts/tier1.sh                # gate only (includes the end-to-end
#                                   #   benchmark's tests and smoke run)
#   scripts/tier1.sh --faults       # gate + release-mode fault-injection suite
#                                   #   and every workspace test in release
#   scripts/tier1.sh --monitor      # gate + delta-log/monitor crash suites
#   scripts/tier1.sh --sql          # SQL / selective-audit stage only
#                                   #   (shadow + crash-torture + Ppdb-level
#                                   #   suites in release)
#   scripts/tier1.sh --live-index   # live-index stage only (release
#                                   #   equivalence/handoff/recovery suite)
#
# Besides fmt, clippy and the root package's tests, the default gate
# builds the docs with warnings as errors (a broken intra-doc link
# fails) and runs every workspace crate's tests in debug mode.
#
# The default gate also re-runs, in release mode, the row-decoder
# properties, the population snapshot codec's mutation property and the
# reldb value-order and predicate properties (exact Int/Float order, LIKE
# against a reference matcher), next to the compiled-plan, population and
# delta equivalence suites.
#
# The end-to-end benchmark (BENCHMARK.json, crates/bench/src/bin/benchmark)
# is the repository's one timing harness and its own package: the gate
# runs its unit tests and one smoke-sized run of every workload. Each
# workload checks its answers against an oracle outside the timed ops —
# churn_monitor's Monitor P(W)/P(Default) against Ppdb::audit(),
# recovery's restarted monitor against the pre-crash seq and P(W) — and
# exits non-zero on any mismatch.
#
# The fault step re-runs the crash-torture matrix (crash-stop/torn-write at
# every I/O op index) and the WAL bit/byte-flip corruption properties under
# the release optimizer. Both suites are clock-free and seed-pinned (the
# torture seeds are the op indices themselves; the vendored proptest
# derives its RNG from the test name), so a failure here reproduces
# byte-for-byte on any machine. Any panic fails the stage, and backtraces
# are captured.
set -euo pipefail
cd "$(dirname "$0")/.."

USAGE="usage: scripts/tier1.sh [--faults | --monitor | --sql | --live-index]"
case "${1:-}" in
    "" | --faults | --monitor | --sql | --live-index) ;;
    *)
        # A mode that does not exist (a deleted one such as --bench, or a
        # typo such as --fault) must not quietly run the default gate.
        echo "tier1.sh: unknown argument '$1'" >&2
        echo "$USAGE" >&2
        exit 2
        ;;
esac
if [[ $# -gt 1 ]]; then
    echo "tier1.sh: one mode at a time" >&2
    echo "$USAGE" >&2
    exit 2
fi

if [[ "${1:-}" == "--sql" ]]; then
    # Audits as queries. The SQL shadow-model properties
    # (composite indexes, drop/recreate id monotonicity, the
    # `_qpv_violations` relation and `VIOLATES` against a rule-based
    # bridge oracle), the crash-torture matrix with its post-recovery
    # index-coherence probes, and the Ppdb-level end-to-end suite
    # (SQL results vs the `audit()` report across live writes), all
    # under the release optimizer.
    SQL_BUDGET="${QPV_SQL_BUDGET:-300}"
    echo "== sql: shadow-model properties (release, ${SQL_BUDGET}s budget) =="
    RUST_BACKTRACE=1 timeout "$SQL_BUDGET" \
        cargo test -q --release -p qpv-reldb --test sql_shadow
    echo "== sql: crash torture with index-coherence probes (release) =="
    RUST_BACKTRACE=1 timeout "$SQL_BUDGET" \
        cargo test -q --release -p qpv-reldb --test torture -- --nocapture
    echo "== sql: Ppdb audit queries end-to-end (release) =="
    RUST_BACKTRACE=1 timeout "$SQL_BUDGET" \
        cargo test -q --release -p qpv-core --test sql_audit_queries
    echo "tier-1 sql: OK"
    exit 0
fi

if [[ "${1:-}" == "--live-index" ]]; then
    # The incrementally-maintained violation index. The
    # release-mode property suite pins the maintained index byte-identical
    # to a fresh compile + `run_reference` audit under random synthetic
    # churn, when maintained op by op from a Ppdb's write stream, and at
    # every crash point of a delta-log recovery, plus the snapshot-cache
    # regression test.
    LIVE_BUDGET="${QPV_LIVE_BUDGET:-300}"
    echo "== live-index: equivalence / handoff / recovery (release, ${LIVE_BUDGET}s budget) =="
    RUST_BACKTRACE=1 timeout "$LIVE_BUDGET" \
        cargo test -q --release -p qpv-core --test live_index_equivalence
    echo "tier-1 live-index: OK"
    exit 0
fi

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (broken intra-doc links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== workspace tests (every crate's unit and integration tests) =="
# `cargo test -q` above runs only the root package; the crates' own suites
# (the reldb B+tree, WAL and automatic-checkpoint tests, the crash-torture
# matrix in debug, the core equivalence suites) run here.
cargo test -q --workspace

echo "== plan equivalence (release) =="
# The compiled-plan == string-path contract, re-checked under the exact
# optimization level the benchmark and production builds use.
cargo test -q --release -p qpv-core --test plan_equivalence

echo "== population equivalence (release) =="
# Same contract for the compiled structure-of-arrays population: one
# compile, full-report/counts/multi-policy passes all byte-identical to
# the string-path oracle.
cargo test -q --release -p qpv-core --test pop_equivalence

echo "== row decoding (release) =="
# The index-walking row decoder behind both the borrowed scans and the
# owned rows must accept, decode, and reject exactly what the test-only
# `Buf`-based oracle does, with the same error text, under the optimizer
# that builds the scan path: the differential property over mutated valid
# encodings (column count 0, 1, u64::MAX and 2^k, truncation, extension,
# spliced fields), garbage, flipped bytes, and every varint edge.
cargo test -q --release -p qpv-reldb encoding

echo "== population snapshot codec (release) =="
# The delta log's population snapshot decoder must turn every mutant of a
# valid payload (counts and lengths set to 0, 1, u64::MAX and 2^k, every
# truncation, extension, fields spliced from another snapshot, byte and
# word overwrites) into `Corruption` or a population that validates,
# audits and takes deltas, under the optimizer that builds recovery, where
# arithmetic wraps instead of trapping.
cargo test -q --release -p qpv-core --lib pop::tests::snapshot

echo "== value order and predicates (release) =="
# The total order B+tree keys and ORDER BY rely on (exact Int/Float
# comparison, the Ord laws over mixed numerics, Hash agreeing with Eq)
# and the borrowed predicate evaluator the SQL filters run on (LIKE
# against a reference matcher, NULL and type-error results), under the
# optimizer that builds the query path. Two libtest filters, so they go
# after `--`.
cargo test -q --release -p qpv-reldb --lib -- value expr

echo "== delta equivalence (release) =="
# The incremental contract: random delta sequences applied in place (to
# the compiled population and to the live index) land byte-identically on
# a fresh compile+audit of the mutated profiles, flat and lattice.
cargo test -q --release -p qpv-core --test delta_equivalence

echo "== delta handoff (release) =="
# The Ppdb's peek/ack protocol: a consumer that crashes between any two
# steps, or drains at any interval, applies every delta exactly once.
cargo test -q --release -p qpv-core --test delta_handoff

echo "== end-to-end benchmark: unit tests + smoke run of every workload =="
BENCH_MANIFEST=crates/bench/src/bin/benchmark/Cargo.toml
cargo test -q --manifest-path "$BENCH_MANIFEST"
cargo run -q --release --offline --manifest-path "$BENCH_MANIFEST" -- --workload all --smoke

if [[ "${1:-}" == "--faults" ]]; then
    # Wall-clock budget: the whole fault stage must finish inside this
    # many seconds (the matrix is ~2 s in release; the cap catches
    # recovery livelocks, not slowness).
    FAULT_BUDGET="${QPV_FAULT_BUDGET:-300}"
    echo "== fault injection: crash torture matrix (release, ${FAULT_BUDGET}s budget) =="
    RUST_BACKTRACE=1 timeout "$FAULT_BUDGET" \
        cargo test -q --release -p qpv-reldb --test torture -- --nocapture
    echo "== fault injection: WAL corruption properties (release) =="
    RUST_BACKTRACE=1 timeout "$FAULT_BUDGET" \
        cargo test -q --release -p qpv-reldb --test wal_corruption
    echo "== workspace tests (release) =="
    # Every suite again under the release optimizer, so a failure that
    # only shows in optimized builds cannot hide behind the debug run.
    RUST_BACKTRACE=1 cargo test -q --release --workspace
fi

if [[ "${1:-}" == "--monitor" ]]; then
    # Same shape as --faults, aimed at the continuous-monitoring stack:
    # the delta-log torture matrix (crash-stop/torn-write at every
    # delta-log I/O op index, plus flaky-medium retries) and the
    # kill-and-recover monitor suite under synthetic churn. Both are
    # clock-free and seed-pinned like the reldb matrix.
    MONITOR_BUDGET="${QPV_MONITOR_BUDGET:-300}"
    echo "== monitor: delta-log crash torture matrix (release, ${MONITOR_BUDGET}s budget) =="
    RUST_BACKTRACE=1 timeout "$MONITOR_BUDGET" \
        cargo test -q --release -p qpv-core --test deltalog_torture -- --nocapture
    echo "== monitor: kill-and-recover under churn (release) =="
    RUST_BACKTRACE=1 timeout "$MONITOR_BUDGET" \
        cargo test -q --release --test monitor_recovery
fi

echo "tier-1: OK"
