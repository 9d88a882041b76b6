#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order that fails
# fastest. Run from the repo root:
#
#   scripts/tier1.sh                # gate only (includes the bench smoke and
#                                   #   the end-to-end benchmark smoke)
#   scripts/tier1.sh --bench        # gate + bench JSONs
#   scripts/tier1.sh --faults       # gate + release-mode fault-injection suite
#                                   #   and every workspace test in release
#   scripts/tier1.sh --monitor      # gate + delta-log/monitor crash suites
#   scripts/tier1.sh --concurrency  # gate + delta-handoff exactly-once
#                                   #   property (release)
#   scripts/tier1.sh --packed       # scoring-kernel stage only (release
#                                   #   counts and witness equivalence
#                                   #   suites, kernel bench smokes, and
#                                   #   the economics tests)
#   scripts/tier1.sh --sql          # SQL / selective-audit stage only
#                                   #   (shadow + crash-torture + Ppdb-level
#                                   #   suites in release, selective bench
#                                   #   smoke)
#   scripts/tier1.sh --live-index   # live-index stage only (release
#                                   #   equivalence/handoff/recovery suite +
#                                   #   live-index bench smoke)
#   scripts/tier1.sh --bench-smoke  # bench smoke stage only
#
# Besides fmt, clippy and the root package's tests, the default gate
# builds the docs with warnings as errors (a broken intra-doc link
# fails) and runs every workspace crate's tests in debug mode.
#
# The default gate also re-runs, in release mode, the row-decoder
# properties and the reldb value-order and predicate properties (exact
# Int/Float order, LIKE against a reference matcher), next to the
# compiled-plan, population and delta equivalence suites.
#
# The bench step writes BENCH_audit_plan.json,
# BENCH_compiled_population.json, BENCH_delta_log.json,
# BENCH_packed_population.json, BENCH_selective_audit.json, and
# BENCH_live_index.json at the repo root (median/mean ns plus host
# metadata; see crates/bench/benches/). It is the only stage that writes
# repo-root BENCH_*.json files.
#
# The bench smoke runs every bench binary at tiny population sizes
# (QPV_BENCH_SMOKE=1, see qpv_bench::bench_n) purely as a correctness
# check: each sample asserts its reports against the oracle, so a broken
# fast path fails here in seconds without waiting on full-size benches.
#
# The end-to-end benchmark (BENCHMARK.json, crates/bench/src/bin/benchmark)
# is its own package: the gate runs its unit tests and one smoke-sized run
# of every workload. Each workload checks its answers against an oracle
# outside the timed ops — churn_monitor's Monitor P(W)/P(Default) against
# Ppdb::audit(), recovery's restarted monitor against the pre-crash seq and
# P(W) — and exits non-zero on any mismatch.
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

bench_smoke() {
    echo "== bench smoke (tiny populations, oracle-asserted) =="
    QPV_BENCH_SMOKE=1 cargo bench -p qpv-bench
}

if [[ "${1:-}" == "--bench-smoke" ]]; then
    bench_smoke
    echo "tier-1 bench smoke: OK"
    exit 0
fi

if [[ "${1:-}" == "--packed" ]]; then
    # Targeted gate for the scoring kernel (crates/core/src/packed.rs),
    # the one compiled evaluator of Def. 1 + Eq. 15: it produces both the
    # counts and the witnesses, so this stage gates both. The equivalence
    # suites pin its counts / sweep / delta paths and its per-provider
    # reports (batch, live index) byte-identical to
    # `run_reference` under the release optimizer; the bench smokes assert
    # every sample against the string-path oracle — the packed counts
    # bench, the K-policy sweep (every total against the naive per-policy
    # path), the full-report audit bench and the selective audit bench.
    # The economics tests drive the Eq. 31 sweep through the kernel.
    echo "== packed: population equivalence (release) =="
    cargo test -q --release -p qpv-core --test pop_equivalence
    echo "== packed: delta equivalence (release) =="
    cargo test -q --release -p qpv-core --test delta_equivalence
    echo "== packed: plan equivalence, witnesses (release) =="
    cargo test -q --release -p qpv-core --test plan_equivalence
    echo "== packed: live-index equivalence, witnesses (release) =="
    cargo test -q --release -p qpv-core --test live_index_equivalence
    echo "== packed: bench smoke (oracle-asserted) =="
    QPV_BENCH_SMOKE=1 cargo bench -p qpv-bench --bench packed_population
    echo "== packed: K-policy sweep bench smoke (oracle-asserted) =="
    QPV_BENCH_SMOKE=1 cargo bench -p qpv-bench --bench compiled_population
    echo "== packed: full-report audit bench smoke (oracle-asserted) =="
    QPV_BENCH_SMOKE=1 cargo bench -p qpv-bench --bench audit_plan
    echo "== packed: selective audit bench smoke (oracle-asserted) =="
    QPV_BENCH_SMOKE=1 cargo bench -p qpv-bench --bench selective_audit
    echo "== packed: economics (release) =="
    cargo test -q --release -p qpv-economics
    echo "tier-1 packed: OK"
    exit 0
fi

if [[ "${1:-}" == "--sql" ]]; then
    # The PR 9 gate: audits as queries. The SQL shadow-model properties
    # (composite indexes, drop/recreate id monotonicity, the
    # `_qpv_violations` relation and `VIOLATES` against a rule-based
    # bridge oracle), the crash-torture matrix with its post-recovery
    # index-coherence probes, and the Ppdb-level end-to-end suite
    # (SQL results vs the `audit()` report across live writes), all
    # under the release optimizer, plus the selective bench in smoke
    # mode (every sample byte-asserted against the full-sweep oracle).
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
    echo "== sql: selective audit bench smoke (oracle-asserted) =="
    QPV_BENCH_SMOKE=1 cargo bench -p qpv-bench --bench selective_audit
    echo "tier-1 sql: OK"
    exit 0
fi

if [[ "${1:-}" == "--live-index" ]]; then
    # The PR 10 gate: the incrementally-maintained violation index. The
    # release-mode property suite pins the maintained index byte-identical
    # to a fresh compile + `run_reference` audit under random synthetic
    # churn, across a two-thread delta handoff, and at every crash point
    # of a delta-log recovery, plus the snapshot-cache regression test and
    # the live-index bench in smoke mode (every sample asserted against
    # the full-sweep oracle, planner crossover shape included).
    LIVE_BUDGET="${QPV_LIVE_BUDGET:-300}"
    echo "== live-index: equivalence / handoff / recovery (release, ${LIVE_BUDGET}s budget) =="
    RUST_BACKTRACE=1 timeout "$LIVE_BUDGET" \
        cargo test -q --release -p qpv-core --test live_index_equivalence
    echo "== live-index: bench smoke (oracle-asserted) =="
    QPV_BENCH_SMOKE=1 cargo bench -p qpv-bench --bench live_index
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
# optimization level the benches and production builds use.
cargo test -q --release -p qpv-core --test plan_equivalence

echo "== population equivalence (release) =="
# Same contract for the compiled structure-of-arrays population: one
# compile, full-report/counts/multi-policy passes all byte-identical to
# the string-path oracle.
cargo test -q --release -p qpv-core --test pop_equivalence

echo "== row decoding (release) =="
# The borrowed decoder the population scans run on must accept, decode,
# and reject exactly what the owned decoder does, garbage and truncated
# rows included, under the optimizer that builds the scan path.
cargo test -q --release -p qpv-reldb encoding

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

bench_smoke

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

if [[ "${1:-}" == "--concurrency" ]]; then
    # The one concurrent path left: a consumer thread peeking and acking
    # the Ppdb's delta queue while the writer keeps pushing. The
    # exactly-once handoff property runs under the release optimizer
    # (real-thread stress only races usefully with optimized codegen);
    # its invariants are schedule-independent. The budget catches
    # deadlocks, not slowness.
    CONC_BUDGET="${QPV_CONC_BUDGET:-300}"
    echo "== concurrency: delta handoff exactly-once property (release, ${CONC_BUDGET}s budget) =="
    RUST_BACKTRACE=1 timeout "$CONC_BUDGET" \
        cargo test -q --release -p qpv-core --test concurrent_handoff
    echo "tier-1 concurrency: OK"
    exit 0
fi

if [[ "${1:-}" == "--bench" ]]; then
    echo "== audit plan bench =="
    QPV_BENCH_FULL=1 QPV_BENCH_JSON="$PWD/BENCH_audit_plan.json" \
        cargo bench -p qpv-bench --bench audit_plan
    echo "== compiled population bench =="
    QPV_BENCH_FULL=1 QPV_BENCH_JSON="$PWD/BENCH_compiled_population.json" \
        cargo bench -p qpv-bench --bench compiled_population
    echo "== delta log bench =="
    QPV_BENCH_FULL=1 QPV_BENCH_JSON="$PWD/BENCH_delta_log.json" \
        cargo bench -p qpv-bench --bench delta_log
    echo "== packed population bench (10M providers) =="
    QPV_BENCH_FULL=1 QPV_BENCH_JSON="$PWD/BENCH_packed_population.json" \
        cargo bench -p qpv-bench --bench packed_population
    echo "== selective audit bench (100k providers) =="
    QPV_BENCH_FULL=1 QPV_BENCH_JSON="$PWD/BENCH_selective_audit.json" \
        cargo bench -p qpv-bench --bench selective_audit
    echo "== live index bench (100k providers) =="
    QPV_BENCH_FULL=1 QPV_BENCH_JSON="$PWD/BENCH_live_index.json" \
        cargo bench -p qpv-bench --bench live_index
fi

echo "tier-1: OK"
