//! P12: the packed-lane, row-deduplicated population at millions scale.
//!
//! Three questions about the PR 7 layout, on a segment-clustered
//! healthcare population (preference/sensitivity content drawn from a
//! small template pool per Westin segment, thresholds individual — the
//! shape `qpv_synth::stream_clustered` models):
//!
//! 1. **Memory** — streaming-compile 10M providers straight off the
//!    generator iterator (no profile `Vec` is ever held) and report
//!    resident bytes/provider, the unique-row dedup ratio, and build
//!    throughput as JSON metrics. Acceptance: < 64 bytes/provider.
//! 2. **Counts throughput** — the branch-free packed counts pass over
//!    10M providers (each unique row scored once, aggregated by
//!    multiplicity; each provider's threshold is then compared with its
//!    unique row's score).
//! 3. **K-policy sweep** — `audit_many_policies` at 10M, the Eq. 31
//!    what-if shape: one call prices all 8 policies, filling each unique
//!    row once and reading each threshold from memory once.
//!
//! Correctness: in smoke mode the whole (small) population is pinned
//! against `run_reference`; at full size a 100k-provider prefix of the
//! same stream is pinned against `run_reference`, and every timed sample
//! re-asserts its aggregates against the precomputed outcome.
//!
//! Emit JSON with: `QPV_BENCH_JSON=BENCH_packed_population.json \
//!     cargo bench -p qpv-bench --bench packed_population`

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qpv_core::{CompiledPopulation, PopulationBuilder, ProviderProfile};
use qpv_synth::population::stream_clustered;
use qpv_synth::Scenario;
use std::hint::black_box;

const N: usize = 10_000_000;
const TEMPLATES_PER_SEGMENT: usize = 32; // ≤ 96 unique rows at any scale
const SEED: u64 = 42;
const K_POLICIES: usize = 8;

fn smoke() -> bool {
    std::env::var("QPV_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn bench_packed_population(c: &mut Criterion) {
    let n = qpv_bench::bench_n(N);
    let scenario = Scenario::healthcare(64, SEED); // spec donor
    let spec = &scenario.spec;
    let engine = scenario.engine();

    // Streaming build: generator iterator → builder, one profile at a
    // time. Timed manually (a bencher loop would re-run the 10M build
    // per sample); throughput and layout metrics land in the JSON.
    let start = Instant::now();
    let mut builder = PopulationBuilder::new();
    for p in stream_clustered(spec, n, SEED, TEMPLATES_PER_SEGMENT) {
        builder.push_profile(&p);
    }
    let pop = builder.finish();
    let build = start.elapsed().as_secs_f64();
    let bytes_per_provider = pop.resident_bytes() as f64 / pop.len().max(1) as f64;
    c.record_metric("pop/packed_10m/providers", n as f64, "providers");
    c.record_metric("pop/packed_10m/build_seconds", build, "s");
    c.record_metric(
        "pop/packed_10m/build_throughput",
        n as f64 / build.max(1e-9),
        "providers/s",
    );
    c.record_metric(
        "pop/packed_10m/bytes_per_provider",
        bytes_per_provider,
        "bytes",
    );
    c.record_metric("pop/packed_10m/dedup_ratio", pop.dedup_ratio(), "x");
    c.record_metric(
        "pop/packed_10m/unique_rows",
        pop.unique_row_count() as f64,
        "rows",
    );
    if !smoke() {
        // The acceptance bar. At smoke sizes the fixed table overhead
        // dominates and the ratio is meaningless, so only assert at scale.
        assert!(
            bytes_per_provider < 64.0,
            "{bytes_per_provider:.1} bytes/provider ≥ 64"
        );
        assert!(pop.dedup_ratio() > 1000.0, "clustered population dedups");
    }

    // Oracle: the string-path reference over the stream prefix (the
    // whole stream in smoke mode). The packed pass must reproduce its
    // aggregates exactly.
    let oracle_n = if smoke() { n } else { 100_000.min(n) };
    let prefix: Vec<ProviderProfile> =
        stream_clustered(spec, oracle_n, SEED, TEMPLATES_PER_SEGMENT).collect();
    let reference = engine.run_reference(&prefix);
    let prefix_pop = CompiledPopulation::from_profiles(&prefix);
    let prefix_counts = engine.counts(&prefix_pop);
    assert_eq!(prefix_counts.total_violations, reference.total_violations);
    assert_eq!(
        prefix_counts.violated,
        reference.providers.iter().filter(|p| p.violated).count()
    );
    assert_eq!(
        prefix_counts.defaulted,
        reference.providers.iter().filter(|p| p.defaulted).count()
    );
    drop(prefix);
    drop(prefix_pop);

    // Per-sample oracle for the full-size passes.
    let expected = engine.counts(&pop);
    let policies: Vec<_> = (0..K_POLICIES as u32)
        .map(|s| engine.policy.widened_uniform(s))
        .collect();
    let expected_sweep = engine.audit_many_policies(&pop, &policies);

    let mut group = c.benchmark_group("pop/packed_10m");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("counts", |b| {
        b.iter(|| {
            let counts = engine.counts(black_box(&pop));
            assert_eq!(counts, expected);
            black_box(counts)
        });
    });
    group.bench_function(format!("sweep_k{K_POLICIES}"), |b| {
        b.iter(|| {
            let outcomes = engine.audit_many_policies(black_box(&pop), &policies);
            assert_eq!(outcomes, expected_sweep);
            black_box(outcomes)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_packed_population);
criterion_main!(benches);
