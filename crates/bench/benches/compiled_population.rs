//! P9: the compiled structure-of-arrays population.
//!
//! Three questions, all at 100k providers:
//!
//! 1. **One-pass cost** — one pass over a pre-built
//!    [`CompiledPopulation`], full-report and counts-only.
//! 2. **Build cost** — what compiling the population once actually costs,
//!    the denominator of every amortization claim.
//! 3. **K-policy amortization** — a what-if sweep over K candidate policies
//!    as K independent full audits versus one compile + one fused
//!    counts-only pass over all K (`audit_many_policies`, the Eq. 31 sweep
//!    shape: each unique row's preference lanes are filled once, and every
//!    policy is swept over them). The compiled leg re-builds the population
//!    inside the timed region, so the curve shows the build amortizing
//!    away as K grows.
//!
//! Every sample asserts its report/counts against the string-path oracle.
//!
//! Emit JSON with: `QPV_BENCH_JSON=BENCH_compiled_population.json \
//!     cargo bench -p qpv-bench --bench compiled_population`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qpv_core::CompiledPopulation;
use qpv_synth::population::generate_stable;
use qpv_synth::Scenario;
use std::hint::black_box;

const N: usize = 100_000;
const K_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn bench_one_pass(c: &mut Criterion) {
    let n = qpv_bench::bench_n(N);
    let scenario = Scenario::healthcare(64, 42); // spec donor
    let population = generate_stable(&scenario.spec, n, 42);
    let engine = scenario.engine();
    let pop = CompiledPopulation::from_profiles(&population.profiles);
    let oracle = engine.run_reference(&population.profiles);

    let mut group = c.benchmark_group("pop");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    // One pass over the pre-built population, full report.
    group.bench_function("compiled_full", |b| {
        b.iter(|| {
            let report = engine.audit_compiled(black_box(&pop));
            assert_eq!(report, oracle);
            black_box(report)
        });
    });
    // Counts-only fast path: zero heap per provider.
    group.bench_function("compiled_counts", |b| {
        b.iter(|| {
            let counts = engine.counts(black_box(&pop));
            assert_eq!(counts.total_violations, oracle.total_violations);
            black_box(counts)
        });
    });
    // The amortized-away cost: compiling the population itself.
    group.bench_function("build", |b| {
        b.iter(|| {
            black_box(CompiledPopulation::from_profiles(black_box(
                &population.profiles,
            )))
        });
    });
    group.finish();
}

fn bench_policy_sweep(c: &mut Criterion) {
    let n = qpv_bench::bench_n(N);
    let scenario = Scenario::healthcare(64, 42);
    let population = generate_stable(&scenario.spec, n, 42);
    let engine = scenario.engine();
    let policies: Vec<_> = (0..K_SWEEP[K_SWEEP.len() - 1] as u32)
        .map(|s| engine.policy.widened_uniform(s))
        .collect();
    let expected: Vec<u128> = policies
        .iter()
        .map(|p| {
            engine
                .run_with_policy(&population.profiles, p)
                .total_violations
        })
        .collect();

    let mut group = c.benchmark_group("whatif");
    group.sample_size(10);
    for k in K_SWEEP {
        // K independent full audits over raw profiles.
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, &k| {
            b.iter(|| {
                for (p, want) in policies[..k].iter().zip(&expected) {
                    let report = engine.run_with_policy(black_box(&population.profiles), p);
                    assert_eq!(report.total_violations, *want);
                    black_box(report);
                }
            });
        });
        // One population compile (inside the timed region) + one fused
        // counts-only pass over the K policies.
        group.bench_with_input(BenchmarkId::new("compiled", k), &k, |b, &k| {
            b.iter(|| {
                let pop = CompiledPopulation::from_profiles(black_box(&population.profiles));
                let outcomes = engine.audit_many_policies(&pop, &policies[..k]);
                for (o, want) in outcomes.iter().zip(&expected) {
                    assert_eq!(o.total_violations, *want);
                }
                black_box(outcomes)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_one_pass, bench_policy_sweep);
criterion_main!(benches);
