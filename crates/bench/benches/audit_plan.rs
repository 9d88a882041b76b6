//! P7: compiled audit plans vs the string-resolving reference path.
//!
//! The plan compiles the policy once (symbol interning, pre-resolved
//! weights, precomputed lattice coverage) and audits every provider with
//! zero string hashing in the inner loop; the reference path re-resolves
//! attribute and purpose strings per `(provider, policy tuple)` pair. Both
//! legs are measured single-threaded at 100k providers — uniform and with
//! one ~100×-skewed provider — and every sample asserts the two reports
//! stay identical.
//!
//! Emit JSON with: `QPV_BENCH_JSON=BENCH_audit_plan.json \
//!     cargo bench -p qpv-bench --bench audit_plan`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qpv_synth::population::generate_stable;
use qpv_synth::Scenario;
use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};
use std::hint::black_box;

const N: usize = 100_000;

/// Blow up the middle provider's preference list to ~100× the average
/// (the healthcare spec states ~6 tuples per provider).
fn skew(profiles: &mut [qpv_core::ProviderProfile]) {
    let victim = profiles.len() / 2;
    for i in 0..600u32 {
        profiles[victim].preferences.add(
            "weight",
            PrivacyTuple::from_point(
                "care",
                PrivacyPoint::from_raw(1 + (i % 4), 2, 30 + (i % 60)),
            ),
        );
    }
}

fn bench_audit_plan(c: &mut Criterion) {
    let n = qpv_bench::bench_n(N);
    let scenario = Scenario::healthcare(64, 42); // spec donor
    let uniform = generate_stable(&scenario.spec, n, 42);
    let mut skewed_profiles = uniform.profiles.clone();
    skew(&mut skewed_profiles);
    let engine = scenario.engine();

    let mut group = c.benchmark_group("audit_plan");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    for (shape, profiles) in [("uniform", &uniform.profiles), ("skewed", &skewed_profiles)] {
        let expected = engine.run_reference(profiles).total_violations;
        group.bench_with_input(BenchmarkId::new("string", shape), profiles, |b, p| {
            b.iter(|| {
                let report = engine.run_reference(black_box(p));
                assert_eq!(report.total_violations, expected);
                black_box(report)
            });
        });
        group.bench_with_input(BenchmarkId::new("compiled", shape), profiles, |b, p| {
            b.iter(|| {
                let report = engine.run(black_box(p));
                assert_eq!(report.total_violations, expected);
                black_box(report)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_audit_plan);
criterion_main!(benches);
