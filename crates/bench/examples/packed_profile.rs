//! Quick-turnaround profiling driver for the packed counts pass: the
//! same 100k healthcare population as `benches/compiled_population.rs`,
//! timed best-of-30 in-process. On a noisy shared host the best-of
//! minimum is a far steadier signal for kernel iteration than
//! Criterion's medians across separate runs (observed ±40% run-to-run):
//!
//! ```text
//! cargo run --release -p qpv-bench --example packed_profile
//! ```
use std::time::Instant;

use qpv_core::CompiledPopulation;
use qpv_synth::population::generate_stable;
use qpv_synth::Scenario;

fn main() {
    let n = 100_000;
    let scenario = Scenario::healthcare(64, 42);
    let population = generate_stable(&scenario.spec, n, 42);
    let engine = scenario.engine();
    let pop = CompiledPopulation::from_profiles(&population.profiles);
    println!(
        "unique rows: {} / {}  (dedup {:.2}x)",
        pop.unique_row_count(),
        pop.len(),
        pop.dedup_ratio()
    );
    let total_prefs: usize = population
        .profiles
        .iter()
        .map(|p| p.preferences.len())
        .sum();
    println!(
        "avg prefs/provider: {:.2}  policy tuples: {}",
        total_prefs as f64 / n as f64,
        engine.policy.len()
    );
    let expected = engine.counts(&pop);
    let mut best = f64::MAX;
    for _ in 0..30 {
        let t = Instant::now();
        let c = engine.counts(&pop);
        let dt = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(c, expected);
        if dt < best {
            best = dt;
        }
    }
    println!("counts best: {best:.3} ms");
}
