//! Experiment E3: the §9 policy-expansion analysis (Equations 25–31).
//!
//! §9 derives, for a house considering widening its policy:
//!
//! * `Utility_current = N·U` (Eq. 25), `N_future = N − Σ default_i`
//!   (Eq. 26), `Utility_future = N_future·(U + T)` (Eq. 27);
//! * the justification condition `Utility_future > Utility_current`
//!   (Eq. 28) and its closed form `T > U (N_current/N_future − 1)`
//!   (Eq. 31).
//!
//! The paper derives the formulas but reports no numbers (no dataset); this
//! experiment instantiates them on a 1,000-provider Westin-mix healthcare
//! population, conditioned — per §9's premise — on providers compatible
//! with the current policy. The paper's qualitative claims are checked
//! mechanically:
//!
//! 1. defaults accumulate monotonically with widening;
//! 2. per-row `T_min` equals Eq. 31 exactly;
//! 3. the house's net gain peaks at an *interior* widening — "the house is
//!    strictly limited in how much it can expand its privacy policies and
//!    economically benefit".
//!
//! Run with: `cargo run -p qpv-bench --bin exp_policy_expansion`

use qpv_bench::{check, exit_on_diff, write_result};
use qpv_core::ProviderProfile;
use qpv_economics::expansion::render_table;
use qpv_economics::{ExpansionSweep, UtilityModel};
use qpv_synth::Scenario;

fn main() {
    println!("== E3: policy expansion economics (paper §9) ==\n");
    let scenario = Scenario::healthcare(1_000, 11);
    let engine = scenario.engine();

    // §9 premise: no provider has defaulted under the current policy.
    let baseline = engine.run(&scenario.population.profiles);
    let current: Vec<ProviderProfile> = scenario
        .population
        .profiles
        .iter()
        .zip(baseline.providers.iter())
        .filter(|(_, a)| !a.defaulted)
        .map(|(p, _)| p.clone())
        .collect();
    println!(
        "population: {} generated, {} compatible with the current policy",
        scenario.population.len(),
        current.len()
    );

    let utility = UtilityModel::new(scenario.utility_per_provider);
    let t_per_step = scenario.utility_per_provider * 0.15;
    let sweep = ExpansionSweep::new(&engine, &current, utility, t_per_step);
    let rows = sweep.run_uniform(&scenario.baseline_policy, 10);

    println!(
        "\nU = {} per provider, T(s) = {:.1}·s\n",
        scenario.utility_per_provider, t_per_step
    );
    print!("{}", render_table(&rows));

    // Claim checks.
    check("baseline defaults (§9 premise)", 0, rows[0].defaults);
    let monotone = rows
        .windows(2)
        .all(|w| w[1].defaults >= w[0].defaults && w[1].total_violations >= w[0].total_violations);
    check("defaults & violations monotone in widening", true, monotone);
    let t_min_ok = rows.iter().all(|r| {
        let expected = utility.break_even_extra(current.len(), r.n_future);
        (r.t_min - expected).abs() < 1e-9 || (r.t_min.is_infinite() && expected.is_infinite())
    });
    check("per-row T_min equals Eq. 31", true, t_min_ok);
    let best = ExpansionSweep::optimal_step(&rows).expect("non-empty");
    check(
        "interior optimum exists (0 < s* < max)",
        true,
        best.step > 0 && best.step < 10 && best.net_gain > 0.0,
    );
    check(
        "maximal widening is detrimental (net gain < 0)",
        true,
        rows.last().unwrap().net_gain < 0.0,
    );
    println!(
        "\nhouse optimum: widen +{} with net gain {:+.1}; at +10, {} of {} providers default",
        best.step,
        best.net_gain,
        rows.last().unwrap().defaults,
        current.len()
    );

    let path = write_result("exp_policy_expansion", &rows);
    println!("result JSON: {}", path.display());
    exit_on_diff();
}
