//! `policy_whatif`: pricing a policy expansion with Eq. 31. One op is a
//! uniform-widening sweep, `ExpansionSweep::run_uniform(base, 7)` plus
//! `optimal_step`, over a population compiled once from the profiles: the
//! counts kernel does the work and storage does none. Every provider
//! states its own rows, so deduplication finds nothing to share.

use std::time::Instant;

use qpv_core::{census_fraction, AuditEngine, CompiledPopulation};
use qpv_economics::{ExpansionRow, ExpansionSweep, UtilityModel};
use qpv_policy::HousePolicy;
use qpv_synth::Scenario;

use super::{setup_repeated, Outcome, RunConfig};
use crate::trace::{LayerTotals, Tracer};

const N: usize = 100_000;
const SMOKE_N: usize = 2_000;
const STEPS: u32 = 7;
const WARMUP: usize = 2;
/// Extra utility per provider unlocked per widening step, as a share of
/// the base utility (the setting `exp_policy_expansion` uses).
const T_SHARE: f64 = 0.15;

/// What `run_reference` says one widening step should tabulate.
struct Expected {
    total_violations: u128,
    violated: usize,
    defaulted: usize,
    population: usize,
}

fn check(
    rows: &[ExpansionRow],
    best: Option<&ExpansionRow>,
    expected: &[Expected],
    best_step: u32,
) {
    assert_eq!(rows.len(), expected.len(), "policy_whatif: wrong row count");
    for (row, e) in rows.iter().zip(expected) {
        let ok = row.total_violations == e.total_violations
            && row.defaults == e.defaulted
            && row.n_future == e.population - e.defaulted
            && row.p_violation == census_fraction(e.violated, e.population)
            && row.p_default == census_fraction(e.defaulted, e.population);
        assert!(
            ok,
            "policy_whatif: step {} disagrees with run_reference: {row:?}",
            row.step
        );
    }
    assert_eq!(
        best.map(|r| r.step),
        Some(best_step),
        "policy_whatif: optimal_step disagrees with the oracle"
    );
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let n = cfg.size(N, SMOKE_N);
    let scenario = Scenario::healthcare(n, cfg.seed);
    let profiles = &scenario.population.profiles;
    let engine = scenario.engine();
    let base = &scenario.baseline_policy;
    let policies: Vec<HousePolicy> = (0..=STEPS).map(|s| base.widened_uniform(s)).collect();
    let utility = UtilityModel::new(scenario.utility_per_provider);
    let t_per_step = scenario.utility_per_provider * T_SHARE;

    // Oracle: the string-path reference audit of every widened policy,
    // and the step with the highest net gain (ties to the later step).
    let expected: Vec<Expected> = policies
        .iter()
        .map(|p| {
            let r = AuditEngine::new(
                p.clone(),
                scenario.spec.attribute_names(),
                scenario.spec.attribute_weights(),
            )
            .run_reference(profiles);
            Expected {
                total_violations: r.total_violations,
                violated: r.providers.iter().filter(|a| a.violated).count(),
                defaulted: r.providers.iter().filter(|a| a.defaulted).count(),
                population: r.population(),
            }
        })
        .collect();
    let mut best_step = 0;
    let mut best_gain = f64::NEG_INFINITY;
    for (s, e) in expected.iter().enumerate() {
        let gain = utility.utility_future(e.population - e.defaulted, t_per_step * s as f64)
            - utility.utility_current(e.population);
        if gain >= best_gain {
            (best_step, best_gain) = (s as u32, gain);
        }
    }

    let mut out = Outcome::default();
    let sweep = setup_repeated(&mut out, || {
        ExpansionSweep::new(&engine, profiles, utility, t_per_step)
    });
    // The sweep keeps its population private; the probes audit a copy.
    let probe_pop = tr
        .enabled()
        .then(|| CompiledPopulation::from_profiles(profiles));

    for _ in 0..WARMUP {
        let rows = sweep.run_uniform(base, STEPS);
        check(
            &rows,
            ExpansionSweep::optimal_step(&rows),
            &expected,
            best_step,
        );
    }

    let deadline = cfg.deadline();
    loop {
        let ((rows, best), ms) = tr.op(|tr| {
            let rows = tr.span("economics.expansion.run_uniform", || {
                sweep.run_uniform(base, STEPS)
            });
            let best = tr.span("economics.expansion.optimal_step", || {
                ExpansionSweep::optimal_step(&rows).cloned()
            });
            (rows, best)
        });
        out.op_ms.push(ms);
        check(&rows, best.as_ref(), &expected, best_step);
        if let Some(pop) = &probe_pop {
            tr.probe("core.pop.audit_many_policies", || {
                engine.audit_many_policies(pop, &policies)
            });
            tr.probe("core.packed.counts_with_policy", || {
                policies
                    .iter()
                    .map(|p| engine.counts_with_policy(pop, p).total_violations)
                    .sum::<u128>()
            });
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    if let Some(pop) = &probe_pop {
        let t = LayerTotals::from_spans(tr.spans());
        out.layer = vec![
            (
                "economics.expansion.rows_self_pct",
                t.share_pct("economics.expansion.run_uniform")
                    - t.share_pct("core.pop.audit_many_policies"),
            ),
            ("core.pop.dedup_ratio", pop.dedup_ratio()),
            ("core.pop.resident_bytes", pop.resident_bytes() as f64),
        ];
    }
    out.meta("providers", n as f64);
    out.meta("policies_per_sweep", policies.len() as f64);
    out.meta("warmup_ops", WARMUP as f64);
    out
}
