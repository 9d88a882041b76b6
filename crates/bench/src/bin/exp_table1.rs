//! Experiment E1: regenerate §8's Table 1 and Equations 19–24.
//!
//! The paper's only quantitative artefact with exact reported numbers. Every
//! value is recomputed through the full stack (population → PPDB storage →
//! audit) and compared against the paper's.
//!
//! Run with: `cargo run -p qpv-bench --bin exp_table1`

use qpv_bench::{check, exit_on_diff, write_result};
use qpv_core::report;
use qpv_core::{Ppdb, PpdbConfig};
use qpv_reldb::Database;
use qpv_synth::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== E1: Table 1 / Equations 19-24 (paper §8) ==\n");
    let scenario = Scenario::worked_example();

    // Through storage, as Table 1's caption implies a stored database.
    let mut ppdb = Ppdb::create(
        Database::in_memory(),
        PpdbConfig::new("people", "provider_id"),
        scenario.data_schema(),
    )?;
    ppdb.set_policy(&scenario.baseline_policy)?;
    ppdb.set_attribute_weight("weight", 4)?;
    for (profile, row) in scenario
        .population
        .profiles
        .iter()
        .zip(&scenario.population.data_rows)
    {
        ppdb.register_provider(profile, row.clone())?;
    }
    let audit = ppdb.audit()?;

    println!("{}", report::render(&audit));

    // Paper values, one check per reported quantity.
    let names = ["Alice", "Ted", "Bob"];
    let expected_w = [0u8, 1, 1];
    let expected_conf = [0u64, 60, 80];
    let expected_default = [0u8, 1, 0];
    for i in 0..3 {
        let p = &audit.providers[i];
        check(
            &format!("{} w_i (Table 1)", names[i]),
            expected_w[i],
            p.violated as u8,
        );
        check(
            &format!("{} conf (Eq. 20)", names[i]),
            expected_conf[i],
            p.score,
        );
        check(
            &format!("{} default_i (Eqs. 21-23)", names[i]),
            expected_default[i],
            p.defaulted as u8,
        );
    }
    check(
        "P(Default) (Eq. 24)",
        format!("{:.4}", 1.0 / 3.0),
        format!("{:.4}", audit.p_default()),
    );
    check(
        "Violations (Eq. 16 over Table 1)",
        140,
        audit.total_violations,
    );

    let path = write_result("exp_table1", &audit);
    println!("\nresult JSON: {}", path.display());
    exit_on_diff();
    Ok(())
}
