//! End-to-end selective audit queries: `Ppdb::query_violations` against
//! the full [`Ppdb::audit`] report as oracle.
//!
//! The SQL path (binder → `ViolationScan` → secondary-index candidate
//! selection → `SelectiveAuditor`) must produce exactly the witness rows
//! the classic compile-and-sweep audit produces — bounded or not, and
//! across writes that mutate the data table and its `_qpv_data_provider`
//! index through the delta pipeline.

use qpv_core::sensitivity::DatumSensitivity;
use qpv_core::{Ppdb, PpdbConfig, ProviderProfile};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::exec::ResultSet;
use qpv_reldb::schema::SchemaBuilder;
use qpv_reldb::{DataType, Database, Row, Value};
use qpv_synth::Scenario;
use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};

fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
    PrivacyPoint::from_raw(v, g, r)
}

/// A PPDB whose house policy exposes `weight` widely; every third
/// provider states a strict `weight` preference and therefore violates.
fn ppdb_with_providers(n: u64) -> Ppdb {
    let schema = SchemaBuilder::new()
        .column("provider_id", DataType::Int)
        .nullable_column("age", DataType::Int)
        .nullable_column("weight", DataType::Int)
        .build()
        .unwrap();
    let mut ppdb = Ppdb::create(
        Database::in_memory(),
        PpdbConfig::new("people", "provider_id"),
        schema,
    )
    .unwrap();
    let policy = HousePolicy::builder("house")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(7, 4, 7)))
        .build();
    ppdb.set_policy(&policy).unwrap();
    ppdb.set_attribute_weight("weight", 3).unwrap();
    for id in 0..n {
        ppdb.register_provider(&profile(id), data_row(id)).unwrap();
    }
    ppdb
}

fn profile(id: u64) -> ProviderProfile {
    let mut p = ProviderProfile::new(ProviderId(id), 0);
    let pref = if id.is_multiple_of(3) {
        pt(1, 1, 1)
    } else {
        pt(7, 4, 7)
    };
    p.preferences
        .add("weight", PrivacyTuple::from_point("pr", pref));
    p.sensitivities
        .insert("weight".into(), DatumSensitivity::new(3, 1, 5, 2));
    p
}

fn data_row(id: u64) -> Row {
    Row::from_values([Value::Int(id as i64), Value::Int(30), Value::Int(70)])
}

fn result_tuples(rs: &ResultSet) -> Vec<(i64, String, String, i64)> {
    rs.rows
        .iter()
        .map(|r| {
            (
                r.values[0].as_int().unwrap(),
                r.values[1].as_text().unwrap().to_string(),
                r.values[2].as_text().unwrap().to_string(),
                r.values[3].as_int().unwrap(),
            )
        })
        .collect()
}

/// The oracle: witness rows derived from the classic audit report, in
/// population order, optionally restricted to a provider-id range.
fn oracle_rows(ppdb: &mut Ppdb, keep: impl Fn(i64) -> bool) -> Vec<(i64, String, String, i64)> {
    let report = ppdb.audit().unwrap();
    let mut rows = Vec::new();
    for audit in &report.providers {
        let provider = audit.provider.0 as i64;
        if !audit.violated || !keep(provider) {
            continue;
        }
        let severity = i64::try_from(audit.score).unwrap();
        for w in &audit.witnesses {
            rows.push((
                provider,
                w.attribute.as_str().to_string(),
                w.purpose.name().to_string(),
                severity,
            ));
        }
    }
    rows
}

#[test]
fn violation_queries_match_the_audit_report() {
    let mut ppdb = ppdb_with_providers(30);

    // Full sweep.
    let all = ppdb
        .query_violations("SELECT * FROM _qpv_violations")
        .unwrap();
    let oracle = oracle_rows(&mut ppdb, |_| true);
    assert!(!oracle.is_empty(), "fixture must produce violations");
    assert_eq!(result_tuples(&all), oracle);

    // Bounded scan: the provider range is pushed into the plan and the
    // rows are the oracle's, restricted.
    let sql = "SELECT * FROM _qpv_violations WHERE provider >= 5 AND provider < 15";
    let plan = ppdb.explain(sql).unwrap();
    assert!(plan.contains("ViolationScan"), "{plan}");
    assert!(plan.contains("incl 5"), "{plan}");
    let bounded = ppdb.query_violations(sql).unwrap();
    assert_eq!(
        result_tuples(&bounded),
        oracle_rows(&mut ppdb, |p| (5..15).contains(&p))
    );

    // Point query.
    let point = ppdb
        .query_violations("SELECT * FROM _qpv_violations WHERE provider = 6")
        .unwrap();
    assert_eq!(result_tuples(&point), oracle_rows(&mut ppdb, |p| p == 6));

    // Aggregation over the virtual relation composes with the rest of
    // the SQL surface.
    let count = ppdb
        .query_violations("SELECT COUNT(*) FROM _qpv_violations WHERE provider < 15")
        .unwrap();
    let want = oracle_rows(&mut ppdb, |p| p < 15).len() as i64;
    assert_eq!(count.rows[0].values[0], Value::Int(want));
}

#[test]
fn violates_predicate_selects_violating_rows() {
    let mut ppdb = ppdb_with_providers(12);
    let rs = ppdb
        .query_violations("SELECT provider_id FROM people WHERE VIOLATES() ORDER BY provider_id")
        .unwrap();
    let got: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r.values[0].as_int().unwrap())
        .collect();
    let report = ppdb.audit().unwrap();
    let want: Vec<i64> = report
        .providers
        .iter()
        .filter(|a| a.violated)
        .map(|a| a.provider.0 as i64)
        .collect();
    assert_eq!(got, want);
    assert!(!want.is_empty());

    // Attribute restriction: all witnesses are on `weight`; restricting
    // to `age` selects nobody. (The stored house policy is reconstructed
    // under the data table's name, so that is the name `VIOLATES` takes.)
    let weight = ppdb
        .query_violations("SELECT provider_id FROM people WHERE VIOLATES('people', 'weight')")
        .unwrap();
    assert_eq!(weight.rows.len(), want.len());
    let age = ppdb
        .query_violations("SELECT provider_id FROM people WHERE VIOLATES('people', 'age')")
        .unwrap();
    assert!(age.rows.is_empty());
    // A policy name the snapshot does not hold is an error, not a miss.
    let err = ppdb
        .query_violations("SELECT provider_id FROM people WHERE VIOLATES('nope')")
        .unwrap_err();
    assert!(err.to_string().contains("unknown policy"), "{err}");
}

/// Writes between queries move both the data table and its provider
/// index through the transactional maintenance path; each
/// `query_violations` call snapshots a fresh population, so results track
/// the store exactly.
#[test]
fn index_and_results_stay_coherent_across_writes() {
    let mut ppdb = ppdb_with_providers(12);
    let before = ppdb
        .query_violations("SELECT * FROM _qpv_violations WHERE provider >= 0 AND provider < 100")
        .unwrap();
    assert!(result_tuples(&before).iter().any(|r| r.0 == 6));

    // Remove a violator; it must vanish from the bounded query.
    ppdb.remove_provider(ProviderId(6)).unwrap();
    let after_remove = ppdb
        .query_violations("SELECT * FROM _qpv_violations WHERE provider >= 0 AND provider < 100")
        .unwrap();
    assert!(result_tuples(&after_remove).iter().all(|r| r.0 != 6));
    assert_eq!(
        result_tuples(&after_remove),
        oracle_rows(&mut ppdb, |_| true)
    );

    // Register a brand-new strict provider; the bounded query picks it
    // up through the same index.
    ppdb.register_provider(&profile(99), data_row(99)).unwrap();
    let after_insert = ppdb
        .query_violations("SELECT * FROM _qpv_violations WHERE provider >= 90 AND provider < 100")
        .unwrap();
    let tuples = result_tuples(&after_insert);
    assert_eq!(tuples.len(), 1);
    assert_eq!(tuples[0].0, 99);
    assert_eq!(tuples, oracle_rows(&mut ppdb, |p| (90..100).contains(&p)));
}

/// The composite `(provider, attribute)` indexes Ppdb creates over its
/// preference and sensitivity tables actually serve point lookups.
#[test]
fn prefs_lookups_use_the_composite_index() {
    let mut ppdb = ppdb_with_providers(6);
    let plan = ppdb
        .explain("SELECT * FROM _qpv_prefs WHERE provider = 3 AND attribute = 'weight'")
        .unwrap();
    assert!(
        plan.contains("IndexScan _qpv_prefs via _qpv_prefs_provider_attr"),
        "{plan}"
    );
    let rs = ppdb
        .query_violations(
            "SELECT COUNT(*) FROM _qpv_prefs WHERE provider = 3 AND attribute = 'weight'",
        )
        .unwrap();
    assert_eq!(rs.rows[0].values[0], Value::Int(1));
}

/// A seed-pinned healthcare registry (witnesses on `weight`, `diagnosis`
/// and `income`) in which every seventh provider's data row is stored
/// twice, so the population holds duplicate ids.
fn registry_with_duplicate_ids() -> Ppdb {
    let s = Scenario::healthcare(240, 0x5EED_0017);
    let mut ppdb = Ppdb::create(
        Database::in_memory(),
        PpdbConfig::new("patients", "provider_id"),
        s.data_schema(),
    )
    .unwrap();
    ppdb.set_policy(&s.baseline_policy).unwrap();
    for attr in &s.spec.attributes {
        ppdb.set_attribute_weight(&attr.name, attr.weight).unwrap();
    }
    for (profile, row) in s.population.profiles.iter().zip(&s.population.data_rows) {
        ppdb.register_provider(profile, row.clone()).unwrap();
    }
    // The repeat carries no preference or sensitivity rows of its own:
    // both occurrences of the id read the first registration's.
    for (profile, row) in s.population.profiles.iter().zip(&s.population.data_rows) {
        if profile.id().0 % 7 == 3 {
            let repeat = ProviderProfile::new(profile.id(), profile.threshold);
            ppdb.register_provider(&repeat, row.clone()).unwrap();
        }
    }
    ppdb
}

/// `_qpv_violations` rows derived from [`AuditEngine::run_reference`]
/// over the stored profiles, in population order.
fn reference_rows(ppdb: &mut Ppdb) -> Vec<(i64, String, String, i64)> {
    let profiles = ppdb.all_profiles().unwrap();
    let report = ppdb.audit_engine().unwrap().run_reference(&profiles);
    let mut rows = Vec::new();
    for audit in report.providers.iter().filter(|a| a.violated) {
        let severity = i64::try_from(audit.score).unwrap();
        for w in &audit.witnesses {
            rows.push((
                audit.provider.0 as i64,
                w.attribute.as_str().to_string(),
                w.purpose.name().to_string(),
                severity,
            ));
        }
    }
    rows
}

/// Attribute predicates pushed into the live index, or deliberately not:
/// every form answers exactly the reference rows through both the live
/// path (`LiveIndexScan`, exact attribute postings) and the snapshot path
/// (`ViolationScan`, residual filter only), and `explain` shows where the
/// restriction went.
#[test]
fn attr_pushdown_matches_the_reference_on_both_paths() {
    let mut ppdb = registry_with_duplicate_ids();
    assert_eq!(
        ppdb.all_profiles().unwrap().len(),
        240 + 34,
        "ids 3, 10, … stored twice"
    );
    let oracle = reference_rows(&mut ppdb);
    let (lo, hi) = (40i64, 160i64);
    let dup = |p: i64| p % 7 == 3;
    // A duplicated violator with no `weight` witness: `OR provider = k`
    // must add its rows to the `weight` ones.
    let k = oracle
        .iter()
        .map(|r| r.0)
        .find(|&p| dup(p) && !oracle.iter().any(|r| r.0 == p && r.1 == "weight"))
        .expect("fixture must hold a duplicated violator without a weight witness");
    assert!(
        oracle.iter().any(|r| dup(r.0))
            && ["weight", "diagnosis", "income"]
                .iter()
                .all(|a| oracle.iter().any(|r| r.1 == *a)),
        "fixture must put witnesses on every attribute and on duplicate ids"
    );
    assert!(
        oracle
            .iter()
            .any(|r| r.1 == "weight" && oracle.iter().any(|s| s.0 == r.0 && s.1 != "weight")),
        "fixture must hold a provider witnessed on weight and another attribute"
    );

    type Keep = Box<dyn Fn(&(i64, String, String, i64)) -> bool>;
    // (WHERE clause, live-path plan fragment, snapshot plan fragment, oracle filter)
    let cases: Vec<(String, String, String, Keep)> = vec![
        (
            "attr = 'weight'".into(),
            "provider=[unbounded .. unbounded] attr=weight".into(),
            "provider=[unbounded .. unbounded]".into(),
            Box::new(|r| r.1 == "weight"),
        ),
        (
            "'weight' = attr".into(),
            "provider=[unbounded .. unbounded] attr=weight".into(),
            "provider=[unbounded .. unbounded]".into(),
            Box::new(|r| r.1 == "weight"),
        ),
        (
            format!("attr = 'diagnosis' AND provider >= {lo} AND provider < {hi}"),
            format!("provider=[incl {lo} .. excl {hi}] attr=diagnosis"),
            format!("provider=[incl {lo} .. excl {hi}]"),
            Box::new(move |r| r.1 == "diagnosis" && (lo..hi).contains(&r.0)),
        ),
        (
            format!("attr = 'weight' OR provider = {k}"),
            "provider=[unbounded .. unbounded] attr=*".into(),
            "provider=[unbounded .. unbounded]".into(),
            Box::new(move |r| r.1 == "weight" || r.0 == k),
        ),
        (
            "attr = 'weight' AND attr = 'income'".into(),
            "provider=[unbounded .. unbounded] attr=income".into(),
            "provider=[unbounded .. unbounded]".into(),
            Box::new(|_| false),
        ),
        (
            "attr = 'absent'".into(),
            "provider=[unbounded .. unbounded] attr=absent".into(),
            "provider=[unbounded .. unbounded]".into(),
            Box::new(|_| false),
        ),
        (
            "attr LIKE 'w%'".into(),
            "provider=[unbounded .. unbounded] attr=*".into(),
            "provider=[unbounded .. unbounded]".into(),
            Box::new(|r| r.1.starts_with('w')),
        ),
    ];
    for (cond, live_plan, snapshot_plan, keep) in &cases {
        let sql = format!("SELECT * FROM _qpv_violations WHERE {cond}");
        let want: Vec<_> = oracle.iter().filter(|r| keep(r)).cloned().collect();

        let live = ppdb.query_live(&sql).unwrap();
        let plan = ppdb.explain(&sql).unwrap();
        assert!(
            plan.contains(&format!("LiveIndexScan policy=house {live_plan}")),
            "{sql}:\n{plan}"
        );
        assert!(
            plan.contains("Filter"),
            "{sql}: residual filter kept:\n{plan}"
        );
        assert_eq!(result_tuples(&live), want, "{sql}: live path");

        let snapshot = ppdb.query_violations(&sql).unwrap();
        let plan = ppdb.explain(&sql).unwrap();
        assert!(
            plan.contains(&format!("ViolationScan policy=house {snapshot_plan}")),
            "{sql}:\n{plan}"
        );
        assert_eq!(result_tuples(&snapshot), want, "{sql}: snapshot path");
    }
}

/// The planner's crossover on the snapshot path: a 10% provider range
/// walks the index-selected candidates, the full id span prices as a
/// sweep, and both answer exactly the reference rows.
#[test]
fn provider_range_width_picks_candidates_or_sweep() {
    let n = 200;
    let mut ppdb = ppdb_with_providers(n);
    let oracle = reference_rows(&mut ppdb);
    for (lo, hi, strategy) in [
        (70, 90, "strategy=candidates"),
        (0, n as i64, "strategy=sweep"),
    ] {
        let sql =
            format!("SELECT * FROM _qpv_violations WHERE provider >= {lo} AND provider < {hi}");
        let rows = ppdb.query_violations(&sql).unwrap();
        // `explain` prices with the stats the query just registered.
        let plan = ppdb.explain(&sql).unwrap();
        assert!(
            plan.contains(&format!("provider=[incl {lo} .. excl {hi}] {strategy}")),
            "{sql}:\n{plan}"
        );
        let want: Vec<_> = oracle
            .iter()
            .filter(|r| (lo..hi).contains(&r.0))
            .cloned()
            .collect();
        assert!(!want.is_empty(), "{sql}: fixture must violate in range");
        assert_eq!(result_tuples(&rows), want, "{sql}");
    }
}
