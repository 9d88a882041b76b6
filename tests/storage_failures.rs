//! Failure injection against the storage substrate.
//!
//! A privacy-preserving database is only trustworthy if its storage fails
//! *loudly*: silently dropping a preference row would mean silently missing
//! a violation. These tests corrupt the on-disk artefacts in targeted ways
//! and assert the engine either recovers exactly the acknowledged state or
//! refuses to open.

use quantifying_privacy_violations::prelude::*;
use quantifying_privacy_violations::reldb::db::{
    catalog_snap_path, pages_snap_path, read_current, wal_path,
};
use quantifying_privacy_violations::reldb::DbError;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qpv-fail-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_db(dir: &std::path::Path) {
    let mut db = Database::open(dir).unwrap();
    db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
        .unwrap();
}

fn count_rows(dir: &std::path::Path) -> i64 {
    let mut db = Database::open(dir).unwrap();
    let rs = db.query("SELECT COUNT(*) FROM t").unwrap();
    rs.rows[0].values[0].as_int().unwrap()
}

#[test]
fn torn_wal_tail_loses_only_unacknowledged_writes() {
    let dir = temp_dir("torn-tail");
    seed_db(&dir);
    // Append garbage bytes to the WAL, as if a crash tore the last frame.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(wal_path(&dir, 0))
            .unwrap();
        f.write_all(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe])
            .unwrap();
    }
    // All three committed rows survive; the torn frame is ignored.
    assert_eq!(count_rows(&dir), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_corruption_midfile_truncates_to_the_valid_prefix() {
    let dir = temp_dir("mid-corrupt");
    seed_db(&dir);
    // Flip a byte early in the WAL: everything after the first bad frame
    // is unrecoverable, and recovery must not invent data. (The DDL frame
    // comes first, so corrupting a *late* byte keeps the table itself.)
    let wal = wal_path(&dir, 0);
    let mut bytes = std::fs::read(&wal).unwrap();
    let target = bytes.len() - 10; // inside the last frames
    bytes[target] ^= 0xff;
    std::fs::write(&wal, bytes).unwrap();
    let mut db = Database::open(&dir).unwrap();
    // The table exists (its DDL frame precedes the corruption)…
    let rs = db.query("SELECT COUNT(*) FROM t").unwrap();
    let n = rs.rows[0].values[0].as_int().unwrap();
    // …and we kept a prefix, never more than was committed.
    assert!(n <= 3, "recovered {n} rows from a corrupt log");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_catalog_snapshot_is_refused() {
    let dir = temp_dir("bad-catalog");
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.checkpoint().unwrap();
    }
    // Scribble over the catalog snapshot (generation 1 after the
    // checkpoint above).
    std::fs::write(catalog_snap_path(&dir, 1), b"not a catalog").unwrap();
    let err = Database::open(&dir).unwrap_err();
    assert!(matches!(err, DbError::Corruption(_)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_page_snapshot_is_refused() {
    let dir = temp_dir("bad-pages");
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.checkpoint().unwrap();
    }
    // Truncate the page snapshot to a non-page-multiple length.
    let snap = pages_snap_path(&dir, 1);
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() - 100]).unwrap();
    let err = Database::open(&dir).unwrap_err();
    assert!(matches!(err, DbError::Corruption(_)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zeroed_page_in_snapshot_is_detected_on_access() {
    let dir = temp_dir("zero-page");
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INT, pad TEXT)").unwrap();
        // Enough rows to span multiple pages.
        for chunk in 0..4 {
            let values: Vec<String> = (0..50)
                .map(|i| format!("({}, '{}')", chunk * 50 + i, "x".repeat(64)))
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
                .unwrap();
        }
        db.checkpoint().unwrap();
    }
    // Zero out a page in the middle of the snapshot (bad magic).
    let snap = pages_snap_path(&dir, 1);
    let mut bytes = std::fs::read(&snap).unwrap();
    let page_size = 4096;
    assert!(bytes.len() >= 3 * page_size);
    for b in &mut bytes[page_size..2 * page_size] {
        *b = 0;
    }
    std::fs::write(&snap, bytes).unwrap();
    // Opening rebuilds indexes by scanning heaps, so the bad page is hit
    // during open (or at latest on first scan) — either way: Corruption,
    // never silent data loss.
    match Database::open(&dir) {
        Err(e) => assert!(matches!(e, DbError::Corruption(_)), "{e}"),
        Ok(mut db) => {
            let err = db.query("SELECT COUNT(*) FROM t").unwrap_err();
            assert!(matches!(err, DbError::Corruption(_)), "{err}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_prefs_record_fails_the_audit_with_corruption() {
    // The audit decodes preference rows in place off their pages; a
    // damaged record must come back as a typed error from `Ppdb::audit`,
    // never as a panic or a silently shorter preference list.
    let dir = temp_dir("ppdb-bad-prefs");
    let scenario = Scenario::healthcare(40, 3);
    let marker = "zz_corrupt_me";
    {
        let db = Database::open(&dir).unwrap();
        let mut ppdb = Ppdb::create(
            db,
            PpdbConfig::new("patients", "provider_id"),
            scenario.data_schema(),
        )
        .unwrap();
        ppdb.set_policy(&scenario.baseline_policy).unwrap();
        for (profile, row) in scenario
            .population
            .profiles
            .iter()
            .zip(&scenario.population.data_rows)
        {
            ppdb.register_provider(profile, row.clone()).unwrap();
        }
        let id = scenario.population.profiles[0].id();
        let tuple = PrivacyTuple::from_point("pr", PrivacyPoint::from_raw(1, 1, 1));
        ppdb.set_preferences(id, marker, vec![tuple]).unwrap();
        // Without its index the prefs table is not decoded while the
        // store reopens, so the damage first meets the audit's scan.
        ppdb.db_mut()
            .drop_index("_qpv_prefs_provider_attr")
            .unwrap();
        ppdb.db_mut().checkpoint().unwrap();
    }
    // Break the marker text's UTF-8 wherever it sits in the page snapshot.
    let snap = pages_snap_path(&dir, read_current(&dir).unwrap());
    let mut bytes = std::fs::read(&snap).unwrap();
    let mut hits = 0;
    for at in 0..bytes.len() - marker.len() {
        if &bytes[at..at + marker.len()] == marker.as_bytes() {
            bytes[at] = 0xff;
            hits += 1;
        }
    }
    assert!(hits > 0, "marker not found in the page snapshot");
    std::fs::write(&snap, bytes).unwrap();

    let db = Database::open(&dir).unwrap();
    let mut ppdb = Ppdb::open(db, PpdbConfig::new("patients", "provider_id")).unwrap();
    let err = ppdb.audit().unwrap_err();
    assert!(matches!(err, DbError::Corruption(_)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ppdb_survives_reopen_with_full_metadata() {
    // The privacy layer's durability contract: policy, preferences,
    // sensitivities, and thresholds all come back after a crashy reopen.
    let dir = temp_dir("ppdb-reopen");
    let scenario = Scenario::healthcare(40, 3);
    {
        let db = Database::open(&dir).unwrap();
        let mut ppdb = Ppdb::create(
            db,
            PpdbConfig::new("patients", "provider_id"),
            scenario.data_schema(),
        )
        .unwrap();
        ppdb.set_policy(&scenario.baseline_policy).unwrap();
        for attr in &scenario.spec.attributes {
            ppdb.set_attribute_weight(&attr.name, attr.weight).unwrap();
        }
        for (profile, row) in scenario
            .population
            .profiles
            .iter()
            .zip(&scenario.population.data_rows)
        {
            ppdb.register_provider(profile, row.clone()).unwrap();
        }
        // No checkpoint — everything must come back via the WAL.
    }
    let db = Database::open(&dir).unwrap();
    let mut ppdb = Ppdb::open(db, PpdbConfig::new("patients", "provider_id")).unwrap();
    let report = ppdb.audit().unwrap();
    let fresh = scenario.engine().run(&scenario.population.profiles);
    assert_eq!(report.total_violations, fresh.total_violations);
    assert_eq!(report.p_default(), fresh.p_default());
    std::fs::remove_dir_all(&dir).unwrap();
}
