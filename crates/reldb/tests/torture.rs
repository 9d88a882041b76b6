//! Crash-torture suite: crash at *every* I/O op index and prove recovery.
//!
//! Methodology (the engine is its own model):
//!
//! 1. Run the scripted workload — DDL, autocommit DML, vacuums, an
//!    explicit committed transaction, an explicit aborted transaction, a
//!    checkpoint, post-checkpoint writes, and a transaction that pushes
//!    the log past the automatic-checkpoint floor so the next statement
//!    checkpoints on its own — on an in-memory twin,
//!    capturing the sorted table contents after every step
//!    (`model[k]` = state after `k` fully-acknowledged steps).
//! 2. Dry-run the workload on disk under a never-faulting injector to
//!    count the total number of I/O ops `N` (the buffer pool flushes in
//!    sorted page order, so the op stream is identical across runs).
//! 3. For every op index `i < N`, run the workload in a fresh directory
//!    under a plan that crash-stops (even `i`) or tears (odd `i`, seeded
//!    by `i`) at op `i`, stop at the first error, then reopen from the
//!    surviving bytes and assert the invariants:
//!
//!    * **committed-prefix durability** — the recovered state is exactly
//!      `model[acked]` or `model[acked + 1]` (the crashed step's commit
//!      frame may or may not have reached the medium in full);
//!    * **no resurrection** — the explicitly aborted transaction's row
//!      never appears (it is absent from every model state);
//!    * **idempotent recovery** — a second reopen observes the identical
//!      state;
//!    * **no panics** — corruption or loss surfaces as `Err`, never a
//!      panic (any panic fails the harness).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use qpv_reldb::db::Database;
use qpv_reldb::error::DbResult;
use qpv_reldb::fault::{FaultInjector, FaultKind, FaultPlan};
use qpv_reldb::Value;

/// One workload step: atomic from the model's point of view (a crash
/// inside a step means the step was not acknowledged).
struct Step {
    label: &'static str,
    run: StepFn,
}

type StepFn = Box<dyn Fn(&mut Database) -> DbResult<()>>;

fn sql(label: &'static str, stmt: &'static str) -> Step {
    Step {
        label,
        run: Box::new(move |db| db.execute(stmt).map(|_| ())),
    }
}

/// A multi-statement step (explicit transactions): all statements run, in
/// order, as one acknowledgement unit.
fn batch(label: &'static str, stmts: &'static [&'static str]) -> Step {
    Step {
        label,
        run: Box::new(move |db| {
            for stmt in stmts {
                db.execute(stmt)?;
            }
            Ok(())
        }),
    }
}

fn checkpoint(label: &'static str) -> Step {
    Step {
        label,
        run: Box::new(|db| db.checkpoint()),
    }
}

/// The scripted workload. Pad text forces row batches across several
/// pages so the checkpoint flush contributes many distinct crash points.
fn workload() -> Vec<Step> {
    fn bulk_insert(first: i64, n: i64) -> String {
        let values: Vec<String> = (first..first + n)
            .map(|i| format!("({i}, 'p{i}-{}')", "x".repeat(200)))
            .collect();
        format!("INSERT INTO t VALUES {}", values.join(", "))
    }
    // `Box::leak` keeps `sql()` signatures simple; the strings live for
    // the whole test process.
    let ins1: &'static str = Box::leak(bulk_insert(0, 120).into_boxed_str());
    let ins2: &'static str = Box::leak(bulk_insert(120, 120).into_boxed_str());
    let ins3: &'static str = Box::leak(bulk_insert(240, 120).into_boxed_str());
    // Six 3000-byte rows: each UPDATE of them logs ~18 KB in place, so 64
    // in one transaction leave the log well past the 1 MiB floor (the
    // page file stays far below it) for the next write to retire. Few,
    // wide rows keep the per-crash-point cost of the push small.
    let wide = |tag: &str| format!("'{tag}-{}'", "w".repeat(3000));
    let fill: Vec<String> = (0..6).map(|k| format!("({k}, {})", wide("fill"))).collect();
    let fill = format!("INSERT INTO w VALUES {}", fill.join(", "));
    let fill: &'static str = Box::leak(fill.into_boxed_str());
    let mut push: Vec<&'static str> = vec!["BEGIN"];
    for round in 0..64 {
        let stmt = format!("UPDATE w SET v = {}", wide(&format!("push{round:02}")));
        push.push(Box::leak(stmt.into_boxed_str()));
    }
    push.push("COMMIT");
    let push: &'static [&'static str] = Box::leak(push.into_boxed_slice());
    vec![
        sql("create-table", "CREATE TABLE t (id INT, v TEXT)"),
        sql("create-index", "CREATE INDEX t_id ON t (id)"),
        sql("insert-batch-1", ins1),
        sql("insert-batch-2", ins2),
        sql("update", "UPDATE t SET v = 'updated' WHERE id % 7 = 0"),
        sql("delete", "DELETE FROM t WHERE id % 5 = 4"),
        Step {
            label: "vacuum",
            run: Box::new(|db| db.vacuum("t").map(|_| ())),
        },
        batch(
            "committed-txn",
            &[
                "BEGIN",
                "INSERT INTO t VALUES (1000, 'committed-txn-row')",
                "UPDATE t SET v = 'txn-updated' WHERE id = 3",
                "COMMIT",
            ],
        ),
        batch(
            "aborted-txn",
            &[
                "BEGIN",
                "INSERT INTO t VALUES (2000, 'aborted-txn-row')",
                "ROLLBACK",
            ],
        ),
        // Compacts the page the rolled-back insert left a dead slot on.
        Step {
            label: "vacuum-after-abort",
            run: Box::new(|db| db.vacuum("t").map(|_| ())),
        },
        sql("create-table-2", "CREATE TABLE u (k INT)"),
        sql("insert-u", "INSERT INTO u VALUES (1), (2), (3)"),
        checkpoint("checkpoint-1"),
        sql("insert-batch-3", ins3),
        sql(
            "post-ckpt-update",
            "UPDATE t SET v = 'late' WHERE id = 1000",
        ),
        sql("post-ckpt-delete", "DELETE FROM u WHERE k = 2"),
        sql("create-table-wide", "CREATE TABLE w (k INT, v TEXT)"),
        sql("insert-wide", fill),
        batch("push-log-past-floor", push),
        // Starts with an automatic checkpoint: its page flush, new log and
        // `CURRENT` swing are crash points like any other.
        sql("auto-checkpoint-insert", "INSERT INTO u VALUES (7)"),
        checkpoint("checkpoint-2"),
        sql("post-ckpt2-insert", "INSERT INTO u VALUES (9)"),
    ]
}

/// Sorted, stringified contents of every table — recovery may relocate
/// rows, so only set-of-rows equality is meaningful.
type State = BTreeMap<String, Vec<String>>;

fn observe(db: &mut Database) -> State {
    let names: Vec<String> = db
        .catalog()
        .tables()
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let mut state = State::new();
    for name in names {
        let mut rows: Vec<String> = db
            .scan(&name)
            .unwrap_or_else(|e| panic!("scan of {name} after recovery failed: {e}"))
            .into_iter()
            .map(|(_, row)| format!("{:?}", row.values))
            .collect();
        rows.sort_unstable();
        state.insert(name, rows);
    }
    state
}

/// Post-recovery index coherence. Secondary indexes are maintained
/// in-memory alongside every heap write and rebuilt from the surviving
/// heaps at recovery, so a crash landing between a heap write and its
/// index maintenance must be invisible afterwards: every live index
/// structure matches the catalog, and index-backed point queries agree
/// with a sequential scan — present ids, deleted ids, and never-inserted
/// ids alike.
fn assert_index_consistent(db: &mut Database, ctx: &str) {
    assert_eq!(
        db.index_count(),
        db.catalog().indexes().len(),
        "{ctx}: live index structures diverge from the catalog"
    );
    if db.catalog().table("t").is_none() {
        return; // crashed before the table existed
    }
    let mut by_id: BTreeMap<i64, usize> = BTreeMap::new();
    for (_, row) in db
        .scan("t")
        .unwrap_or_else(|e| panic!("{ctx}: scan of t failed: {e}"))
    {
        let id = row.values[0].as_int().expect("t.id is INT");
        *by_id.entry(id).or_default() += 1;
    }
    // Probes cover batch-1/2/3 rows, `id % 5 = 4` deletions, the
    // committed-txn row, the aborted-txn row, and an absent id.
    for probe in [0i64, 3, 14, 119, 240, 1000, 2000, 5555] {
        let rs = db
            .query(&format!("SELECT COUNT(*) FROM t WHERE id = {probe}"))
            .unwrap_or_else(|e| panic!("{ctx}: index probe id={probe} failed: {e}"));
        let want = by_id.get(&probe).copied().unwrap_or(0) as i64;
        assert_eq!(
            rs.rows[0].values[0],
            Value::Int(want),
            "{ctx}: index probe id={probe} disagrees with the heap scan"
        );
    }
}

/// `model[k]` = expected durable state after `k` acknowledged steps.
fn model_states() -> Vec<State> {
    let mut db = Database::in_memory();
    let mut states = vec![observe(&mut db)];
    for step in workload() {
        (step.run)(&mut db).unwrap_or_else(|e| panic!("model step {} failed: {e}", step.label));
        states.push(observe(&mut db));
    }
    states
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qpv-torture-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the workload under `injector`, returning how many steps were
/// acknowledged (fully Ok) before the first error.
fn run_until_crash(dir: &Path, injector: FaultInjector) -> usize {
    let mut db = match Database::open_with_faults(dir, Some(injector)) {
        Ok(db) => db,
        Err(_) => return 0, // crashed inside the initial (empty) recovery
    };
    let mut acked = 0;
    for step in workload() {
        match (step.run)(&mut db) {
            Ok(()) => acked += 1,
            Err(_) => break, // the crash; everything after is unacknowledged
        }
    }
    acked
}

#[test]
fn crash_at_every_io_op_preserves_committed_prefix() {
    let model = model_states();
    // The aborted transaction's row must be invisible in every model
    // state — recovery comparing against these states therefore also
    // proves no resurrection of uncommitted work.
    for state in &model {
        for rows in state.values() {
            assert!(
                rows.iter().all(|r| !r.contains("aborted-txn-row")),
                "aborted work leaked into the model"
            );
        }
    }

    // Dry run: count the workload's total I/O ops.
    let dry_dir = temp_dir("dry");
    let dry = FaultInjector::new(FaultPlan::none());
    let acked = run_until_crash(&dry_dir, dry.clone());
    assert_eq!(acked, workload().len(), "dry run must not fail");
    let total_ops = dry.ops_seen();
    // The consistency probes below genuinely exercise the index path.
    let mut db = Database::open(&dry_dir).unwrap();
    // Two explicit checkpoints plus the automatic one the log push set up.
    assert_eq!(db.generation(), 3, "the automatic checkpoint never ran");
    let plan = db.explain("SELECT COUNT(*) FROM t WHERE id = 3").unwrap();
    assert!(plan.contains("IndexScan t via t_id"), "{plan}");
    assert_index_consistent(&mut db, "dry run");
    drop(db);
    std::fs::remove_dir_all(&dry_dir).unwrap();
    assert!(
        total_ops >= 50,
        "workload too small: only {total_ops} crash points"
    );
    eprintln!("torture: enumerating {total_ops} crash points");

    for i in 0..total_ops {
        // Alternate pure crash-stops with torn writes for byte-level
        // diversity; torn plans derive their prefix length from seed `i`.
        let kind = if i % 2 == 0 {
            FaultKind::CrashStop
        } else {
            FaultKind::TornWrite
        };
        let dir = temp_dir(&format!("crash-{i}"));
        let injector = FaultInjector::new(FaultPlan::fail_at(i, kind).with_seed(i));
        let acked = run_until_crash(&dir, injector);

        // Reopen from the surviving bytes: recovery must succeed —
        // everything on disk is either fsynced state or a torn tail the
        // WAL discards by design.
        let mut db = Database::open(&dir)
            .unwrap_or_else(|e| panic!("crash at op {i}: recovery failed: {e}"));
        let observed = observe(&mut db);
        let exact = observed == model[acked];
        let next = acked + 1 < model.len() && observed == model[acked + 1];
        assert!(
            exact || next,
            "crash at op {i} ({kind:?}): recovered state matches neither \
             {acked} nor {} acknowledged steps",
            acked + 1
        );
        assert_index_consistent(&mut db, &format!("crash at op {i}"));
        drop(db);

        // Idempotency: re-recovery observes the identical state.
        let mut db = Database::open(&dir)
            .unwrap_or_else(|e| panic!("crash at op {i}: second recovery failed: {e}"));
        assert_eq!(
            observe(&mut db),
            observed,
            "crash at op {i}: recovery is not idempotent"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Multi-fault schedules in one plan: a flaky medium (periodic transients,
/// absorbed by the retry policy) that eventually crash-stops. The crash
/// lands at several points of the op stream; each run must still satisfy
/// the committed-prefix and idempotent-recovery invariants even though
/// retries have been shifting the op indices all along.
#[test]
fn transient_then_crash_in_a_single_run() {
    use qpv_reldb::fault::RetryPolicy;

    fn run_flaky(dir: &Path, injector: FaultInjector) -> usize {
        let mut db = match Database::open_with_faults(dir, Some(injector)) {
            Ok(db) => db,
            Err(_) => return 0,
        };
        db.set_retry_policy(RetryPolicy::standard());
        let mut acked = 0;
        for step in workload() {
            match (step.run)(&mut db) {
                Ok(()) => acked += 1,
                Err(_) => break,
            }
        }
        acked
    }

    let model = model_states();

    // Dry run under the transient-only plan: counts the op stream as the
    // retried workload actually emits it (each retry consumes an index).
    let dry_dir = temp_dir("flaky-dry");
    let dry = FaultInjector::new(FaultPlan::every_kth(5, FaultKind::Transient));
    let acked = run_flaky(&dry_dir, dry.clone());
    assert_eq!(acked, workload().len(), "retries must absorb transients");
    let total_ops = dry.ops_seen();
    std::fs::remove_dir_all(&dry_dir).unwrap();

    for c in [
        total_ops / 4,
        total_ops / 2,
        3 * total_ops / 4,
        total_ops - 1,
    ] {
        let dir = temp_dir(&format!("flaky-crash-{c}"));
        let plan =
            FaultPlan::every_kth(5, FaultKind::Transient).and_fail_at(c, FaultKind::CrashStop);
        let injector = FaultInjector::new(plan);
        let acked = run_flaky(&dir, injector.clone());
        assert!(injector.crashed(), "crash at op {c} never fired");
        assert!(acked < workload().len(), "crash at op {c} was absorbed");

        let mut db = Database::open(&dir)
            .unwrap_or_else(|e| panic!("flaky crash at op {c}: recovery failed: {e}"));
        let observed = observe(&mut db);
        let exact = observed == model[acked];
        let next = acked + 1 < model.len() && observed == model[acked + 1];
        assert!(
            exact || next,
            "flaky crash at op {c}: recovered state matches neither \
             {acked} nor {} acknowledged steps",
            acked + 1
        );
        assert_index_consistent(&mut db, &format!("flaky crash at op {c}"));
        drop(db);

        let mut db = Database::open(&dir)
            .unwrap_or_else(|e| panic!("flaky crash at op {c}: second recovery failed: {e}"));
        assert_eq!(
            observe(&mut db),
            observed,
            "flaky crash at op {c}: recovery is not idempotent"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn transient_faults_are_absorbed_by_the_retry_policy() {
    use qpv_reldb::fault::RetryPolicy;
    let dir = temp_dir("transient");
    // Every 3rd I/O op fails transiently; with retries enabled the whole
    // workload must still complete and match the model exactly.
    let injector = FaultInjector::new(FaultPlan::every_kth(3, FaultKind::Transient));
    let mut db = Database::open_with_faults(&dir, Some(injector)).unwrap();
    db.set_retry_policy(RetryPolicy::standard());
    for step in workload() {
        (step.run)(&mut db).unwrap_or_else(|e| panic!("step {} failed: {e}", step.label));
    }
    let observed = observe(&mut db);
    drop(db);
    let model = model_states();
    assert_eq!(observed, *model.last().unwrap());
    // And the state is durable: a clean reopen sees the same rows.
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(observe(&mut db), *model.last().unwrap());
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
