//! Property suite: single-byte and single-bit corruption anywhere in a
//! recorded WAL.
//!
//! The WAL's frame format (`[len][crc32(lsn‖payload)][lsn][payload]`,
//! shared with the delta log) checksums every frame, and replay stops at
//! the first invalid frame. Flipping any one bit or byte of the log
//! therefore invalidates exactly the frame containing the flip, and
//! recovery must:
//!
//! * **never panic** — a panic anywhere fails the harness;
//! * **succeed on the committed prefix** (or refuse with
//!   `DbError::Corruption`) — the statements whose frames were fully
//!   synced *before* the corrupted offset are recovered exactly;
//! * **never apply a frame past the flip** — no statement at or after the
//!   corrupted frame leaves any trace.
//!
//! The recorded workload snapshots the WAL length after every statement,
//! so for a flip at byte offset `o` the first statement whose frames
//! extend past `o` is known exactly — recovery must land on precisely the
//! statements before it. (The vendored proptest is deterministic and does
//! not shrink, so every run checks the same seeded set of flips.)

use proptest::prelude::*;

use qpv_reldb::db::{wal_path, Database};
use qpv_reldb::DbError;

/// The recorded WAL image plus the oracle for judging recoveries.
struct Recorded {
    /// Raw bytes of the clean WAL (generation 0, never checkpointed).
    wal: Vec<u8>,
    /// `ends[s]` = WAL length (bytes) after statement `s` was acknowledged.
    ends: Vec<u64>,
}

const INSERTS: usize = 30;

fn record_wal(tag: &str) -> Recorded {
    let dir = std::env::temp_dir().join(format!(
        "qpv-walcorrupt-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open(&dir).unwrap();
    let wal_file = wal_path(&dir, 0);
    let mut ends = Vec::new();
    db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
    ends.push(std::fs::metadata(&wal_file).unwrap().len());
    for i in 0..INSERTS {
        db.execute(&format!(
            "INSERT INTO t VALUES ({i}, 'row-{i}-{}')",
            "x".repeat(40)
        ))
        .unwrap();
        ends.push(std::fs::metadata(&wal_file).unwrap().len());
    }
    drop(db);
    let wal = std::fs::read(&wal_file).unwrap();
    assert_eq!(ends.last().copied(), Some(wal.len() as u64));
    std::fs::remove_dir_all(&dir).unwrap();
    Recorded { wal, ends }
}

/// Recover from a corrupted WAL image and check every invariant. `flip_at`
/// is the byte offset that was corrupted.
fn check_recovery(tag: &str, case: usize, corrupted: &[u8], flip_at: usize, ends: &[u64]) {
    // The first statement whose frames extend past the flipped offset:
    // that statement and everything after it must be gone; everything
    // before it must be recovered exactly.
    let broken = ends
        .iter()
        .position(|&end| end > flip_at as u64)
        .expect("flip offset is inside the log");

    let dir = std::env::temp_dir().join(format!(
        "qpv-walcorrupt-{tag}-{case}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(wal_path(&dir, 0), corrupted).unwrap();

    match Database::open(&dir) {
        Err(e) => assert!(
            matches!(e, DbError::Corruption(_)),
            "flip at {flip_at}: refusal must be Corruption, got {e}"
        ),
        Ok(mut db) => {
            if broken == 0 {
                // The DDL frame itself was hit: the table must not exist in
                // any form.
                assert!(
                    db.catalog().table("t").is_none(),
                    "flip at {flip_at}: table resurrected from a corrupt DDL frame"
                );
            } else {
                // Statements 1..broken are the inserts of ids 0..broken-1.
                let mut ids: Vec<i64> = db
                    .scan("t")
                    .unwrap_or_else(|e| panic!("flip at {flip_at}: scan failed: {e}"))
                    .into_iter()
                    .map(|(_, row)| row.values[0].as_int().unwrap())
                    .collect();
                ids.sort_unstable();
                let expect: Vec<i64> = (0..broken as i64 - 1).collect();
                assert_eq!(
                    ids, expect,
                    "flip at {flip_at} (statement {broken}): recovered rows are not \
                     exactly the committed prefix"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Flip one whole byte (XOR 0xff) anywhere in the log.
    #[test]
    fn byte_flip_recovers_prefix_or_refuses(offset in 0usize..1_000_000, case in 0usize..1_000_000) {
        let recorded = record_wal("byte");
        let flip_at = offset % recorded.wal.len();
        let mut corrupted = recorded.wal.clone();
        corrupted[flip_at] ^= 0xff;
        check_recovery("byte", case, &corrupted, flip_at, &recorded.ends);
    }

    /// Flip one single bit anywhere in the log.
    #[test]
    fn bit_flip_recovers_prefix_or_refuses(
        offset in 0usize..1_000_000,
        bit in 0u32..8,
        case in 0usize..1_000_000,
    ) {
        let recorded = record_wal("bit");
        let flip_at = offset % recorded.wal.len();
        let mut corrupted = recorded.wal.clone();
        corrupted[flip_at] ^= 1u8 << bit;
        check_recovery("bit", case, &corrupted, flip_at, &recorded.ends);
    }
}
