//! `recovery`: restarting the monitored registry after a crash. Set-up
//! runs the `churn_monitor` pipeline over a short churn tail and copies
//! its directories while they are still open: the crash image. One op
//! reopens a fresh copy of that image (copied untimed) — `Database::open`,
//! `Ppdb::open`, `Monitor::recover`, the live index's first build, and a
//! point query — and must answer as the store did before the crash.

use std::path::Path;
use std::time::Instant;

use qpv_core::{Monitor, Ppdb};
use qpv_policy::ProviderId;
use qpv_reldb::exec::ResultSet;
use qpv_reldb::{Database, DbResult};
use qpv_synth::Scenario;

use super::churn_monitor::{
    expected_point, mirror, monitor_config, point_query, run_batch, start, Churn, BATCH, N, SMOKE_N,
};
use super::{ppdb_config, result_rows, setup_repeated, sorted, Outcome, RunConfig, Witness};
use crate::env::{copy_dir, dir_bytes, wal_bytes, ScratchDir};
use crate::trace::Tracer;

/// Churn ops applied after the load, before the crash.
const TAIL_OPS: usize = 32;
/// Providers whose pre-crash answers the restarts are checked against.
const PROBES: usize = 16;

/// The directories as the crash left them, and what the store answered.
struct Image {
    dir: ScratchDir,
    answers: Vec<(ProviderId, Vec<Witness>)>,
    p_violation: f64,
    seq: u64,
}

fn crash_image(s: &Scenario, seed: u64) -> Image {
    let mut pipe = start("recovery-live", s);
    let mut churn = Churn::new(s, seed);
    let mut profiles = s.population.profiles.clone();
    let mut quiet = Tracer::new(false);
    for _ in 0..TAIL_OPS / BATCH {
        let batch = churn.next_batch(BATCH);
        run_batch(&mut pipe, &mut quiet, &batch).expect("tail batch");
        mirror(&mut profiles, &batch);
    }
    let mut alive: Vec<u64> = churn.alive.iter().copied().collect();
    alive.sort_unstable();
    let engine = s.engine();
    let answers = (0..PROBES)
        .map(|i| {
            let id = ProviderId(alive[i * alive.len() / PROBES]);
            let rs = pipe
                .ppdb
                .query_live(&point_query(id))
                .expect("pre-crash query");
            let rows = sorted(result_rows(&rs));
            assert_eq!(
                rows,
                expected_point(&engine, &profiles, id),
                "recovery: pre-crash answer for provider {}",
                id.0
            );
            (id, rows)
        })
        .collect();
    let dir = ScratchDir::new("recovery-image");
    copy_dir(pipe.dir.path(), dir.path()).expect("copy crash image");
    Image {
        dir,
        answers,
        p_violation: pipe.monitor.p_violation(),
        seq: pipe.monitor.seq(),
    }
}

/// One restart, up to the first answer. The reopened handles are handed
/// back so they are dropped outside the op.
fn restart(
    dir: &Path,
    s: &Scenario,
    tr: &mut Tracer,
    id: ProviderId,
) -> DbResult<(Ppdb, Monitor, ResultSet)> {
    let (attrs, weights, policy) = (
        s.spec.attribute_names(),
        s.spec.attribute_weights(),
        s.baseline_policy.clone(),
    );
    let db = tr.span("reldb.open", || Database::open(dir.join("db")))?;
    let mut ppdb = tr.span("core.ppdb.open", || Ppdb::open(db, ppdb_config()))?;
    let monitor = tr.span("core.deltalog.recover", || {
        Monitor::recover(
            dir.join("monitor"),
            attrs,
            &weights,
            policy,
            monitor_config(),
        )
    })?;
    tr.span("core.liveindex.first_build", || {
        ppdb.live_index().map(|_| ())
    })?;
    let rs = tr.span("core.liveindex.point_query", || {
        ppdb.query_live(&point_query(id))
    })?;
    Ok((ppdb, monitor, rs))
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let n = cfg.size(N, SMOKE_N);
    let scenario = Scenario::healthcare(n, cfg.seed);
    let mut out = Outcome::default();
    let image = setup_repeated(&mut out, || crash_image(&scenario, cfg.seed));

    let mut quiet = Tracer::new(false);
    let mut restarts = 0usize;
    let mut once = |tr: &mut Tracer, out: &mut Outcome, timed: bool| {
        let work = ScratchDir::new("recovery-work");
        copy_dir(image.dir.path(), work.path()).expect("copy crash image");
        let (id, want) = &image.answers[restarts % PROBES];
        restarts += 1;
        let (result, ms) = tr.op(|tr| restart(work.path(), &scenario, tr, *id));
        if timed {
            out.op_ms.push(ms);
        }
        match result {
            Ok((ppdb, monitor, rs)) => {
                assert_eq!(
                    &sorted(result_rows(&rs)),
                    want,
                    "recovery: first answer after restart {restarts} for provider {}",
                    id.0
                );
                assert_eq!(
                    (monitor.seq(), monitor.p_violation()),
                    (image.seq, image.p_violation),
                    "recovery: monitor state after restart {restarts}"
                );
                drop((ppdb, monitor));
            }
            Err(e) => {
                eprintln!("recovery: restart {restarts} failed: {e}");
                out.failed += 1;
            }
        }
    };
    once(&mut quiet, &mut out, false);
    let deadline = cfg.deadline();
    loop {
        once(tr, &mut out, true);
        if Instant::now() >= deadline {
            break;
        }
    }

    let wal = wal_bytes(&image.dir.path().join("db"));
    out.layer = vec![("reldb.wal.replay_bytes", wal as f64)];
    out.meta("providers", n as f64);
    out.meta("tail_churn_ops", TAIL_OPS as f64);
    out.meta("warmup_ops", 1.0);
    out.meta(
        "store_bytes",
        dir_bytes(&image.dir.path().join("db")) as f64,
    );
    out.meta(
        "monitor_bytes",
        dir_bytes(&image.dir.path().join("monitor")) as f64,
    );
    out
}
