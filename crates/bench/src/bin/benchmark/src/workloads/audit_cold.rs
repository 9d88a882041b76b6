//! `audit_cold`: Definition 3 certification. One op is `Ppdb::audit()`
//! over a durable store larger than the buffer pool, so every audit reads
//! its tables back through the pool and storage-to-population dominates.

use std::time::Instant;

use qpv_core::{AuditEngine, AuditReport, CompiledPopulation, Ppdb};
use qpv_reldb::DbResult;
use qpv_synth::Scenario;

use super::{check_report, load_store, setup_repeated, Outcome, RunConfig, DATA_TABLE};
use crate::env::dir_bytes;
use crate::trace::{LayerTotals, Tracer};

const N: usize = 20_000;
const SMOKE_N: usize = 1_000;
/// Untimed audits first: page faults and allocator growth.
const WARMUP: usize = 2;

/// The tables `Ppdb::compiled_population` scans, probed one by one.
const SCANS: [(&str, &str); 4] = [
    ("reldb.scan.data", DATA_TABLE),
    ("reldb.scan.prefs", "_qpv_prefs"),
    ("reldb.scan.sens", "_qpv_sens"),
    ("reldb.scan.thresholds", "_qpv_thresholds"),
];

/// `Ppdb::audit`, or exactly its body as three traced calls, handing the
/// engine and population back for the probes.
fn audit(
    ppdb: &mut Ppdb,
    tr: &mut Tracer,
) -> DbResult<(AuditReport, Option<(AuditEngine, CompiledPopulation)>)> {
    if !tr.enabled() {
        return ppdb.audit().map(|r| (r, None));
    }
    let engine = tr.span("core.ppdb.audit_engine", || ppdb.audit_engine())?;
    let pop = tr.span("core.ppdb.compiled_population", || {
        ppdb.compiled_population()
    })?;
    let report = tr.span("core.audit.audit_compiled", || engine.audit_compiled(&pop));
    Ok((report, Some((engine, pop))))
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let n = cfg.size(N, SMOKE_N);
    let scenario = Scenario::healthcare(n, cfg.seed);
    let reference = scenario
        .engine()
        .run_reference(&scenario.population.profiles);

    let mut out = Outcome::default();
    let mut store = setup_repeated(&mut out, || load_store("audit_cold", &scenario));
    let store_bytes = dir_bytes(store.dir.path());
    let ppdb = &mut store.ppdb;

    for _ in 0..WARMUP {
        check_report(
            "audit_cold: Ppdb::audit vs run_reference",
            &ppdb.audit().expect("warm-up audit"),
            &reference,
        );
    }

    let (mut hits, mut misses, mut evictions, mut rows) = (0u64, 0u64, 0u64, 0u64);
    let deadline = cfg.deadline();
    loop {
        let before = ppdb.db_mut().pool_stats();
        let (result, ms) = tr.op(|tr| audit(ppdb, tr));
        let after = ppdb.db_mut().pool_stats();
        out.op_ms.push(ms);
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        evictions += after.evictions - before.evictions;
        match result {
            Ok((report, parts)) => {
                check_report(
                    "audit_cold: Ppdb::audit vs run_reference",
                    &report,
                    &reference,
                );
                if let Some((engine, pop)) = parts {
                    for (name, table) in SCANS {
                        let scanned = tr.probe(name, || ppdb.db_mut().scan(table));
                        rows += scanned.expect("probe scan").len() as u64;
                    }
                    tr.probe("core.packed.counts", || engine.counts(&pop));
                }
            }
            Err(e) => {
                eprintln!("audit_cold: audit failed: {e}");
                out.failed += 1;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let ops = out.op_ms.len() as f64;
    let t = LayerTotals::from_spans(tr.spans());
    let scans: f64 = SCANS.iter().map(|(name, _)| t.share_pct(name)).sum();
    out.layer = vec![
        (
            "core.pop.build_self_pct",
            t.share_pct("core.ppdb.compiled_population") - scans,
        ),
        ("reldb.scan.rows", rows as f64 / ops),
        ("reldb.pool.misses", misses as f64 / ops),
        ("reldb.pool.evictions", evictions as f64 / ops),
        (
            "reldb.pool.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
    ];
    out.meta("providers", n as f64);
    out.meta("store_bytes", store_bytes as f64);
    out.meta("warmup_ops", WARMUP as f64);
    out
}
