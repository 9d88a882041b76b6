//! # qpv-bench
//!
//! The experiment harness for the reproduction: one binary per paper
//! artefact (see `src/bin/`) and one Criterion benchmark per performance /
//! ablation question (see `benches/`). `EXPERIMENTS.md` at the repository
//! root records paper-reported versus measured values.
//!
//! | target | artefact |
//! |---|---|
//! | `exp_table1` | E1 — §8 Table 1 and Equations 19–24 |
//! | `exp_fig1` | E2 — Figure 1's violation geometry panels |
//! | `exp_policy_expansion` | E3 — §9 Equations 25–31 |
//! | `exp_alpha_ppdb` | E4 — Definitions 2/3/5 at population scale |
//! | `violation_throughput` | P1 — model evaluation throughput |
//! | `reldb_primitives` | P2 — storage-engine primitives |
//! | `purpose_lattice` | A2 — flat vs lattice purpose matching |
//! | `audit_storage` | A3 — indexed vs scanned metadata access |

use std::path::PathBuf;

/// Where experiment binaries drop machine-readable results
/// (`target/experiments/`). Created on demand.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a JSON result file for an experiment, returning its path.
pub fn write_result(name: &str, value: &impl serde::Serialize) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialisable result");
    std::fs::write(&path, json).expect("write result file");
    path
}

/// The population size a bench should use: `full` normally, or a tiny
/// fraction of it when `QPV_BENCH_SMOKE=1` is set. The smoke mode is how
/// `scripts/tier1.sh --bench-smoke` runs every bench binary as a
/// correctness test (each sample still asserts against its oracle) in
/// seconds instead of minutes — the timings it prints are meaningless.
pub fn bench_n(full: usize) -> usize {
    if std::env::var("QPV_BENCH_SMOKE").is_ok_and(|v| v == "1") {
        (full / 64).clamp(32, 2048)
    } else {
        full
    }
}

/// A paper-vs-measured comparison line for EXPERIMENTS.md-style output.
pub fn check(label: &str, expected: impl std::fmt::Display, actual: impl std::fmt::Display) {
    let expected = expected.to_string();
    let actual = actual.to_string();
    let status = if expected == actual { "OK " } else { "DIFF" };
    println!("[{status}] {label:<42} paper: {expected:<12} measured: {actual}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable_and_writable() {
        let path = write_result("selftest", &serde_json::json!({"ok": true}));
        assert!(path.exists());
        let back: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back["ok"], true);
        std::fs::remove_file(path).unwrap();
    }
}
