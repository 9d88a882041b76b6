//! # qpv-bench
//!
//! The experiment harness for the reproduction: one binary per paper
//! artefact (see `src/bin/`). `EXPERIMENTS.md` at the repository root
//! records paper-reported versus measured values. Timing lives in one
//! place, the end-to-end benchmark under `src/bin/benchmark/` (a package
//! of its own, driven by `BENCHMARK.json` at the repository root).
//!
//! | target | artefact |
//! |---|---|
//! | `exp_table1` | E1 — §8 Table 1 and Equations 19–24 |
//! | `exp_fig1` | E2 — Figure 1's violation geometry panels |
//! | `exp_policy_expansion` | E3 — §9 Equations 25–31 |
//! | `exp_alpha_ppdb` | E4 — Definitions 2/3/5 at population scale |

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// `[DIFF]` lines printed so far by [`check`].
static DIFFS: AtomicUsize = AtomicUsize::new(0);

/// A paper-vs-measured comparison line for EXPERIMENTS.md-style output.
/// A mismatch prints `[DIFF]` and is counted for [`exit_on_diff`].
pub fn check(label: &str, expected: impl std::fmt::Display, actual: impl std::fmt::Display) {
    let expected = expected.to_string();
    let actual = actual.to_string();
    let status = if expected == actual {
        "OK "
    } else {
        DIFFS.fetch_add(1, Ordering::Relaxed);
        "DIFF"
    };
    println!("[{status}] {label:<42} paper: {expected:<12} measured: {actual}");
}

/// End the process with status 1 if any [`check`] printed `[DIFF]`, so a
/// paper claim that stops holding fails the run. Experiment binaries call
/// it last, once every line and the result JSON are out.
pub fn exit_on_diff() {
    let diffs = DIFFS.load(Ordering::Relaxed);
    if diffs > 0 {
        eprintln!("{diffs} paper-claim check(s) differ");
        std::process::exit(1);
    }
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
