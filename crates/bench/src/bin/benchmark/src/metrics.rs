//! Metric names, units and bounds, and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root is the benchmark's contract. It
//! is compiled into the binary and parsed once, so the names, units and
//! bounds are declared in that file alone. Every untraced run reports
//! every end-to-end metric; every traced run reports every per-layer
//! metric, 0 where the workload does not reach that layer.

use std::sync::OnceLock;

use serde_json::Value;

/// The repository's `BENCHMARK.json`, relative to this file.
const CONTRACT_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The workloads and metric tables `BENCHMARK.json` lists.
#[derive(Debug)]
pub struct Contract {
    /// In the order `--workload all` runs them.
    pub workloads: Vec<String>,
    /// What a caller of the store sees, measured with tracing off.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer breakdown from the traced run. `_pct` metrics are a
    /// span's summed self time as a share of all op time (probes: their
    /// duration as a share of op time); the rest are counts per op or per
    /// run.
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    fn parse(text: &str) -> Result<Contract, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("no {key} list"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry has no {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The parsed contract.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        Contract::parse(CONTRACT_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    let c = contract();
    c.end_to_end
        .iter()
        .chain(&c.per_layer)
        .find(|m| m.name == name)
}

/// The last line a run prints.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// One value for every metric in `table`, taken from `values` (0 for
    /// names `values` lacks). Panics on a value whose name is in no table:
    /// that is a bug in a workload, not a measurement.
    pub fn from_table(
        correct: bool,
        attempted: u64,
        failed: u64,
        table: &[MetricDef],
        values: &[(&str, f64)],
    ) -> RunResult {
        for (name, _) in values {
            assert!(
                table.iter().any(|m| m.name == *name),
                "metric {name:?} is not in this run's table"
            );
        }
        let metrics = table
            .iter()
            .map(|m| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name.clone(), v, m.unit.clone())
            })
            .collect();
        RunResult {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Int(self.attempted as i128)),
            ("failed".into(), Value::Int(self.failed as i128)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// Parse a line [`RunResult::to_json`] printed.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{e}: {line:?}"))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing {k:?}"));
        let Value::Object(entries) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, m) in entries {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{name}: no unit"))?;
            metrics.push((name.clone(), value, unit.to_string()));
        }
        Ok(RunResult {
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("attempted is not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_has_a_setup_time() {
        let setup = find("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!(setup.unit, "s");
    }

    #[test]
    fn result_line_round_trips_with_every_name() {
        let c = contract();
        for table in [&c.end_to_end, &c.per_layer] {
            let values: Vec<(&str, f64)> = table
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name.as_str(), 0.1 + i as f64 * 1.0009765625))
                .collect();
            let r = RunResult::from_table(true, 1234, 0, table, &values);
            let line = r.to_json().to_string();
            assert!(!line.contains('\n'));
            let back = RunResult::parse(&line).unwrap();
            assert_eq!(back, r);
            let Value::Object(fields) = serde_json::from_str::<Value>(&line).unwrap() else {
                panic!("result line is not an object: {line}");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for (name, _, unit) in &back.metrics {
                assert_eq!(&find(name).unwrap().unit, unit);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in this run's table")]
    fn unknown_metric_is_a_bug() {
        RunResult::from_table(
            true,
            1,
            0,
            &contract().end_to_end,
            &[("reldb.scan.rows", 1.0)],
        );
    }
}
