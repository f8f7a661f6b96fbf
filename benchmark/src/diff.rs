//! `embench diff A.json B.json`: the ledger comparison. One row per
//! (workload, end-to-end metric) with both medians, the ratio with its
//! base, the bound from `BENCHMARK.json`, and a verdict.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// What a row concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is within the bound of A.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// The run-to-run spread of a side is wider than the bound.
    Unresolved,
    /// A run on either side was incorrect or measured its own generator.
    Invalid,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Invalid => "invalid",
        }
    }
}

/// One side's plain runs of one workload.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    invalid: bool,
}

impl Side {
    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn load(path: &Path) -> Result<BTreeMap<String, Side>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let file: Value =
        serde_json::from_str(&text).map_err(|e| format!("bad JSON in {}: {e}", path.display()))?;
    let runs = file
        .get_field("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{} has no \"runs\" array", path.display()))?;
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for run in runs {
        if run.get_field("traced").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get_field("workload")
            .and_then(Value::as_str)
            .ok_or("a run has no workload name")?;
        let side = sides.entry(workload.to_string()).or_default();
        side.attempted += run
            .get_field("attempted")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        side.failed += run.get_field("failed").and_then(Value::as_u64).unwrap_or(0);
        side.invalid |= run.get_field("correct").and_then(Value::as_bool) != Some(true);
        if let Some(Value::Object(metrics)) = run.get_field("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get_field("value").and_then(Value::as_f64) {
                    side.values.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(sides)
}

/// Regression bound per end-to-end metric, from `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let file: Value =
        serde_json::from_str(&text).map_err(|e| format!("bad JSON in {}: {e}", path.display()))?;
    let list = file
        .get_field("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for m in list {
        let name = m.get_field("name").and_then(Value::as_str);
        let bound = m.get_field("bound").and_then(Value::as_f64);
        if let (Some(name), Some(bound)) = (name, bound) {
            bounds.insert(name.to_string(), bound);
        }
    }
    Ok(bounds)
}

/// Decide one row. `a` and `b` are the per-run values of each side.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64, invalid: bool) -> Verdict {
    if invalid || a.is_empty() || b.is_empty() {
        return Verdict::Invalid;
    }
    if quartile_spread(a).max(quartile_spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    if base == 0.0 {
        return Verdict::Invalid;
    }
    let gain = if higher_is_better {
        new - base
    } else {
        base - new
    } / base.abs();
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compare two suite files. Prints the table and returns whether B
/// holds: no `worse` row and no higher failed-operation share.
pub fn run(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = load_bounds(benchmark_json)?;
    println!(
        "{:<13} {:<20} {:>14} {:>14} {:>18} {:>7} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A (base A)", "bound", "spread"
    );
    let mut holds = true;
    for workload in WORKLOADS {
        let (Some(sa), Some(sb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for decl in END_TO_END {
            let empty = Vec::new();
            let va = sa.values.get(decl.name).unwrap_or(&empty);
            let vb = sb.values.get(decl.name).unwrap_or(&empty);
            let bound = bounds.get(decl.name).copied().unwrap_or(0.0);
            let v = verdict(
                va,
                vb,
                decl.higher_is_better,
                bound,
                sa.invalid || sb.invalid,
            );
            holds &= v != Verdict::Worse;
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{:<13} {:<20} {:>14.4} {:>14.4} {:>10.4} of {:<7.4} {:>7.4} {:>8.4}  {}",
                workload,
                decl.name,
                ma,
                mb,
                if ma != 0.0 { mb / ma } else { 0.0 },
                ma,
                bound,
                quartile_spread(va).max(quartile_spread(vb)),
                v.name()
            );
        }
        if sb.failed_share() > sa.failed_share() {
            println!(
                "{workload:<13} failed operations rose: {} of {} -> {} of {}",
                sa.failed, sa.attempted, sb.failed, sb.attempted
            );
            holds = false;
        }
    }
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.2];
        let up: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&steady, &up, true, 0.1, false), Verdict::Better);
        assert_eq!(verdict(&steady, &up, false, 0.1, false), Verdict::Worse);
        assert_eq!(verdict(&steady, &steady, true, 0.1, false), Verdict::Same);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &steady, true, 0.1, false),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&steady, &steady, true, 0.1, true), Verdict::Invalid);
    }
}
