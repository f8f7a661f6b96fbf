//! What one run of one workload produces, and how it is printed: the
//! result line the run contract asks for, the result file with the
//! machine fingerprint, and the per-layer waterfall of a traced run.

use crate::spec::{MetricDecl, END_TO_END, PER_LAYER};
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run (per-layer metrics) or the plain one.
    pub traced: bool,
    /// Operations attempted in the timed window (pairs, requests, train steps).
    pub attempted: u64,
    /// Operations that failed, were refused, or missed the latency limit.
    pub failed: u64,
    /// Correctness-gate failures; empty means the outputs were correct.
    pub problems: Vec<String>,
    /// The run measured its own load generator, not the program.
    pub invalid: bool,
    /// Metric values by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Share of the timed wall per waterfall row, traced runs only.
    pub waterfall: Vec<(&'static str, f64)>,
    /// Cost per operation of every untraced unit of the window, in the
    /// order they ran; for people reading stderr, not a metric.
    pub unit_costs: Vec<f64>,
}

impl Outcome {
    /// A fresh outcome. A traced run starts with every per-layer metric
    /// at 0, so a layer the workload never enters reports exactly that.
    pub fn new(workload: &'static str, traced: bool) -> Self {
        let metrics = if traced {
            PER_LAYER.iter().map(|d| (d.name, 0.0)).collect()
        } else {
            BTreeMap::new()
        };
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            invalid: false,
            metrics,
            waterfall: Vec::new(),
            unit_costs: Vec::new(),
        }
    }

    fn declared(&self) -> &'static [MetricDecl] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Set an end-to-end metric; ignored by a traced run, which prints
    /// per-layer metrics only.
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        if !self.traced {
            assert!(
                END_TO_END.iter().any(|d| d.name == name),
                "undeclared end-to-end metric {name}"
            );
            self.metrics.insert(name, value);
        }
    }

    /// Set a per-layer metric; ignored by a plain run.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if self.traced {
            assert!(
                PER_LAYER.iter().any(|d| d.name == name),
                "undeclared per-layer metric {name}"
            );
            self.metrics.insert(name, value);
        }
    }

    /// Record a failed correctness gate.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Check a gate: record `what` as a problem unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Outputs correct and the run valid.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && !self.invalid
    }

    /// Close the outcome: every declared metric must be present and, for
    /// end-to-end metrics, non-zero — a zero would hide a later regression.
    pub fn finish(mut self) -> Self {
        for d in self.declared() {
            match self.metrics.get(d.name) {
                None => self
                    .problems
                    .push(format!("metric {} was not measured", d.name)),
                Some(v) if !v.is_finite() => self
                    .problems
                    .push(format!("metric {} is not finite", d.name)),
                Some(v) if !self.traced && *v == 0.0 => self
                    .problems
                    .push(format!("end-to-end metric {} is zero", d.name)),
                Some(_) => {}
            }
        }
        self
    }

    fn metrics_value(&self) -> Value {
        Value::Object(
            self.declared()
                .iter()
                .map(|d| {
                    let value = self.metrics.get(d.name).copied().unwrap_or(0.0);
                    (
                        d.name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::Float(value)),
                            ("unit".into(), Value::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line JSON object the run contract asks for on stdout.
    pub fn result_line(&self) -> String {
        let v = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted.max(1) as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), self.metrics_value()),
        ]);
        serde_json::to_string(&v).expect("serialize result line")
    }

    /// The full record: result line fields plus the machine fingerprint,
    /// the gate failures and the waterfall. `"claim": null` — a benchmark
    /// run claims no gain.
    pub fn record(&self, seed: u64, seconds: f64) -> Value {
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("traced".into(), Value::Bool(self.traced)),
            ("seconds".into(), Value::Float(seconds)),
            ("claim".into(), Value::Null),
            ("fingerprint".into(), stats::fingerprint(seed)),
            ("correct".into(), Value::Bool(self.correct())),
            ("invalid".into(), Value::Bool(self.invalid)),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            (
                "problems".into(),
                Value::Array(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".into(), self.metrics_value()),
            (
                "waterfall".into(),
                Value::Object(
                    self.waterfall
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Float(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Write [`Outcome::record`] to `path`.
    pub fn write_record(&self, path: &Path, seed: u64, seconds: f64) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(&self.record(seed, seconds))
            .expect("serialize result record");
        std::fs::write(path, text + "\n")
    }

    /// Human-readable summary for stderr: metrics, gate failures and, for
    /// a traced run, the waterfall with the predictions it is read against.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} ({}): attempted {} failed {} correct {}\n",
            self.workload,
            if self.traced { "traced" } else { "plain" },
            self.attempted,
            self.failed,
            self.correct()
        );
        for d in self.declared() {
            let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
            if !self.traced || v != 0.0 {
                out.push_str(&format!("  {:<36} {:>16.6} {}\n", d.name, v, d.unit));
            }
        }
        if !self.unit_costs.is_empty() {
            let costs: Vec<String> = self.unit_costs.iter().map(|c| format!("{c:.4e}")).collect();
            out.push_str(&format!(
                "  seconds per operation, unit by unit: {}\n",
                costs.join(" ")
            ));
        }
        if !self.waterfall.is_empty() {
            out.push_str("  waterfall (share of the timed wall):\n");
            let mut sum = 0.0;
            for (name, share) in &self.waterfall {
                sum += share;
                out.push_str(&format!("    {:<34} {:>7.2} %\n", name, share * 100.0));
            }
            out.push_str(&format!("    {:<34} {:>7.2} %\n", "sum", sum * 100.0));
            out.push_str(PREDICTIONS);
        }
        for p in &self.problems {
            out.push_str(&format!("  PROBLEM: {p}\n"));
        }
        if self.invalid {
            out.push_str("  INVALID: the load generator, not the program, was late\n");
        }
        out
    }
}

/// How the layers are expected to interact; printed beside every waterfall.
const PREDICTIONS: &str = "  predictions:\n\
    \x20   forward-bound (dedup_serve, gateway_open): a kernel gain of x % on a layer with share s\n\
    \x20   saves at most s*x % of pairs_per_s / p50_ms; p99_ms on gateway_open is queue- and\n\
    \x20   batch-wait dominated and can move by more than its share.\n\
    \x20   larger batches raise pairs_per_s on dedup_serve and lengthen p50_ms on gateway_open.\n\
    \x20   one pipeline thread, one worker: serve.wait.blocked_s ~ wall means the scorer is the\n\
    \x20   bottleneck, ~ 0 means blocking is.\n";
