//! `embench suite`: every workload, each run in a child process of its
//! own (clean `VmHWM`, clean em-obs registry), several plain runs for the
//! end-to-end medians and one traced run for the waterfall, collected
//! into one result file that `embench diff` compares.

use crate::spec::WORKLOADS;
use serde::Value;
use std::path::Path;
use std::process::Command;

/// Options of `embench suite`.
pub struct SuiteArgs {
    /// First seed; plain run `i` uses `seed + i`.
    pub seed: u64,
    /// Plain runs per workload.
    pub runs: u64,
    /// Timed window per run, seconds.
    pub seconds: u64,
    /// Use the tiny test sizes.
    pub smoke: bool,
    /// Only this workload, when set.
    pub workload: Option<String>,
}

fn run_child(
    exe: &Path,
    out_dir: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    args: &SuiteArgs,
) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child's stdout carries the contract's result line; the record
    // file it writes beside it carries the same numbers plus fingerprint,
    // gate failures and waterfall, which is what the suite keeps.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let record = out_dir.join(format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "plain" }
    ));
    let text = std::fs::read_to_string(&record)
        .map_err(|e| format!("cannot read {}: {e}", record.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("bad record {}: {e}", record.display()))
}

/// Run the suite and write `out_file`. Returns whether every run was
/// correct and valid.
pub fn run(args: &SuiteArgs, out_dir: &Path, out_file: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        for i in 0..args.runs {
            records.push(run_child(
                &exe,
                out_dir,
                workload,
                args.seed + i,
                false,
                args,
            )?);
        }
        records.push(run_child(&exe, out_dir, workload, args.seed, true, args)?);
    }
    for r in &records {
        let ok = r.get_field("correct").and_then(Value::as_bool) == Some(true);
        all_correct &= ok;
    }
    let file = Value::Object(vec![
        ("claim".into(), Value::Null),
        ("fingerprint".into(), crate::stats::fingerprint(args.seed)),
        ("seconds".into(), Value::Int(args.seconds as i64)),
        ("runs".into(), Value::Array(records)),
    ]);
    let text = serde_json::to_string_pretty(&file).expect("serialize suite file");
    std::fs::write(out_file, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out_file.display()))?;
    Ok(all_correct)
}
