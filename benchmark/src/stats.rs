//! Small numeric helpers plus what the benchmark reads from the machine:
//! peak resident set and the fingerprint recorded beside every result.

use serde::Value;

/// Median of `values` (mean of the middle two for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The cost a machine reaches when its host leaves it alone: the
/// nearest-rank first quartile of per-unit costs (seconds per operation,
/// milliseconds per request). Disturbance on a shared host is one-sided —
/// it only ever makes a unit slower — so the fast quartile repeats from
/// run to run about twice as closely as the median does (README.md,
/// "Bounds"), and it still moves with any change that slows every unit.
pub fn fast_quartile(costs: &[f64]) -> f64 {
    percentile(costs, 0.25)
}

/// Operations per second at `cost` seconds per operation; 0 for no cost
/// (nothing was measured).
pub fn rate(cost: f64) -> f64 {
    if cost > 0.0 {
        1.0 / cost
    } else {
        0.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread
/// the driver computes. 0 with fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos % 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / med).abs()
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 when unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` beside the
/// benchmark directory without starting a process; `unknown` in a
/// checkout that is not a git repository.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// The machine fingerprint every result file carries: what the numbers
/// depend on besides the code.
pub fn fingerprint(seed: u64) -> Value {
    #[cfg(target_arch = "x86_64")]
    let (vnni, f16c) = (
        std::arch::is_x86_feature_detected!("avxvnni"),
        std::arch::is_x86_feature_detected!("f16c"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (vnni, f16c) = (false, false);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    Value::Object(vec![
        ("nproc".into(), Value::Int(nproc as i64)),
        ("simd".into(), Value::Str(em_kernels::simd_kind().into())),
        ("vnni".into(), Value::Bool(vnni)),
        ("f16c".into(), Value::Bool(f16c)),
        (
            "em_threads".into(),
            Value::Str(std::env::var("EM_THREADS").unwrap_or_default()),
        ),
        ("serve_workers".into(), Value::Int(1)),
        ("backend".into(), Value::Str("graph".into())),
        ("git_rev".into(), Value::Str(git_rev())),
        ("seed".into(), Value::Int(seed as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(fast_quartile(&v), 3.0);
        assert_eq!(fast_quartile(&[4.0, 2.0, 3.0]), 2.0);
    }
}
