//! # embench — the repo's one benchmark
//!
//! Five workloads over the system's three user-visible paths — tables in
//! → matches out, HTTP request → score, and fine-tuning — each measured
//! end to end with tracing off, and again traced for a per-layer
//! waterfall. Every layer is measured from outside: by timing calls into
//! public functions, by wrapping public traits, by reading public
//! counters and, in the traced run only, the em-obs histograms the
//! crates already publish. See `README.md` for the tables.

pub mod dedup;
pub mod diff;
pub mod finetune;
pub mod gateway;
pub mod layers;
pub mod model;
pub mod report;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;

use report::Outcome;
use spec::Sizes;
use std::path::PathBuf;

/// Where result files, traces and the workloads' own scratch files go:
/// `out/` beside this crate's manifest, inside the checkout.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Selects the generated inputs, and nothing else.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub traced: bool,
    /// Input sizes; [`Sizes::FULL`] except under test.
    pub sizes: Sizes,
    /// Directory for everything the run writes.
    pub out_dir: PathBuf,
}

/// Turn the measured crates' own em-obs recording on (level 1, as
/// `EM_OBS=1` would) or off for the code that runs next.
pub fn em_obs_recording(on: bool) {
    em_obs::set_level(if on {
        em_obs::LEVEL_AGGREGATE
    } else {
        em_obs::LEVEL_OFF
    });
}

/// Set up `reps` times over, each result dropped before the next is
/// built, and return the last one with the median set-up time in seconds.
/// One set-up would make `setup_s` a single sample.
pub fn timed_setup<T>(reps: usize, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(set_up());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&seconds))
}

/// Run one workload in this process. One process runs one workload, so
/// that peak RSS and the em-obs registry belong to it alone.
pub fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    // Fixed for every run and recorded in the fingerprint. The kernel
    // pool reads EM_THREADS once, on first use, which is after this.
    std::env::set_var("EM_THREADS", "1");
    em_obs_recording(false);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    // Benchmark-side spans: held in memory for the whole run, written out
    // once it has ended.
    let log = trace::SpanLog::new(args.traced);
    let mut outcome = match name {
        spec::DEDUP_BLOCK => dedup::run(false, args, &log),
        spec::DEDUP_SERVE => dedup::run(true, args, &log),
        spec::GATEWAY_OPEN => gateway::run(false, args, &log),
        spec::GATEWAY_HOT => gateway::run(true, args, &log),
        spec::FINETUNE => finetune::run(args, &log),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                spec::WORKLOADS.join(", ")
            ))
        }
    };
    if args.traced {
        let path = args.out_dir.join(format!("{name}.trace.jsonl"));
        if let Err(e) = log.write_jsonl(&path) {
            outcome.problem(format!("cannot write {}: {e}", path.display()));
        }
    }
    Ok(outcome)
}
