//! `embench` — command line of the benchmark.
//!
//! ```text
//! embench run   --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! embench suite [--seed N] [--runs R] [--seconds S] [--workload W] [--smoke] [--out FILE]
//! embench diff  A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` is what `BENCHMARK.json` names: one workload in this process,
//! the result as one JSON object on the last line of stdout, everything
//! meant for people on stderr.

use embench::spec::Sizes;
use embench::suite::SuiteArgs;
use embench::{default_out_dir, diff, run_workload, suite, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--name value` options and bare words of a command line.
struct Cli {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    words: Vec<String>,
}

impl Cli {
    fn parse(args: &[String], flag_names: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli {
            options: Vec::new(),
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if flag_names.contains(&name) => cli.flags.push(name.to_string()),
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    cli.options.push((name.to_string(), value.clone()));
                }
                None => cli.words.push(arg.clone()),
            }
        }
        Ok(cli)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    }
}

/// glibc's allocator settings for the measured process: keep freed memory
/// (no trimming, a large top pad, the highest mmap threshold glibc takes)
/// instead of handing it back to the kernel and faulting it in again.
///
/// The autograd path frees and re-allocates megabytes per training step.
/// With glibc's defaults that is 2.3 million page faults per `finetune`
/// run, a fifth of its wall time spent in the kernel — and on a microVM
/// each of those faults is a hypervisor exit whose price swings by a third
/// from one process to the next (README.md, "Allocator settings"). The
/// settings take that swing out of every run, parent's and change's
/// alike; `peak_rss_mib` still reports what the program holds.
const ALLOCATOR_ENV: [(&str, &str); 3] = [
    ("MALLOC_TRIM_THRESHOLD_", "17179869184"),
    ("MALLOC_TOP_PAD_", "268435456"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];
/// Marks the process that measures; set by [`cmd_run`] on the child.
const WORKER_ENV: &str = "EMBENCH_WORKER";

/// glibc reads [`ALLOCATOR_ENV`] once, before `main`, so `run` starts the
/// measuring process as a child of its own with the settings in place,
/// hands it the terminal, waits for it and passes its exit code on.
fn run_in_child(rest: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("run")
        .args(rest)
        .envs(ALLOCATOR_ENV)
        .env(WORKER_ENV, "1")
        .status()
        .map_err(|e| format!("cannot start the measuring process: {e}"))?;
    Ok(ExitCode::from(status.code().map_or(2, |c| c as u8)))
}

fn cmd_run(cli: &Cli) -> Result<bool, String> {
    let workload = cli.get("workload").ok_or("run needs --workload")?;
    let seed: u64 = cli.number("seed", 1)?;
    let seconds: f64 = cli.number("seconds", 20.0)?;
    let traced = match cli.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let args = RunArgs {
        seed,
        seconds,
        traced,
        sizes: sizes(cli.flag("smoke")),
        out_dir: default_out_dir(),
    };
    let outcome = run_workload(workload, &args)?;
    eprint!("{}", outcome.render());
    let record = args.out_dir.join(format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "plain" }
    ));
    outcome
        .write_record(&record, seed, seconds)
        .map_err(|e| format!("cannot write {}: {e}", record.display()))?;
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn cmd_suite(cli: &Cli) -> Result<bool, String> {
    let args = SuiteArgs {
        seed: cli.number("seed", 1)?,
        runs: cli.number("runs", 5)?,
        seconds: cli.number("seconds", 20)?,
        smoke: cli.flag("smoke"),
        workload: cli.get("workload").map(String::from),
    };
    let out_dir = default_out_dir();
    let out_file = cli
        .get("out")
        .map_or_else(|| out_dir.join("suite.json"), PathBuf::from);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create out dir: {e}"))?;
    let ok = suite::run(&args, &out_dir, &out_file)?;
    eprintln!("wrote {}", out_file.display());
    Ok(ok)
}

fn cmd_diff(cli: &Cli) -> Result<bool, String> {
    let [a, b] = cli.words.as_slice() else {
        return Err("diff needs two result files".into());
    };
    let benchmark = cli.get("benchmark").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        PathBuf::from,
    );
    diff::run(&PathBuf::from(a), &PathBuf::from(b), &benchmark)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: embench run|suite|diff ... (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    if command == "run" && std::env::var_os(WORKER_ENV).is_none() {
        return run_in_child(rest).unwrap_or_else(|e| {
            eprintln!("embench: {e}");
            ExitCode::from(2)
        });
    }
    let result = Cli::parse(rest, &["smoke"]).and_then(|cli| match command.as_str() {
        "run" => cmd_run(&cli),
        "suite" => cmd_suite(&cli),
        "diff" => cmd_diff(&cli),
        other => Err(format!("unknown command {other:?}; use run, suite or diff")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Incorrect outputs, a `worse` row: reported above, exit 1.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("embench: {e}");
            ExitCode::from(2)
        }
    }
}
