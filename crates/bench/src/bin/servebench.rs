//! Serving throughput bench: sequential batch-1 `EmMatcher::predict`
//! versus the frozen micro-batching `ServeMatcher` at several worker
//! counts. Writes the measurement to `results/serve_bench.json`.
//!
//! ```text
//! cargo run -p em-bench --bin servebench --release -- \
//!     [--pairs 256] [--workers 4] [--clients 8] [--batch 32] \
//!     [--max-len 128] [--repeats 3] [--seed 42]
//! ```
//!
//! With `--chaos` the bench instead runs the same request stream under a
//! seeded `FaultPlan` (injected worker panics, latency spikes, transient
//! errors) against a supervised pool with shedding, retry and a Magellan
//! degraded-mode fallback, and writes availability/recovery numbers to
//! `results/serve_chaos.json` (`--smoke` shrinks the model and workload
//! for CI). See the "Robustness" section of EXPERIMENTS.md.
//!
//! With `--latency` the bench measures *where requests spend their
//! time*: it forces `EM_OBS` on, streams requests through the pool, and
//! reports p50/p95/p99/max per lifecycle stage (queue wait, batch wait,
//! forward, end-to-end) from the em-obs histograms into
//! `results/serve_latency.json`, plus the full Prometheus exposition to
//! `results/serve_metrics.prom`. `--slow-ms <t>` also captures every
//! request slower than `t` ms as a `serve/slow_request` event with its
//! stage breakdown. See the "Latency" section of EXPERIMENTS.md.
//!
//! With `--quant` the bench measures what quantization buys and costs:
//! an accuracy table (F1 and worst-case score delta of int8 against
//! f32, on briefly fine-tuned models of all four architectures), served
//! throughput per representation with weight bytes streamed per pair,
//! checkpoint save/load wall-times (zero-copy mmap load mode and a
//! bitwise roundtrip check included), a hot-swap-under-traffic phase
//! that must drop zero requests while the model version advances, and
//! the process peak RSS — all to `results/serve_quant.json` (`--smoke`
//! shrinks everything for CI). See the "Quantization" section of
//! EXPERIMENTS.md.
//!
//! With `--load` the bench drives the **HTTP gateway over real
//! sockets**: it spawns an in-process `em-gateway` on an ephemeral port
//! per worker count and replays an open-loop request schedule (arrivals
//! at `--rps`, independent of response times) through keep-alive HTTP
//! clients, recording the saturation curve — achieved throughput and
//! p50/p99 end-to-end latency per worker count, shed (429) counts
//! included — to `results/gateway_load.json`. A second phase reruns the
//! wire under chaos (injected worker panics every other batch) with
//! client-side retry and asserts ≥ 0.99 availability *as the HTTP
//! client sees it*. See the "Gateway" section of EXPERIMENTS.md.
//!
//! Methodology (see EXPERIMENTS.md): both paths pay the full cost per
//! request — serialization, tokenization, forward pass. The sequential
//! baseline calls `predict` with one pair at a time (the only serving
//! mode the autograd stack supports); the served path pushes the same
//! requests through `--clients` threads into a `--workers`-worker
//! micro-batching matcher with the score cache disabled. Each worker
//! count is measured twice: once with every encoding pre-padded to
//! `--max-len` (the pre-dynamic-padding request shape) and once with
//! ragged encodings that coalesce into length-bucketed dynamic batches;
//! `dynamic_speedup` is the throughput ratio between the two. Each
//! stream is timed `--repeats` times and the best pass is kept —
//! scheduler noise only ever slows a pass down.

use em_baselines::{MagellanLearner, MagellanMatcher};
use em_bench::{Args, RESULTS_DIR};
use em_core::prelude::*;
use em_serve::{freeze_parts, FaultPlan, FrozenMatcher, QuantMode, ServeConfig, ServeMatcher};
use em_tokenizers::Tokenizer;
use em_transformers::{ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct ServeRun {
    workers: usize,
    clients: usize,
    /// Ragged requests, length-bucketed dynamic batches.
    seconds: f64,
    examples_per_sec: f64,
    speedup_vs_sequential: f64,
    batches: u64,
    batch_fill: f64,
    /// Same requests pre-padded to `max_len` (the pre-PR request shape).
    padded_seconds: f64,
    padded_examples_per_sec: f64,
    /// `examples_per_sec / padded_examples_per_sec`.
    dynamic_speedup: f64,
}

#[derive(Serialize)]
struct ServeBenchReport {
    arch: String,
    pairs: usize,
    max_len: usize,
    max_batch: usize,
    /// Real tokens / `pairs × max_len` — what fixed-length padding wastes
    /// on this request mix.
    padding_efficiency: f64,
    sequential_seconds: f64,
    sequential_examples_per_sec: f64,
    serve: Vec<ServeRun>,
}

/// One chaos run's worth of availability and recovery numbers.
#[derive(Serialize)]
struct ChaosReport {
    arch: String,
    pairs: usize,
    workers: usize,
    clients: usize,
    /// The injected fault schedule (seed + average periods).
    fault_seed: u64,
    panic_every: usize,
    delay_every: usize,
    error_every: usize,
    seconds: f64,
    /// Requests answered with a score (transformer or fallback) over
    /// requests submitted. The headline chaos number.
    availability: f64,
    /// Workers respawned by the supervisor after injected panics.
    worker_restarts: u64,
    /// Requests answered by the Magellan degraded-mode fallback.
    degraded_requests: u64,
    /// Requests rejected by admission control (`ServeError::Overloaded`).
    shed_requests: u64,
    /// Transient failures retried with backoff.
    retries: u64,
    /// Requests accepted by the matcher (retries resubmit, so this can
    /// exceed `pairs`).
    requests: u64,
}

/// One worker count's worth of the saturation curve in
/// `gateway_load.json`.
#[derive(Serialize)]
struct LoadPoint {
    workers: usize,
    /// The open-loop arrival rate the schedule offered.
    offered_rps: f64,
    /// 200s actually delivered per second of wall clock.
    achieved_rps: f64,
    sent: usize,
    ok: usize,
    /// 429s — admission control turning the overflow away.
    shed: usize,
    /// 504s — requests that burned their whole deadline.
    timeout: usize,
    /// Socket failures and unexpected statuses.
    errors: usize,
    /// End-to-end latency quantiles of the 200s, measured from each
    /// request's *scheduled* arrival (open-loop convention: time spent
    /// waiting behind schedule counts against the server).
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    max_ms: f64,
}

/// The chaos-over-the-wire phase of `gateway_load.json`.
#[derive(Serialize)]
struct WireChaosReport {
    requests: usize,
    /// Requests that eventually got a 200, retries included.
    answered: usize,
    /// `answered / requests` from the HTTP client's point of view.
    availability: f64,
    /// Client-side retry attempts (on 429/503/504 and socket errors).
    client_retries: u64,
    fault_seed: u64,
    panic_every: usize,
    worker_restarts: u64,
    shed_requests: u64,
    server_retries: u64,
}

/// Everything `--load` writes to `results/gateway_load.json`.
#[derive(Serialize)]
struct GatewayLoadReport {
    arch: String,
    smoke: bool,
    clients: usize,
    requests_per_point: usize,
    max_len: usize,
    max_batch: usize,
    saturation: Vec<LoadPoint>,
    chaos: WireChaosReport,
}

/// Per-stage latency quantiles as reported in `serve_latency.json`.
#[derive(Serialize)]
struct StageLatency {
    count: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    mean_ms: f64,
}

impl StageLatency {
    fn from_histogram(h: &em_obs::HistogramSnapshot) -> Self {
        Self {
            count: h.count,
            p50_ms: h.p50() * 1e3,
            p95_ms: h.p95() * 1e3,
            p99_ms: h.p99() * 1e3,
            max_ms: h.max * 1e3,
            mean_ms: h.mean() * 1e3,
        }
    }
}

#[derive(Serialize)]
struct LatencyReport {
    arch: String,
    pairs: usize,
    workers: usize,
    clients: usize,
    max_len: usize,
    max_batch: usize,
    seconds: f64,
    examples_per_sec: f64,
    slow_request_threshold_ms: u64,
    /// Requests whose end-to-end latency crossed the threshold.
    slow_requests: u64,
    /// Per-lifecycle-stage latency quantiles: `queue_wait` (enqueue →
    /// picked into a batch), `batch_wait` (picked → forward start),
    /// `forward` (per batch), `e2e` (enqueue → reply).
    stages: std::collections::BTreeMap<String, StageLatency>,
}

/// Latency mode: per-stage request-lifecycle quantiles from the em-obs
/// histograms. Runs one warm-up stream (pool and cache lines settle),
/// resets the metrics, then measures a full stream and reads the
/// `serve/{queue_wait,batch_wait,forward,e2e}` histograms back.
fn latency_run(args: &Args) {
    let smoke = args.has("smoke");
    let n_pairs: usize = args.get("pairs").unwrap_or(if smoke { 64 } else { 512 });
    let workers: usize = args.get("workers").unwrap_or(2);
    let clients: usize = args.get("clients").unwrap_or(8);
    let max_batch: usize = args.get("batch").unwrap_or(8);
    let max_len: usize = args.get("max-len").unwrap_or(32);
    let seed: u64 = args.get("seed").unwrap_or(42);
    let slow_ms: u64 = args.get("slow-ms").unwrap_or(50);

    // The whole point of this mode is reading the histograms back;
    // force aggregation on even when EM_OBS is unset.
    if !em_obs::enabled() {
        em_obs::set_level(em_obs::LEVEL_AGGREGATE);
    }

    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(if smoke { 30 } else { 200 }, seed);
    let tokenizer = train_tokenizer(arch, &corpus, if smoke { 200 } else { 400 });
    let mut cfg = if smoke {
        TransformerConfig::tiny(arch, tokenizer.vocab_size())
    } else {
        TransformerConfig::small(arch, tokenizer.vocab_size())
    };
    cfg.max_position = cfg.max_position.max(max_len);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    let frozen = freeze_parts(&model, &head, tokenizer, max_len);

    let ds = DatasetId::AbtBuy.generate(0.05, seed);
    let mut pairs: Vec<EntityPair> = ds.pairs.clone();
    while pairs.len() < n_pairs {
        pairs.extend(ds.pairs.clone());
    }
    pairs.truncate(n_pairs);
    let encodings: Vec<em_tokenizers::Encoding> =
        pairs.iter().map(|p| frozen.encode(&ds, p)).collect();
    eprintln!(
        "servebench --latency: {} pairs, {workers} workers, {clients} clients, \
         max_batch {max_batch}, slow threshold {slow_ms}ms",
        pairs.len()
    );

    let serve_cfg = ServeConfig::builder()
        .workers(workers)
        .max_batch(max_batch)
        .cache_capacity(0) // latency of the forward path, not the cache
        .slow_request_threshold_ms(slow_ms)
        .build()
        .expect("valid latency serve config");
    let serve = Arc::new(ServeMatcher::start(frozen, serve_cfg));

    let stream = |encodings: &[em_tokenizers::Encoding]| {
        let chunk = encodings.len().div_ceil(clients.max(1));
        std::thread::scope(|s| {
            let handles: Vec<_> = encodings
                .chunks(chunk)
                .map(|slice| {
                    let serve = Arc::clone(&serve);
                    s.spawn(move || serve.score_encodings(slice).expect("serving failed"))
                })
                .collect();
            for h in handles {
                h.join().expect("latency client panicked");
            }
        });
    };

    // Warm-up pass: first-touch allocation and thread spin-up would
    // otherwise contaminate the tail.
    stream(&encodings);
    em_obs::reset();
    let t0 = Instant::now();
    stream(&encodings);
    let secs = t0.elapsed().as_secs_f64();
    let eps = encodings.len() as f64 / secs;

    let mut stages = std::collections::BTreeMap::new();
    for (key, name) in [
        ("queue_wait", "serve/queue_wait"),
        ("batch_wait", "serve/batch_wait"),
        ("forward", "serve/forward"),
        ("e2e", "serve/e2e"),
    ] {
        let h = em_obs::histogram_snapshot(name)
            .unwrap_or_else(|| panic!("{name} histogram missing — is EM_OBS off?"));
        stages.insert(key.to_string(), StageLatency::from_histogram(&h));
    }
    let snapshot = em_obs::snapshot();
    let slow_requests = snapshot
        .counters
        .iter()
        .find(|(n, _)| n == "serve/slow_requests")
        .map_or(0, |(_, v)| *v);
    for (key, s) in &stages {
        eprintln!(
            "{key:>10}: p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms  max {:.3}ms  (n={})",
            s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms, s.count
        );
    }
    eprintln!(
        "latency stream: {secs:.2}s ({eps:.1} examples/s), {slow_requests} requests over {slow_ms}ms"
    );

    let report = LatencyReport {
        arch: arch.name().to_string(),
        pairs: pairs.len(),
        workers,
        clients,
        max_len,
        max_batch,
        seconds: secs,
        examples_per_sec: eps,
        slow_request_threshold_ms: slow_ms,
        slow_requests,
        stages,
    };
    let dir = std::path::PathBuf::from(RESULTS_DIR);
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("serve_latency.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize latency report"),
    )
    .expect("write serve_latency.json");
    eprintln!("[saved] {}", path.display());
    // The same metrics in scrape form — what a /metrics endpoint would
    // serve (histogram _bucket/_sum/_count series included).
    let prom_path = dir.join("serve_metrics.prom");
    std::fs::write(&prom_path, snapshot.prometheus_text()).expect("write serve_metrics.prom");
    eprintln!("[saved] {}", prom_path.display());
    em_obs::finish_to("servebench-latency", std::path::Path::new(RESULTS_DIR));
}

/// Chaos mode: a client swarm against a fault-injected supervised pool
/// with shedding, retry + backoff, and a Magellan fallback. Measures
/// availability — the fraction of requests that got an answer — and how
/// much recovery machinery that took.
fn chaos_run(args: &Args) {
    let smoke = args.has("smoke");
    let n_pairs: usize = args.get("pairs").unwrap_or(if smoke { 48 } else { 256 });
    let workers: usize = args.get("workers").unwrap_or(2);
    let clients: usize = args.get("clients").unwrap_or(4);
    let max_len: usize = args.get("max-len").unwrap_or(32);
    let seed: u64 = args.get("seed").unwrap_or(42);
    // Fault seed 1 provably panics batch 0 at panic_every=2 (the serve
    // tests pin the same schedule), so every chaos run exercises at least
    // one worker respawn regardless of batch timing.
    let fault_seed: u64 = args.get("fault-seed").unwrap_or(1);

    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(if smoke { 30 } else { 200 }, seed);
    let tokenizer = train_tokenizer(arch, &corpus, if smoke { 200 } else { 400 });
    let mut cfg = if smoke {
        TransformerConfig::tiny(arch, tokenizer.vocab_size())
    } else {
        TransformerConfig::small(arch, tokenizer.vocab_size())
    };
    cfg.max_position = cfg.max_position.max(max_len);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    let frozen = freeze_parts(&model, &head, tokenizer, max_len);

    let ds = DatasetId::AbtBuy.generate(0.05, seed);
    let mut pairs: Vec<EntityPair> = ds.pairs.clone();
    while pairs.len() < n_pairs {
        pairs.extend(ds.pairs.clone());
    }
    pairs.truncate(n_pairs);

    // The degraded-mode fallback: a real fitted Magellan classifier, as
    // production would deploy (not a stub), trained on the dataset split.
    let mut srng = StdRng::seed_from_u64(seed);
    let split = ds.split(&mut srng);
    let magellan = MagellanMatcher::fit(
        &ds.effective_attributes(),
        &split.train,
        MagellanLearner::LogisticRegression,
        seed,
    );

    let plan = FaultPlan {
        seed: fault_seed,
        panic_every: 2,
        delay_every: 7,
        delay: std::time::Duration::from_millis(2),
        error_every: 5,
    };
    eprintln!(
        "servebench --chaos: {} pairs, {workers} workers, {clients} clients, \
         fault seed {fault_seed} (panic 1/{}, delay 1/{}, error 1/{})",
        pairs.len(),
        plan.panic_every,
        plan.delay_every,
        plan.error_every
    );
    let serve_cfg = ServeConfig::builder()
        .workers(workers)
        .max_batch(8)
        .cache_capacity(0)
        .request_timeout_ms(5_000)
        .shed(true)
        .max_requeues(2)
        .fault(plan.clone())
        .build()
        .expect("valid chaos serve config");
    let matcher =
        Arc::new(ServeMatcher::start(frozen, serve_cfg).with_fallback(Box::new(magellan)));

    let t0 = Instant::now();
    let chunk = pairs.len().div_ceil(clients.max(1));
    let answered: usize = std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| {
                let matcher = Arc::clone(&matcher);
                let ds = &ds;
                s.spawn(move || match matcher.try_predict_scores(ds, slice) {
                    Ok(scores) => scores.len(),
                    Err(e) => {
                        eprintln!("chaos client chunk failed: {e}");
                        0
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client panicked"))
            .sum()
    });
    let secs = t0.elapsed().as_secs_f64();
    let stats = matcher.stats();
    let availability = answered as f64 / pairs.len() as f64;
    eprintln!(
        "chaos: availability {availability:.4} in {secs:.2}s — {} restarts, \
         {} degraded, {} shed, {} retries",
        stats.worker_restarts, stats.degraded, stats.shed, stats.retries
    );
    assert!(
        availability >= 0.99,
        "chaos availability {availability} below the 0.99 floor"
    );

    let report = ChaosReport {
        arch: arch.name().to_string(),
        pairs: pairs.len(),
        workers,
        clients,
        fault_seed,
        panic_every: plan.panic_every,
        delay_every: plan.delay_every,
        error_every: plan.error_every,
        seconds: secs,
        availability,
        worker_restarts: stats.worker_restarts,
        degraded_requests: stats.degraded,
        shed_requests: stats.shed,
        retries: stats.retries,
        requests: stats.requests,
    };
    let path = std::path::PathBuf::from(RESULTS_DIR).join("serve_chaos.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize chaos report"),
    )
    .expect("write serve_chaos.json");
    eprintln!("[saved] {}", path.display());
    em_obs::finish_to("servebench-chaos", std::path::Path::new(RESULTS_DIR));
}

/// Nearest-rank percentile of an ascending-sorted latency list.
fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Load mode: open-loop HTTP load against an in-process gateway, then a
/// chaos phase where availability is measured from the client side of
/// the socket. See the module docs.
fn load_run(args: &Args) {
    use em_core::api::MatchRequest;
    use em_gateway::{Gateway, GatewayConfig, HttpClient};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::Duration;

    let smoke = args.has("smoke");
    let requests: usize = args
        .get("requests")
        .unwrap_or(if smoke { 128 } else { 384 });
    let max_workers: usize = args.get("workers").unwrap_or(if smoke { 2 } else { 4 });
    let clients: usize = args
        .get("clients")
        .unwrap_or(if smoke { 4 } else { 8 })
        .max(1);
    // Smoke offers a gentle rate (CI just checks the pipeline works);
    // the full run offers enough to saturate the low worker counts so
    // the curve actually bends.
    let rps: f64 = args
        .get("rps")
        .unwrap_or(if smoke { 200.0 } else { 1500.0 });
    let max_batch: usize = args.get("batch").unwrap_or(8);
    let max_len: usize = args.get("max-len").unwrap_or(32);
    let seed: u64 = args.get("seed").unwrap_or(42);
    let fault_seed: u64 = args.get("fault-seed").unwrap_or(1);

    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(if smoke { 30 } else { 200 }, seed);
    let tokenizer = train_tokenizer(arch, &corpus, if smoke { 200 } else { 400 });
    let mut cfg = if smoke {
        TransformerConfig::tiny(arch, tokenizer.vocab_size())
    } else {
        TransformerConfig::small(arch, tokenizer.vocab_size())
    };
    cfg.max_position = cfg.max_position.max(max_len);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    // Each sweep point needs its own pool over its own frozen copy;
    // freezing is cheap next to model construction.
    let make_frozen = || freeze_parts(&model, &head, tokenizer.clone(), max_len);

    // The wire workload: real serialized entity records as single-pair
    // JSON bodies, reused cyclically up to `requests`.
    let ds = DatasetId::AbtBuy.generate(0.05, seed);
    let bodies: Vec<String> = (0..requests)
        .map(|i| {
            let p = &ds.pairs[i % ds.pairs.len()];
            let req = MatchRequest::single(ds.serialize_record(&p.a), ds.serialize_record(&p.b));
            serde_json::to_string(&req).expect("serialize request body")
        })
        .collect();
    eprintln!(
        "servebench --load: {requests} requests/point at {rps:.0} rps open-loop, \
         {clients} clients, workers 1..={max_workers}"
    );

    // ---- Phase 1: saturation sweep over real sockets -----------------
    let mut saturation = Vec::new();
    let mut workers = 1;
    while workers <= max_workers {
        let serve_cfg = ServeConfig::builder()
            .workers(workers)
            .max_batch(max_batch)
            .cache_capacity(0) // measure forwards, not cache hits
            .queue_depth(64)
            .shed(true)
            .request_timeout_ms(5_000)
            .build()
            .expect("valid load serve config");
        let matcher = Arc::new(ServeMatcher::start(make_frozen(), serve_cfg));
        let gateway = Gateway::spawn(Arc::clone(&matcher), GatewayConfig::default())
            .expect("gateway binds an ephemeral port");
        let addr = gateway.addr();

        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        // (status, latency from scheduled arrival) per request; 0 = io error.
        let outcomes: Vec<(u16, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let next = &next;
                    let bodies = &bodies;
                    s.spawn(move || {
                        let mut client = HttpClient::connect(addr).expect("client addr");
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= bodies.len() {
                                return out;
                            }
                            // Open loop: request i is *due* at t0 + i/rps
                            // no matter how slow the server is.
                            let due = t0 + Duration::from_secs_f64(i as f64 / rps);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let status = match client.post_json("/match", &bodies[i]) {
                                Ok(resp) => resp.status,
                                Err(_) => 0,
                            };
                            out.push((status, due.elapsed().as_secs_f64() * 1e3));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("load client panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        drop(gateway);
        drop(matcher);

        let ok_count = outcomes.iter().filter(|(s, _)| *s == 200).count();
        let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
        let timeout = outcomes.iter().filter(|(s, _)| *s == 504).count();
        let errors = outcomes.len() - ok_count - shed - timeout;
        let mut lat: Vec<f64> = outcomes
            .iter()
            .filter(|(s, _)| *s == 200)
            .map(|(_, l)| *l)
            .collect();
        lat.sort_by(f64::total_cmp);
        let point = LoadPoint {
            workers,
            offered_rps: rps,
            achieved_rps: ok_count as f64 / wall,
            sent: outcomes.len(),
            ok: ok_count,
            shed,
            timeout,
            errors,
            p50_ms: percentile_ms(&lat, 0.50),
            p99_ms: percentile_ms(&lat, 0.99),
            mean_ms: if lat.is_empty() {
                0.0
            } else {
                lat.iter().sum::<f64>() / lat.len() as f64
            },
            max_ms: lat.last().copied().unwrap_or(0.0),
        };
        eprintln!(
            "load x{workers}: {:.1}/s achieved of {rps:.0}/s offered — \
             p50 {:.1}ms p99 {:.1}ms ({} ok, {} shed, {} timeout, {} errors)",
            point.achieved_rps,
            point.p50_ms,
            point.p99_ms,
            point.ok,
            point.shed,
            point.timeout,
            point.errors
        );
        assert!(
            point.ok > 0,
            "no request succeeded at {workers} workers — the gateway is not serving"
        );
        saturation.push(point);
        workers *= 2;
    }

    // ---- Phase 2: chaos over the wire, availability as the client sees
    // it. Workers panic on average every other batch; the only recovery
    // the client brings is retry-with-backoff on retryable statuses.
    let plan = FaultPlan {
        seed: fault_seed,
        panic_every: 2,
        delay_every: 7,
        delay: Duration::from_millis(2),
        error_every: 5,
    };
    let serve_cfg = ServeConfig::builder()
        .workers(2)
        .max_batch(max_batch)
        .cache_capacity(0)
        .request_timeout_ms(5_000)
        .shed(true)
        .max_requeues(2)
        .fault(plan.clone())
        .build()
        .expect("valid wire-chaos serve config");
    let matcher = Arc::new(ServeMatcher::start(make_frozen(), serve_cfg));
    let gateway = Gateway::spawn(Arc::clone(&matcher), GatewayConfig::default())
        .expect("gateway binds an ephemeral port");
    let addr = gateway.addr();
    eprintln!(
        "load chaos: {} requests over the wire, panic 1/{}, delay 1/{}, error 1/{}",
        bodies.len(),
        plan.panic_every,
        plan.delay_every,
        plan.error_every
    );

    let retries = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let answered: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                let bodies = &bodies;
                let retries = &retries;
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("client addr");
                    let mut answered = 0usize;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= bodies.len() {
                            return answered;
                        }
                        // The whole point: a plain HTTP client with
                        // bounded retry sees an available service even
                        // while workers panic underneath. With panics
                        // every other batch an attempt fails ~1/3 of
                        // the time; 8 attempts push per-request failure
                        // odds below 1e-3.
                        for attempt in 0..8u32 {
                            let retryable = match client.post_json("/match", &bodies[i]) {
                                Ok(resp) if resp.status == 200 => {
                                    answered += 1;
                                    break;
                                }
                                Ok(resp) => [429, 503, 504].contains(&resp.status),
                                Err(_) => true,
                            };
                            if !retryable || attempt == 7 {
                                break;
                            }
                            retries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(2u64 << attempt.min(5)));
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client panicked"))
            .sum()
    });
    let stats = matcher.stats();
    drop(gateway);
    drop(matcher);
    let availability = answered as f64 / bodies.len() as f64;
    eprintln!(
        "load chaos: availability {availability:.4} — {} client retries, \
         {} worker restarts, {} shed",
        retries.load(Ordering::Relaxed),
        stats.worker_restarts,
        stats.shed
    );
    assert!(
        availability >= 0.99,
        "wire availability {availability} below the 0.99 floor"
    );

    let report = GatewayLoadReport {
        arch: arch.name().to_string(),
        smoke,
        clients,
        requests_per_point: requests,
        max_len,
        max_batch,
        saturation,
        chaos: WireChaosReport {
            requests: bodies.len(),
            answered,
            availability,
            client_retries: retries.load(Ordering::Relaxed),
            fault_seed,
            panic_every: plan.panic_every,
            worker_restarts: stats.worker_restarts,
            shed_requests: stats.shed,
            server_retries: stats.retries,
        },
    };
    let path = std::path::PathBuf::from(RESULTS_DIR).join("gateway_load.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize load report"),
    )
    .expect("write gateway_load.json");
    eprintln!("[saved] {}", path.display());
    em_obs::finish_to("servebench-load", std::path::Path::new(RESULTS_DIR));
}

/// One `(architecture, representation)` cell of the quantization
/// accuracy table in `serve_quant.json`.
#[derive(Serialize)]
struct QuantAccuracyRow {
    arch: String,
    mode: String,
    /// Test-set F1 (fraction, not percent) of this representation.
    f1: f64,
    /// `|f1 - f1_f32|` — the headline quantization-accuracy number.
    f1_delta_vs_f32: f64,
    /// Worst-case match-probability change against the f32 scores.
    max_score_delta_vs_f32: f64,
    weight_bytes: usize,
}

/// Served throughput of one weight representation.
#[derive(Serialize)]
struct QuantThroughputRow {
    mode: String,
    seconds: f64,
    examples_per_sec: f64,
    /// `examples_per_sec / f32 examples_per_sec` (1.0 for the f32 row).
    speedup_vs_f32: f64,
    batches: u64,
    weight_bytes: usize,
    /// Weight bytes streamed per scored pair: every batch reads the
    /// full weight set once, so this is `weight_bytes × batches /
    /// examples` — the memory-traffic win quantization is after.
    weight_bytes_per_pair: f64,
}

/// Checkpoint save/load numbers for one representation.
#[derive(Serialize)]
struct QuantCheckpointRow {
    mode: String,
    file_bytes: usize,
    save_ms: f64,
    load_ms: f64,
    /// `"mmap"` (zero-copy) or `"read"` (fallback buffer).
    load_mode: String,
    /// Loaded scores are bitwise equal to the saved matcher's.
    roundtrip_exact: bool,
}

/// The hot-swap-under-traffic phase: f32 → int8 while clients stream.
#[derive(Serialize)]
struct HotSwapPhase {
    /// Requests answered with a score across the whole phase.
    requests: u64,
    /// Requests that came back as errors — must be 0.
    failed: u64,
    version_before: u64,
    version_after: u64,
    swaps: u64,
}

/// Everything `--quant` writes to `results/serve_quant.json`.
#[derive(Serialize)]
struct QuantReport {
    smoke: bool,
    train_epochs: usize,
    accuracy_train_pairs: usize,
    accuracy_test_pairs: usize,
    throughput_pairs: usize,
    max_len: usize,
    max_batch: usize,
    workers: usize,
    clients: usize,
    accuracy: Vec<QuantAccuracyRow>,
    throughput: Vec<QuantThroughputRow>,
    checkpoints: Vec<QuantCheckpointRow>,
    hot_swap: HotSwapPhase,
    /// Process peak resident set (`VmHWM`), bytes; 0 off Linux.
    peak_rss_bytes: u64,
}

/// Peak resident set size of this process from `/proc/self/status`
/// (`VmHWM`, the high-water mark), in bytes. 0 when unreadable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Quantization mode: the accuracy/speed/footprint trade of int8
/// weights against f32, plus checkpoint I/O and a live hot swap.
fn quant_run(args: &Args) {
    let smoke = args.has("smoke");
    let seed: u64 = args.get("seed").unwrap_or(42);
    let epochs: usize = args.get("epochs").unwrap_or(if smoke { 1 } else { 8 });
    let n_pairs: usize = args.get("pairs").unwrap_or(if smoke { 64 } else { 256 });
    let workers: usize = args.get("workers").unwrap_or(2);
    let clients: usize = args.get("clients").unwrap_or(4);
    let max_batch: usize = args.get("batch").unwrap_or(16);
    let max_len: usize = args.get("max-len").unwrap_or(64);
    let repeats: usize = args
        .get("repeats")
        .unwrap_or(if smoke { 1 } else { 3 })
        .max(1);
    let modes = [QuantMode::F32, QuantMode::Int8];

    // ---- accuracy: fine-tuned models, all four archs ----------------
    //
    // A random model scores everything near the decision boundary,
    // where quantization noise flips labels and F1 deltas mean nothing
    // — and tiny configs fine-tuned *from scratch* collapse to
    // all-negative (F1 0; see the Figure 10 reproduction), which makes
    // every delta vacuously zero. The full run therefore replays the
    // Figure 14 recipe: pre-trained Small encoders (cached under
    // `target/em-cache`) fine-tuned on DBLP-Scholar, the dataset the
    // scaled-down models actually learn, so the int8 deltas are
    // measured on a classifier that predicts real positives. Smoke
    // keeps from-scratch tiny models — CI checks the plumbing and the
    // score-delta bound, not absolute F1.
    let exp = ExperimentConfig::builder()
        .scale(0.04)
        .epochs(epochs)
        .seed(seed)
        .pretrain_epochs(6)
        .build()
        .expect("valid experiment config");
    let (ds, split) = if smoke {
        let ds = DatasetId::DblpScholar.generate(0.05, seed);
        let mut srng = StdRng::seed_from_u64(seed);
        let mut split = ds.split(&mut srng);
        // The stratified split lists positives first; shuffle before
        // truncating so the shortened sets keep both classes.
        split.train.shuffle(&mut srng);
        split.test.shuffle(&mut srng);
        split.train.truncate(48);
        split.test.truncate(32);
        (ds, split)
    } else {
        exp.dataset_and_split(DatasetId::DblpScholar)
    };
    eprintln!(
        "servebench --quant: accuracy on {} train / {} test pairs, {epochs} epoch(s) per arch",
        split.train.len(),
        split.test.len()
    );

    let mut accuracy = Vec::new();
    for arch in [
        Architecture::Bert,
        Architecture::Roberta,
        Architecture::DistilBert,
        Architecture::Xlnet,
    ] {
        let (model, tokenizer) = if smoke {
            let corpus = em_data::generate_corpus(30, seed);
            let tokenizer = train_tokenizer(arch, &corpus, 200);
            let cfg = TransformerConfig::tiny(arch, tokenizer.vocab_size());
            (TransformerModel::new(cfg, seed), tokenizer)
        } else {
            let ckpt = get_or_pretrain(arch, &exp);
            (ckpt.instantiate(seed), ckpt.tokenizer)
        };
        let ft = FineTuneConfig {
            epochs,
            // The Figure-run fine-tune seed (run 0), so full-mode F1
            // matches the cached curves exactly.
            seed: seed ^ 0xF1E0,
            ..exp.finetune.clone()
        };
        let (matcher, _) = fine_tune(model, tokenizer, &ds, &split.train, &split.test, &ft);
        let frozen = FrozenMatcher::from(&matcher);
        let encodings: Vec<em_tokenizers::Encoding> =
            split.test.iter().map(|p| frozen.encode(&ds, p)).collect();
        let truth: Vec<bool> = split.test.iter().map(|p| p.label).collect();
        let f1_of = |scores: &[f32]| {
            let preds: Vec<bool> = scores.iter().map(|&s| s > 0.5).collect();
            em_data::PrF1::from_predictions(&preds, &truth).f1()
        };
        let base = frozen.score_encodings(&encodings);
        let f1_f32 = f1_of(&base);
        for mode in modes {
            let q = frozen.quantize(mode);
            let scores = q.score_encodings(&encodings);
            let max_delta = scores
                .iter()
                .zip(&base)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            let f1 = f1_of(&scores);
            eprintln!(
                "  {:>10} {mode}: f1 {f1:.3} (Δ {:.4}), max score Δ {max_delta:.2e}, \
                 weights {} KiB",
                arch.name(),
                (f1 - f1_f32).abs(),
                q.weight_bytes() / 1024
            );
            accuracy.push(QuantAccuracyRow {
                arch: arch.name().to_string(),
                mode: mode.name().to_string(),
                f1,
                f1_delta_vs_f32: (f1 - f1_f32).abs(),
                max_score_delta_vs_f32: max_delta as f64,
                weight_bytes: q.weight_bytes(),
            });
        }
    }

    // ---- throughput: the served forward path per representation -----
    //
    // Same protocol as the default mode (ragged stream through a fresh
    // pool, best of `repeats`, cache off), random weights — throughput
    // does not care about F1.
    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(if smoke { 30 } else { 200 }, seed);
    let tokenizer = train_tokenizer(arch, &corpus, if smoke { 200 } else { 400 });
    let mut cfg = if smoke {
        TransformerConfig::tiny(arch, tokenizer.vocab_size())
    } else {
        // Serving-scale geometry. The research configs keep hidden at
        // 32/64 where every per-layer GEMM is a few dozen vector ops
        // wide and fixed per-call overhead dominates — no weight
        // representation can matter there. Scaling to hidden 256 /
        // inner 1024 puts the attention and FFN matmuls in the regime
        // the paper's BERT-class models actually occupy (and where the
        // int8 kernel streams 4x fewer weight bytes per batch).
        let mut c = TransformerConfig::small(arch, tokenizer.vocab_size());
        c.hidden = 256;
        c.inner = 1024;
        c.heads = 4;
        c
    };
    cfg.max_position = cfg.max_position.max(max_len);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    let frozen = freeze_parts(&model, &head, tokenizer.clone(), max_len);

    let mut pairs: Vec<EntityPair> = ds.pairs.clone();
    while pairs.len() < n_pairs {
        pairs.extend(ds.pairs.clone());
    }
    pairs.truncate(n_pairs);
    let encodings: Vec<em_tokenizers::Encoding> =
        pairs.iter().map(|p| frozen.encode(&ds, p)).collect();
    eprintln!(
        "servebench --quant: throughput on {} pairs, {} (hidden {hidden}), \
         {workers} workers, {clients} clients",
        pairs.len(),
        arch.name()
    );

    let run_once = |frozen_m: &FrozenMatcher| {
        let serve_cfg = ServeConfig::builder()
            .workers(workers)
            .max_batch(max_batch)
            .cache_capacity(0) // throughput of the forward path, not the cache
            .build()
            .expect("valid quant serve config");
        let serve = Arc::new(ServeMatcher::start(frozen_m.clone(), serve_cfg));
        let t = Instant::now();
        let chunk = encodings.len().div_ceil(clients.max(1));
        std::thread::scope(|s| {
            for slice in encodings.chunks(chunk) {
                let serve = Arc::clone(&serve);
                s.spawn(move || {
                    serve.score_encodings(slice).expect("serving failed");
                });
            }
        });
        (t.elapsed().as_secs_f64(), serve.stats())
    };

    let mut throughput = Vec::new();
    let mut f32_eps = 0.0_f64;
    for mode in modes {
        let q = frozen.quantize(mode);
        let (secs, stats) = (0..repeats)
            .map(|_| run_once(&q))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one repeat");
        let eps = encodings.len() as f64 / secs;
        if mode == QuantMode::F32 {
            f32_eps = eps;
        }
        let weight_bytes = q.weight_bytes();
        let weight_bytes_per_pair =
            weight_bytes as f64 * stats.batches as f64 / stats.examples.max(1) as f64;
        eprintln!(
            "  serve {mode}: {secs:.2}s ({eps:.1} examples/s, {:.2}x f32), \
             {:.0} weight KiB/pair",
            eps / f32_eps,
            weight_bytes_per_pair / 1024.0
        );
        throughput.push(QuantThroughputRow {
            mode: mode.name().to_string(),
            seconds: secs,
            examples_per_sec: eps,
            speedup_vs_f32: eps / f32_eps,
            batches: stats.batches,
            weight_bytes,
            weight_bytes_per_pair,
        });
    }

    // ---- checkpoints: save/load wall time, zero-copy, roundtrip -----
    let probe = &encodings[..encodings.len().min(32)];
    let mut checkpoints = Vec::new();
    for mode in modes {
        let q = frozen.quantize(mode);
        let path = std::env::temp_dir().join(format!(
            "servebench_quant_{}_{}.emckpt",
            std::process::id(),
            mode.name()
        ));
        let t = Instant::now();
        em_serve::checkpoint::save(&q, &path).expect("save checkpoint");
        let save_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let loaded = em_serve::checkpoint::load(&path, tokenizer.clone()).expect("load checkpoint");
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        let roundtrip_exact = loaded.matcher.score_encodings(probe) == q.score_encodings(probe);
        assert!(
            roundtrip_exact,
            "{mode} checkpoint roundtrip changed scores"
        );
        eprintln!(
            "  checkpoint {mode}: {} KiB, save {save_ms:.1}ms, load {load_ms:.2}ms ({}), \
             roundtrip exact",
            loaded.file_bytes / 1024,
            loaded.load_mode
        );
        checkpoints.push(QuantCheckpointRow {
            mode: mode.name().to_string(),
            file_bytes: loaded.file_bytes,
            save_ms,
            load_ms,
            load_mode: loaded.load_mode.to_string(),
            roundtrip_exact,
        });
        let _ = std::fs::remove_file(&path);
    }

    // ---- hot swap under traffic: f32 → int8, zero dropped requests --
    let serve_cfg = ServeConfig::builder()
        .workers(workers)
        .max_batch(max_batch)
        .cache_capacity(64) // the version-keyed cache is part of the swap path
        .build()
        .expect("valid quant serve config");
    let serve = Arc::new(ServeMatcher::start(frozen.clone(), serve_cfg));
    let version_before = serve.model_version();
    let int8 = frozen.quantize(QuantMode::Int8);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let settle = std::time::Duration::from_millis(if smoke { 40 } else { 120 });
    let (requests, failed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                let serve = Arc::clone(&serve);
                let stop = Arc::clone(&stop);
                let encodings = &encodings;
                s.spawn(move || {
                    let (mut ok, mut failed) = (0u64, 0u64);
                    let mut i = c;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        match serve.score(&encodings[i % encodings.len()]) {
                            Ok(_) => ok += 1,
                            Err(_) => failed += 1,
                        }
                        i += 1;
                    }
                    (ok, failed)
                })
            })
            .collect();
        std::thread::sleep(settle);
        serve.swap_model(int8).expect("compatible hot swap refused");
        std::thread::sleep(settle);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("swap client panicked"))
            .fold((0u64, 0u64), |acc, (ok, f)| (acc.0 + ok, acc.1 + f))
    });
    let version_after = serve.model_version();
    let swaps = serve.stats().swaps;
    assert_eq!(failed, 0, "hot swap dropped {failed} requests");
    assert!(
        version_after > version_before,
        "swap did not advance the model version"
    );
    eprintln!(
        "  hot swap: {requests} requests, {failed} failed, \
         version {version_before} → {version_after} ({swaps} swap)"
    );

    let report = QuantReport {
        smoke,
        train_epochs: epochs,
        accuracy_train_pairs: split.train.len(),
        accuracy_test_pairs: split.test.len(),
        throughput_pairs: pairs.len(),
        max_len,
        max_batch,
        workers,
        clients,
        accuracy,
        throughput,
        checkpoints,
        hot_swap: HotSwapPhase {
            requests,
            failed,
            version_before,
            version_after,
            swaps,
        },
        peak_rss_bytes: peak_rss_bytes(),
    };
    let dir = std::path::PathBuf::from(RESULTS_DIR);
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("serve_quant.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize quant report"),
    )
    .expect("write serve_quant.json");
    eprintln!("[saved] {}", path.display());
    em_obs::finish_to("servebench-quant", std::path::Path::new(RESULTS_DIR));
}

fn main() {
    let args = Args::parse();
    if args.has("quant") {
        quant_run(&args);
        return;
    }
    if args.has("load") {
        load_run(&args);
        return;
    }
    if args.has("chaos") {
        chaos_run(&args);
        return;
    }
    if args.has("latency") {
        latency_run(&args);
        return;
    }
    let n_pairs: usize = args.get("pairs").unwrap_or(256);
    let max_workers: usize = args.get("workers").unwrap_or(4);
    let clients: usize = args.get("clients").unwrap_or(8);
    let max_batch: usize = args.get("batch").unwrap_or(32);
    let max_len: usize = args.get("max-len").unwrap_or(128);
    let repeats: usize = args.get("repeats").unwrap_or(3).max(1);
    let seed: u64 = args.get("seed").unwrap_or(42);

    // A randomly initialized matcher: throughput does not care about F1,
    // and skipping pre-training keeps the bench (and its CI smoke run)
    // fast while exercising the exact serving arithmetic.
    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(200, seed);
    let tokenizer = train_tokenizer(arch, &corpus, 400);
    let mut cfg = TransformerConfig::small(arch, tokenizer.vocab_size());
    // The served model must accept the configured request length: size
    // the position table to it (the `small` default stops at 128).
    cfg.max_position = cfg.max_position.max(max_len);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    let matcher = EmMatcher {
        model,
        head,
        tokenizer,
        max_len,
        eval_batch: 32,
    };

    let ds = DatasetId::AbtBuy.generate(0.05, seed);
    let mut pairs: Vec<EntityPair> = ds.pairs.clone();
    while pairs.len() < n_pairs {
        pairs.extend(ds.pairs.clone());
    }
    pairs.truncate(n_pairs);
    eprintln!(
        "servebench: {} pairs, max_len {}, {} (hidden {})",
        pairs.len(),
        max_len,
        arch.name(),
        hidden
    );

    // Sequential batch-1 baseline: one pair per `predict_scores` call.
    let t0 = Instant::now();
    let mut seq_scores = Vec::with_capacity(pairs.len());
    for p in &pairs {
        seq_scores.extend(matcher.predict_scores(&ds, std::slice::from_ref(p)));
    }
    let seq_secs = t0.elapsed().as_secs_f64();
    let seq_eps = pairs.len() as f64 / seq_secs;
    eprintln!("sequential batch-1: {seq_secs:.2}s ({seq_eps:.1} examples/s)");

    let frozen = FrozenMatcher::from(&matcher);
    // The same request stream in both shapes: ragged (dynamic buckets)
    // and pre-padded to max_len (the pre-PR request shape).
    let ragged: Vec<em_tokenizers::Encoding> =
        pairs.iter().map(|p| frozen.encode(&ds, p)).collect();
    let padded: Vec<em_tokenizers::Encoding> =
        ragged.iter().map(|e| e.padded_to(max_len)).collect();
    let padding_efficiency =
        ragged.iter().map(|e| e.real_span() as f64).sum::<f64>() / (ragged.len() * max_len) as f64;
    eprintln!("padding efficiency of fixed-length requests: {padding_efficiency:.2}");

    // One timed pass of `encodings` through a fresh worker pool.
    let run_stream_once = |workers: usize, encodings: &[em_tokenizers::Encoding]| {
        let serve_cfg = ServeConfig::builder()
            .workers(workers)
            .max_batch(max_batch)
            .cache_capacity(0) // throughput of the forward path, not the cache
            .build()
            .expect("valid serve config");
        let serve = Arc::new(ServeMatcher::start(frozen.clone(), serve_cfg));
        let t1 = Instant::now();
        let chunk = encodings.len().div_ceil(clients.max(1));
        let scores: Vec<f32> = std::thread::scope(|s| {
            let handles: Vec<_> = encodings
                .chunks(chunk)
                .map(|slice| {
                    let serve = Arc::clone(&serve);
                    s.spawn(move || serve.score_encodings(slice).expect("serving failed"))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let secs = t1.elapsed().as_secs_f64();
        // The frozen kernels reorder float arithmetic (FMA, fused bias,
        // polynomial exp/tanh); scores agree with autograd to ~1e-5.
        let max_diff = scores
            .iter()
            .zip(&seq_scores)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff <= 1e-3,
            "served scores diverged from the autograd baseline: {max_diff}"
        );
        (secs, serve.stats())
    };
    // Best of `repeats` passes (stats come from the best pass) —
    // scheduler noise only ever slows a pass down.
    let run_stream = |workers: usize, encodings: &[em_tokenizers::Encoding]| {
        (0..repeats)
            .map(|_| run_stream_once(workers, encodings))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one repeat")
    };

    let mut serve_runs = Vec::new();
    let mut workers = 1;
    // Sweep 1, 2, 4, … up to --workers.
    while workers <= max_workers {
        let (padded_secs, _) = run_stream(workers, &padded);
        let (secs, stats) = run_stream(workers, &ragged);
        let eps = pairs.len() as f64 / secs;
        let padded_eps = pairs.len() as f64 / padded_secs;
        let dynamic_speedup = eps / padded_eps;
        em_obs::gauge_set("serve/examples_per_sec", eps);
        eprintln!(
            "serve x{workers}: dynamic {secs:.2}s ({eps:.1} examples/s, {:.1}x seq, fill {:.2}) \
             vs padded {padded_secs:.2}s ({padded_eps:.1}/s) — {dynamic_speedup:.2}x",
            eps / seq_eps,
            stats.batch_fill()
        );
        serve_runs.push(ServeRun {
            workers,
            clients,
            seconds: secs,
            examples_per_sec: eps,
            speedup_vs_sequential: eps / seq_eps,
            batches: stats.batches,
            batch_fill: stats.batch_fill(),
            padded_seconds: padded_secs,
            padded_examples_per_sec: padded_eps,
            dynamic_speedup,
        });
        workers *= 2;
    }

    let report = ServeBenchReport {
        arch: arch.name().to_string(),
        pairs: pairs.len(),
        max_len,
        max_batch,
        padding_efficiency,
        sequential_seconds: seq_secs,
        sequential_examples_per_sec: seq_eps,
        serve: serve_runs,
    };
    let path = std::path::PathBuf::from(RESULTS_DIR).join("serve_bench.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize report"),
    )
    .expect("write serve_bench.json");
    eprintln!("[saved] {}", path.display());
    em_obs::finish_to("servebench", std::path::Path::new(RESULTS_DIR));
}
