//! `gateway_open` and `gateway_hot`: HTTP request in, score out, through
//! an in-process `em_gateway::Gateway` over loopback. One server
//! configuration, one request shape, two pair streams: every pair unique
//! (the score cache cannot hit, the int8 forward runs on every request)
//! or 90 % drawn from a hot set the cache holds (the forward does little
//! and HTTP, JSON, tokenizing and the cache dominate).
//!
//! Load comes from this process: two threads, one keep-alive connection
//! each. The open-loop legs send single-pair requests on a fixed
//! schedule and time each from the instant it was *due*; the closed-loop
//! leg sends batch-of-8 bodies back to back.

use crate::layers;
use crate::model::{bench_matcher, catalog_tokenizer, warmup_pairs};
use crate::report::Outcome;
use crate::spec::{
    Sizes, BATCH_BODY_PAIRS, GATEWAY_HOT, GATEWAY_OPEN, LAG_LIMIT_MS, LATENCY_LIMIT_MS, LEG_SHARES,
    RESCORE_SAMPLES, SCORE_TOLERANCE,
};
use crate::stats::{fast_quartile, median, peak_rss_mib, percentile, rate};
use crate::trace::SpanLog;
use crate::{em_obs_recording, timed_setup, RunArgs};
use em_core::api::{MatchRequest, MatchResponse, TextPair};
use em_data::CatalogTables;
use em_gateway::{Gateway, GatewayConfig, HttpClient};
use em_serve::{FrozenMatcher, QuantMode, ServeConfig, ServeMatcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pair ids come from a virtual table this large; rows are generated on
/// demand, so the size costs nothing and ids never run out.
const PAIR_UNIVERSE: u32 = 4_000_000;
/// Share of `gateway_hot` pairs drawn from the hot set.
const HOT_SHARE: f64 = 0.9;
/// One response in this many is kept for the score gate.
const KEEP_EVERY: usize = 16;
/// The closed-loop leg runs as this many slices; a traced run alternates
/// tracing off and on between them.
const CLOSED_SLICES: usize = 5;

/// The running server and what set-up measured on the way.
struct Server {
    tables: CatalogTables,
    matcher: Arc<ServeMatcher>,
    gateway: Gateway,
    save_s: f64,
    load_s: f64,
    checkpoint_bytes: u64,
}

/// Everything before warm-up: tables and tokenizer, model init, checkpoint
/// save + mmap load, int8 quantization, matcher and gateway start.
fn set_up(args: &RunArgs, checkpoint: &Path) -> Server {
    let sizes = &args.sizes;
    let tables = CatalogTables::new(PAIR_UNIVERSE, PAIR_UNIVERSE, args.seed);
    let tokenizer = catalog_tokenizer(sizes);
    let built = bench_matcher(tokenizer.clone(), sizes);
    let start = Instant::now();
    built.save_checkpoint(checkpoint).expect("save checkpoint");
    let save_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let loaded = FrozenMatcher::load_checkpoint(checkpoint, tokenizer).expect("load checkpoint");
    let load_s = start.elapsed().as_secs_f64();
    let checkpoint_bytes = std::fs::metadata(checkpoint).map_or(0, |m| m.len());
    let config = ServeConfig::builder()
        .workers(1)
        .build()
        .expect("valid serve config");
    let matcher = Arc::new(ServeMatcher::start(
        loaded.quantize(QuantMode::Int8),
        config,
    ));
    let gateway =
        Gateway::spawn(Arc::clone(&matcher), GatewayConfig::default()).expect("spawn gateway");
    Server {
        tables,
        matcher,
        gateway,
        save_s,
        load_s,
        checkpoint_bytes,
    }
}

/// One request: its JSON body and the ids of the pairs in it.
struct Request {
    body: String,
    pairs: Vec<u32>,
}

/// Generates the pair stream of one workload from the seed.
struct Traffic<'t> {
    tables: &'t CatalogTables,
    /// Texts of the hot set, ids `0..len`: 90 % of pairs come from here.
    /// Empty: every pair is unique.
    hot: Vec<TextPair>,
    rng: StdRng,
    next_fresh: u32,
}

impl<'t> Traffic<'t> {
    fn new(tables: &'t CatalogTables, hot_set: Option<u32>, seed: u64) -> Self {
        let hot = (0..hot_set.unwrap_or(0))
            .map(|id| Self::pair_text(tables, id))
            .collect();
        Self {
            tables,
            hot,
            rng: StdRng::seed_from_u64(seed ^ 0x007A_FF1C),
            // Fresh ids start above the hot set and above the warm-up's.
            next_fresh: 100_000,
        }
    }

    fn pair_text(tables: &CatalogTables, id: u32) -> TextPair {
        TextPair::new(tables.row_a(id).text, tables.row_b(id).text)
    }

    fn next_pair(&mut self) -> u32 {
        if !self.hot.is_empty() && self.rng.gen_bool(HOT_SHARE) {
            self.rng.gen_range(0..self.hot.len() as u32)
        } else {
            self.next_fresh += 1;
            self.next_fresh
        }
    }

    fn request(&mut self, pairs_in_body: usize) -> Request {
        let pairs: Vec<u32> = (0..pairs_in_body).map(|_| self.next_pair()).collect();
        let texts = pairs
            .iter()
            .map(|&id| match self.hot.get(id as usize) {
                Some(text) => text.clone(),
                None => Self::pair_text(self.tables, id),
            })
            .collect();
        let body = serde_json::to_string(&MatchRequest::batch(texts)).expect("serialize request");
        Request { body, pairs }
    }
}

/// What the load generator saw of one request.
struct Sample {
    request: usize,
    status: u16,
    /// Seconds from the instant the request was due (open loop) or sent
    /// (closed loop) to the end of its response.
    latency_s: f64,
    /// Seconds the generator sent it after it was both due and sendable.
    lag_s: f64,
    bytes_out: usize,
    bytes_in: usize,
    /// Response body, kept for one request in [`KEEP_EVERY`].
    body: Option<String>,
}

fn send(
    client: &mut HttpClient,
    request: &Request,
    index: usize,
    timed_from: Instant,
    lag_s: f64,
    log: &SpanLog,
    op: u64,
) -> Sample {
    let sent = Instant::now();
    let response = client.post_json("/match", &request.body);
    let end = Instant::now();
    let parent = log.add("loadgen.request", timed_from, end, 0, op);
    log.add("gateway.http", sent, end, parent, op);
    let (status, body) = match response {
        Ok(r) => (r.status, r.body),
        Err(_) => (0, String::new()),
    };
    Sample {
        request: index,
        status,
        latency_s: (end - timed_from).as_secs_f64(),
        lag_s,
        bytes_out: request.body.len(),
        bytes_in: body.len(),
        body: index.is_multiple_of(KEEP_EVERY).then_some(body),
    }
}

/// Sleep until `due`. Spinning through the last stretch was tried: it does
/// not make the generator more punctual on two cores (README.md, "Generator
/// lateness") and takes a core from the server it is measuring.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

/// Open loop: request `i` is due at `start + i / rate`; whichever of the
/// two connections is free takes the next one and sends it when due.
fn open_leg(
    clients: &mut [HttpClient],
    requests: &[Request],
    rate: f64,
    log: &SpanLog,
    op_base: u64,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let lanes: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let free_at = Instant::now();
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            return mine;
                        };
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        // Late only by the generator's own doing: after
                        // the request was due and a connection was free.
                        let lag = Instant::now() - due.max(free_at);
                        mine.push(send(
                            client,
                            request,
                            i,
                            due,
                            lag.as_secs_f64(),
                            log,
                            op_base + i as u64,
                        ));
                    }
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|lane| lane.join().expect("load generator thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.request);
    samples
}

/// Closed loop: each connection sends its next request the moment the
/// previous response ends, for `duration`. Returns samples and the wall.
fn closed_slice(
    clients: &mut [HttpClient],
    requests: &[Request],
    duration: Duration,
    log: &SpanLog,
    op_base: u64,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let lanes: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while start.elapsed() < duration {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        let now = Instant::now();
                        mine.push(send(client, request, i, now, 0.0, log, op_base + i as u64));
                    }
                    mine
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|lane| lane.join().expect("load generator thread panicked"))
            .collect()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Totals the load generator keeps across legs.
#[derive(Default)]
struct Totals {
    requests: u64,
    status_2xx: u64,
    status_4xx: u64,
    status_5xx: u64,
    bytes_in: u64,
    bytes_out: u64,
    failed: u64,
    lags_ms: Vec<f64>,
}

impl Totals {
    fn absorb(&mut self, samples: &[Sample], limit_s: Option<f64>) {
        for s in samples {
            self.requests += 1;
            match s.status {
                200..=299 => self.status_2xx += 1,
                400..=499 => self.status_4xx += 1,
                _ => self.status_5xx += 1, // includes refused / broken (0)
            }
            self.bytes_in += s.bytes_in as u64;
            self.bytes_out += s.bytes_out as u64;
            let late = limit_s.is_some_and(|l| s.latency_s > l);
            if s.status != 200 || late {
                self.failed += 1;
            }
            self.lags_ms.push(s.lag_s * 1e3);
        }
    }
}

fn within_limit_share(samples: &[Sample], limit_s: f64) -> f64 {
    let ok = samples
        .iter()
        .filter(|s| s.status == 200 && s.latency_s <= limit_s)
        .count();
    ok as f64 / samples.len().max(1) as f64
}

/// Median and p99 latency of every one-second window of an open-loop
/// leg's schedule. The leg's figures are taken over windows, so that one
/// host hiccup lands in one window and cannot set them — which a whole-leg
/// p99 resting on a dozen samples lets it do.
fn window_latencies_ms(samples: &[Sample], rate: f64) -> (Vec<f64>, Vec<f64>) {
    let per_window = (rate.round() as usize).max(1);
    samples
        .chunks(per_window)
        .filter(|w| w.len() * 2 >= per_window)
        .map(|w| {
            let ms = latencies_ms(w);
            (median(&ms), percentile(&ms, 0.99))
        })
        .unzip()
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| s.latency_s * 1e3)
        .collect()
}

/// Re-score kept responses in-process, int8 against int8, and compare.
fn check_scores(out: &mut Outcome, server: &Server, legs: &[(&[Request], &[Sample])]) {
    let frozen = server.matcher.frozen();
    let kept: Vec<(&Request, &str)> = legs
        .iter()
        .flat_map(|(requests, samples)| {
            samples.iter().filter_map(|s| {
                let body = s.body.as_deref()?;
                (s.status == 200).then_some((&requests[s.request], body))
            })
        })
        .collect();
    let step = kept.len().div_ceil(RESCORE_SAMPLES).max(1);
    let mut direct: HashMap<u32, f32> = HashMap::new();
    for (request, body) in kept.into_iter().step_by(step) {
        let response: MatchResponse = match serde_json::from_str(body) {
            Ok(r) => r,
            Err(e) => return out.problem(format!("unparseable 200 response: {e}")),
        };
        if response.results.len() != request.pairs.len() {
            return out.problem(format!(
                "response holds {} results for {} pairs",
                response.results.len(),
                request.pairs.len()
            ));
        }
        for (&id, result) in request.pairs.iter().zip(&response.results) {
            let expected = *direct.entry(id).or_insert_with(|| {
                let pair = Traffic::pair_text(&server.tables, id);
                let encoding = server.matcher.encode_text(&pair.left, &pair.right);
                frozen.score_encodings(&[encoding])[0]
            });
            if (expected - result.score).abs() > SCORE_TOLERANCE {
                return out.problem(format!(
                    "pair {id} scored {} over HTTP, {expected} in-process",
                    result.score
                ));
            }
        }
    }
}

/// Run `gateway_open` (`hot == false`) or `gateway_hot`.
pub fn run(hot: bool, args: &RunArgs, log: &SpanLog) -> Outcome {
    let name = if hot { GATEWAY_HOT } else { GATEWAY_OPEN };
    let mut out = Outcome::new(name, args.traced);
    let sizes: &Sizes = &args.sizes;
    let checkpoint = args.out_dir.join(format!("{name}.ckpt"));

    let (server, setup_s) = timed_setup(sizes.setup_reps, || set_up(args, &checkpoint));
    out.end_to_end("setup_s", setup_s);
    let addr: SocketAddr = server.gateway.addr();

    // --- The request streams, from the seed. ------------------------------
    let (nominal_rate, high_rate) = if hot {
        sizes.hot_rates
    } else {
        sizes.open_rates
    };
    let leg = |share: f64| args.seconds * share;
    let hot_set = hot.then_some(sizes.hot_set);
    let mut traffic = Traffic::new(&server.tables, hot_set, args.seed);
    let count = |seconds: f64, rate: f64| ((seconds * rate).round() as usize).max(8);
    let nominal: Vec<Request> = (0..count(leg(LEG_SHARES.0), nominal_rate))
        .map(|_| traffic.request(1))
        .collect();
    let high: Vec<Request> = (0..count(leg(LEG_SHARES.1), high_rate))
        .map(|_| traffic.request(1))
        .collect();
    // The closed loop runs for a time, not a count: twice what the high
    // rate would carry is more than the two connections can get through.
    let closed: Vec<Request> = (0..count(leg(LEG_SHARES.2), high_rate) * 2)
        .map(|_| traffic.request(BATCH_BODY_PAIRS))
        .collect();

    // --- Untimed warm-up: connections, every plan, the hot set cached. ----
    let mut clients: Vec<HttpClient> = (0..2)
        .map(|_| HttpClient::connect(addr).expect("client"))
        .collect();
    for (i, (left, right)) in warmup_pairs(&server.tables, sizes.max_len)
        .into_iter()
        .enumerate()
    {
        let body = serde_json::to_string(&MatchRequest::single(left, right)).expect("serialize");
        let status = clients[i % 2].post_json("/match", &body).map(|r| r.status);
        assert_eq!(status.ok(), Some(200), "warm-up request failed");
    }
    let mut warm = Traffic::new(&server.tables, None, args.seed);
    warm.next_fresh = 50_000;
    for client in clients.iter_mut() {
        let status = client
            .post_json("/match", &warm.request(BATCH_BODY_PAIRS).body)
            .map(|r| r.status);
        assert_eq!(status.ok(), Some(200), "warm-up batch failed");
    }
    if let Some(n) = hot_set {
        for id in 0..n {
            let pair = Traffic::pair_text(&server.tables, id);
            server
                .matcher
                .score_text(&pair.left, &pair.right)
                .expect("hot-set warm-up");
        }
    }
    let healthz_ms: Vec<f64> = (0..if args.traced { 200 } else { 0 })
        .map(|_| {
            let start = Instant::now();
            let _ = clients[0].get("/healthz");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // --- Timed window: nominal, high, closed. ------------------------------
    let limit_s = LATENCY_LIMIT_MS / 1e3;
    em_obs_recording(args.traced);
    let stats_before = server.matcher.stats();
    let obs_before = em_obs::snapshot();
    let window = Instant::now();
    let nominal_samples = open_leg(&mut clients, &nominal, nominal_rate, log, 1_000_000);
    let obs_nominal = em_obs::snapshot();
    let high_samples = open_leg(&mut clients, &high, high_rate, log, 2_000_000);
    let slice = Duration::from_secs_f64(leg(LEG_SHARES.2) / CLOSED_SLICES as f64);
    let mut closed_samples: Vec<Sample> = Vec::new();
    let mut slices: Vec<(bool, f64)> = Vec::new(); // (traced, pairs per second)
    let mut cursor = 0;
    for k in 0..CLOSED_SLICES {
        let traced = args.traced && k % 2 == 1;
        em_obs_recording(traced);
        let (mut samples, wall) = closed_slice(
            &mut clients,
            &closed[cursor..],
            slice,
            log,
            3_000_000 + cursor as u64,
        );
        for s in &mut samples {
            s.request += cursor;
        }
        cursor += samples.len();
        let pairs = samples.iter().filter(|s| s.status == 200).count() * BATCH_BODY_PAIRS;
        slices.push((traced, pairs as f64 / wall));
        closed_samples.extend(samples);
    }
    let traced_wall = window.elapsed().as_secs_f64();
    em_obs_recording(false);
    let obs_after = em_obs::snapshot();
    let stats_after = server.matcher.stats();

    // --- Accounting and correctness gates. ----------------------------------
    let mut totals = Totals::default();
    totals.absorb(&nominal_samples, Some(limit_s));
    totals.absorb(&high_samples, Some(limit_s));
    totals.absorb(&closed_samples, None);
    out.attempted = totals.requests;
    out.failed = totals.failed;
    out.gate(totals.status_2xx == totals.requests, || {
        format!(
            "{} of {} responses were not 200",
            totals.requests - totals.status_2xx,
            totals.requests
        )
    });
    check_scores(
        &mut out,
        &server,
        &[
            (&nominal, &nominal_samples),
            (&high, &high_samples),
            (&closed, &closed_samples),
        ],
    );
    let lag_p99 = percentile(&totals.lags_ms, 0.99);
    if lag_p99 > LAG_LIMIT_MS {
        out.invalid = true;
    }

    // --- End-to-end metrics. -------------------------------------------------
    let (window_p50, window_p99) = window_latencies_ms(&nominal_samples, nominal_rate);
    let p50 = fast_quartile(&window_p50);
    let slice_costs = |traced: bool| -> Vec<f64> {
        let rates = slices.iter().filter(|s| s.0 == traced && s.1 > 0.0);
        rates.map(|s| 1.0 / s.1).collect()
    };
    out.unit_costs = slice_costs(false);
    let s_per_pair = fast_quartile(&out.unit_costs);
    let goodput = rate(s_per_pair);
    out.end_to_end("p50_ms", p50);
    out.end_to_end("p99_ms", fast_quartile(&window_p99));
    out.end_to_end("goodput_pairs_per_s", goodput);
    // The other rates repeat the closed-loop goodput; no blocker runs, so
    // the two blocking ratios do not apply.
    out.end_to_end("pairs_per_s", goodput);
    out.end_to_end("examples_per_s", goodput);
    out.end_to_end("recall", 1.0);
    out.end_to_end("reduction_ratio", 1.0);
    out.end_to_end("peak_rss_mib", peak_rss_mib());

    // --- Per-layer metrics. ---------------------------------------------------
    if args.traced {
        out.layer("bench.traced_wall_s", traced_wall);
        out.layer("bench.units", (2 + CLOSED_SLICES) as f64);
        layers::serve_stats(&mut out, &stats_before, &stats_after);
        // Stage histograms of the nominal leg only: that is the leg the
        // end-to-end latencies come from.
        layers::serve_histograms(&mut out, &obs_before, &obs_nominal);
        let texts: Vec<(String, String)> = nominal
            .iter()
            .take(512)
            .map(|r| {
                let pair = Traffic::pair_text(&server.tables, r.pairs[0]);
                (pair.left, pair.right)
            })
            .collect();
        layers::tokenizer_probe(&mut out, &server.matcher, &texts);
        let frozen = server.matcher.frozen();
        out.layer(
            "serve.forward.us_per_pair.int8",
            layers::forward_us_per_pair(&frozen),
        );
        layers::kernel_probe(&mut out, sizes.hidden, sizes.inner, true);
        layers::computed_costs(&mut out, &frozen);
        layers::graph_probe(&mut out, &frozen);
        out.layer("checkpoint.save.busy_s", server.save_s);
        out.layer("checkpoint.load.busy_s", server.load_s);
        out.layer("checkpoint.bytes", server.checkpoint_bytes as f64);

        let healthz = median(&healthz_ms);
        let tokenize_ms = out.metrics["tokenizers.encode.us_per_pair"] / 1e3;
        // Client p50 minus what the matcher itself accounts for. A cache
        // hit never enters the matcher's queue and records no e2e, so when
        // the median request is a hit the matcher's share of it is zero.
        let median_is_hit = out.metrics["serve.cache_hit_rate"] > 0.5;
        let serve_e2e = if median_is_hit {
            0.0
        } else {
            out.metrics["serve.e2e.p50_ms"]
        };
        // Both sides over the whole nominal leg, the matcher's as em-obs
        // buckets it: a quantile read from the histogram is the midpoint of
        // a bucket one `GROWTH` factor wide.
        let leg_p50 = median(&latencies_ms(&nominal_samples));
        let overhead = leg_p50 - serve_e2e - tokenize_ms;
        let bucket_error = serve_e2e * (em_obs::GROWTH - 1.0);
        out.layer("gateway.healthz.p50_ms", healthz);
        out.layer("gateway.overhead.p50_ms", overhead);
        out.layer("gateway.requests", totals.requests as f64);
        out.layer("gateway.status_2xx", totals.status_2xx as f64);
        out.layer("gateway.status_4xx", totals.status_4xx as f64);
        out.layer("gateway.status_5xx", totals.status_5xx as f64);
        out.layer("gateway.bytes_in", totals.bytes_out as f64);
        out.layer("gateway.bytes_out", totals.bytes_in as f64);
        let accepted = |snap: &em_obs::Snapshot| {
            snap.counters
                .iter()
                .find(|(n, _)| n == "gateway/conn_accepted")
                .map_or(0, |(_, v)| *v)
        };
        out.layer(
            "gateway.redials",
            accepted(&obs_after).saturating_sub(accepted(&obs_before)) as f64,
        );
        out.layer("loadgen.nominal.sent", nominal_samples.len() as f64);
        out.layer(
            "loadgen.nominal.ok",
            nominal_samples.iter().filter(|s| s.status == 200).count() as f64,
        );
        out.layer(
            "loadgen.nominal.within_limit_share",
            within_limit_share(&nominal_samples, limit_s),
        );
        out.layer(
            "loadgen.high.p99_ms",
            percentile(&latencies_ms(&high_samples), 0.99),
        );
        out.layer(
            "loadgen.high.within_limit_share",
            within_limit_share(&high_samples, limit_s),
        );
        out.layer("loadgen.lag.p99_ms", lag_p99);
        if s_per_pair > 0.0 {
            out.layer(
                "obs.overhead_share",
                fast_quartile(&slice_costs(true)) / s_per_pair - 1.0,
            );
        }
        // The stage breakdown is of a request that reaches the matcher.
        if !median_is_hit {
            out.gate(overhead >= -bucket_error, || {
                format!(
                    "gateway.overhead.p50_ms is negative ({overhead} ms) by more than \
                     the histogram's resolution ({bucket_error} ms)"
                )
            });
            if leg_p50 > 0.0 {
                let p50 = leg_p50;
                let hist = |name| out.metrics[name] / p50;
                out.waterfall = vec![
                    ("tokenizers.encode", tokenize_ms / p50),
                    ("serve.queue_wait (p50)", hist("serve.queue_wait.p50_ms")),
                    ("serve.batch_wait (p50)", hist("serve.batch_wait.p50_ms")),
                    ("serve.forward (p50)", hist("serve.forward.p50_ms")),
                    ("gateway.overhead (p50)", overhead / p50),
                ];
            }
        }
    }
    drop(clients);
    drop(server);
    let _ = std::fs::remove_file(&checkpoint);
    out.finish()
}
