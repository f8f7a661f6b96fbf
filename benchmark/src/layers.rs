//! Stand-alone probes of single layers, run only by traced runs and
//! outside the timed window: each times calls into one crate's public
//! functions at the shapes the bench model actually issues.

use crate::model::synth_encoding;
use crate::report::Outcome;
use crate::stats::median;
use em_kernels::{gemm_nn, gemm_nt_i8_dyn, quantize_weights_i8};
use em_serve::{ExecBackend, Executor, FrozenMatcher, ServeMatcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Forward and GEMM probes use this batch shape (8 pairs of 48 tokens).
const PROBE_BATCH: usize = 8;
const PROBE_SEQ: usize = 48;
const PROBE_REPS: usize = 7;

/// Time `ServeMatcher::encode_text` over the workload's own texts.
pub fn tokenizer_probe(out: &mut Outcome, matcher: &ServeMatcher, pairs: &[(String, String)]) {
    if pairs.is_empty() {
        return;
    }
    let start = Instant::now();
    let tokens: usize = pairs
        .iter()
        .map(|(l, r)| black_box(matcher.encode_text(l, r)).real_span())
        .sum();
    let busy = start.elapsed().as_secs_f64();
    out.layer("tokenizers.encode.calls", pairs.len() as f64);
    out.layer("tokenizers.encode.busy_s", busy);
    out.layer("tokenizers.encode.tokens", tokens as f64);
    out.layer(
        "tokenizers.encode.us_per_pair",
        busy * 1e6 / pairs.len() as f64,
    );
}

/// Microseconds per pair of `Executor::score_encodings` (graph backend)
/// at 8 × 48, for the matcher's own weight representation.
pub fn forward_us_per_pair(matcher: &FrozenMatcher) -> f64 {
    let mut rng = StdRng::seed_from_u64(48);
    let vocab = matcher.model.config.vocab_size;
    let seq = PROBE_SEQ.min(matcher.max_len);
    let encodings: Vec<_> = (0..PROBE_BATCH)
        .map(|_| synth_encoding(&mut rng, seq, vocab))
        .collect();
    let mut exec = Executor::new(ExecBackend::Graph);
    black_box(exec.score_encodings(matcher, &encodings));
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(exec.score_encodings(matcher, black_box(&encodings)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) * 1e6 / PROBE_BATCH as f64
}

/// The three GEMM shapes one encoder layer issues: QKV, FFN-in, FFN-out
/// (`m` rows of `k` inputs to `n` outputs).
fn gemm_shapes(hidden: usize, inner: usize) -> [(usize, usize, usize); 3] {
    let m = PROBE_BATCH * PROBE_SEQ;
    [
        (m, hidden, 3 * hidden),
        (m, hidden, inner),
        (m, inner, hidden),
    ]
}

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-0.5f32..0.5)).collect()
}

/// Achieved rate of the public f32 and int8 GEMMs over the three shapes:
/// total operations over summed median times.
pub fn kernel_probe(out: &mut Outcome, hidden: usize, inner: usize, int8: bool) {
    let mut rng = StdRng::seed_from_u64(0x6E44);
    let (mut ops, mut f32_s, mut i8_s) = (0.0, 0.0, 0.0);
    for (m, k, n) in gemm_shapes(hidden, inner) {
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let mut c = vec![0.0f32; m * n];
        ops += 2.0 * (m * k * n) as f64;
        let time = |f: &mut dyn FnMut()| {
            f();
            let times: Vec<f64> = (0..PROBE_REPS)
                .map(|_| {
                    let start = Instant::now();
                    f();
                    start.elapsed().as_secs_f64()
                })
                .collect();
            median(&times)
        };
        f32_s += time(&mut || gemm_nn(black_box(&a), &b, None, black_box(&mut c), m, k, n));
        if int8 {
            // Weights transposed [n, k] with one scale per output channel,
            // as `FrozenLinear` stores them.
            let wt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
            let mut wq = vec![0i8; n * k];
            let mut scales = vec![0.0f32; n];
            quantize_weights_i8(&wt, k, &mut wq, &mut scales);
            i8_s += time(&mut || {
                gemm_nt_i8_dyn(
                    black_box(&a),
                    &wq,
                    &scales,
                    None,
                    black_box(&mut c),
                    m,
                    k,
                    n,
                )
            });
        }
    }
    out.layer("kernels.gemm_f32.gflops", ops / f32_s / 1e9);
    if int8 {
        out.layer("kernels.gemm_i8.gops", ops / i8_s / 1e9);
    }
}

/// Operations and weight bytes per scored pair at the probe shape,
/// *computed from tensor sizes*, not measured: GEMM and attention
/// multiply-adds of the encoder, and the weight bytes one forward
/// streams divided by the pairs it scores.
pub fn computed_costs(out: &mut Outcome, matcher: &FrozenMatcher) {
    let cfg = &matcher.model.config;
    let (h, inner, t) = (cfg.hidden as f64, cfg.inner as f64, PROBE_SEQ as f64);
    let per_token_layer = 2.0 * (3.0 * h * h + h * h + 2.0 * h * inner) + 4.0 * t * h;
    let pooler_and_head = 2.0 * (h * h + 2.0 * h);
    out.layer(
        "kernels.flops_per_pair",
        per_token_layer * t * cfg.layers as f64 + pooler_and_head,
    );
    out.layer(
        "kernels.weight_bytes_per_pair",
        matcher.weight_bytes() as f64 / PROBE_BATCH as f64,
    );
}

/// Plan-side numbers of em-graph for the probe geometry: build time of
/// one plan, its arena size and the dispatches fusion removed.
pub fn graph_probe(out: &mut Outcome, matcher: &FrozenMatcher) {
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(Executor::plan_for(&matcher.model, PROBE_BATCH, PROBE_SEQ));
            start.elapsed().as_secs_f64()
        })
        .collect();
    let plan = Executor::plan_for(&matcher.model, PROBE_BATCH, PROBE_SEQ);
    out.layer("graph.plan_build.busy_s", median(&times));
    out.layer("graph.arena_bytes", (plan.arena_len * 4) as f64);
    out.layer("graph.fused_ops", plan.fused_ops as f64);
}

/// Copy the `ServeStats` delta of the timed window into the outcome.
pub fn serve_stats(out: &mut Outcome, before: &em_serve::ServeStats, after: &em_serve::ServeStats) {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let delta = em_serve::ServeStats {
        requests: d(after.requests, before.requests),
        batches: d(after.batches, before.batches),
        examples: d(after.examples, before.examples),
        batch_capacity: d(after.batch_capacity, before.batch_capacity),
        cache_hits: d(after.cache_hits, before.cache_hits),
        cache_misses: d(after.cache_misses, before.cache_misses),
        retries: d(after.retries, before.retries),
        shed: d(after.shed, before.shed),
        degraded: d(after.degraded, before.degraded),
        worker_restarts: d(after.worker_restarts, before.worker_restarts),
        swaps: d(after.swaps, before.swaps),
        plan_cache_hits: d(after.plan_cache_hits, before.plan_cache_hits),
        plan_cache_misses: d(after.plan_cache_misses, before.plan_cache_misses),
    };
    out.layer("serve.requests", delta.requests as f64);
    out.layer("serve.batches", delta.batches as f64);
    out.layer("serve.examples", delta.examples as f64);
    out.layer("serve.batch_fill", delta.batch_fill());
    out.layer("serve.cache_hit_rate", delta.cache_hit_rate());
    out.layer("serve.plan_cache_hit_rate", delta.plan_cache_hit_rate());
    out.layer("serve.retries", delta.retries as f64);
    out.layer("serve.shed", delta.shed as f64);
}

/// Copy the em-serve stage histograms em-obs collected between two
/// snapshots into the outcome (milliseconds).
pub fn serve_histograms(out: &mut Outcome, before: &em_obs::Snapshot, after: &em_obs::Snapshot) {
    let delta = after.delta_since(before);
    let hist = |name: &str| {
        delta
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
    };
    let mut put = |metric: &'static str, name: &str, q: f64| {
        if let Some(h) = hist(name) {
            out.layer(metric, h.quantile(q) * 1e3);
        }
    };
    put("serve.queue_wait.p50_ms", "serve/queue_wait", 0.50);
    put("serve.queue_wait.p99_ms", "serve/queue_wait", 0.99);
    put("serve.batch_wait.p50_ms", "serve/batch_wait", 0.50);
    put("serve.forward.p50_ms", "serve/forward", 0.50);
    put("serve.e2e.p50_ms", "serve/e2e", 0.50);
    put("serve.e2e.p99_ms", "serve/e2e", 0.99);
}
