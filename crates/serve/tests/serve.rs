//! em-serve integration tests: dynamic-padding invariance across all
//! four architectures, concurrent serving correctness, and typed
//! timeout / shutdown behaviour. (Frozen-vs-autograd equivalence lives
//! in `graph.rs`.)

use em_core::{train_tokenizer, Predictor};
use em_nn::{Ctx, Module};
use em_serve::{
    freeze_parts, ExecBackend, Executor, Fault, FaultPlan, FrozenMatcher, FrozenModel, QuantMode,
    ServeConfig, ServeError, ServeMatcher, SwapError,
};
use em_tensor::no_grad;
use em_tokenizers::Encoding;
use em_transformers::{
    Architecture, Batch, ClassificationHead, TransformerConfig, TransformerModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const VOCAB: usize = 50;

fn tiny_model(arch: Architecture, seed: u64) -> (TransformerModel, ClassificationHead) {
    let cfg = TransformerConfig::tiny(arch, VOCAB);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ead);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    (model, head)
}

/// A random well-formed ragged encoding (no padding): CLS at the
/// architecture's position, random segment split. Call `.padded_to(n)`
/// for the old fixed-length layout.
fn random_encoding(rng: &mut StdRng, arch: Architecture, max_len: usize) -> Encoding {
    let real = rng.gen_range(3..=max_len);
    let ids: Vec<u32> = (0..real).map(|_| rng.gen_range(1..VOCAB as u32)).collect();
    let split = rng.gen_range(1..real);
    let segments: Vec<u8> = (0..real).map(|i| u8::from(i >= split)).collect();
    let mask = vec![1u8; real];
    let cls_index = match arch {
        Architecture::Xlnet => real - 1,
        _ => 0,
    };
    Encoding {
        ids,
        segments,
        mask,
        cls_index,
        pad_id: 0,
    }
}

/// A random encoding whose real span lands in the longest length bucket.
fn long_encoding(rng: &mut StdRng, arch: Architecture, max_len: usize) -> Encoding {
    loop {
        let e = random_encoding(rng, arch, max_len);
        if Batch::bucket_len(&e) == max_len {
            return e;
        }
    }
}

/// Autograd-path logits for a batch, exactly as `EmMatcher` computes them.
fn autograd_logits(
    model: &TransformerModel,
    head: &ClassificationHead,
    batch: &Batch,
) -> em_tensor::Array {
    no_grad(|| {
        let mut ctx = Ctx::eval();
        let hidden = model.forward(batch, None, None, &mut ctx);
        let pooled = model.pooled_states(&hidden, batch);
        head.forward(&pooled, &mut ctx).value()
    })
}

fn frozen_logits(model: &TransformerModel, head: &ClassificationHead, batch: &Batch) -> Vec<f32> {
    let tok = train_tokenizer(model.config.arch, &em_data::generate_corpus(30, 1), 200);
    let matcher = freeze_parts(model, head, tok, batch.seq_len());
    Executor::new(ExecBackend::Graph)
        .logits(&matcher, batch)
        .to_vec()
}

/// Dynamic padding must be invisible in the logits: the same encodings
/// scored in a batch padded to the (short) batch maximum and in one
/// padded all the way to `max_len` agree to 1e-5 on both the autograd
/// and the frozen forward paths.
fn assert_dynamic_matches_padded(arch: Architecture, seed: u64) {
    let (model, head) = tiny_model(arch, seed);
    let max_len = 24;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(3));
    let ragged: Vec<Encoding> = (0..5)
        .map(|_| random_encoding(&mut rng, arch, max_len))
        .collect();
    let padded: Vec<Encoding> = ragged.iter().map(|e| e.padded_to(max_len)).collect();
    let dynamic = Batch::from_encodings(&ragged);
    let full = Batch::from_encodings_padded(&padded, max_len);
    assert!(dynamic.seq_len() <= full.seq_len());
    for (label, want, got) in [
        (
            "autograd",
            autograd_logits(&model, &head, &full).into_vec(),
            autograd_logits(&model, &head, &dynamic).into_vec(),
        ),
        (
            "frozen",
            frozen_logits(&model, &head, &full),
            frozen_logits(&model, &head, &dynamic),
        ),
    ] {
        assert_eq!(want.len(), got.len());
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert!(
                (w - g).abs() < 1e-5,
                "{} {label} logit {i}: full-pad {w} vs dynamic {g}",
                arch.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dynamic_padding_matches_full_bert(seed in 0u64..10_000) {
        assert_dynamic_matches_padded(Architecture::Bert, seed);
    }

    #[test]
    fn dynamic_padding_matches_full_xlnet(seed in 0u64..10_000) {
        assert_dynamic_matches_padded(Architecture::Xlnet, seed);
    }

    #[test]
    fn dynamic_padding_matches_full_roberta(seed in 0u64..10_000) {
        assert_dynamic_matches_padded(Architecture::Roberta, seed);
    }

    #[test]
    fn dynamic_padding_matches_full_distilbert(seed in 0u64..10_000) {
        assert_dynamic_matches_padded(Architecture::DistilBert, seed);
    }
}

#[test]
fn frozen_types_are_send_and_sync() {
    fn check<T: Send + Sync + 'static>() {}
    check::<FrozenModel>();
    check::<FrozenMatcher>();
    check::<ServeMatcher>();
}

#[test]
fn frozen_parameter_count_matches_autograd() {
    for arch in Architecture::ALL {
        let (model, _) = tiny_model(arch, 11);
        let frozen = FrozenModel::from(&model);
        assert_eq!(
            frozen.num_parameters(),
            model.num_parameters(),
            "{}",
            arch.name()
        );
    }
}

fn tiny_frozen_matcher(arch: Architecture, seed: u64, max_len: usize) -> FrozenMatcher {
    let (model, head) = tiny_model(arch, seed);
    let corpus = em_data::generate_corpus(30, seed);
    let tok = train_tokenizer(arch, &corpus, 200);
    freeze_parts(&model, &head, tok, max_len)
}

/// Like [`tiny_frozen_matcher`], but with the model's vocabulary sized to
/// the trained tokenizer, so *real text* (not just synthetic ids below
/// `VOCAB`) can ride the tokenize-on-submit front door.
fn text_frozen_matcher(arch: Architecture, seed: u64, max_len: usize) -> FrozenMatcher {
    let corpus = em_data::generate_corpus(30, seed);
    let tok = train_tokenizer(arch, &corpus, 200);
    let cfg = TransformerConfig::tiny(arch, em_tokenizers::Tokenizer::vocab_size(&tok));
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ead);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    freeze_parts(&model, &head, tok, max_len)
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Batch invariance, bitwise: a pair's score depends only on the model
/// and the pair — never on its batch, length bucket, fill level, worker
/// or executor — because the score cache, hot swap and dedup resume all
/// assume it. Every architecture in both weight representations, with
/// ragged lengths spanning every length bucket of the model, is scored
/// one encoding at a time as the reference, then
/// - by a capacity-hinted executor at fill 1, partial and full of a
///   short bucket and of the longest one, and in ragged chunks;
/// - through the serving batch API with the same fill groups, and by
///   8 concurrent clients, against 1 and 2 workers.
///
/// CI runs this test again under `EM_THREADS=1` and `EM_THREADS=2` (the
/// kernel pool reads it once per process).
#[test]
fn concurrent_scores_match_sequential_exactly() {
    let max_len = 48;
    let clients = 8;
    let cfg = |workers| {
        ServeConfig::builder()
            .workers(workers)
            .max_batch(4)
            .cache_capacity(0) // exercise the queue for every request
            .build()
            .unwrap()
    };
    for arch in Architecture::ALL {
        let base = tiny_frozen_matcher(arch, 3, max_len);
        let mut rng = StdRng::seed_from_u64(99);
        let mixed: Vec<Encoding> = (0..4 * clients)
            .map(|_| random_encoding(&mut rng, arch, max_len))
            .collect();
        let mut buckets: Vec<usize> = mixed.iter().map(Batch::bucket_len).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() >= 3, "{}: buckets {buckets:?}", arch.name());
        // Fill groups sized to their bucket's capacity under `cfg`.
        let (short_cap, long_cap) = (
            cfg(1).bucket_capacity(max_len, 8),
            cfg(1).bucket_capacity(max_len, max_len),
        );
        let short: Vec<Encoding> = (0..short_cap)
            .map(|_| random_encoding(&mut rng, arch, 8))
            .collect();
        let long: Vec<Encoding> = (0..long_cap)
            .map(|_| long_encoding(&mut rng, arch, max_len))
            .collect();
        let fills = |cap: usize| [1, cap / 2, cap];

        for mode in [QuantMode::F32, QuantMode::Int8] {
            let frozen = base.quantize(mode);
            let one_at_a_time = |encs: &[Encoding]| -> Vec<u32> {
                encs.iter()
                    .flat_map(|e| bits(&frozen.score_encodings(std::slice::from_ref(e))))
                    .collect()
            };
            let (want_mixed, want_short, want_long) = (
                one_at_a_time(&mixed),
                one_at_a_time(&short),
                one_at_a_time(&long),
            );
            let groups = [
                (&short, &want_short, short_cap),
                (&long, &want_long, long_cap),
            ];
            let what = |path: &str| format!("{} {mode} {path}", arch.name());

            let mut exec = Executor::new(ExecBackend::Graph);
            for (group, want, cap) in groups {
                exec.set_batch_capacity(cap);
                for fill in fills(cap) {
                    let got = bits(&exec.score_encodings(&frozen, &group[..fill]));
                    assert_eq!(got, want[..fill], "{} fill {fill}/{cap}", what("executor"));
                }
            }
            exec.set_batch_capacity(short_cap);
            let chunked: Vec<u32> = mixed
                .chunks(5)
                .flat_map(|c| bits(&exec.score_encodings(&frozen, c)))
                .collect();
            assert_eq!(chunked, want_mixed, "{}", what("executor chunks"));

            for workers in [1, 2] {
                let matcher = Arc::new(ServeMatcher::start(frozen.clone(), cfg(workers)));
                for (group, want, cap) in groups {
                    for fill in fills(cap) {
                        let got = bits(&matcher.score_encodings(&group[..fill]).unwrap());
                        assert_eq!(
                            got,
                            want[..fill],
                            "{} {workers}w fill {fill}/{cap}",
                            what("batch API")
                        );
                    }
                }
                let handles: Vec<_> = mixed
                    .chunks(4)
                    .map(|chunk| {
                        let matcher = Arc::clone(&matcher);
                        let chunk = chunk.to_vec();
                        std::thread::spawn(move || {
                            chunk
                                .iter()
                                .map(|e| matcher.score(e).expect("serving failed"))
                                .collect::<Vec<f32>>()
                        })
                    })
                    .collect();
                let got: Vec<u32> = handles
                    .into_iter()
                    .flat_map(|h| bits(&h.join().expect("client thread panicked")))
                    .collect();
                assert_eq!(got, want_mixed, "{} {workers}w", what("concurrent clients"));
                let offered: usize = [short_cap, long_cap]
                    .iter()
                    .flat_map(|&cap| fills(cap))
                    .sum::<usize>()
                    + mixed.len();
                let stats = matcher.stats();
                assert_eq!(stats.requests, offered as u64);
                assert_eq!(stats.examples, offered as u64);
                assert!(stats.batches >= 1);
            }
        }
    }
}

#[test]
fn batch_api_and_cache_return_consistent_scores() {
    let frozen = tiny_frozen_matcher(Architecture::Roberta, 5, 16);
    let mut rng = StdRng::seed_from_u64(7);
    let encodings: Vec<Encoding> = (0..10)
        .map(|_| random_encoding(&mut rng, Architecture::Roberta, 16))
        .collect();
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .cache_capacity(64)
        .build()
        .unwrap();
    let matcher = ServeMatcher::start(frozen, cfg);
    let first = matcher.score_encodings(&encodings).unwrap();
    let second = matcher.score_encodings(&encodings).unwrap();
    assert_eq!(first, second, "cache must return identical scores");
    let stats = matcher.stats();
    assert!(
        stats.cache_hits >= encodings.len() as u64,
        "second round should hit the cache: {stats:?}"
    );
}

#[test]
fn over_long_encoding_is_a_typed_error() {
    let frozen = tiny_frozen_matcher(Architecture::Bert, 13, 24);
    let matcher = ServeMatcher::start(frozen, ServeConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    // Longer than the model's position table: rejected up front.
    let long = random_encoding(&mut rng, Architecture::Bert, 16).padded_to(32);
    assert_eq!(
        matcher.score(&long),
        Err(ServeError::InvalidLength {
            got: 32,
            expected: 24
        })
    );
    // Shorter than max_len is fine now — it joins a short length bucket.
    let short = random_encoding(&mut rng, Architecture::Bert, 16);
    assert!(matcher.score(&short).is_ok());
}

/// Short requests coalesce into over-`max_batch` batches under the token
/// budget, and `batch_fill` measures against that bucket capacity.
#[test]
fn short_buckets_coalesce_past_max_batch() {
    let max_len = 32;
    let frozen = tiny_frozen_matcher(Architecture::Bert, 31, max_len);
    let reference = frozen.clone();
    let cfg = ServeConfig::builder()
        .workers(1)
        .max_batch(4)
        .cache_capacity(0)
        .build()
        .unwrap();
    // Bucket 8 under a 4×32-token budget: up to 16 examples per batch.
    assert_eq!(cfg.bucket_capacity(max_len, 8), 16);
    let matcher = ServeMatcher::start(frozen, cfg);
    let mut rng = StdRng::seed_from_u64(77);
    let shorts: Vec<Encoding> = (0..20)
        .map(|_| random_encoding(&mut rng, Architecture::Bert, 8))
        .collect();
    let expected: Vec<f32> = shorts
        .iter()
        .map(|e| reference.score_encodings(std::slice::from_ref(e))[0])
        .collect();
    let got = matcher.score_encodings(&shorts).unwrap();
    assert_eq!(got, expected, "bucketed serving must not change scores");
    let stats = matcher.stats();
    assert_eq!(stats.examples, 20);
    // Every batch was a bucket-8 batch, so each counted capacity 16.
    assert_eq!(stats.batch_capacity, stats.batches * 16);
    assert!(stats.batch_fill() > 0.0 && stats.batch_fill() <= 1.0);
}

/// Work-conserving batch formation: a worker never idles while it holds
/// a request. A lone request on an idle worker runs as a batch of one,
/// and the requests that queue up behind a slow batch ride together in
/// the next one. The slow batch is a long request held by an injected
/// delay; the queued requests are short, so — whenever they arrive
/// relative to the worker's pick — they cannot join it.
#[test]
fn worker_runs_what_is_queued_without_waiting_for_more() {
    let max_len = 32;
    let arch = Architecture::Bert;
    let frozen = tiny_frozen_matcher(arch, 61, max_len);
    let reference = frozen.clone();
    let sequential = |e: &Encoding| reference.score_encodings(std::slice::from_ref(e))[0];
    // A schedule that delays batch 1 and leaves batches 0 and 2 alone.
    let plan = (0..)
        .map(|seed| FaultPlan {
            seed,
            delay_every: 2,
            delay: std::time::Duration::from_millis(300),
            ..FaultPlan::default()
        })
        .find(|p| {
            p.fault_for(0).is_none()
                && matches!(p.fault_for(1), Some(Fault::Delay(_)))
                && p.fault_for(2).is_none()
        })
        .unwrap();
    let cfg = ServeConfig::builder()
        .workers(1)
        .max_batch(4)
        .cache_capacity(0)
        .fault(plan)
        .build()
        .unwrap();
    let queued = 10;
    assert!(queued <= cfg.bucket_capacity(max_len, 8));
    let matcher = ServeMatcher::start(frozen, cfg);
    let mut rng = StdRng::seed_from_u64(83);

    let lone = random_encoding(&mut rng, arch, 8);
    assert_eq!(matcher.score(&lone).unwrap(), sequential(&lone));
    let stats = matcher.stats();
    assert_eq!((stats.batches, stats.examples), (1, 1));

    let long = long_encoding(&mut rng, arch, max_len);
    let shorts: Vec<Encoding> = (0..queued)
        .map(|_| random_encoding(&mut rng, arch, 8))
        .collect();
    let slow = matcher.submit_encoding(long.clone()).unwrap();
    let tickets: Vec<_> = shorts
        .iter()
        .map(|e| matcher.submit_encoding(e.clone()).unwrap())
        .collect();
    assert_eq!(matcher.redeem(slow).unwrap(), sequential(&long));
    for (ticket, e) in tickets.into_iter().zip(&shorts) {
        assert_eq!(matcher.redeem(ticket).unwrap(), sequential(e));
    }
    let stats = matcher.stats();
    assert_eq!(
        (stats.batches, stats.examples),
        (3, 2 + queued as u64),
        "the queue that built up behind the slow batch rides in one batch"
    );
}

/// Mixed-length traffic: jobs batch only with length-compatible company,
/// and every request still gets exactly its sequential score.
#[test]
fn mixed_length_requests_are_served_correctly() {
    let max_len = 32;
    let frozen = tiny_frozen_matcher(Architecture::Bert, 37, max_len);
    let reference = frozen.clone();
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .cache_capacity(0)
        .build()
        .unwrap();
    let matcher = Arc::new(ServeMatcher::start(frozen, cfg));
    let mut rng = StdRng::seed_from_u64(123);
    let encodings: Vec<Encoding> = (0..24)
        .map(|i| {
            if i % 3 == 0 {
                long_encoding(&mut rng, Architecture::Bert, max_len)
            } else {
                random_encoding(&mut rng, Architecture::Bert, 8)
            }
        })
        .collect();
    let expected: Vec<f32> = encodings
        .iter()
        .map(|e| reference.score_encodings(std::slice::from_ref(e))[0])
        .collect();
    let mut handles = Vec::new();
    for chunk in encodings.chunks(6) {
        let matcher = Arc::clone(&matcher);
        let chunk = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            matcher.score_encodings(&chunk).expect("serving failed")
        }));
    }
    let got: Vec<f32> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();
    assert_eq!(got, expected);
    assert_eq!(matcher.stats().examples, 24);
}

#[test]
fn batch_fill_measures_against_bucket_capacity() {
    let stats = |examples, batches, batch_capacity| em_serve::ServeStats {
        requests: examples,
        batches,
        examples,
        batch_capacity,
        cache_hits: 0,
        cache_misses: examples,
        retries: 0,
        shed: 0,
        degraded: 0,
        worker_restarts: 0,
        swaps: 0,
        plan_cache_hits: 0,
        plan_cache_misses: 0,
    };
    // 48 examples over 2 batches of capacity 32 each: 75% full — a flat
    // max_batch=32 denominator would have wrongly reported 75% as 2×32
    // capacity only by coincidence; with one short bucket (capacity 64)
    // the distinction shows.
    assert!((stats(48, 2, 64).batch_fill() - 0.75).abs() < 1e-12);
    // A full-length batch (capacity = max_batch) that is full reports 1.0.
    assert!((stats(4, 1, 4).batch_fill() - 1.0).abs() < 1e-12);
    // No batches yet: 0, not NaN.
    assert_eq!(stats(0, 0, 0).batch_fill(), 0.0);
}

/// With a stalled worker pool the client must give up with the typed
/// timeout — not hang. (`workers: 0` is rejected by the builder for
/// production configs; constructing the struct directly simulates a
/// wedged pool deterministically.)
#[test]
fn stalled_pool_times_out_with_typed_error() {
    let frozen = tiny_frozen_matcher(Architecture::DistilBert, 17, 16);
    let cfg = ServeConfig {
        workers: 0,
        request_timeout: std::time::Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let matcher = ServeMatcher::start(frozen, cfg);
    let mut rng = StdRng::seed_from_u64(2);
    let enc = random_encoding(&mut rng, Architecture::DistilBert, 16);
    let start = std::time::Instant::now();
    assert_eq!(matcher.score(&enc), Err(ServeError::Timeout));
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "timeout must fire promptly, not hang"
    );
}

/// Shutdown drains in-flight work (clients joined first always get
/// answers), then rejects new requests with the typed error — and the
/// whole dance must not deadlock.
#[test]
fn shutdown_is_graceful_and_typed() {
    let frozen = tiny_frozen_matcher(Architecture::Bert, 23, 16);
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .build()
        .unwrap();
    let mut matcher = ServeMatcher::start(frozen, cfg);
    let mut rng = StdRng::seed_from_u64(3);
    let encodings: Vec<Encoding> = (0..20)
        .map(|_| random_encoding(&mut rng, Architecture::Bert, 16))
        .collect();
    std::thread::scope(|s| {
        for chunk in encodings.chunks(5) {
            let m = &matcher;
            s.spawn(move || {
                let scores = m
                    .score_encodings(chunk)
                    .expect("pre-shutdown serving failed");
                assert_eq!(scores.len(), chunk.len());
            });
        }
    });
    matcher.shutdown();
    matcher.shutdown(); // idempotent
    assert_eq!(
        matcher.score(&encodings[0]),
        Err(ServeError::ShutDown),
        "post-shutdown requests get the typed error"
    );
}

/// The served matcher is a drop-in `Predictor`: end-to-end decisions on
/// dataset pairs agree with the frozen matcher's own predictions.
#[test]
fn serve_matcher_is_a_predictor() {
    let arch = Architecture::Bert;
    let ds = em_data::DatasetId::DblpAcm.generate(0.01, 4);
    let corpus = em_data::generate_corpus(30, 8);
    let tok = train_tokenizer(arch, &corpus, 200);
    let cfg = TransformerConfig::tiny(arch, em_tokenizers::Tokenizer::vocab_size(&tok));
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, 29);
    let mut rng = StdRng::seed_from_u64(29 ^ 0x5ead);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    let frozen = freeze_parts(&model, &head, tok, 32);
    let pairs = &ds.pairs[..6.min(ds.pairs.len())];
    let direct_scores = frozen.predict_scores(&ds, pairs);
    let direct = frozen.predict_pairs(&ds, pairs);
    let matcher = ServeMatcher::start(frozen, ServeConfig::default());
    assert_eq!(matcher.predict_scores(&ds, pairs), direct_scores);
    assert_eq!(matcher.predict_pairs(&ds, pairs), direct);
}

// ---------------------------------------------------------------------------
// The raw-text front door: tokenize-on-submit, per-request deadlines.
// ---------------------------------------------------------------------------

/// `score_text` must be byte-identical to encoding the same text by hand
/// and riding the pre-encoded fast path — the front door changes who
/// tokenizes, never what gets scored.
#[test]
fn text_front_door_matches_preencoded_path() {
    let frozen = text_frozen_matcher(Architecture::Bert, 17, 24);
    let reference = frozen.clone();
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .cache_capacity(0)
        .build()
        .unwrap();
    let matcher = ServeMatcher::start(frozen, cfg);
    let texts = [
        ("sony vaio laptop 15in", "sony vaio notebook 15.5 inch"),
        ("canon eos camera", "nikon coolpix point and shoot"),
        ("red cotton shirt size m", "red cotton shirt medium"),
    ];
    for (left, right) in texts {
        let enc = matcher.encode_text(left, right);
        let direct = reference.score_encodings(std::slice::from_ref(&enc))[0];
        let served = matcher
            .score_text(left, right)
            .expect("text scoring failed");
        assert_eq!(served, direct, "{left} / {right}");
    }
    // The batch door agrees pairwise and keeps request order.
    let pairs: Vec<em_core::TextPair> = texts
        .iter()
        .map(|(l, r)| em_core::TextPair::new(*l, *r))
        .collect();
    let batch: Vec<f32> = matcher
        .score_texts(&pairs)
        .into_iter()
        .map(|r| r.expect("batch text scoring failed"))
        .collect();
    for ((left, right), got) in texts.iter().zip(&batch) {
        let want = matcher.score_text(left, right).unwrap();
        assert_eq!(*got, want);
    }
}

/// Raw text of any length is servable: tokenization truncates on submit,
/// so the text door can never surface `InvalidLength`.
#[test]
fn text_door_truncates_instead_of_rejecting() {
    let frozen = text_frozen_matcher(Architecture::Bert, 19, 16);
    let matcher = ServeMatcher::start(frozen, ServeConfig::default());
    let long = "item description word ".repeat(300);
    let score = matcher
        .score_text(&long, &long)
        .expect("over-long text must truncate, not error");
    assert!((0.0..=1.0).contains(&score));
}

/// A per-request deadline that has already expired maps to the typed
/// timeout (the gateway's HTTP 504), while the same request under a
/// generous deadline succeeds.
#[test]
fn per_request_deadline_maps_to_timeout() {
    let frozen = text_frozen_matcher(Architecture::Bert, 29, 16);
    let cfg = ServeConfig::builder()
        .workers(1)
        .cache_capacity(0)
        .build()
        .unwrap();
    let matcher = ServeMatcher::start(frozen, cfg);
    let pairs = vec![em_core::TextPair::new("alpha beta", "alpha gamma")];
    let expired = matcher.score_texts_deadline(&pairs, Some(std::time::Duration::ZERO));
    assert_eq!(expired, vec![Err(ServeError::Timeout)]);
    let generous = matcher.score_texts_deadline(&pairs, Some(std::time::Duration::from_secs(30)));
    assert!(matches!(generous[0], Ok(s) if (0.0..=1.0).contains(&s)));
}

// ---------------------------------------------------------------------------
// Failure path: fault injection, supervision, shedding, degraded fallback.
// ---------------------------------------------------------------------------

/// Supervision end to end: with injected worker panics the pool respawns
/// workers, requeues the jobs they held, and still returns *exactly* the
/// sequential scores — no request lost, no score perturbed.
#[test]
fn supervisor_recovers_panicked_workers_without_losing_requests() {
    let max_len = 16;
    let frozen = tiny_frozen_matcher(Architecture::Bert, 41, max_len);
    let reference = frozen.clone();
    // A seed whose schedule provably panics the very first batch, so the
    // restart assertion cannot depend on batch-composition timing.
    let plan = FaultPlan {
        seed: 1,
        panic_every: 2,
        ..FaultPlan::default()
    };
    assert_eq!(
        plan.fault_for(0),
        Some(Fault::Panic),
        "pick a seed that hits batch 0"
    );
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_batch(2)
        .cache_capacity(0)
        .max_requeues(16)
        .fault(plan)
        .build()
        .unwrap();
    let matcher = ServeMatcher::start(frozen, cfg);
    let mut rng = StdRng::seed_from_u64(55);
    let encodings: Vec<Encoding> = (0..16)
        .map(|_| random_encoding(&mut rng, Architecture::Bert, max_len))
        .collect();
    let expected: Vec<f32> = encodings
        .iter()
        .map(|e| reference.score_encodings(std::slice::from_ref(e))[0])
        .collect();
    let got = matcher.score_encodings(&encodings).unwrap();
    assert_eq!(got, expected, "recovered requests must score exactly");
    let stats = matcher.stats();
    assert!(
        stats.worker_restarts >= 1,
        "batch 0 panicked, so at least one worker was respawned: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos invariant: under *any* seeded fault schedule mixing panics,
    /// latency spikes and transient errors, every submitted request
    /// resolves — to exactly its sequential score or to a typed error.
    /// Never a hang, never a lost reply, never a wrong score.
    #[test]
    fn any_fault_plan_yields_score_or_typed_error(seed in 0u64..10_000) {
        let max_len = 16;
        let frozen = tiny_frozen_matcher(Architecture::DistilBert, 43, max_len);
        let reference = frozen.clone();
        let plan = FaultPlan {
            seed,
            panic_every: 3,
            delay_every: 3,
            delay: std::time::Duration::from_millis(2),
            error_every: 3,
        };
        let cfg = ServeConfig::builder()
            .workers(2)
            .max_batch(4)
            .cache_capacity(0)
            .request_timeout_ms(5_000)
            .fault(plan)
            .build()
            .unwrap();
        let matcher = ServeMatcher::start(frozen, cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        let encodings: Vec<Encoding> = (0..12)
            .map(|_| random_encoding(&mut rng, Architecture::DistilBert, max_len))
            .collect();
        let results = matcher.score_each(&encodings);
        prop_assert_eq!(results.len(), encodings.len());
        for (i, (r, e)) in results.iter().zip(&encodings).enumerate() {
            match r {
                Ok(score) => {
                    let want = reference.score_encodings(std::slice::from_ref(e))[0];
                    prop_assert_eq!(*score, want, "request {} scored wrong", i);
                }
                // Typed errors are acceptable outcomes under chaos; a
                // hang or a panic of the test itself is not.
                Err(err) => prop_assert!(
                    err.is_transient(),
                    "request {} failed non-transiently: {:?}", i, err
                ),
            }
        }
    }
}

/// Admission control: with `shed` enabled, a full queue rejects new work
/// with the typed `Overloaded` error instead of blocking the producer.
#[test]
fn full_queue_sheds_with_typed_overloaded_error() {
    let frozen = tiny_frozen_matcher(Architecture::Bert, 47, 16);
    // No workers (a wedged pool, built directly like the stall test) and
    // a 2-deep queue: the third submission must be shed, not blocked.
    let cfg = ServeConfig {
        workers: 0,
        queue_depth: 2,
        shed: true,
        cache_capacity: 0,
        request_timeout: std::time::Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let matcher = ServeMatcher::start(frozen, cfg);
    let mut rng = StdRng::seed_from_u64(4);
    let encodings: Vec<Encoding> = (0..3)
        .map(|_| random_encoding(&mut rng, Architecture::Bert, 16))
        .collect();
    let start = std::time::Instant::now();
    let results = matcher.score_each(&encodings);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shedding must not block the producer"
    );
    assert_eq!(results[2], Err(ServeError::Overloaded));
    // The two accepted requests time out on the wedged pool — still typed.
    assert_eq!(results[0], Err(ServeError::Timeout));
    assert_eq!(results[1], Err(ServeError::Timeout));
    assert_eq!(matcher.stats().shed, 1);
}

/// Degraded mode: when the transformer path is fully down (every batch
/// panics until the requeue budget is spent), an attached Magellan
/// fallback still answers every pair-level request.
#[test]
fn degraded_mode_answers_with_magellan_fallback() {
    let ds = em_data::DatasetId::DblpAcm.generate(0.05, 19);
    let mut rng = StdRng::seed_from_u64(0);
    let split = ds.split(&mut rng);
    let magellan = em_baselines::MagellanMatcher::fit(
        &ds.attributes,
        &split.train,
        em_baselines::MagellanLearner::LogisticRegression,
        1,
    );
    let pairs = &split.test[..6.min(split.test.len())];
    let want: Vec<f32> = Predictor::predict_scores(&magellan, &ds, pairs);

    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(30, 8);
    let tok = train_tokenizer(arch, &corpus, 200);
    let cfg = TransformerConfig::tiny(arch, em_tokenizers::Tokenizer::vocab_size(&tok));
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, 59);
    let mut hrng = StdRng::seed_from_u64(59 ^ 0x5ead);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut hrng);
    let frozen = freeze_parts(&model, &head, tok, 32);

    let cfg = ServeConfig::builder()
        .workers(1)
        .cache_capacity(0)
        .request_timeout_ms(200)
        .max_requeues(1)
        .fault(FaultPlan {
            panic_every: 1, // every batch dies: the transformer path is down
            ..FaultPlan::default()
        })
        .build()
        .unwrap();
    let matcher = ServeMatcher::start(frozen, cfg).with_fallback(Box::new(magellan));
    let got = matcher
        .try_predict_scores(&ds, pairs)
        .expect("fallback must answer when the transformer path is down");
    assert_eq!(got, want, "degraded answers come from the fallback");
    let stats = matcher.stats();
    assert_eq!(stats.degraded, pairs.len() as u64);
    assert!(stats.worker_restarts >= 1);
    assert!(stats.retries >= 1, "transient failures were retried first");
}

/// Request-lifecycle tracing: scoring through the pool populates the
/// per-stage latency histograms (queue_wait, batch_wait, forward, e2e),
/// per-worker labeled counters, and — with a zero slow-request
/// threshold — a `serve/slow_request` event per request carrying the
/// full stage breakdown.
#[test]
fn per_stage_histograms_and_slow_request_capture() {
    em_obs::set_level(em_obs::LEVEL_AGGREGATE);
    let frozen = tiny_frozen_matcher(Architecture::Bert, 21, 24);
    let mut rng = StdRng::seed_from_u64(17);
    let encodings: Vec<Encoding> = (0..12)
        .map(|_| random_encoding(&mut rng, Architecture::Bert, 24))
        .collect();
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .cache_capacity(0)
        .slow_request_threshold_ms(0) // every request is "slow": capture all
        .build()
        .unwrap();
    let matcher = ServeMatcher::start(frozen, cfg);
    let scores = matcher.score_encodings(&encodings).unwrap();
    assert_eq!(scores.len(), encodings.len());

    let n = encodings.len() as u64;
    for stage in ["serve/queue_wait", "serve/batch_wait", "serve/e2e"] {
        let h = em_obs::histogram_snapshot(stage)
            .unwrap_or_else(|| panic!("{stage} histogram missing"));
        assert!(
            h.count >= n,
            "{stage}: {} observations, want >= {n}",
            h.count
        );
        assert!(h.p50() >= 0.0 && h.p99() >= h.p50() / em_obs::GROWTH.powi(2));
    }
    let fwd = em_obs::histogram_snapshot("serve/forward").expect("forward histogram");
    assert!(fwd.count >= 1, "at least one batch was scored");
    assert!(fwd.max > 0.0, "forward pass takes nonzero time");

    // Stages telescope: queue_wait + batch_wait can never exceed e2e for
    // the same traffic (compare sums, which are exact).
    let qw = em_obs::histogram_snapshot("serve/queue_wait").unwrap();
    let bw = em_obs::histogram_snapshot("serve/batch_wait").unwrap();
    let e2e = em_obs::histogram_snapshot("serve/e2e").unwrap();
    assert!(
        qw.sum() + bw.sum() <= e2e.sum() + 1e-6,
        "queue {} + batch {} vs e2e {}",
        qw.sum(),
        bw.sum(),
        e2e.sum()
    );

    // Per-worker labeled counters cover every scored example.
    let snap = em_obs::snapshot();
    let worker_examples: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("serve/worker_examples{worker="))
        .map(|(_, v)| v)
        .sum();
    assert!(worker_examples >= n, "labeled counters: {worker_examples}");

    // Every request crossed the zero threshold and left a slow event.
    let events = em_obs::drain_events();
    let slow: Vec<_> = events
        .iter()
        .filter(|e| e.name == "serve/slow_request")
        .collect();
    assert!(slow.len() >= n as usize, "slow events: {}", slow.len());
    let fields: Vec<&str> = slow[0].fields.iter().map(|(k, _)| *k).collect();
    for key in [
        "e2e_ms",
        "queue_wait_ms",
        "batch_wait_ms",
        "forward_ms",
        "worker",
        "bucket",
        "batch_size",
    ] {
        assert!(
            fields.contains(&key),
            "slow event missing {key}: {fields:?}"
        );
    }

    // The exposition includes the per-stage histogram series.
    let text = em_obs::prometheus_text();
    assert!(text.contains("# TYPE serve_e2e histogram"), "{text}");
    assert!(text.contains("serve_e2e_bucket{le=\"+Inf\"}"));
    assert!(text.contains("serve_queue_wait_count"));
    em_obs::set_level(em_obs::LEVEL_OFF);
    em_obs::reset();
}

// ---- quantization, checkpoints, hot-swap --------------------------------

/// A unique temp path for checkpoint tests (no tempfile dependency).
fn scratch_path(name: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "em-serve-test-{}-{name}-{n}.emckpt",
        std::process::id()
    ))
}

/// Two frozen matchers over the *same* tokenizer (so they are
/// swap-compatible) but different weights (so their scores disagree).
fn swap_pair(
    arch: Architecture,
    max_len: usize,
    s1: u64,
    s2: u64,
) -> (FrozenMatcher, FrozenMatcher) {
    let corpus = em_data::generate_corpus(30, 1);
    let tok = train_tokenizer(arch, &corpus, 200);
    let (m1, h1) = tiny_model(arch, s1);
    let (m2, h2) = tiny_model(arch, s2);
    (
        freeze_parts(&m1, &h1, tok.clone(), max_len),
        freeze_parts(&m2, &h2, tok, max_len),
    )
}

/// Int8 scores must track the f32 frozen scores closely on every
/// architecture, while touching strictly fewer weight bytes.
#[test]
fn quantized_scores_track_f32() {
    for arch in Architecture::ALL {
        let frozen = tiny_frozen_matcher(arch, 11, 16);
        let mut rng = StdRng::seed_from_u64(42);
        let encs: Vec<Encoding> = (0..8)
            .map(|_| random_encoding(&mut rng, arch, 16))
            .collect();
        let want = frozen.score_encodings(&encs);
        let q = frozen.quantize(QuantMode::Int8);
        assert_eq!(q.quant(), QuantMode::Int8);
        assert!(
            q.weight_bytes() < frozen.weight_bytes(),
            "int8 must shrink the weight working set"
        );
        let got = q.score_encodings(&encs);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert!(
                (w - g).abs() < 5e-2,
                "{} int8 score {i}: f32 {w} vs quantized {g}",
                arch.name()
            );
        }
    }
}

/// A checkpoint roundtrip is score-exact in both quant modes: the loaded
/// (mmap-backed) matcher reproduces the in-memory matcher's scores bit
/// for bit, because the payload bytes are identical and the kernels are
/// deterministic.
#[test]
fn checkpoint_roundtrip_scores_exactly() {
    for arch in [Architecture::Bert, Architecture::Xlnet] {
        let frozen = tiny_frozen_matcher(arch, 7, 16);
        let mut rng = StdRng::seed_from_u64(7);
        let encs: Vec<Encoding> = (0..6)
            .map(|_| random_encoding(&mut rng, arch, 16))
            .collect();
        for mode in [QuantMode::F32, QuantMode::Int8] {
            let q = frozen.quantize(mode);
            let want = q.score_encodings(&encs);
            let path = scratch_path(&format!("roundtrip-{mode}"));
            q.save_checkpoint(&path).expect("save checkpoint");
            let loaded = FrozenMatcher::load_checkpoint(&path, q.tokenizer.clone())
                .expect("load checkpoint");
            assert_eq!(loaded.quant(), mode);
            assert_eq!(loaded.max_len, q.max_len);
            let got = loaded.score_encodings(&encs);
            assert_eq!(
                want,
                got,
                "{} {mode} checkpoint must score bit-identically",
                arch.name()
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Hot-swap under concurrent traffic: no request fails, every response is
/// consistent with exactly one model generation (never a mix), the
/// version counter advances, and the score cache is invalidated — a pair
/// cached under the old model re-scores under the new one.
#[test]
fn hot_swap_under_load_never_tears_or_fails() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let arch = Architecture::Bert;
    let max_len = 16;
    let (a, b) = swap_pair(arch, max_len, 21, 22);
    let mut rng = StdRng::seed_from_u64(5);
    let encs: Vec<Encoding> = (0..12)
        .map(|_| random_encoding(&mut rng, arch, max_len))
        .collect();
    let scores_a = a.score_encodings(&encs);
    let scores_b = b.score_encodings(&encs);
    // The generations must actually disagree on every probe, or "matches
    // exactly one version" below would be vacuous.
    for (x, y) in scores_a.iter().zip(&scores_b) {
        assert_ne!(x, y, "swap test needs distinguishable models");
    }

    let cfg = ServeConfig::builder()
        .workers(2)
        .cache_capacity(64)
        .build()
        .unwrap();
    let matcher = Arc::new(ServeMatcher::start(a, cfg));
    assert_eq!(matcher.model_version(), 1);
    assert_eq!(matcher.quant(), QuantMode::F32);

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..3usize {
        let matcher = Arc::clone(&matcher);
        let stop = Arc::clone(&stop);
        let encs = encs.clone();
        let scores_a = scores_a.clone();
        let scores_b = scores_b.clone();
        clients.push(std::thread::spawn(move || {
            let mut checked = 0u64;
            let mut i = t;
            while !stop.load(Ordering::Relaxed) {
                let k = i % encs.len();
                let s = matcher
                    .score(&encs[k])
                    .expect("request failed during hot-swap");
                assert!(
                    s == scores_a[k] || s == scores_b[k],
                    "score {s} matches neither generation (batch tear?)"
                );
                checked += 1;
                i += 1;
            }
            checked
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(60));
    let version = matcher.swap_model(b).expect("compatible swap must succeed");
    assert_eq!(version, 2);
    std::thread::sleep(std::time::Duration::from_millis(60));
    stop.store(true, Ordering::Relaxed);
    let answered: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(answered > 0, "clients never got a request through");
    assert_eq!(matcher.model_version(), 2);
    assert_eq!(matcher.stats().swaps, 1);
    // Post-swap, every probe — including ones cached under version 1 —
    // must come back with the new model's exact score.
    for (k, e) in encs.iter().enumerate() {
        assert_eq!(
            matcher.score(e).unwrap(),
            scores_b[k],
            "stale cache entry or old generation served after swap"
        );
    }
}

/// An incompatible model is refused with a typed error naming the field,
/// the version does not advance, and the old model keeps serving.
#[test]
fn incompatible_swap_is_refused_and_serving_continues() {
    let frozen = tiny_frozen_matcher(Architecture::Bert, 31, 16);
    let mut rng = StdRng::seed_from_u64(9);
    let enc = random_encoding(&mut rng, Architecture::Bert, 16);
    let want = frozen.score_encodings(std::slice::from_ref(&enc));
    let matcher = ServeMatcher::start(frozen, ServeConfig::default());

    let wrong_len = tiny_frozen_matcher(Architecture::Bert, 31, 24);
    match matcher.swap_model(wrong_len) {
        Err(SwapError::Incompatible { field, .. }) => assert_eq!(field, "max_len"),
        other => panic!("expected Incompatible(max_len), got {other:?}"),
    }
    let wrong_arch = tiny_frozen_matcher(Architecture::DistilBert, 31, 16);
    match matcher.swap_model(wrong_arch) {
        Err(SwapError::Incompatible { field, .. }) => assert_eq!(field, "arch"),
        other => panic!("expected Incompatible(arch), got {other:?}"),
    }
    assert_eq!(matcher.model_version(), 1);
    assert_eq!(matcher.stats().swaps, 0);
    assert_eq!(matcher.score(&enc).unwrap(), want[0]);
}

/// Swapping from a checkpoint file: the new weights (and their quant
/// mode) take over, and a missing/corrupt file is a typed refusal that
/// leaves the current model serving.
#[test]
fn swap_checkpoint_from_disk() {
    let (a, b) = swap_pair(Architecture::Roberta, 16, 41, 42);
    let mut rng = StdRng::seed_from_u64(13);
    let encs: Vec<Encoding> = (0..4)
        .map(|_| random_encoding(&mut rng, Architecture::Roberta, 16))
        .collect();
    let b_int8 = b.quantize(QuantMode::Int8);
    let want = b_int8.score_encodings(&encs);
    let path = scratch_path("swap");
    b_int8.save_checkpoint(&path).expect("save checkpoint");

    let matcher = ServeMatcher::start(a, ServeConfig::default());
    match matcher.swap_checkpoint(std::path::Path::new("/nonexistent/em.ckpt")) {
        Err(SwapError::Checkpoint(_)) => {}
        other => panic!("expected Checkpoint error, got {other:?}"),
    }
    assert_eq!(matcher.model_version(), 1);

    let version = matcher
        .swap_checkpoint(&path)
        .expect("swap from checkpoint");
    assert_eq!(version, 2);
    assert_eq!(matcher.quant(), QuantMode::Int8);
    for (k, e) in encs.iter().enumerate() {
        assert_eq!(matcher.score(e).unwrap(), want[k]);
    }
    let _ = std::fs::remove_file(&path);
}
