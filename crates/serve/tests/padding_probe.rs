//! Manual timing probe: the frozen forward's per-op cost on padded
//! against unpadded batches.
//!
//! ```text
//! EM_THREADS=1 cargo test --release -q -p em-serve --test padding_probe \
//!     -- --ignored --nocapture
//! ```
//!
//! Serving pads every batch to a multiple of 8 and to its longest
//! example, so real traffic carries masked keys; a synthetic encoding of
//! exactly 40 tokens carries none. The probe prints, per weight
//! representation and batch size, the mean µs per forward of every
//! `graph/op/<kind>` histogram (recorded at `EM_OBS=2`) for both shapes.
//! It asserts nothing about time.

use em_core::train_tokenizer;
use em_serve::{freeze_parts, ExecBackend, Executor, FrozenMatcher, QuantMode};
use em_tokenizers::{Encoding, Tokenizer};
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The serving bench geometry: BERT, d 256, inner 1024, 4 layers,
/// 4 heads, inputs up to 64 tokens, seeded random weights.
fn bench_matcher() -> FrozenMatcher {
    let corpus = em_data::generate_corpus(200, 7);
    let tok = train_tokenizer(Architecture::Bert, &corpus, 600);
    let mut cfg = TransformerConfig::small(Architecture::Bert, tok.vocab_size());
    cfg.hidden = 256;
    cfg.inner = 1024;
    cfg.layers = 4;
    cfg.heads = 4;
    cfg.max_position = cfg.max_position.max(64);
    let model = TransformerModel::new(cfg, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let head = ClassificationHead::new(256, 0.1, 0.02, &mut rng);
    freeze_parts(&model, &head, tok, 64)
}

/// An encoding of `len` real tokens and no padding; the batch pads it.
fn encoding(rng: &mut StdRng, len: usize, vocab: usize) -> Encoding {
    let split = rng.gen_range(1..len);
    Encoding {
        ids: (0..len).map(|_| rng.gen_range(1..vocab as u32)).collect(),
        segments: (0..len).map(|i| u8::from(i >= split)).collect(),
        mask: vec![1u8; len],
        cls_index: 0,
        pad_id: 0,
    }
}

/// Mean µs per forward of each op kind over `reps` forwards of the
/// batches `batch(r)` yields, after an untimed forward of each distinct
/// batch; sorted by op name.
fn per_op_us(
    matcher: &FrozenMatcher,
    reps: usize,
    batch: impl Fn(usize) -> Vec<Encoding>,
) -> Vec<(String, f64)> {
    let mut exec = Executor::new(ExecBackend::Graph);
    for r in 0..reps.min(7) {
        exec.score_encodings(matcher, &batch(r));
    }
    let before = em_obs::snapshot();
    for r in 0..reps {
        exec.score_encodings(matcher, &batch(r));
    }
    let delta = em_obs::snapshot().delta_since(&before);
    delta
        .histograms
        .into_iter()
        .filter(|(_, h)| h.count > 0)
        .filter_map(|(name, h)| {
            let op = name.strip_prefix("graph/op/")?;
            Some((op.to_string(), h.sum() * 1e6 / reps as f64))
        })
        .collect()
}

#[test]
#[ignore = "manual timing probe"]
fn padded_vs_unpadded_op_timing() {
    em_obs::set_level(em_obs::LEVEL_EVENTS);
    let f32_matcher = bench_matcher();
    let vocab = f32_matcher.tokenizer.vocab_size();
    let int8_matcher = f32_matcher.quantize(QuantMode::Int8);
    let seq = 40;
    for (name, matcher) in [("f32", &f32_matcher), ("int8", &int8_matcher)] {
        for b in [1, 5, 51] {
            let mut rng = StdRng::seed_from_u64(b as u64);
            let unpadded: Vec<Encoding> = (0..b).map(|_| encoding(&mut rng, seq, vocab)).collect();
            // Example `i` of forward `r` is 1–7 tokens short of `seq`, so
            // its batch pads it back to `seq` with that many masked keys.
            let short: Vec<Vec<Encoding>> = (0..7)
                .map(|s| {
                    (0..b)
                        .map(|i| encoding(&mut rng, seq - 1 - (i + s) % 7, vocab))
                        .collect()
                })
                .collect();
            let reps = (400 / b).max(8);
            let plain = per_op_us(matcher, reps, |_| unpadded.clone());
            let padded = per_op_us(matcher, reps, |r| short[r % 7].clone());
            eprintln!("{name} {b}x{seq}: µs per forward, unpadded / padded (1-7 pad keys)");
            // Both shapes replay the same plan, so they time the same ops.
            for ((op, u), (_, p)) in plain.iter().zip(&padded) {
                eprintln!("  {op:<14} {u:>10.1} {p:>10.1}");
            }
            let total = |v: &[(String, f64)]| v.iter().map(|(_, us)| us).sum::<f64>();
            eprintln!(
                "  {:<14} {:>10.1} {:>10.1}",
                "sum",
                total(&plain),
                total(&padded)
            );
        }
    }
}
