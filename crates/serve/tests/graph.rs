//! Forward equivalence tests: the traced/planned/replayed frozen
//! forward must reproduce the autograd logits to 1e-5 across all four
//! architectures (including XLNet's relative position bias), and a plan
//! replayed under any condition — partial fill inside a larger planned
//! envelope, swapped weights, int8 weights — must score like a fresh
//! executor planning for exactly that batch.

use em_core::train_tokenizer;
use em_nn::Ctx;
use em_serve::{
    freeze_parts, ExecBackend, Executor, FrozenMatcher, QuantMode, ServeConfig, ServeMatcher,
};
use em_tensor::no_grad;
use em_tokenizers::Encoding;
use em_transformers::{
    Architecture, Batch, ClassificationHead, TransformerConfig, TransformerModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// architecture's position, random segment split.
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

/// A random encoding with an exact real length, so batches of them share
/// one sequence length (and therefore one plan key).
fn fixed_len_encoding(rng: &mut StdRng, arch: Architecture, len: usize) -> Encoding {
    loop {
        let e = random_encoding(rng, arch, len);
        if e.ids.len() == len {
            return e;
        }
    }
}

fn tiny_frozen_matcher(arch: Architecture, seed: u64, max_len: usize) -> FrozenMatcher {
    let (model, head) = tiny_model(arch, seed);
    let corpus = em_data::generate_corpus(30, seed);
    let tok = train_tokenizer(arch, &corpus, 200);
    freeze_parts(&model, &head, tok, max_len)
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

const MAX_LEN: usize = 24;

/// Frozen logits vs autograd within 1e-5 on a random ragged batch.
fn assert_graph_matches_autograd(arch: Architecture, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(47).wrapping_add(13));
    let encodings: Vec<Encoding> = (0..4)
        .map(|_| random_encoding(&mut rng, arch, MAX_LEN))
        .collect();
    assert_logits_match_autograd(arch, seed, &encodings);
}

/// Frozen logits vs autograd within 1e-5 on `encodings` as one batch.
fn assert_logits_match_autograd(arch: Architecture, seed: u64, encodings: &[Encoding]) {
    let (model, head) = tiny_model(arch, seed);
    let corpus = em_data::generate_corpus(30, seed);
    let tok = train_tokenizer(arch, &corpus, 200);
    let matcher = freeze_parts(&model, &head, tok, MAX_LEN);
    let batch = Batch::from_encodings(encodings);
    let want = autograd_logits(&model, &head, &batch);
    let mut exec = Executor::new(ExecBackend::Graph);
    let got = exec.logits(&matcher, &batch);
    assert_eq!(want.data().len(), got.len());
    for (i, (w, g)) in want.data().iter().zip(got).enumerate() {
        assert!(
            (w - g).abs() < 1e-5,
            "{} logit {i}: autograd {w} vs graph {g}",
            arch.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn graph_matches_autograd_bert(seed in 0u64..10_000) {
        assert_graph_matches_autograd(Architecture::Bert, seed);
    }

    #[test]
    fn graph_matches_autograd_xlnet(seed in 0u64..10_000) {
        assert_graph_matches_autograd(Architecture::Xlnet, seed);
        // XLNet's CLS is the last real token, so in a batch of four
        // different lengths the score-only last layer reads a different
        // row — and a different row of the relative bias — per example.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc15);
        let ragged: Vec<Encoding> = [5, MAX_LEN, 11, 17]
            .iter()
            .map(|&len| fixed_len_encoding(&mut rng, Architecture::Xlnet, len))
            .collect();
        let cls: Vec<usize> = ragged.iter().map(|e| e.cls_index).collect();
        prop_assert_eq!(cls, vec![4, MAX_LEN - 1, 10, 16]);
        assert_logits_match_autograd(Architecture::Xlnet, seed, &ragged);
    }

    #[test]
    fn graph_matches_autograd_roberta(seed in 0u64..10_000) {
        assert_graph_matches_autograd(Architecture::Roberta, seed);
    }

    #[test]
    fn graph_matches_autograd_distilbert(seed in 0u64..10_000) {
        assert_graph_matches_autograd(Architecture::DistilBert, seed);
    }
}

/// Scores from a fresh executor that plans for exactly this batch (no
/// capacity hint, empty plan cache).
fn fresh_scores(matcher: &FrozenMatcher, encodings: &[Encoding]) -> Vec<f32> {
    Executor::new(ExecBackend::Graph).score_encodings(matcher, encodings)
}

/// One plan per (geometry, capacity envelope): batches of every fill
/// level 1..=cap replay the envelope plan, so only the very first batch
/// is a cache miss, and each partial fill scores exactly like a fresh
/// un-hinted executor — in both weight representations, with int8
/// staying within the tolerance `serve.rs` holds it to against f32.
#[test]
fn plan_cache_hits_across_fill_levels() {
    let arch = Architecture::Bert;
    let matcher = tiny_frozen_matcher(arch, 33, 16);
    let mut rng = StdRng::seed_from_u64(123);
    let cap = 6;
    let encodings: Vec<Encoding> = (0..cap)
        .map(|_| fixed_len_encoding(&mut rng, arch, 12))
        .collect();
    let f32_scores = fresh_scores(&matcher, &encodings);
    for (mode, tol) in [(QuantMode::F32, 0.0), (QuantMode::Int8, 5e-2)] {
        let q = matcher.quantize(mode);
        let mut exec = Executor::new(ExecBackend::Graph);
        exec.set_batch_capacity(cap);
        for fill in 1..=cap {
            let slice = &encodings[..fill];
            let got = exec.score_encodings(&q, slice);
            assert_eq!(got, fresh_scores(&q, slice), "{mode} fill {fill}");
            for (w, g) in f32_scores.iter().zip(&got) {
                assert!((w - g).abs() <= tol, "{mode} fill {fill}: f32 {w} vs {g}");
            }
        }
        let (hits, misses) = exec.take_plan_counts();
        assert_eq!(misses, 1, "one planning pass for the capacity envelope");
        assert_eq!(hits, cap as u64 - 1, "every later fill level replays it");
    }
}

/// A hot swap that preserves geometry must keep serving correct scores
/// through the same executor: plans carry no weights, so the new model
/// binds into the cached schedule without replanning.
#[test]
fn cached_plan_survives_a_weight_swap() {
    let arch = Architecture::Roberta;
    let a = tiny_frozen_matcher(arch, 1, 16);
    let b = tiny_frozen_matcher(arch, 2, 16);
    let mut rng = StdRng::seed_from_u64(9);
    let encodings: Vec<Encoding> = (0..3)
        .map(|_| fixed_len_encoding(&mut rng, arch, 10))
        .collect();
    let mut exec = Executor::new(ExecBackend::Graph);
    let got_a = exec.score_encodings(&a, &encodings);
    let got_b = exec.score_encodings(&b, &encodings);
    assert_eq!(got_a, fresh_scores(&a, &encodings));
    assert_eq!(got_b, fresh_scores(&b, &encodings));
    let (hits, misses) = exec.take_plan_counts();
    assert_eq!((hits, misses), (1, 1), "the swap re-used the cached plan");
}

/// Served scores equal direct scoring (batching is invisible in the
/// bits), and the plan-cache counters surface in `ServeStats`: the
/// worker plans at least once and replays thereafter, one plan-cache
/// probe per scored batch.
#[test]
fn served_scores_report_plan_cache() {
    let matcher = tiny_frozen_matcher(Architecture::Bert, 55, 16);
    let mut rng = StdRng::seed_from_u64(4242);
    let encodings: Vec<Encoding> = (0..8)
        .map(|_| fixed_len_encoding(&mut rng, Architecture::Bert, 12))
        .collect();
    let cfg = ServeConfig::builder()
        .workers(1)
        .max_batch(4)
        .cache_capacity(0)
        .build()
        .unwrap();
    let want = fresh_scores(&matcher, &encodings);
    let serve = ServeMatcher::start(matcher, cfg);
    // Two rounds: the first plans (≥1 miss), the second replays (hits).
    let g1 = serve.score_encodings(&encodings).unwrap();
    let g2 = serve.score_encodings(&encodings).unwrap();
    assert_eq!(g1, want);
    assert_eq!(g2, want);
    let gs = serve.stats();
    assert!(gs.plan_cache_misses >= 1, "first batch must plan");
    assert!(gs.plan_cache_hits >= 1, "steady state must replay");
    assert_eq!(
        gs.plan_cache_hits + gs.plan_cache_misses,
        gs.batches,
        "one plan-cache probe per scored batch"
    );
    let rate = gs.plan_cache_hit_rate();
    assert!(rate > 0.0 && rate <= 1.0, "hit rate {rate} out of range");
}
