//! The serving contract, reachable from tier-1: the frozen forward
//! scores like the autograd model it was exported from — within 1e-5 in
//! f32 and within the quantization tolerance in int8 — on all four
//! architectures. The exhaustive versions live in `crates/serve/tests`.

use em_core::pipeline::train_tokenizer;
use em_nn::Ctx;
use em_serve::{freeze_parts, QuantMode};
use em_tensor::{no_grad, softmax_array};
use em_tokenizers::Encoding;
use em_transformers::{
    Architecture, Batch, ClassificationHead, TransformerConfig, TransformerModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 50;
const MAX_LEN: usize = 24;

/// A random well-formed ragged encoding: CLS at the architecture's
/// position, random segment split, no padding.
fn random_encoding(rng: &mut StdRng, arch: Architecture) -> Encoding {
    let real = rng.gen_range(3..=MAX_LEN);
    let split = rng.gen_range(1..real);
    Encoding {
        ids: (0..real).map(|_| rng.gen_range(1..VOCAB as u32)).collect(),
        segments: (0..real).map(|i| u8::from(i >= split)).collect(),
        mask: vec![1u8; real],
        cls_index: match arch {
            Architecture::Xlnet => real - 1,
            _ => 0,
        },
        pad_id: 0,
    }
}

#[test]
fn frozen_scores_match_autograd_on_every_architecture() {
    for arch in Architecture::ALL {
        let seed = 17;
        let cfg = TransformerConfig::tiny(arch, VOCAB);
        let hidden = cfg.hidden;
        let model = TransformerModel::new(cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
        let encodings: Vec<Encoding> = (0..5).map(|_| random_encoding(&mut rng, arch)).collect();

        // Autograd scores, exactly as `EmMatcher` computes them.
        let batch = Batch::from_encodings(&encodings);
        let probs = no_grad(|| {
            let mut ctx = Ctx::eval();
            let hidden = model.forward(&batch, None, None, &mut ctx);
            let pooled = model.pooled_states(&hidden, &batch);
            softmax_array(&head.forward(&pooled, &mut ctx).value())
        });
        let want: Vec<f32> = (0..encodings.len()).map(|i| probs.at(&[i, 1])).collect();

        let tok = train_tokenizer(arch, &em_data::generate_corpus(30, seed), 200);
        let frozen = freeze_parts(&model, &head, tok, MAX_LEN);
        for (matcher, tol) in [
            (frozen.clone(), 1e-5),
            (frozen.quantize(QuantMode::Int8), 5e-2),
        ] {
            let got = matcher.score_encodings(&encodings);
            assert_eq!(got.len(), want.len());
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert!(
                    (w - g).abs() < tol,
                    "{} {} score {i}: autograd {w} vs frozen {g}",
                    arch.name(),
                    matcher.quant()
                );
            }
        }
    }
}
